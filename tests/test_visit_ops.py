"""Completeness predicates, expansions, and the declarative checker."""

import itertools

from colorvisit.oracles import (
    check_visit,
    is_complete_for,
    nth_expansion,
)
from colorvisit.trees import validate_tree

from conftest import CountingTree

GOLDEN = ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))


def test_color_complete_examples(binary_depth2):
    entries = [(), (1,), (1, 1)]
    assert is_complete_for(binary_depth2, entries, (1,)) is True
    # the root has the 0-child (0,), which is missing from the list
    assert is_complete_for(binary_depth2, entries, (0,)) is False
    assert is_complete_for(binary_depth2, [], (0,)) is True


def test_color_complete_probe_count():
    tree = CountingTree(validate_tree(GOLDEN, 2))
    entries = [(), (1,), (1, 1)]
    assert is_complete_for(tree, entries, (1,)) is True
    assert tree.probes == len(entries)
    tree.probes = 0
    assert is_complete_for(tree, GOLDEN, (0, 1)) is True
    assert tree.probes == len(GOLDEN) * 2
    # color 1 probes every entry, color 0 stops at the root's missing child
    tree.probes = 0
    assert is_complete_for(tree, entries, (1, 0)) is False
    assert tree.probes == len(entries) + 1 < len(entries) * 2


def test_complete_for_examples(binary_depth1, binary_depth2):
    assert is_complete_for(binary_depth1, [(), (0,), (1,)], (0, 1)) is True
    # (1,) is a leaf at depth 1, so the pair is vacuously 1-complete
    assert is_complete_for(binary_depth1, [(), (1,)], (1,)) is True
    assert is_complete_for(binary_depth2, [(), (1,)], ()) is True
    assert is_complete_for(binary_depth2, [(), (1,)], (1,)) is False


def test_nth_expansion_examples():
    t1 = validate_tree([(), (0,), (1,)], 2)
    assert nth_expansion(t1, [()], 0, 0) == (0,)
    t2 = validate_tree([(), (0,), (1,), (1, 0)], 2)
    assert nth_expansion(t2, [(), (1,)], 1, 0) == (1, 0)
    # the bases are taken in lexicographic order, not as given
    assert nth_expansion(t2, [(1,), ()], 1, 0) == (1, 0)
    t3 = validate_tree([(), (1,)], 2)
    assert nth_expansion(t3, [(), (1,)], 0, 0) is None
    assert nth_expansion(t3, [(), (1,)], -1, 0) is None


def test_nth_expansion_probe_bound():
    tree = CountingTree(validate_tree(GOLDEN, 2))
    bases = [(), (1,), (1, 1), (0,)]
    nth_expansion(tree, bases, 1, 0)
    assert tree.probes <= len(bases)


def test_check_visit_base_case(binary_depth2):
    assert check_visit(binary_depth2, [()], (), ()) is True
    assert check_visit(binary_depth2, [(1,)], (), (1,)) is True
    assert check_visit(binary_depth2, [(1,)], (), ()) is False


def test_check_visit_accepts_golden_and_all_prefixes(binary_depth2):
    for i in range(1, len(GOLDEN) + 1):
        assert check_visit(binary_depth2, GOLDEN[:i], (0, 1), ()) is True


def test_check_visit_rejects_premature_expansion(binary_depth2):
    # expanding color 0 before the inner visit for color 1 is complete
    assert check_visit(binary_depth2, [(), (0,)], (0, 1), ()) is False


def test_check_visit_rejects_malformed(binary_depth2):
    assert check_visit(binary_depth2, [], (0, 1), ()) is False
    assert check_visit(binary_depth2, [(), ()], (0, 1), ()) is False
    assert check_visit(binary_depth2, [(), (0, 0, 0)], (0, 1), ()) is False
    assert check_visit(binary_depth2, [()], (0, 0), ()) is False
    assert check_visit(binary_depth2, [()], (5,), ()) is False


def test_check_visit_rejects_non_prefix_reorderings(binary_depth2):
    seen = set(GOLDEN)
    for perm in itertools.permutations(GOLDEN[:4]):
        expected = perm == GOLDEN[:4]
        assert check_visit(binary_depth2, perm, (0, 1), ()) is expected
        assert set(perm) <= seen
