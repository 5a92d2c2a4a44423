"""The generator: golden traces, one-step extension, and checker agreement."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given

from colorvisit.corpus import (
    TreeGenParams,
    chain_tree,
    complete_tree,
    random_coloring,
    random_tree,
)
from colorvisit.dsl import dsl_coloring
from colorvisit.erdos import build_erdos
from colorvisit.export import visit_trace_pieces
from colorvisit.oracles import (
    all_visits,
    check_visit,
    is_complete_for,
    restricted_nodes,
    visit_by_definition,
    visit_trace,
    visit_words,
)
from colorvisit.suites import tree_corpus
from colorvisit.trees import full_tree, validate_tree
from colorvisit.visit import (
    Visit,
    VisitError,
    enumerate_visit,
    lex_order,
    visit_nodes,
)
from colorvisit.words import InvalidPriority

from conftest import PredicateTree, ProbeLog, dumps_canonical, st_visits

GOLDEN = ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))


def test_golden_trace_binary_depth2(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit_words(visit) == GOLDEN
    assert visit.terminated is True


def test_golden_parents(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit.parent == (-1, 0, 1, 0, 3, 3, 1)


@given(visit=st_visits())
def test_parent_is_the_index_of_the_one_letter_prefix(visit):
    order = visit_words(visit)
    assert len(visit.parent) == len(order)
    assert visit.parent[0] == -1
    for i in range(1, len(order)):
        assert visit.parent[i] == order.index(order[i][:-1])


@given(visit=st_visits())
def test_trace_json_matches_the_reference_dict(visit):
    assert "".join(visit_trace_pieces(visit)) == dumps_canonical(visit_trace(visit))


def test_trace_json_matches_the_reference_on_oracle_trees():
    for tree, priority, root, budget in (
        (full_tree(2), (0, 1), (), 40),
        (full_tree(3), (2, 0), (1, 2), 25),
        (full_tree(1), (0,), (0, 0), 12),
        (full_tree(1), (), (), 5),
    ):
        visit = enumerate_visit(tree, priority, root, budget)
        assert "".join(visit_trace_pieces(visit)) == dumps_canonical(visit_trace(visit))


def test_golden_trace_unary_budget():
    visit = enumerate_visit(full_tree(1), (0,), (), budget=5)
    assert visit_words(visit) == ((), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0))
    assert visit.terminated is False


def test_root_only_tree_terminates():
    tree = validate_tree([()], 2)
    visit = enumerate_visit(tree, (0,), (), budget=10)
    assert visit_words(visit) == ((),)
    assert visit.terminated is True


def test_empty_priority_enumerates_just_the_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (), (), budget=10)
    assert visit_words(visit) == ((),)
    assert visit.terminated is True


def test_visit_from_inner_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (1,), budget=100)
    order = visit_words(visit)
    assert order[0] == (1,)
    assert visit.terminated is True
    assert set(order) == {(1,), (1, 0), (1, 1)}


def test_infinite_binary_style_prefers_high_color():
    visit = enumerate_visit(full_tree(2), (0, 1), (), budget=6)
    # the inner visit for color 1 never finishes, so color 0 never starts
    assert visit_words(visit) == (
        (), (1,), (1, 1), (1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert visit.terminated is False


def test_enumerate_argument_validation(binary_depth2):
    with pytest.raises(VisitError):
        enumerate_visit(binary_depth2, (0, 1), (), budget=0)
    with pytest.raises(VisitError, match="is not in the tree"):
        enumerate_visit(binary_depth2, (0, 1), (0, 0, 0), budget=5)
    with pytest.raises(InvalidPriority):
        enumerate_visit(binary_depth2, (0, 0), (), budget=5)


def test_enumerate_is_deterministic(binary_depth2):
    a = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    b = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit_words(a) == visit_words(b) and a.terminated == b.terminated


def test_budget_cuts_exactly(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=3)
    assert visit_words(visit) == GOLDEN[:3]
    assert visit.terminated is False


def test_completion_at_exactly_the_budget_is_not_terminated():
    # completion counts only when it is seen with fewer than budget entries
    root_only = validate_tree([()], 2)
    assert enumerate_visit(root_only, (0,), (), budget=1).terminated is False
    assert enumerate_visit(root_only, (0,), (), budget=2).terminated is True
    tree = complete_tree(2, 2)
    assert len(tree.nodes) == 7
    cut = enumerate_visit(tree, (0, 1), (), budget=7)
    assert visit_words(cut) == GOLDEN and cut.terminated is False
    done = enumerate_visit(tree, (0, 1), (), budget=8)
    assert visit_words(done) == GOLDEN and done.terminated is True


@given(visit=st_visits())
def test_lex_order_sorts_by_words(visit):
    # from every horizon-stable index on, the entries are its descendants
    order = visit_words(visit)
    letter = [-1] + [w[-1] for w in order[1:]]
    for m in visit.stable():
        assert lex_order(visit.parent, letter, m) == sorted(
            range(m, len(order)), key=order.__getitem__
        )


@given(visit=st_visits())
def test_lex_order_of_the_head_and_its_child(visit):
    # the segments of one or two entries, which are in index order
    order = visit_words(visit)
    letter = [-1] + [w[-1] for w in order[1:]]
    last = len(order) - 1
    heads = [last] + ([last - 1] if visit.parent[last] == last - 1 else [])
    for m in heads:
        assert lex_order(visit.parent, letter, m) == sorted(
            range(m, len(order)), key=order.__getitem__
        ) == list(range(m, len(order)))


def test_a_head_and_two_children_expand_in_word_order():
    # the 2-child is emitted before the 1-child, but their 0-children come
    # in word order: a segment of the head and two entries is sorted
    tree = validate_tree([(), (2,), (1,), (1, 0), (2, 0)], 3)
    visit = enumerate_visit(tree, (0, 1, 2), (), budget=100)
    assert visit_words(visit) == ((), (2,), (1,), (1, 0), (2, 0))
    assert visit_words(visit) == max(all_visits(tree, (0, 1, 2), ()), key=len)
    assert lex_order(visit.parent[:3], visit.letter[:3], 0) == [0, 2, 1]


def test_chain_visit_matches_depth():
    tree = chain_tree(2, 1, 10)
    visit = enumerate_visit(tree, (0, 1), (), budget=50)
    assert visit.terminated
    assert visit_words(visit) == tuple((1,) * i for i in range(11))


def test_every_enumeration_prefix_passes_the_checker():
    rng = random.Random(2024)
    for _ in range(25):
        k = rng.choice([1, 2, 3])
        tree = random_tree(
            TreeGenParams(
                k=k,
                max_depth=rng.randint(1, 4),
                max_nodes=rng.randint(1, 15),
                branching=rng.uniform(0.3, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        visit = enumerate_visit(tree, priority, (), budget=len(tree.nodes) + 1)
        assert visit.terminated
        order = visit_words(visit)
        for i in range(1, len(order) + 1):
            assert check_visit(tree, order[:i], priority, ())


def test_terminated_visit_covers_restricted_subtree():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.choice([2, 3, 4])
        tree = random_tree(
            TreeGenParams(
                k=k,
                max_depth=4,
                max_nodes=30,
                branching=rng.uniform(0.3, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        visit = enumerate_visit(tree, priority, (), budget=len(tree.nodes) + 1)
        assert visit.terminated
        order = visit_words(visit)
        assert is_complete_for(tree, order, priority)
        assert frozenset(order) == restricted_nodes(tree, priority, ())


def test_generator_run_is_maximum_of_all_accepted_lists(binary_depth1):
    accepted = all_visits(binary_depth1, (0, 1), ())
    run = enumerate_visit(binary_depth1, (0, 1), (), budget=10)
    assert max(accepted, key=len) == visit_words(run)


def test_deep_chain_does_not_hit_recursion_limits():
    # entry i is the word (0,) * i: spelling them would hold 12.5M letters
    visit = enumerate_visit(full_tree(1), (0,), (), budget=5000)
    assert len(visit.parent) == 5000
    assert visit.root == ()
    assert all(visit.parent[i] == i - 1 for i in range(1, 5000))
    assert visit.letter[1:] == (0,) * 4999


def test_full_tree_visits_like_its_word_oracle():
    cases = []
    for k in (1, 2, 3):
        cases.append((full_tree(k), PredicateTree(
            k=k, membership=lambda w, k=k: all(0 <= c < k for c in w))))
    runs = 0
    for fast, oracle in cases:
        k = fast.k
        priorities = [p for n in range(k + 1)
                      for p in itertools.permutations(range(k), n)]
        for priority in priorities:
            for root in ((), (k - 1,), (0, k - 1, 0)):
                for budget in (1, 2, 9, 60):
                    a = enumerate_visit(fast, priority, root, budget)
                    b = enumerate_visit(oracle, priority, root, budget)
                    assert (a.parent, a.letter, a.terminated) == (
                        b.parent, b.letter, b.terminated)
                    assert visit_words(a) == visit_words(b)
                    assert "".join(visit_trace_pieces(a)) == "".join(
                        visit_trace_pieces(b))
                    runs += 1
    assert runs == 3 * 4 * (2 + 5 + 16)


def test_full_tree_visit_memory_is_linear():
    # at depth n a word per entry would hold n²/2 letters: about 65 MB here
    tracemalloc.start()
    try:
        visit = enumerate_visit(full_tree(2), (0, 1), (), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(visit.parent) == 4000 and visit.letter[1:] == (1,) * 3999
    assert peak < 5 * 2**20


def probed_visit(tree, priority, head, budget):
    """The outputs of ``visit_nodes`` and its child steps, in order."""
    log = ProbeLog(tree)
    return visit_nodes(log, priority, head, budget), log.probes


def probe_cases():
    """(tree, priority, head, budget) of corpus trees, full trees and
    comparison trees; the budget of a finite tree lets its visit finish."""
    for tree, priority in tree_corpus(5, 120):
        yield tree, priority, (), len(tree.nodes) + 1
    for k in (1, 2, 3):
        for priority in itertools.permutations(range(k)):
            yield full_tree(k), priority, 0, 60
    colorings = [random_coloring(seed, k, 40) for seed, k in ((1, 2), (2, 3), (3, 4))]
    colorings.append(dsl_coloring("((x * 7 + y) * (y * 5 + x) + 3) % 11", 3))
    for coloring in colorings:
        tree = build_erdos(coloring, 40)
        for priority in itertools.permutations(range(coloring.k)):
            yield tree, priority, 0, 41


def test_visit_probes_each_node_once_per_priority_color():
    # in a terminated visit every entry is probed in every priority color,
    # once: the floor, and no more
    terminated = 0
    for tree, priority, head, budget in probe_cases():
        (nodes, parent, _, done), probes = probed_visit(tree, priority, head, budget)
        if done:
            terminated += 1
            assert len(set(probes)) == len(probes) == len(parent) * len(priority)
            assert set(probes) == {(v, c) for v in nodes for c in priority}
    assert terminated > 100


def test_budget_cut_visits_are_prefixes_of_the_full_run():
    # a visit cut at budget b emits the first b entries of the full run and
    # makes the first of its probes; the step after an emission probes the
    # new entry, so a run that probes nothing after its last emission never
    # probes that entry (the entries' nodes are distinct in every case)
    runs = 0
    for tree, priority, head, budget in probe_cases():
        (nodes, parent, letter, _), probes = probed_visit(tree, priority, head, budget)
        assert len(set(nodes)) == len(nodes)
        for b in range(1, len(parent) + 1):
            (n, p, l, done), cut = probed_visit(tree, priority, head, b)
            assert (n, p, l) == (nodes[:b], parent[:b], letter[:b])
            assert done is False
            assert cut == probes[:len(cut)]
            assert all(v != n[-1] for v, _ in cut)
            runs += 1
    assert runs > 1000


def test_id_steps_visit_the_hash_tree_like_its_words():
    # the homog-hash benchmark's shape: a shallow bushy comparison tree, its
    # words spelled by the definition of the visit
    coloring = dsl_coloring("((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521", 3)
    tree = build_erdos(coloring, 2000)
    for priority in itertools.permutations(range(3)):
        (_, parent, letter, done), probes = probed_visit(tree, priority, 0, 2001)
        visit = Visit(3, (), priority, done, tuple(parent), tuple(letter))
        assert visit_words(visit) == visit_by_definition(tree, priority)
        assert done and len(probes) == len(parent) * 3
