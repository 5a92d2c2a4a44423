"""The brute-force side: exhaustive visit search, generators, agreement."""

import gc
import itertools
import random

import pytest
from hypothesis import given

from colorvisit import suites
from colorvisit.colorings import ColoringError
from colorvisit.corpus import (
    TreeGenParams,
    chain_tree,
    complete_tree,
    random_coloring,
    random_tree,
    star_tree,
)
from colorvisit.oracles import (
    ALL_VISITS_NODE_CAP,
    all_visits,
    check_visit,
    visit_by_definition,
    visit_words,
)
from colorvisit.suites import tree_corpus
from colorvisit.trees import FiniteColorTree, TreeError, validate_tree
from colorvisit.visit import enumerate_visit
from conftest import first_appearance_groups, st_visit_cases


def test_all_visits_root_only():
    tree = validate_tree([()], 1)
    assert all_visits(tree, (0,), ()) == [((),)]


def test_all_visits_chain():
    tree = validate_tree([(), (0,)], 1)
    assert all_visits(tree, (0,), ()) == [((),), ((), (0,))]


def test_all_visits_depth1_binary_is_a_prefix_chain(binary_depth1):
    accepted = all_visits(binary_depth1, (0, 1), ())
    # color 1 is visited first (0 has lowest priority), giving the chain
    # [<>] < [<>,<1>] < [<>,<1>,<0>]; the maximum is the complete visit
    assert accepted == [((),), ((), (1,)), ((), (1,), (0,))]
    for a, b in itertools.combinations(accepted, 2):
        shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
        assert longer[: len(shorter)] == shorter


def test_all_visits_respects_cap():
    tree = complete_tree(2, 5)
    assert len(tree.nodes) > ALL_VISITS_NODE_CAP
    with pytest.raises(TreeError, match=f"at {ALL_VISITS_NODE_CAP} nodes, got 63$"):
        all_visits(tree, (0, 1), ())


def test_all_visits_equals_permutation_filter_on_tiny_trees():
    rng = random.Random(31)
    for _ in range(15):
        k = rng.choice([1, 2])
        tree = random_tree(
            TreeGenParams(
                k=k,
                max_depth=3,
                max_nodes=5,
                branching=rng.uniform(0.3, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        nodes = sorted(tree.nodes)
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        brute = {
            perm
            for r in range(1, len(nodes) + 1)
            for perm in itertools.permutations(nodes, r)
            if check_visit(tree, perm, priority, ())
        }
        assert brute == set(all_visits(tree, priority, ()))


def grown_by_check_visit(tree, priority, root):
    """The accepted lists grown one node at a time, each candidate decided
    by its own ``check_visit`` call."""
    frontier = [(root,)] if check_visit(tree, (root,), priority, root) else []
    found = []
    while frontier:
        current = frontier.pop(0)
        found.append(current)
        frontier.extend(
            current + (node,)
            for node in sorted(tree.nodes)
            if node not in current
            and check_visit(tree, current + (node,), priority, root)
        )
    return found


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_all_visits_equals_growth_by_check_visit(seed):
    grown = 0
    for tree, priority in tree_corpus(seed, 120):
        if len(tree.nodes) <= 12:
            assert all_visits(tree, priority, ()) == grown_by_check_visit(
                tree, priority, ()), (priority, sorted(tree.nodes))
            grown += 1
    assert grown > 50


@pytest.mark.parametrize("seed", [0, 3])
def test_visit_by_definition_is_the_longest_accepted_list(seed):
    compared = 0
    for tree, priority in tree_corpus(seed, 120):
        if len(tree.nodes) <= 12:
            assert visit_by_definition(tree, priority) == all_visits(
                tree, priority)[-1], (priority, sorted(tree.nodes))
            compared += 1
    assert compared > 50


@given(case=st_visit_cases())
def test_visit_by_definition_equals_the_generator(case):
    tree, priority, root, budget = case
    visit = enumerate_visit(tree, priority, root, budget)
    reference = visit_by_definition(tree, priority, root, budget)
    assert visit_words(visit) == reference
    # the generator sees completion only with fewer than budget entries
    assert visit.terminated == (len(reference) < budget)


def test_all_visits_rejects_a_bad_priority_or_root(binary_depth1):
    for priority, root in (((0, 0), ()), ((2,), ()), ((0, 1), (0, 0)), ((1,), (5,))):
        assert grown_by_check_visit(binary_depth1, priority, root) == []
        assert all_visits(binary_depth1, priority, root) == []
    # a root inside the tree starts its own search
    assert all_visits(binary_depth1, (0, 1), (1,)) == [((1,),)]


def test_random_tree_examples():
    assert random_tree(TreeGenParams(k=2, max_depth=3, max_nodes=1, seed=0)).nodes \
        == frozenset({()})
    forced = random_tree(
        TreeGenParams(k=2, max_depth=2, max_nodes=100, branching=1.0, seed=5)
    )
    assert forced == complete_tree(2, 2)
    a = random_tree(TreeGenParams(k=3, max_depth=4, max_nodes=20, seed=11))
    b = random_tree(TreeGenParams(k=3, max_depth=4, max_nodes=20, seed=11))
    assert a == b


def random_tree_by_queue(params):
    """``corpus.random_tree`` as it was written with a node set beside a
    queue popped from the front, copied unchanged."""
    rng = random.Random(params.seed)
    nodes = {()}
    queue = [()]
    while queue and len(nodes) < params.max_nodes:
        node = queue.pop(0)
        if len(node) >= params.max_depth:
            continue
        for c in range(params.k):
            if len(nodes) >= params.max_nodes:
                break
            if rng.random() < params.branching:
                child = node + (c,)
                nodes.add(child)
                queue.append(child)
    return FiniteColorTree(k=params.k, nodes=frozenset(nodes))


@pytest.mark.parametrize("seed", [0, 3, 5, 9])
def test_random_tree_grows_as_the_queue_did(seed, monkeypatch):
    # every random tree the corpus draws, from the parameters it draws
    drawn = []

    def recorded(params):
        drawn.append(params)
        return random_tree(params)

    monkeypatch.setattr(suites, "random_tree", recorded)
    for _ in tree_corpus(seed, 200):
        pass
    assert len(drawn) > 100
    for params in drawn:
        assert random_tree(params) == random_tree_by_queue(params), params


def test_degenerate_shapes():
    assert chain_tree(3, 2, 2).nodes == frozenset({(), (2,), (2, 2)})
    assert star_tree(2).nodes == frozenset({(), (0,), (1,)})
    assert len(complete_tree(2, 2).nodes) == 7


def test_random_coloring_small_and_deterministic():
    tiny = random_coloring(3, 2, 2)
    assert tiny(0, 1) in (0, 1)
    assert random_coloring(7, 3, 10).name == random_coloring(7, 3, 10).name
    a = random_coloring(7, 3, 10)
    b = random_coloring(7, 3, 10)
    pairs = [(x, y) for x in range(10) for y in range(x + 1, 10)]
    assert len(pairs) == 45
    assert all(a(x, y) == b(x, y) and 0 <= a(x, y) < 3 for x, y in pairs)
    with pytest.raises(ColoringError, match=r"no entry for pair \(0, 10\)$"):
        a(0, 10)
    with pytest.raises(ValueError):
        random_coloring(0, 1, 5)


STREAM_KS = (2, 3, 4, 5, 128, 255, 256, 300)
STREAM_SIZES = (2, 3, 17, 64, 120)


@pytest.mark.parametrize("seed", range(0, 100, 20))
def test_random_coloring_keeps_the_randrange_stream(seed):
    # suite counterexamples name their table as random(seed=...): the same
    # name must rebuild the same colors, one randrange(k) per pair, x-major
    for s in range(seed, seed + 20):
        k = STREAM_KS[s % len(STREAM_KS)]
        size = STREAM_SIZES[s // len(STREAM_KS) % len(STREAM_SIZES)]
        coloring = random_coloring(s, k, size)
        assert coloring.name == f"random(seed={s},k={k},size={size})"
        assert coloring.k == k
        rng = random.Random(s)
        expected = [
            ((x, y), rng.randrange(k)) for x in range(size) for y in range(x + 1, size)
        ]
        assert [((x, y), coloring(x, y)) for (x, y), _ in expected] == expected
        assert all(coloring(y, x) == c for (x, y), c in expected)
        for lo in range(size - 1):
            his = list(range(lo + 1, size))
            colors = [coloring(lo, hi) for hi in his]
            row = coloring.row(lo, his)
            if len(his) == 1:
                # a one-pair row is its color as an int
                assert type(row) is int and row == colors[0]
            else:
                assert row == colors
            assert coloring.split(lo, his) == first_appearance_groups(his, colors)
            assert coloring.split(lo, his[1::3]) == (
                first_appearance_groups(his[1::3], colors[1::3])
            )
        assert coloring.split(0, []) == {}
        for pair in ((-1, 0), (0, size), (size, size + 3)):
            with pytest.raises(ColoringError) as info:
                coloring(*pair)
            assert str(info.value).endswith(f"pair {pair}")
        # a row names its first pair outside the table, consecutive or not
        for lo, his, pair in (
            (0, list(range(1, size + 2)), (0, size)),
            (0, [1, size + 1, size + 5], (0, size + 1)),
            (-1, [0, 1], (-1, 0)),
            (-1, [0, 2, 5], (-1, 0)),
            (size, [size + 3, size + 4], (size, size + 3)),
        ):
            with pytest.raises(ColoringError) as info:
                coloring.split(lo, his)
            assert str(info.value).endswith(f"pair {pair}")


def test_check_visit_leaves_no_reference_cycles():
    # a checker kept alive by a cycle holds its memo until the cyclic
    # collector runs; the visits suite made 76 000 such objects per run
    tree = complete_tree(2, 3)
    accepted = all_visits(tree, (1, 0), ())
    gc.collect()
    gc.disable()
    try:
        for entries in accepted:
            assert check_visit(tree, entries, (1, 0), ())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_all_accepted_lists_are_prefixes_of_each_other():
    rng = random.Random(8)
    for _ in range(10):
        tree = random_tree(
            TreeGenParams(
                k=2,
                max_depth=4,
                max_nodes=12,
                branching=rng.uniform(0.4, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        accepted = all_visits(tree, (1, 0), ())
        for a, b in itertools.combinations(accepted, 2):
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] == shorter
