"""Comparison-tree construction, translation, and homogeneous extraction."""

import random

import pytest

from colorvisit.cli import main
from colorvisit.colorings import (
    Coloring,
    ColoringError,
    builtin_coloring,
    table_coloring,
)
from colorvisit.corpus import random_coloring
from colorvisit.dsl import DivisionByZero, dsl_coloring
from colorvisit.erdos import (
    ErdosError,
    build_erdos,
    extract_homogeneous,
    homog_pipeline,
)
from colorvisit.oracles import (
    ancestor_formula_relation,
    branch_census,
    build_by_insertion,
    check_erdos_property,
    check_visit,
    visit_by_definition,
    visit_words,
)
from colorvisit.trees import FiniteColorTree
from colorvisit.visit import VisitError


def root_path(tree, n):
    """Nodes from the root down to ``n`` inclusive, by parent steps."""
    path = [n]
    while tree.parent[path[-1]] is not None:
        path.append(tree.parent[path[-1]])
    return path[::-1]


def ancestors(tree, y):
    return root_path(tree, y)[:-1]


def children_of(tree, x):
    """x's children by color, read through ``tree.step``."""
    kids = {c: tree.step(c)(x) for c in range(tree.k)}
    return {c: n for c, n in kids.items() if n is not None}


def test_insert_attaches_to_root_on_empty_descent():
    tree = build_by_insertion(builtin_coloring("constant:0", 2), 2)
    assert tree.parent[1] == 0 and tree.edge_color[1] == 0


def test_insert_descends_along_edge_colors():
    tree = build_by_insertion(builtin_coloring("sum-mod", 2), 5)
    # 4 walks 0 -> 2 (edge color 0) and attaches as 2's 0-child
    assert tree.parent[4] == 2 and tree.edge_color[4] == 0
    assert children_of(tree, 2) == {0: 4}


def test_build_constant_gives_a_chain():
    tree = build_erdos(builtin_coloring("constant:0", 2), 4)
    assert tree.parent == [None, 0, 1, 2]
    assert tree.edge_color == [None, 0, 0, 0]


def test_build_parity_shape():
    tree = build_erdos(builtin_coloring("sum-mod", 2), 5)
    assert children_of(tree, 0) == {1: 1, 0: 2}
    assert children_of(tree, 1) == {0: 3}
    assert children_of(tree, 2) == {0: 4}


def test_build_single_root():
    tree = build_erdos(builtin_coloring("sum-mod", 2), 1)
    assert tree.size == 1 and children_of(tree, 0) == {}


def test_build_rejects_empty():
    with pytest.raises(ErdosError):
        build_erdos(builtin_coloring("sum-mod", 2), 0)


def assert_same_tree(tree, reference):
    # the fields, the per-color child maps among them
    assert tree == reference
    for x in range(tree.size):
        assert children_of(tree, x) == children_of(reference, x)


def test_build_equals_insertion_on_random_tables():
    rng = random.Random(12)
    for _ in range(200):
        k = rng.choice([2, 3, 4])
        size = rng.randint(1, 80)
        coloring = random_coloring(rng.randrange(2**32), k, max(size, 2))
        assert_same_tree(build_erdos(coloring, size), build_by_insertion(coloring, size))


ZERO_DIVISOR_EXPRESSIONS = [
    "x / (y - x - 3)",
    "(x * y) % (y - 2 * x)",
    "if x % (y % 4) < 2 then y / (x % 3) else x",
    "min(x, y / (x - 7)) + y % (y / 5)",
]


def test_child_map_holds_exactly_the_edges():
    rng = random.Random(14)
    cases = []
    for _ in range(100):
        k = rng.choice([2, 3, 4])
        size = rng.randint(1, 80)
        cases.append((random_coloring(rng.randrange(2**32), k, max(size, 2)), size))
    for source in ZERO_DIVISOR_EXPRESSIONS:
        for k in (2, 3, 4):
            cases += [(dsl_coloring(source, k), size) for size in (1, 2, 17, 60)]
    for coloring, size in cases:
        for tree in (build_erdos(coloring, size), build_by_insertion(coloring, size)):
            assert len(tree.children) == tree.k
            for n in range(1, size):
                assert tree.children[tree.edge_color[n]][tree.parent[n]] == n
            assert sum(map(len, tree.children)) == size - 1


def test_build_equals_insertion_on_zero_divisor_expressions():
    for source in ZERO_DIVISOR_EXPRESSIONS:
        for k in (2, 3, 4):
            coloring = dsl_coloring(source, k)
            for size in (1, 2, 17, 60):
                assert_same_tree(
                    build_erdos(coloring, size), build_by_insertion(coloring, size)
                )


# every row of these is one color, so each builds a chain
ONE_COLOR_ROWS = [
    ("constant:1", 3),
    ("constant:0", 1),
    ("block:4", 2),
    ("block:1", 3),
    ("if x < y then x else y", 3),
    ("x * 0 + 1", 2),
]
# rows of several colors, or of one color at some nodes and several at others
MIXED_ROWS = [
    ("sum-mod", 3),
    ("diff-mod", 2),
    ("if y < 20 then x else y", 3),
    ("x % 2 + (40 < y)", 3),
    ("if x < 10 then 0 else y", 2),
]


def named_coloring(name, k):
    if name in ("sum-mod", "diff-mod") or ":" in name:
        return builtin_coloring(name, k)
    return dsl_coloring(name, k)


@pytest.mark.parametrize("name, k", ONE_COLOR_ROWS + MIXED_ROWS)
def test_build_equals_insertion_with_one_color_rows(name, k):
    coloring = named_coloring(name, k)
    for size in (1, 2, 3, 17, 60):
        tree = build_erdos(coloring, size)
        assert_same_tree(tree, build_by_insertion(coloring, size))
        if (name, k) in ONE_COLOR_ROWS:
            assert tree.parent == [None] + list(range(size - 1))
        elif size == 60:
            assert tree.parent != [None] + list(range(size - 1))


def insertion_by_pairs(coloring, size):
    """The insertion build with one ``coloring(x, n)`` call per pair."""
    parent, edge_color = [None], [None]
    children = [{} for _ in range(coloring.k)]
    for n in range(1, size):
        x, i = 0, coloring(0, n)
        while x in children[i]:
            x = children[i][x]
            i = coloring(x, n)
        children[i][x] = n
        parent.append(x)
        edge_color.append(i)
    return FiniteColorTree(coloring.k, parent, edge_color)


def erdos_suite_colorings(seed, cases):
    """The colorings and sizes the ``erdos`` suite draws from its seed."""
    rng = random.Random(seed)
    for _ in range(cases):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 64)
        yield random_coloring(rng.randrange(2**32), k, size), size


@pytest.mark.parametrize("seed", [0, 5, 11, 1234])
def test_insertion_equals_the_loop_of_pair_calls(seed):
    # random tables answer a one-pair row with an int, tables with a list
    # of one, and the expressions with either
    cases = list(erdos_suite_colorings(seed, 50))
    table, size = cases[0]
    pairs = [[x, y, table(x, y)] for x in range(size) for y in range(x + 1, size)]
    cases.append((table_coloring(pairs, table.k), size))
    cases += [(named_coloring(name, k), 40) for name, k in ONE_COLOR_ROWS + MIXED_ROWS]
    for coloring, size in cases:
        assert_same_tree(
            build_by_insertion(coloring, size), insertion_by_pairs(coloring, size)
        )


@pytest.mark.parametrize("as_int", [True, False])
def test_insertion_names_a_color_out_of_range_as_a_pair_call_does(as_int):
    # every pair is color 0 but (2, 4), which is k; insertion meets it
    # after walking the chain 0, 1, 2
    def row(lo, his):
        colors = [2 if (lo, hi) == (2, 4) else 0 for hi in his]
        return colors[0] if as_int and len(his) == 1 else colors

    coloring = Coloring(2, row, "bad")
    with pytest.raises(ColoringError) as pair_call:
        coloring(2, 4)
    for build in (insertion_by_pairs, build_by_insertion):
        with pytest.raises(ColoringError) as info:
            build(coloring, 6)
        assert str(info.value) == str(pair_call.value) == (
            "bad produced color 2 outside 0..1")


def test_insertion_names_the_missing_pair_of_a_table():
    # (1, 3) is missing: 3 walks 0 -> 1 and meets it there; a random table
    # of size 30 ends before node 30's first pair
    table = table_coloring([[0, 1, 0], [0, 2, 1], [0, 3, 0], [1, 2, 0]], 2)
    cut = random_coloring(3, 3, 30)
    for coloring, size, pair in ((table, 4, (1, 3)), (cut, 31, (0, 30))):
        with pytest.raises(ColoringError) as expected:
            insertion_by_pairs(coloring, size)
        with pytest.raises(ColoringError) as info:
            build_by_insertion(coloring, size)
        assert str(info.value).endswith(f"pair {pair}")
        assert str(info.value) == str(expected.value)


def test_build_raises_the_error_of_the_row_that_meets_it():
    # the root's row meets the missing pair (0, 3); insertion would meet
    # (1, 2) first, inserting 2 below 1
    table = table_coloring([[0, 1, 0], [0, 2, 0], [0, 4, 1]], 2)
    with pytest.raises(ColoringError) as info:
        build_erdos(table, 5)
    assert str(info.value).endswith(f"pair {(0, 3)}")
    # the root's row meets the remainder at (0, 3) before node 1's row, the
    # one with the division, is taken; insertion meets the division at (1, 2)
    strict = dsl_coloring(
        "if x == 1 then y / 0 else if y == 3 then x % 0 else 0", 2, strict=True
    )
    with pytest.raises(DivisionByZero, match="remainder"):
        build_erdos(strict, 5)
    # the root's row meets the remainder at (0, 4); insertion, going down
    # the chain, meets the division at (2, 3) first
    chain = dsl_coloring(
        "if x == 2 then y / 0 else if y == 4 then x % 0 else 0", 2, strict=True
    )
    with pytest.raises(DivisionByZero, match="remainder"):
        build_erdos(chain, 6)
    # rows without y, each evaluated once: the root's row is all 0, and
    # node 1's row meets the remainder at (1, 2)
    constant = dsl_coloring(
        "if x == 0 then 0 else if x == 1 then x % 0 else x / 0", 2, strict=True
    )
    with pytest.raises(DivisionByZero, match="remainder"):
        build_erdos(constant, 5)


def test_build_stops_at_the_row_that_fails(pair_evaluations):
    # the root's row fails at its last pair (0, 99): the build colors that
    # row's 99 pairs and no other
    coloring = dsl_coloring("if y == 99 then x / 0 else x + y", 2, strict=True)
    with pytest.raises(DivisionByZero, match="division"):
        build_erdos(coloring, 100)
    assert pair_evaluations[0] == 99


def test_pair_evaluation_counts(pair_evaluations, tmp_path):
    coloring = dsl_coloring("if x < y then x else y", 3)
    assert build_erdos(coloring, 30).parent == [None] + list(range(29))
    assert pair_evaluations[0] == 30 * 29 // 2
    pair_evaluations[0] = 0
    assert main(["homog", "--coloring", "if x < y then x else y", "--k", "3",
                 "--horizon", "30", "--out", str(tmp_path / "homog.json")]) == 0
    # the build's 435 pairs plus 2 * C(10, 2) + C(9, 2) verified pairs
    assert pair_evaluations[0] == 561


class Unlooped:
    """The numbers of a row, which ``len`` may read but no loop."""

    def __init__(self, his) -> None:
        self.his = his

    def __len__(self) -> int:
        return len(self.his)

    def __iter__(self):
        raise AssertionError("row evaluated pair by pair")


def test_min_chain_rows_are_one_int_each():
    # the min-chain's rows have one color each: the build hands each row a
    # range, and neither it nor the verification loops over a row's pairs
    chain = dsl_coloring("if x < y then x else y", 3)
    rows = []

    def row(lo, his):
        rows.append(type(his))
        color = chain.row(lo, Unlooped(his))
        assert type(color) is int
        return color

    coloring = Coloring(3, row, chain.name)
    report, _ = homog_pipeline(coloring, 5000, 10000)
    assert report.branch_nodes == tuple(range(5000))
    assert [len(c) for c in report.classes] == [1667, 1666, 1666]
    assert report.verified is True
    # one row per node with something below it, then one per class member
    # below the largest of its class
    assert rows[:4999] == [range] * 4999
    assert len(rows) == 4999 + 4996 and range not in rows[4999:]


# if x < 5 then x + y else 0: from 5 on every row is 0, so class 0 grows
# with the horizon; the class sizes at each horizon under the priorities
# <0,1,2> and <1,2,0>, then under <2,1,0>
KNOWN_ANSWER = {
    20: ([4, 1, 1], [4, 1, 2]),
    50: ([14, 1, 1], [14, 1, 2]),
    100: ([31, 1, 1], [30, 1, 2]),
    200: ([64, 1, 1], [64, 1, 2]),
    400: ([131, 1, 1], [130, 1, 2]),
    4000: ([1331, 1, 1], [1330, 1, 2]),
}


@pytest.mark.parametrize("size", sorted(KNOWN_ANSWER))
def test_known_answer_family_class_sizes(size):
    coloring = dsl_coloring("if x < 5 then x + y else 0", 3)
    forward, backward = KNOWN_ANSWER[size]
    for priority, sizes in (((0, 1, 2), forward), ((1, 2, 0), forward),
                            ((2, 1, 0), backward)):
        report, _ = homog_pipeline(coloring, size, 2 * size, priority)
        assert [len(c) for c in report.classes] == sizes
        assert report.verified is True


@pytest.mark.parametrize("coloring", [
    # homog-hash's expression, at pool variant 0
    dsl_coloring("((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521", 3),
    dsl_coloring("if x < 5 then x + y else 0", 3),
    # the min-chain
    dsl_coloring("if x < y then x else y", 3),
    random_coloring(17, 3, 300),
], ids=["hash", "known-answer", "min-chain", "random"])
def test_a_horizon_is_the_prefix_of_a_longer_one(coloring):
    # node n's place depends only on the pairs within 0..n, so the tree at
    # horizon N is the first N entries of both arrays of any longer one
    tree = build_erdos(coloring, 300)
    for size in (1, 2, 17, 150, 299, 300):
        assert build_erdos(coloring, size) == FiniteColorTree(
            coloring.k, tree.parent[:size], tree.edge_color[:size])


# a spread of coloring sources, with colors, blocks and chains of every k
SURVEY = [("constant:0", 2), ("sum-mod", 2), ("sum-mod", 3), ("diff-mod", 4),
          ("block:7", 3), ("(x * y + x) % 3", 3), ("if x < y then x else y", 4),
          ("if x < 5 then x + y else 0", 3)]


def test_survey_colorings_are_verified_at_horizon_20():
    rng = random.Random(0)
    colorings = [named_coloring(name, k) for name, k in SURVEY]
    for _ in range(5):
        k = rng.choice([2, 3, 4])
        colorings.append(random_coloring(rng.randrange(2**32), k, 20))
    for coloring in colorings:
        report, _ = homog_pipeline(coloring, 20, budget=80)
        assert report.verified is True, coloring.name


def test_build_colors_no_empty_rows(monkeypatch):
    rows = []
    split = Coloring.split

    def recording_split(self, lo, his):
        rows.append(len(his))
        return split(self, lo, his)

    monkeypatch.setattr(Coloring, "split", recording_split)
    coloring = random_coloring(8, 3, 120)
    tree = build_erdos(coloring, 120)
    assert 0 not in rows
    # one row per node with something below it
    assert len(rows) == sum(1 for x in range(tree.size) if children_of(tree, x))


def forbid_split(monkeypatch):
    """The references read colorings a row at a time and never group a row:
    they must not share the split the build uses."""

    def split(self, lo, his):
        raise AssertionError("a reference called Coloring.split")

    monkeypatch.setattr(Coloring, "split", split)


def test_erdos_property_holds_for_construction(monkeypatch):
    rng = random.Random(17)
    cases = []
    for _ in range(20):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 40)
        coloring = random_coloring(rng.randrange(2**32), k, size)
        cases.append((build_erdos(coloring, size), coloring))
    forbid_split(monkeypatch)
    for tree, coloring in cases:
        assert check_erdos_property(tree, coloring)


def test_erdos_property_detects_violation():
    # hand-built path 0 < 1 < 2 with both edges color 0, against a coloring
    # where the skipped edge {0,2} is color 1
    tree = FiniteColorTree(k=2, parent=[None, 0, 1], edge_color=[None, 0, 0])
    bad = [[0, 1, 0], [1, 2, 0], [0, 2, 1]]
    assert check_erdos_property(tree, table_coloring(bad, 2)) is False


def test_erdos_property_fails_on_one_wrong_deep_edge():
    # every pair of a random table's tree, with exactly one pair recolored:
    # the check fails iff that pair joins a node to one of its ancestors,
    # leaves and edges far below the root included
    coloring, size = random_coloring(21, 3, 24), 24
    tree = build_erdos(coloring, size)
    colors = {(x, y): coloring(x, y) for x in range(size) for y in range(x + 1, size)}
    deep = [(x, y) for y in range(size) for x in ancestors(tree, y)
            if len(ancestors(tree, x)) >= 2]
    assert len(deep) >= 10
    for pair, color in colors.items():
        wrong = table_coloring(
            [[x, y, (c + 1) % 3 if (x, y) == pair else c]
             for (x, y), c in colors.items()], 3)
        in_relation = pair[0] in ancestors(tree, pair[1])
        assert check_erdos_property(tree, wrong) is not in_relation, pair


def test_erdos_property_vacuous_on_root():
    tree = build_erdos(builtin_coloring("sum-mod", 2), 1)
    assert check_erdos_property(tree, builtin_coloring("sum-mod", 2))


def test_ancestor_formula_agrees_with_descent(monkeypatch):
    rng = random.Random(4)
    cases = []
    for _ in range(15):
        k = rng.choice([2, 3, 4])
        coloring = random_coloring(rng.randrange(2**32), k, 20)
        tree = build_erdos(coloring, 20)
        descent = {
            (x, y) for y in range(tree.size) for x in ancestors(tree, y)
        }
        cases.append((coloring, descent))
    forbid_split(monkeypatch)
    for coloring, descent in cases:
        assert descent == ancestor_formula_relation(coloring, 20)


def test_ancestor_formula_on_a_worked_table():
    # insertion: 1 and 2 become the 0- and 1-child of 0; 3 goes down
    # color 0 to 1 and becomes its 1-child; 4 goes down color 0 to 1 and
    # color 1 to 3 and becomes the 1-child of 3
    colors = {
        (0, 1): 0, (0, 2): 1, (0, 3): 0, (0, 4): 0,
        (1, 2): 0, (1, 3): 1, (1, 4): 1,
        (2, 3): 1, (2, 4): 0,
        (3, 4): 1,
    }
    table = table_coloring([[x, y, c] for (x, y), c in colors.items()], 2)
    assert ancestor_formula_relation(table, 5) == {
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (3, 4)}
    assert build_by_insertion(table, 5).parent == [None, 0, 0, 1, 3]


def test_word_tree_examples():
    # a node's word is the edge colors on its root path
    chain = build_erdos(builtin_coloring("constant:0", 2), 3)
    assert [chain.node(w) for w in [(), (0,), (0, 0)]] == [0, 1, 2]
    assert [chain.node(w) for w in [(1,), (0, 1), (0, 0, 0), (-1,), (2,)]] == [None] * 5

    parity = build_erdos(builtin_coloring("sum-mod", 2), 5)
    words = [(), (1,), (0,), (1, 0), (0, 0)]
    assert [parity.node(w) for w in words] == [0, 1, 2, 3, 4]
    assert [parity.node(w) for w in [(1, 1), (0, 1), (0, 0, 0), (0, -1)]] == [None] * 4

    single = build_erdos(builtin_coloring("sum-mod", 2), 1)
    assert single.node(()) == 0
    assert [single.node((c,)) for c in (-1, 0, 1, 2)] == [None] * 4


def test_word_index_is_a_bijection():
    # every node's word leads back to it, so ``node`` maps the words one to
    # one onto the ids
    rng = random.Random(9)
    for _ in range(10):
        coloring = random_coloring(rng.randrange(2**32), 3, 30)
        tree = build_erdos(coloring, 30)
        for n in range(tree.size):
            word = tuple(tree.edge_color[x] for x in root_path(tree, n)[1:])
            assert tree.node(word) == n


def test_step_walks_the_children():
    tree = build_erdos(builtin_coloring("sum-mod", 2), 5)
    zero, one = tree.step(0), tree.step(1)
    # a probe is the color's map's own get, called in C
    assert (zero, one) == (tree.children[0].get, tree.children[1].get)
    assert not hasattr(tree, "child")
    assert [zero(0), one(0)] == [2, 1]
    assert zero(2) == 4 and one(2) is None
    assert zero(4) is None
    # a color outside 0..k-1 has no children, not another color's
    assert [tree.step(c)(x) for c in (-1, 2) for x in range(5)] == [None] * 10


def test_id_visit_equals_its_definition():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 120)
        coloring = random_coloring(rng.randrange(2**32), k, size)
        prio = tuple(rng.sample(range(k), k))
        # budgets that cut the visit short, reach it exactly, or leave room
        budget = rng.choice([1, 2, rng.randint(1, size), size, size + 1, 2 * size])
        report, visit = homog_pipeline(coloring, size, budget, prio)
        tree = build_erdos(coloring, size)
        complete = visit_by_definition(tree, prio)
        # the words are distinct, so they fix the parent indices too
        order = visit_words(visit)
        assert order == complete[:budget]
        assert visit.terminated is (len(complete) < budget)
        assert visit.priority == prio and visit.root == ()
        assert report.branch_nodes == tuple(root_path(tree, tree.node(order[-1])))
        if len(order) <= 12:
            assert check_visit(tree, order, prio, ())
            checked += 1
    assert checked >= 10


def test_extract_constant_full_branch():
    coloring = builtin_coloring("constant:0", 2)
    tree = build_erdos(coloring, 6)
    report = extract_homogeneous(tree, (0,) * 5, coloring)
    assert report.branch_nodes == tuple(range(6))
    assert sorted(report.classes[0]) == [0, 1, 2, 3, 4]
    assert report.classes[1] == frozenset()
    assert report.verified is True


def test_extract_verification_checks_every_pair():
    tree = build_erdos(builtin_coloring("constant:0", 2), 6)
    for a in range(5):
        for b in range(a + 1, 5):
            one_off = Coloring(
                2, lambda lo, his: [int((lo, hi) == (a, b)) for hi in his]
            )
            report = extract_homogeneous(tree, (0,) * 5, one_off)
            assert sorted(report.classes[0]) == [0, 1, 2, 3, 4]
            assert report.verified is False


def test_extract_even_chain_under_parity():
    coloring = builtin_coloring("sum-mod", 2)
    tree = build_erdos(coloring, 20)
    report = extract_homogeneous(tree, (0,) * 9, coloring)
    assert report.branch_nodes == tuple(range(0, 20, 2))
    assert sorted(report.classes[0]) == [0, 2, 4, 6, 8, 10, 12, 14, 16]
    assert report.verified is True


def test_extract_single_node_branch():
    coloring = builtin_coloring("sum-mod", 2)
    tree = build_erdos(coloring, 5)
    report = extract_homogeneous(tree, (), coloring)
    assert report.branch_nodes == (0,)
    assert all(cls == frozenset() for cls in report.classes)
    assert report.verified is True


def test_extract_rejects_non_chain():
    coloring = builtin_coloring("sum-mod", 2)
    tree = build_erdos(coloring, 5)
    assert tree.parent == [None, 0, 0, 1, 2]
    assert tree.edge_color == [None, 1, 0, 0, 0]
    assert extract_homogeneous(tree, (0, 0), coloring).branch_nodes == (0, 2, 4)
    with pytest.raises(ErdosError, match="^branch node 2 has no child of color 1$"):
        extract_homogeneous(tree, (0, 1), coloring)
    for color in (2, -1):
        with pytest.raises(ErdosError, match=f"node 0 has no child of color {color}$"):
            extract_homogeneous(tree, (color,), coloring)


def test_report_classes_partition_branch():
    coloring = builtin_coloring("sum-mod", 3)
    report, _ = homog_pipeline(coloring, 60, 600)
    union = set()
    for cls in report.classes:
        assert union.isdisjoint(cls)
        union |= cls
    assert union == set(report.branch_nodes[:-1])


def test_pipeline_constant():
    report, visit = homog_pipeline(builtin_coloring("constant:0", 2), 10, 100)
    assert sorted(report.classes[0]) == list(range(9))
    assert report.classes[1] == frozenset()
    assert report.verified and visit.terminated


def test_pipeline_parity_frozen_sets():
    report, visit = homog_pipeline(builtin_coloring("sum-mod", 2), 50, 500)
    assert sorted(report.classes[0]) == list(range(1, 48, 2))
    assert sorted(report.classes[1]) == [0]
    assert report.verified is True
    assert max(len(c) for c in report.classes) >= 20


def test_pipeline_sum_mod3_frozen_sets():
    report, _ = homog_pipeline(builtin_coloring("sum-mod", 3), 60, 600)
    assert sorted(report.classes[0]) == list(range(0, 55, 3))
    assert report.classes[1] == frozenset() and report.classes[2] == frozenset()
    assert report.verified is True
    assert max(len(c) for c in report.classes) >= 15


def test_pipeline_priority_must_cover_all_colors():
    with pytest.raises(ErdosError):
        homog_pipeline(builtin_coloring("sum-mod", 3), 10, 100, priority=(0, 1))
    report, _ = homog_pipeline(
        builtin_coloring("sum-mod", 3), 10, 100, priority=(2, 0, 1)
    )
    assert report.verified


def test_pipeline_rejects_a_bad_budget_before_the_build():
    def row(lo, his):
        raise AssertionError(f"colored the row of {lo}")

    for budget in (0, -3):
        with pytest.raises(VisitError, match=f"budget {budget} must be at least 1"):
            homog_pipeline(Coloring(3, row), 10**5, budget)


def test_pipeline_verified_on_random_colorings():
    rng = random.Random(23)
    for _ in range(15):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 80)
        coloring = random_coloring(rng.randrange(2**32), k, size)
        report, _ = homog_pipeline(coloring, size, budget=4 * size + 4)
        assert report.verified is True


def test_census_equals_class_sizes():
    report, visit = homog_pipeline(builtin_coloring("sum-mod", 2), 50, 500)
    assert report.census == {i: len(c) for i, c in enumerate(report.classes)}
    order = visit_words(visit)
    branch = [order[i] for i in visit.branch()]
    assert report.census == branch_census(branch, 2)


def test_every_natural_appears_once_with_parent_below():
    rng = random.Random(41)
    for _ in range(15):
        k = rng.choice([2, 3, 4])
        size = rng.randint(1, 64)
        tree = build_erdos(random_coloring(rng.randrange(2**32), k, max(size, 2)), size)
        assert tree.size == size
        seen = set()
        for n in range(size):
            assert n not in seen
            seen.add(n)
            if n == 0:
                assert tree.parent[0] is None
            else:
                assert tree.parent[n] < n
        children = [c for x in range(size) for c in children_of(tree, x).values()]
        assert sorted(children) == list(range(1, size))
