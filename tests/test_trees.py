import copy
import itertools
import json
import pickle
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from colorvisit.corpus import TreeGenParams, random_coloring, random_tree
from colorvisit.erdos import build_erdos
from colorvisit.oracles import (
    in_restricted,
    restricted_nodes,
    tree_to_dict,
    tree_words,
)
from colorvisit.suites import tree_corpus
from colorvisit.trees import (
    FullColorTree,
    TreeError,
    builtin_tree,
    full_tree,
    load_tree,
    tree_from_dict,
    validate_tree,
)
from colorvisit.visit import enumerate_visit
from conftest import save_tree


def test_validate_accepts_root_only():
    tree = validate_tree([()], 2)
    assert tree_words(tree) == ((),)
    assert tree.node(()) == 0


def test_validate_missing_root():
    with pytest.raises(TreeError) as info:
        validate_tree([(0,)], 2)
    assert str(info.value) == "tree does not contain the empty word"


def test_validate_reports_missing_prefix_witness():
    with pytest.raises(TreeError) as info:
        validate_tree([(), (1, 0)], 2)
    assert str(info.value) == "node (1, 0) present but its prefix (1,) is missing"


def test_validate_reports_offending_letter():
    with pytest.raises(TreeError) as info:
        validate_tree([(), (2,)], 2)
    assert str(info.value) == "letter 2 in node (2,) not below k=2"


@pytest.mark.parametrize("nodes, line", [
    # a bad letter in a later word wins over a missing prefix in an earlier
    ([(), (0, 1), (1, 5)], "letter 5 in node (1, 5) not below k=2"),
    # the least bad word, and its first bad letter
    ([(), (1,), (1, 7, 9), (1, 2), (0, 0)], "letter 2 in node (1, 2) not below k=2"),
    ([(), (0,), (0, 3, 0), (-1, 1)], "letter -1 in node (-1, 1) not below k=2"),
    ([(), (1,), (1, 0, 1), (0, 1)], "node (0, 1) present but its prefix (0,) is missing"),
])
def test_validate_reports_the_least_fault_first(nodes, line):
    for order in (nodes, nodes[::-1]):
        with pytest.raises(TreeError) as info:
            validate_tree(order, 2)
        assert str(info.value) == line


def test_validate_rejects_zero_colors():
    with pytest.raises(TreeError):
        validate_tree([()], 0)


@pytest.mark.parametrize(
    "priority, root, node, expected",
    [
        ((1,), (), (1, 1), True),
        ((1,), (), (1, 0), False),
        ((0, 1), (1,), (0,), False),
        ((0, 1), (), (1, 0), True),
    ],
)
def test_in_restricted_examples(binary_depth2, priority, root, node, expected):
    assert in_restricted(binary_depth2, priority, root, node) is expected


def test_in_restricted_rejects_missing_root(binary_depth2):
    with pytest.raises(TreeError, match=r"^root \(0, 0, 0\) is not in the tree$"):
        in_restricted(binary_depth2, (0,), (0, 0, 0), ())


st_params = st.builds(
    TreeGenParams,
    k=st.integers(1, 4),
    max_depth=st.integers(0, 5),
    max_nodes=st.integers(1, 30),
    branching=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)


@given(params=st_params)
def test_random_trees_are_prefix_closed_and_revalidate(params):
    tree = random_tree(params)
    words = tree_words(tree)
    for w in words:
        for i in range(len(w)):
            assert w[:i] in words
    assert validate_tree(words, tree.k) == tree


def test_tree_file_ids_are_breadth_first_in_color_order():
    tree = validate_tree([(1, 0), (0,), (1, 1), (), (1,), (0, 1), (1, 0)], 2)
    assert tree_words(tree) == ((), (0,), (1,), (0, 1), (1, 0), (1, 1))
    assert tree.parent == [None, 0, 0, 1, 2, 2]
    assert tree.edge_color == [None, 0, 1, 1, 0, 1]
    assert tree.children == [{0: 1, 2: 4}, {0: 2, 1: 3, 2: 5}]


@pytest.mark.parametrize("seed", range(16))
def test_corpus_trees_equal_their_loaded_words(seed):
    # every shape the corpus draws, its words listed in reverse id order
    for tree, _ in tree_corpus(seed, 40):
        assert validate_tree(tree_words(tree)[::-1], tree.k) == tree
        assert tree_from_dict(tree_to_dict(tree)) == tree


def test_visit_of_a_deep_chain_file_spells_no_word(tmp_path):
    # a chain of 3000 1s: on words each probe copied and hashed its word,
    # and the visit peaked at 35 MiB
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"k": 2, "nodes": [[1] * d for d in range(3001)]}))
    tree = load_tree(str(path))
    tracemalloc.start()
    try:
        visit = enumerate_visit(tree, (0, 1), (), 3002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert visit.terminated and visit.letter == (-1,) + (1,) * 3000
    assert peak < 2 * 2**20


@given(params=st_params, extra=st.lists(st.integers(0, 3), max_size=6).map(tuple))
def test_in_restricted_full_priority_agrees_with_membership(params, extra):
    tree = random_tree(params)
    assert in_restricted(tree, range(tree.k), (), extra) == (
        tree.node(extra) is not None)


@given(params=st_params, data=st.data())
def test_in_restricted_is_prefix_closed_above_root(params, data):
    tree = random_tree(params)
    nodes = sorted(tree_words(tree))
    root = data.draw(st.sampled_from(nodes))
    priority = tuple(data.draw(st.permutations(range(tree.k))))[
        : data.draw(st.integers(0, tree.k))
    ]
    accepted = [w for w in nodes if in_restricted(tree, priority, root, w)]
    assert restricted_nodes(tree, priority, root) == set(accepted)
    for w in accepted:
        for i in range(len(root), len(w)):
            assert in_restricted(tree, priority, root, w[:i])


def test_oracle_trees():
    u = full_tree(1)
    assert u.node((0, 0, 0)) == 3 and u.node((1,)) is None
    f3 = full_tree(3)
    assert f3.node((2, 1, 0)) == 3 and f3.node((3,)) is None
    assert builtin_tree("unary").k == 1
    assert builtin_tree("full:4").k == 4
    with pytest.raises(TreeError):
        builtin_tree("nosuch")
    with pytest.raises(TreeError):
        builtin_tree("full:x")


def test_trees_are_immutable_values(binary_depth2):
    for tree in (binary_depth2, full_tree(3)):
        assert copy.deepcopy(tree) == tree
        assert pickle.loads(pickle.dumps(tree)) == tree
        with pytest.raises(AttributeError):
            tree.k = 5
    assert hash(copy.copy(full_tree(3))) == hash(full_tree(3))
    # a finite tree holds lists and dicts
    with pytest.raises(TypeError):
        hash(binary_depth2)
    assert repr(full_tree(3)) == "FullColorTree(k=3)"
    assert full_tree(3) != full_tree(2) and full_tree(1) == builtin_tree("unary")


@pytest.mark.parametrize("name", ["full:\u0662", "full:1_0", "full:+2", "full:\u00b2"])
def test_builtin_tree_count_takes_ascii_digits_only(name):
    # int() alone would read Arabic-Indic 2, "1_0" and "+2" as counts
    with pytest.raises(TreeError, match="bad color count"):
        builtin_tree(name)


def test_step_is_one_probe():
    # a tree file's step is the bound ``get`` of one color's child map, one
    # C call a probe, and builds no word
    tree = validate_tree([(), (1,), (0,), (0, 1), (1, 1, 1), (1, 1)], 2)
    for c in range(2):
        step = tree.step(c)
        assert step == tree.children[c].get
        assert step.__self__ is tree.children[c]
    assert tree.step(0)(tree.node((0,))) is None
    assert tree.step(1)(tree.node((0,))) == tree.node((0, 1)) == 3
    assert tree.step(2)(0) is tree.step(-1)(0) is None


def test_builtin_step_agrees_with_node(monkeypatch):
    # a step tests no word: it never calls ``node``
    probed = []
    node = FullColorTree.node
    monkeypatch.setattr(
        FullColorTree, "node",
        lambda self, w: probed.append(w) or node(self, w),
    )
    for tree in [full_tree(k) for k in (1, 2, 3, 4)] + [builtin_tree("unary")]:
        words = [w for n in range(4) for w in itertools.product(range(tree.k), repeat=n)]
        steps = {
            (w, c): tree.step(c)(len(w))
            for w in words for c in range(-3, 7)
        }
        assert probed == []
        for (w, c), depth in steps.items():
            assert depth == node(tree, w + (c,))


def test_every_kind_of_node_answers_node_by_its_steps():
    # ids for a corpus tree and a comparison tree, depths for a full tree:
    # a word names the node that the steps along it from the root's node
    # reach, and None once a step leaves the tree; each tree with its count
    # of words up to depth 4
    trees = [
        random_tree(TreeGenParams(k=3, max_depth=4, max_nodes=30, branching=0.8,
                                  seed=5)),
        builtin_tree("full:2"),
        builtin_tree("unary"),
        build_erdos(random_coloring(7, 3, 30), 30),
    ]
    for tree, count in zip(trees, [30, 31, 5, 29]):
        inside = 0
        for n in range(5):
            for w in itertools.product(range(-1, tree.k + 1), repeat=n):
                node = tree.node(())
                for c in w:
                    if node is not None:
                        node = tree.step(c)(node)
                assert tree.node(w) == node, (tree, w)
                inside += node is not None
        assert inside == count


@given(
    k=st.integers(1, 4),
    w=st.lists(st.integers(-3, 6), max_size=8).map(tuple),
)
def test_builtin_predicates_match_their_letter_by_letter_form(k, w):
    depth = len(w)
    assert full_tree(k).node(w) == (depth if all(0 <= c < k for c in w) else None)
    assert builtin_tree("unary").node(w) == (depth if all(c == 0 for c in w) else None)


def test_tree_json_round_trip(tmp_path, binary_depth2):
    path = tmp_path / "tree.json"
    save_tree(binary_depth2, str(path))
    loaded = load_tree(str(path))
    assert loaded == binary_depth2
    data = json.loads(path.read_text())
    assert data["k"] == 2
    assert [] in data["nodes"]


def test_tree_json_accepts_json_integers_only(tmp_path):
    path = tmp_path / "tree.json"
    for data in (
        {"k": 2.0, "nodes": [[], [0]]},
        {"k": "2", "nodes": [[], [0]]},
        {"k": True, "nodes": [[], [0]]},
        {"k": 2, "nodes": [[], [0.0]]},
        {"k": 2, "nodes": [[], [True]]},
        {"k": 2, "nodes": [[], ["1"]]},
        {"k": 2, "nodes": [[], 1]},
        {"k": 2, "nodes": [[], "0"]},
        {"k": 2, "nodes": "abc"},
    ):
        path.write_text(json.dumps(data))
        with pytest.raises(TreeError):
            load_tree(str(path))
        with pytest.raises(TreeError):
            tree_from_dict(data)


def test_validate_tree_rejects_non_integer_letters():
    for nodes in (
        [(), (1.9,)],
        [(), (True,)],
        [(), (0,), (0, 1.0)],
        [(), ("1",)],
        [(), (0,), (0.0,)],
        # each equals (1, 0), and its prefix equals (1,), which is present:
        # only the type of every letter tells them from a word of ints
        [(), (1,), (True, 0)],
        [(), (1,), (1.0, 0)],
    ):
        with pytest.raises(TreeError, match="not an integer"):
            validate_tree(nodes, 2)
    assert tree_words(validate_tree([[], [1], iter([1, 0])], 2)) == (
        (), (1,), (1, 0))


def test_tree_json_validates_on_load(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"k": 2, "nodes": [[0]]}))
    with pytest.raises(TreeError, match="^tree does not contain the empty word$"):
        load_tree(str(path))
    with pytest.raises(TreeError):
        tree_from_dict({"nodes": [[]]})
    assert tree_to_dict(validate_tree([(), (0,)], 1)) == {
        "k": 1,
        "nodes": [[], [0]],
    }

