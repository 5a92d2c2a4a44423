import copy
import itertools
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from colorvisit.corpus import TreeGenParams, random_coloring, random_tree
from colorvisit.erdos import build_erdos
from colorvisit.oracles import in_restricted
from colorvisit.trees import (
    FiniteColorTree,
    FullColorTree,
    TreeError,
    builtin_tree,
    full_tree,
    load_tree,
    tree_from_dict,
    tree_to_dict,
    validate_tree,
)
from conftest import save_tree


def test_validate_accepts_root_only():
    tree = validate_tree([()], 2)
    assert tree.nodes == frozenset({()})
    assert tree.contains(())


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
    for w in tree.nodes:
        for i in range(len(w)):
            assert w[:i] in tree.nodes
    revalidated = validate_tree(tree.nodes, tree.k)
    assert revalidated.nodes == tree.nodes


@given(params=st_params, extra=st.lists(st.integers(0, 3), max_size=6).map(tuple))
def test_in_restricted_full_priority_agrees_with_membership(params, extra):
    tree = random_tree(params)
    assert in_restricted(tree, range(tree.k), (), extra) == tree.contains(extra)


@given(params=st_params, data=st.data())
def test_in_restricted_is_prefix_closed_above_root(params, data):
    tree = random_tree(params)
    nodes = sorted(tree.nodes)
    root = data.draw(st.sampled_from(nodes))
    priority = tuple(data.draw(st.permutations(range(tree.k))))[
        : data.draw(st.integers(0, tree.k))
    ]
    accepted = [w for w in nodes if in_restricted(tree, priority, root, w)]
    for w in accepted:
        for i in range(len(root), len(w)):
            assert in_restricted(tree, priority, root, w[:i])


def test_oracle_trees():
    u = full_tree(1)
    assert u.contains((0, 0, 0)) and not u.contains((1,))
    f3 = full_tree(3)
    assert f3.contains((2, 1, 0)) and not f3.contains((3,))
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
        assert hash(copy.copy(tree)) == hash(tree)
        with pytest.raises(AttributeError):
            tree.k = 5
    assert repr(full_tree(3)) == "FullColorTree(k=3)"
    assert full_tree(3) != full_tree(2) and full_tree(1) == builtin_tree("unary")


@pytest.mark.parametrize("name", ["full:\u0662", "full:1_0", "full:+2", "full:\u00b2"])
def test_builtin_tree_count_takes_ascii_digits_only(name):
    # int() alone would read Arabic-Indic 2, "1_0" and "+2" as counts
    with pytest.raises(TreeError, match="bad color count"):
        builtin_tree(name)


def test_step_is_one_probe(binary_depth2):
    # every membership test of the node set is logged, through ``contains``
    # or not
    probed = []

    class LoggedNodes(frozenset):
        def __contains__(self, w):
            probed.append(w)
            return super().__contains__(w)

    tree = FiniteColorTree(2, LoggedNodes(binary_depth2.nodes))
    step = tree.step(0)
    assert probed == []
    assert tree.node((0,)) == (0,)
    assert step((0,)) == (0, 0)
    assert probed == [(0, 0)]
    probed.clear()
    assert step((0, 1)) is None
    assert probed == [(0, 1, 0)]


def test_builtin_step_agrees_with_contains(monkeypatch):
    probed = []
    contains = FullColorTree.contains
    monkeypatch.setattr(
        FullColorTree, "contains",
        lambda self, w: probed.append(w) or contains(self, w),
    )
    for tree in [full_tree(k) for k in (1, 2, 3, 4)] + [builtin_tree("unary")]:
        words = [w for n in range(4) for w in itertools.product(range(tree.k), repeat=n)]
        steps = {
            (w, c): tree.step(c)(tree.node(w))
            for w in words for c in range(-3, 7)
        }
        assert probed == []
        for (w, c), node in steps.items():
            assert (node is not None) == contains(tree, w + (c,))
            if node is not None:
                assert node == tree.node(w + (c,))


def test_every_kind_of_node_answers_contains_and_node_by_its_steps():
    # words for a tree file, depths for a full tree, ids for a comparison
    # tree: a word is in the tree exactly when the steps along it from the
    # root's node never leave the tree, and then it names the node they
    # reach; each tree with its count of words up to depth 4
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
                assert tree.contains(w) is (node is not None), (tree, w)
                if node is not None:
                    assert tree.node(w) == node
                    inside += 1
        assert inside == count


@given(
    k=st.integers(1, 4),
    w=st.lists(st.integers(-3, 6), max_size=8).map(tuple),
)
def test_builtin_predicates_match_their_letter_by_letter_form(k, w):
    assert full_tree(k).contains(w) == all(0 <= c < k for c in w)
    assert builtin_tree("unary").contains(w) == all(c == 0 for c in w)


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
    ):
        with pytest.raises(TreeError, match="not an integer"):
            validate_tree(nodes, 2)
    assert validate_tree([[], [1], iter([1, 0])], 2).nodes == {(), (1,), (1, 0)}


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

