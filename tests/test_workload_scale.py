"""The benchmark workloads' own inputs, checked against the references.

The homog-hash workload builds a shallow bushy comparison tree of 20 000
nodes and homog-chain a chain of 1000; the other tests check the build and
the visit against the references at a few dozen nodes.  Here the build is
compared with insertion and the visit with its definition at the
workloads' own sizes.
"""

import itertools

import pytest

from colorvisit.dsl import dsl_coloring
from colorvisit.erdos import build_erdos, homog_pipeline
from colorvisit.oracles import (
    build_by_insertion,
    check_erdos_property,
    visit_by_definition,
    visit_words,
)
from colorvisit.visit import Visit, visit_nodes

# homog-hash's coloring at pool variant 0: A, B, C are
# perfbench/workloads.py::hash_params(0), copied, since the tests do not
# import the benchmark
HASH = "((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521"
HASH_HORIZON = 20000
CHAIN = "if x < y then x else y"
CHAIN_HORIZON = 1000


@pytest.fixture(scope="module")
def hash_tree():
    return build_erdos(dsl_coloring(HASH, 3), HASH_HORIZON)


def test_hash_build_equals_insertion(hash_tree):
    coloring = dsl_coloring(HASH, 3)
    assert hash_tree == build_by_insertion(coloring, HASH_HORIZON)
    assert check_erdos_property(hash_tree, coloring)


def test_chain_build_equals_insertion():
    coloring = dsl_coloring(CHAIN, 3)
    tree = build_erdos(coloring, CHAIN_HORIZON)
    assert tree == build_by_insertion(coloring, CHAIN_HORIZON)
    assert check_erdos_property(tree, coloring)


def homog_visit_words(tree, priority):
    """The words of the complete visit a ``homog`` run makes of ``tree``."""
    _, parent, letter, terminated = visit_nodes(tree, priority, 0, tree.size + 1)
    assert terminated
    return visit_words(Visit(tree.k, (), priority, terminated, parent, letter))


@pytest.mark.parametrize("priority", [(0, 1, 2), (2, 0, 1)])
def test_hash_visit_equals_its_definition(hash_tree, priority):
    reference = visit_by_definition(hash_tree, priority)
    assert homog_visit_words(hash_tree, priority) == reference
    # the report's branch is the root path of the reference visit's last
    # word, and each branch edge puts its upper node into its color's class
    node, classes = 0, [set() for _ in range(3)]
    for c in reference[-1]:
        classes[c].add(node)
        node = hash_tree.children[c][node]
    coloring = dsl_coloring(HASH, 3)
    report, _ = homog_pipeline(coloring, HASH_HORIZON, 2 * HASH_HORIZON, priority)
    assert report.classes == tuple(frozenset(c) for c in classes)
    for i, cls in enumerate(classes):
        for x, y in itertools.combinations(sorted(cls), 2):
            assert coloring(x, y) == i


def test_small_hash_visits_equal_their_definition():
    tree = build_erdos(dsl_coloring(HASH, 3), 2000)
    for priority in itertools.permutations(range(3)):
        assert homog_visit_words(tree, priority) == visit_by_definition(
            tree, priority), priority
