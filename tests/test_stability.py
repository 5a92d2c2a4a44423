import pytest
from hypothesis import given

from colorvisit.oracles import branch_census, brute_stable_indices, visit_words
from colorvisit.stability import branch_approx_of, stable_indices, stable_indices_of
from colorvisit.trees import unary_tree, validate_tree
from colorvisit.visit import enumerate_visit

from conftest import st_visits

GOLDEN = ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))


def test_stable_on_chain_every_index():
    visit = enumerate_visit(unary_tree(), (0,), (), budget=3)
    assert visit.parent == (-1, 0, 1)
    assert stable_indices(visit) == (0, 1, 2)


def test_stable_on_golden_order(binary_depth2):
    # the root vacuously dominates everything, and the last entry always
    # qualifies; nothing in between survives the 0/1 subtree switch
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit_words(visit) == GOLDEN
    assert stable_indices(visit) == (0, 6)
    assert brute_stable_indices(GOLDEN) == (0, 6)


def test_stable_drops_overtaken_sibling():
    tree = validate_tree([(), (0,), (0, 0), (0, 1)], 2)
    visit = enumerate_visit(tree, (0, 1), (), budget=10)
    assert visit_words(visit) == ((), (0,), (0, 0), (0, 1))
    assert stable_indices(visit) == (0, 1, 3)


def test_stable_rejects_empty():
    with pytest.raises(ValueError):
        stable_indices_of(())
    with pytest.raises(ValueError):
        branch_approx_of((), ())


@given(visit=st_visits())
def test_stable_matches_brute_force(visit):
    assert stable_indices(visit) == brute_stable_indices(visit_words(visit))


@given(visit=st_visits())
def test_stable_last_index_always_included(visit):
    assert stable_indices(visit)[-1] == len(visit_words(visit)) - 1


def test_stable_entries_form_a_prefix_chain_on_visits(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    idx = stable_indices(visit)
    order = visit_words(visit)
    ws = [order[m] for m in idx]
    for a, b in zip(ws, ws[1:]):
        assert b[: len(a)] == a and len(a) < len(b)


def test_branch_examples(binary_depth2):
    root_only = enumerate_visit(validate_tree([()], 2), (0, 1), (), budget=10)
    assert branch_approx_of(visit_words(root_only), root_only.parent) == ((),)
    golden = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert branch_approx_of(visit_words(golden), golden.parent) == ((), (1,), (1, 0))
    assert branch_approx_of(range(len(GOLDEN)), golden.parent) == (0, 1, 6)
    assert branch_approx_of(golden.letter, golden.parent) == (-1, 1, 0)
    chain = enumerate_visit(unary_tree(), (0,), (), budget=5)
    assert branch_approx_of(visit_words(chain), chain.parent) == visit_words(chain)


@given(visit=st_visits())
def test_branch_is_the_prefix_chain_of_the_last_entry(visit):
    order = visit_words(visit)
    deepest = order[-1]
    branch = branch_approx_of(order, visit.parent)
    assert branch == tuple(
        deepest[:i] for i in range(len(visit.root), len(deepest) + 1)
    )
    # the branch reuses the order's words instead of slicing new ones
    indices = branch_approx_of(range(len(order)), visit.parent)
    assert all(w is order[i] for w, i in zip(branch, indices))


def test_branch_starts_at_visit_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (1,), budget=100)
    branch = branch_approx_of(visit_words(visit), visit.parent)
    assert branch[0] == (1,)
    for a, b in zip(branch, branch[1:]):
        assert b[: len(a)] == a and len(b) == len(a) + 1


def test_census_examples():
    assert branch_census([(), (1,), (1, 0)], 2) == {0: 1, 1: 1}
    assert branch_census(GOLDEN, 2) == {0: 3, 1: 3}
    assert branch_census([()], 2) == {0: 0, 1: 0}


def test_census_wrappers(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    order = visit_words(visit)
    assert branch_census(order, 2) == {0: 3, 1: 3}
    assert branch_census(branch_approx_of(order, visit.parent), 2) == {0: 1, 1: 1}


def test_census_ignores_parentless_entries():
    # (1, 1) has no parent in the sequence, so its edge is not counted
    assert branch_census([(), (1, 1)], 2) == {0: 0, 1: 0}


def test_census_counts_match_visit_length():
    visit = enumerate_visit(unary_tree(), (0,), (), budget=42)
    order = visit_words(visit)
    census = branch_census(order, 1)
    assert sum(census.values()) == len(order) - 1


@given(visit=st_visits())
def test_visit_census_counts_every_edge_of_the_order(visit):
    # every entry after the visit's root is a child of an earlier entry
    order = visit_words(visit)
    counts = {c: 0 for c in range(visit.tree.k)}
    for w in order[1:]:
        counts[w[-1]] += 1
    assert branch_census(order, visit.tree.k) == counts
