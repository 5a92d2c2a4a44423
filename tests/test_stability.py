import pytest
from hypothesis import given, strategies as st

from colorvisit.oracles import brute_stable_indices
from colorvisit.stability import (
    branch_approx,
    branch_approx_of,
    branch_census,
    color_census,
    stable_indices,
    stable_indices_of,
    visit_census,
)
from colorvisit.trees import unary_tree
from colorvisit.visit import enumerate_visit

GOLDEN = ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))

st_order = st.lists(
    st.lists(st.integers(0, 2), max_size=5).map(tuple), min_size=1, max_size=12
)


def test_stable_on_chain_every_index():
    assert stable_indices_of([(), (0,), (0, 0)]) == (0, 1, 2)


def test_stable_on_golden_order():
    # the root vacuously dominates everything, and the last entry always
    # qualifies; nothing in between survives the 0/1 subtree switch
    assert stable_indices_of(GOLDEN) == (0, 6)
    assert brute_stable_indices(GOLDEN) == (0, 6)


def test_stable_drops_overtaken_sibling():
    order = [(), (0,), (0, 0), (0, 1)]
    assert stable_indices_of(order) == (0, 1, 3)


def test_stable_rejects_empty():
    with pytest.raises(ValueError):
        stable_indices_of([])


@given(order=st_order)
def test_stable_matches_brute_force(order):
    assert stable_indices_of(order) == brute_stable_indices(order)


@given(order=st_order)
def test_stable_last_index_always_included(order):
    assert stable_indices_of(order)[-1] == len(order) - 1


def test_stable_entries_form_a_prefix_chain_on_visits(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    idx = stable_indices(visit)
    ws = [visit.order[m] for m in idx]
    for a, b in zip(ws, ws[1:]):
        assert b[: len(a)] == a and len(a) < len(b)


def test_branch_examples():
    assert branch_approx_of([()], ()) == ((),)
    assert branch_approx_of(GOLDEN, ()) == ((), (1,), (1, 0))
    chain = tuple((0,) * i for i in range(5))
    assert branch_approx_of(chain, ()) == chain


def test_branch_starts_at_visit_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (1,), budget=100)
    branch = branch_approx(visit)
    assert branch[0] == (1,)
    for a, b in zip(branch, branch[1:]):
        assert b[: len(a)] == a and len(b) == len(a) + 1


def test_census_examples():
    assert color_census([(), (1,), (1, 0)], 2) == {0: 1, 1: 1}
    assert color_census(GOLDEN, 2) == {0: 3, 1: 3}
    assert color_census([()], 2) == {0: 0, 1: 0}


def test_census_wrappers(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit_census(visit) == {0: 3, 1: 3}
    assert branch_census(branch_approx(visit), 2) == {0: 1, 1: 1}


def test_census_ignores_parentless_entries():
    # (1, 1) has no parent in the sequence, so its edge is not counted
    assert color_census([(), (1, 1)], 2) == {0: 0, 1: 0}


def test_census_counts_match_visit_length():
    visit = enumerate_visit(unary_tree(), (0,), (), budget=42)
    census = visit_census(visit)
    assert sum(census.values()) == len(visit.order) - 1
