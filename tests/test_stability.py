from hypothesis import given

from colorvisit.oracles import branch_census, brute_stable_indices, visit_words
from colorvisit.trees import full_tree, validate_tree
from colorvisit.visit import enumerate_visit

from conftest import st_visits

GOLDEN = ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))


def test_stable_on_chain_every_index():
    visit = enumerate_visit(full_tree(1), (0,), (), budget=3)
    assert visit.parent == (-1, 0, 1)
    assert visit.stable() == (0, 1, 2)


def test_stable_on_golden_order(binary_depth2):
    # the root vacuously dominates everything, and the last entry always
    # qualifies; nothing in between survives the 0/1 subtree switch
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert visit_words(visit) == GOLDEN
    assert visit.stable() == (0, 6)
    assert brute_stable_indices(GOLDEN) == (0, 6)


def test_stable_drops_overtaken_sibling():
    tree = validate_tree([(), (0,), (0, 0), (0, 1)], 2)
    visit = enumerate_visit(tree, (0, 1), (), budget=10)
    assert visit_words(visit) == ((), (0,), (0, 0), (0, 1))
    assert visit.stable() == (0, 1, 3)


@given(visit=st_visits())
def test_stable_matches_brute_force(visit):
    assert visit.stable() == brute_stable_indices(visit_words(visit))


@given(visit=st_visits())
def test_stable_last_index_always_included(visit):
    assert visit.stable()[-1] == len(visit_words(visit)) - 1


def test_stable_entries_form_a_prefix_chain_on_visits(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    idx = visit.stable()
    order = visit_words(visit)
    ws = [order[m] for m in idx]
    for a, b in zip(ws, ws[1:]):
        assert b[: len(a)] == a and len(a) < len(b)


def test_branch_examples(binary_depth2):
    root_only = enumerate_visit(validate_tree([()], 2), (0, 1), (), budget=10)
    assert root_only.branch() == (0,)
    golden = enumerate_visit(binary_depth2, (0, 1), (), budget=100)
    assert golden.branch() == (0, 1, 6)
    assert [GOLDEN[i] for i in golden.branch()] == [(), (1,), (1, 0)]
    assert [golden.letter[i] for i in golden.branch()] == [-1, 1, 0]
    chain = enumerate_visit(full_tree(1), (0,), (), budget=5)
    assert chain.branch() == tuple(range(5))


@given(visit=st_visits())
def test_branch_is_the_prefix_chain_of_the_last_entry(visit):
    order = visit_words(visit)
    deepest = order[-1]
    branch = [order[i] for i in visit.branch()]
    assert branch == [
        deepest[:i] for i in range(len(visit.root), len(deepest) + 1)
    ]
    # every horizon-stable entry lies on the branch
    assert set(visit.stable()) <= set(visit.branch())


def test_branch_starts_at_visit_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (1,), budget=100)
    order = visit_words(visit)
    branch = [order[i] for i in visit.branch()]
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
    assert branch_census([order[i] for i in visit.branch()], 2) == {0: 1, 1: 1}


def test_census_ignores_parentless_entries():
    # (1, 1) has no parent in the sequence, so its edge is not counted
    assert branch_census([(), (1, 1)], 2) == {0: 0, 1: 0}


def test_census_counts_match_visit_length():
    visit = enumerate_visit(full_tree(1), (0,), (), budget=42)
    order = visit_words(visit)
    census = branch_census(order, 1)
    assert sum(census.values()) == len(order) - 1


@given(visit=st_visits())
def test_visit_census_counts_every_edge_of_the_order(visit):
    # every entry after the visit's root is a child of an earlier entry
    order = visit_words(visit)
    counts = {c: 0 for c in range(visit.k)}
    for w in order[1:]:
        counts[w[-1]] += 1
    assert branch_census(order, visit.k) == counts
