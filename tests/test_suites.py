"""The seeded suites themselves: they pass, and their shrinker works."""

import inspect

import pytest

from colorvisit import erdos, suites
from colorvisit.cli import main
from colorvisit.suites import SUITES, _shrink_tree, tree_corpus
from colorvisit.trees import FiniteColorTree, validate_tree


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_briefly(name):
    result = SUITES[name](5, 8)
    assert result.passed, result.failure
    assert result.cases >= 8
    assert result.name == name


# the seeds of the benchmark's check-suites pool, so a change to a generator
# that breaks a benchmark case fails here first
@pytest.mark.parametrize("seed", range(16))
def test_suites_pass_at_benchmark_seeds(seed):
    for name in sorted(SUITES):
        result = SUITES[name](seed, 10)
        assert result.passed, (name, result.failure)
        assert result.cases >= 10


def test_a_visit_word_outside_the_tree_fails_the_visits_suite(monkeypatch, capsys):
    """A generator that emits a word outside its tree is a failed property,
    exit 1 with a shrunk counterexample, not a configuration error."""
    words = suites.visit_words
    monkeypatch.setattr(suites, "visit_words", lambda v: words(v) + ((99,),))
    result = SUITES["visits"](0, 5)
    assert not result.passed
    assert "enumeration invariant failed" in result.failure
    assert "tree=" in result.failure
    assert main(["check", "--suite", "visits", "--cases", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("suite visits: FAIL")
    assert captured.err.startswith("counterexample for suite visits:\n")


def test_a_visit_that_raises_fails_the_visits_suite(monkeypatch, capsys):
    """A generator that raises on every tree of more than 12 nodes, the
    trees too large for the exhaustive checker, is a failed property, and
    the counterexample says what it raised."""
    visit = suites.enumerate_visit

    def raising(tree, priority, root, budget):
        if tree.size > 12:
            raise RuntimeError("generator bug")
        return visit(tree, priority, root, budget)

    monkeypatch.setattr(suites, "enumerate_visit", raising)
    raised = "visit raised RuntimeError: generator bug\n"
    result = suites.suite_visits(3, 200)
    assert not result.passed
    assert result.failure.startswith(f"enumeration invariant failed: {raised}")
    restricted = suites.suite_restricted(3, 200)
    assert not restricted.passed
    assert restricted.failure.startswith("enumeration invariant failed from root (")
    assert f"): {raised}priority=[" in restricted.failure
    assert main(["check", "--suite", "visits", "--seed", "3",
                 "--cases", "200"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("suite visits: FAIL")
    assert err.startswith(f"counterexample for suite visits:\n"
                          f"enumeration invariant failed: {raised}")


def test_a_build_that_raises_fails_the_erdos_and_homog_suites(monkeypatch, capsys):
    """A build that takes each color group's last number as the child, not
    its first, hands a row numbers below its node and raises.  In both
    suites that is a failed case, exit 1, whose counterexample names the
    exception and the coloring; it is not a configuration error."""
    source = inspect.getsource(erdos.build_erdos)
    assert source.count("child = group[0]") == 1
    namespace = dict(vars(erdos))
    exec(source.replace("child = group[0]", "child = group[-1]"), namespace)
    monkeypatch.setattr(erdos, "build_erdos", namespace["build_erdos"])
    monkeypatch.setattr(suites, "build_erdos", namespace["build_erdos"])
    for name, raised in (
        ("erdos", "build raised ColoringError: row of 45 must lie above it, "
                  "got 10: random(seed=3823568514,k=3,size=50)"),
        ("homog", "pipeline raised ColoringError: row of 117 must lie above "
                  "it, got 2: constant:0 size=118"),
    ):
        assert main(["check", "--suite", name, "--cases", "20"]) == 1
        out, err = capsys.readouterr()
        assert out == f"suite {name}: FAIL (1 cases)\n"
        assert err == f"counterexample for suite {name}:\n{raised}\n"


@pytest.mark.parametrize("seed", range(16))
def test_a_visit_that_ignores_its_root_fails_the_restricted_suite(
        seed, monkeypatch, capsys):
    visit = suites.enumerate_visit
    monkeypatch.setattr(suites, "enumerate_visit",
                        lambda tree, priority, root, budget:
                        visit(tree, priority, (), budget))
    result = suites.suite_restricted(seed, 50)
    assert not result.passed
    assert result.failure.startswith("enumeration invariant failed from root (")
    assert "\npriority=[" in result.failure and "\ntree={" in result.failure
    assert main(["check", "--suite", "restricted", "--seed", str(seed),
                 "--cases", "50"]) == 1
    assert capsys.readouterr().out.startswith("suite restricted: FAIL")


def children_in_reversed_color_order(parent, letter, head):
    kids = {}
    for i in sorted(range(head + 1, len(parent)), key=letter.__getitem__):
        kids.setdefault(parent[i], []).append(i)
    out, todo = [], [head]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids.get(i, ()))
    return out


def index_order(parent, letter, head):
    return list(range(head, len(parent)))


@pytest.mark.parametrize("broken", [children_in_reversed_color_order,
                                    index_order])
def test_a_broken_lex_order_fails_the_expansions_suite(broken, monkeypatch,
                                                        capsys):
    monkeypatch.setattr(suites, "lex_order", broken)
    result = SUITES["expansions"](0, 5)
    assert not result.passed
    assert "lex_order disagrees with the word order" in result.failure
    assert main(["check", "--suite", "expansions", "--cases", "5"]) == 1
    assert capsys.readouterr().out.startswith("suite expansions: FAIL")


# the benchmark's recorded check-suites digests cover these lines, case
# counts included
@pytest.mark.parametrize("seed, cases, out", [
    (3, 3, "suite erdos: pass (3 cases)\n"
           "suite expansions: pass (30 cases)\n"
           "suite homog: pass (3 cases)\n"
           "suite restricted: pass (3 cases)\n"
           "suite visits: pass (3 cases)\n"),
    (11, 2, "suite erdos: pass (2 cases)\n"
            "suite expansions: pass (20 cases)\n"
            "suite homog: pass (2 cases)\n"
            "suite restricted: pass (2 cases)\n"
            "suite visits: pass (2 cases)\n"),
])
def test_check_all_prints_one_pass_line_per_suite(seed, cases, out, capsys):
    assert main(["check", "--suite", "all", "--seed", str(seed),
                 "--cases", str(cases)]) == 0
    assert capsys.readouterr().out == out


def test_corpus_is_deterministic_and_mixed():
    a = list(tree_corpus(3, 40))
    b = list(tree_corpus(3, 40))
    assert a == b
    sizes = {t.size for t, _ in a}
    assert len(sizes) > 5
    assert all(t.size <= 40 for t, _ in a)


def test_shrinker_minimizes_to_the_failing_core():
    tree = validate_tree([(), (0,), (1,), (0, 0), (0, 1), (1, 1)], 2)

    def failing(t: FiniteColorTree) -> bool:
        return t.node((0, 1)) is not None

    small = _shrink_tree(tree, failing)
    # everything removable without losing the witness (or its prefixes) goes
    assert small == validate_tree([(), (0,), (0, 1)], 2)
