"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion is checked at its stated size and time budget.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from colorvisit.colorings import builtin_coloring
from colorvisit.corpus import (
    TreeGenParams,
    chain_tree,
    complete_tree,
    random_coloring,
    random_tree,
)
from colorvisit.dsl import dsl_coloring
from colorvisit.erdos import build_erdos, homog_pipeline
from colorvisit.oracles import (
    all_visits,
    ancestor_formula_relation,
    branch_census,
    check_erdos_property,
    check_visit,
    is_complete_for,
    nth_expansion,
    restricted_nodes,
    tree_words,
    visit_words,
)
from colorvisit.trees import full_tree
from colorvisit.visit import Visit, enumerate_visit, lex_order
from conftest import save_tree


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return wrapper

    return deco


def _corpus(seed: int, count: int, k_max: int = 4, max_nodes: int = 40):
    """Deterministic (tree, priority, root) corpus with degenerate shapes."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        k = rng.randint(1, k_max)
        shape = rng.randrange(10)
        if shape == 0:
            tree = chain_tree(k, rng.randrange(k), rng.randint(0, max_nodes - 1))
        elif shape == 1:
            tree = complete_tree(k, 1)
        elif shape == 2:
            depth = {1: max_nodes - 1, 2: 4, 3: 2, 4: 2}[k]
            tree = complete_tree(k, depth)
            if tree.size > max_nodes:
                tree = complete_tree(k, depth - 1)
        else:
            tree = random_tree(
                TreeGenParams(
                    k=k,
                    max_depth=rng.randint(1, 8),
                    max_nodes=rng.randint(1, max_nodes),
                    branching=rng.uniform(0.1, 1.0),
                    seed=rng.randrange(2**32),
                )
            )
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        nodes = sorted(tree_words(tree))
        root = () if rng.random() < 0.7 else nodes[rng.randrange(len(nodes))]
        cases.append((tree, priority, root))
    return cases


@pytest.fixture(scope="module")
def visit_corpus():
    return _corpus(seed=1001, count=500)


@pytest.fixture(scope="module")
def corpus_visits(visit_corpus):
    out = []
    for tree, priority, root in visit_corpus:
        visit = enumerate_visit(tree, priority, root, budget=tree.size + 1)
        out.append((tree, priority, root, visit))
    return out


@criterion("1 (no repetitions, prefix-closed)")
def test_criterion_1_subtree_invariants(corpus_visits):
    start = time.monotonic()
    assert len(corpus_visits) >= 500
    for tree, _priority, root, visit in corpus_visits:
        order = visit_words(visit)
        entries = set(order)
        assert len(entries) == len(order), "repetition in enumeration"
        assert order[0] == root
        for w in order:
            if w != root:
                assert w[:-1] in entries, "parent missing above the root"
    assert time.monotonic() - start < 30.0


@criterion("2 (terminated visits cover the restricted subtree)")
def test_criterion_2_completeness_and_coverage(corpus_visits):
    for tree, priority, root, visit in corpus_visits:
        assert visit.terminated, "finite tree with slack budget must terminate"
        order = visit_words(visit)
        assert is_complete_for(tree, order, priority)
        assert frozenset(order) == restricted_nodes(tree, priority, root)


@criterion("3 (accepted lists form a chain; unique one-step extension)")
def test_criterion_3_oracle_equivalence():
    rng = random.Random(3003)
    instances = 0
    worst = 0.0
    while instances < 100:
        k = rng.randint(1, 3)
        tree = random_tree(
            TreeGenParams(
                k=k,
                max_depth=rng.randint(1, 6),
                max_nodes=rng.randint(1, 25),
                branching=rng.uniform(0.2, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        t0 = time.monotonic()
        accepted = all_visits(tree, priority, ())
        run = enumerate_visit(tree, priority, (), budget=tree.size + 1)
        for a, b in itertools.combinations(accepted, 2):
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] == shorter, "accepted lists not a chain"
        maximal = max(accepted, key=len)
        assert maximal == visit_words(run), "maximum differs from the generator run"
        nodes = sorted(tree_words(tree))
        for candidate in accepted:
            extensions = [
                m
                for m in nodes
                if m not in candidate
                and check_visit(tree, candidate + (m,), priority, ())
            ]
            if candidate == maximal:
                assert extensions == []
            else:
                assert len(extensions) == 1, "extension not unique"
        worst = max(worst, time.monotonic() - t0)
        instances += 1
    assert worst < 10.0, f"slowest instance took {worst:.1f}s"


@criterion("4 (expansion routes agree on 10^4 queries)")
def test_criterion_4_expansion_agreement():
    """The run path expands a frame by the c-children of its entries in
    ``lex_order`` from the frame's head, a horizon-stable index; the
    reference is ``nth_expansion`` over the same entries' words."""
    rng = random.Random(4004)
    queries = 0
    for _ in range(500):
        k = rng.randint(1, 4)
        tree = random_tree(
            TreeGenParams(
                k=k,
                max_depth=rng.randint(1, 6),
                max_nodes=rng.randint(1, 40),
                branching=rng.uniform(0.2, 1.0),
                seed=rng.randrange(2**32),
            )
        )
        priority = tuple(rng.sample(range(k), rng.randint(1, k)))
        visit = enumerate_visit(tree, priority, (), budget=tree.size + 1)
        words = visit_words(visit)
        for _ in range(20):
            b = rng.randint(1, len(words))
            parent, letter = visit.parent[:b], visit.letter[:b]
            m = rng.choice(Visit(k, (), priority, False, parent, letter).stable())
            n = rng.randint(0, b - m + 1)
            c = rng.randrange(k)
            child = tree.step(c)
            hits = [words[i] + (c,) for i in lex_order(parent, letter, m)
                    if child(tree.node(words[i])) is not None]
            run_path = hits[n] if n < len(hits) else None
            assert run_path == nth_expansion(tree, words[m:b], n, c)
            queries += 1
    assert queries >= 10_000


@criterion("5 (golden worked traces)")
def test_criterion_5_golden_traces():
    visit = enumerate_visit(complete_tree(2, 2), (0, 1), (), budget=100)
    assert visit_words(visit) == ((), (1,), (1, 1), (0,), (0, 0), (0, 1), (1, 0))
    assert visit.terminated

    chain = enumerate_visit(full_tree(1), (0,), (), budget=5)
    order = visit_words(chain)
    assert order == ((), (0,), (0, 0), (0, 0, 0), (0, 0, 0, 0))
    assert not chain.terminated
    for i in range(1, len(order)):
        assert order[i] == order[i - 1] + (0,)


@criterion("6 (construction property and ancestor-formula agreement)")
def test_criterion_6_erdos_property():
    rng = random.Random(6006)
    for case in range(200):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 64)
        coloring = random_coloring(rng.randrange(2**32), k, size)
        tree = build_erdos(coloring, size)
        assert check_erdos_property(tree, coloring)
        small = min(size, 20)
        descent = set()
        for y in range(small):
            z = y
            while tree.parent[z] is not None:
                descent.add((tree.parent[z], y))
                z = tree.parent[z]
        assert descent == ancestor_formula_relation(coloring, small)


@criterion("7 (every pipeline run verifies)")
def test_criterion_7_homogeneity():
    start = time.monotonic()
    rng = random.Random(7007)
    runs = []
    for source in (
        dsl_coloring("(x + y) % 2", 2),
        dsl_coloring("(x * y + x) % 3", 3),
        dsl_coloring("if x < y then x else y", 4),
        dsl_coloring("min(x, y) / 3", 3),
        builtin_coloring("constant:0", 2),
        builtin_coloring("constant:2", 3),
        builtin_coloring("sum-mod", 2),
        builtin_coloring("sum-mod", 4),
        builtin_coloring("diff-mod", 3),
        builtin_coloring("block:5", 2),
    ):
        runs.append((source, 200, 4000))
        runs.append((source, 37, 150))
    for _ in range(20):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 200)
        runs.append((random_coloring(rng.randrange(2**32), k, size), size, 4 * size))
    for coloring, size, budget in runs:
        report, _visit = homog_pipeline(coloring, size, budget)
        assert report.verified, f"unverified: {coloring.name} at N={size}"
        assert all(
            coloring(a, b) == i
            for i, cls in enumerate(report.classes)
            for a, b in itertools.combinations(sorted(cls), 2)
        )
    assert time.monotonic() - start < 60.0


@criterion("8 (branch census grows with the budget)")
def test_criterion_8_branch_reflection():
    budgets = (100, 400, 1600)

    def stable_chain_ok(visit, order):
        ws = [order[m] for m in visit.stable()]
        return all(b[: len(a)] == a for a, b in zip(ws, ws[1:]))

    # unary chain: color 0 occurs unboundedly
    counts = []
    for budget in budgets:
        visit = enumerate_visit(full_tree(1), (0,), (), budget=budget)
        order = visit_words(visit)
        assert stable_chain_ok(visit, order)
        counts.append(branch_census(order, 1)[0])
    assert counts[0] < counts[1] < counts[2]

    # parity coloring: the visit commits to the all-even branch (color 0)
    counts = []
    for budget in budgets:
        coloring = builtin_coloring("sum-mod", 2)
        report, visit = homog_pipeline(coloring, 2 * budget + 16, budget)
        assert not visit.terminated, "horizon must outlast the budget"
        assert stable_chain_ok(visit, visit_words(visit))
        counts.append(report.census[0])
    assert counts[0] < counts[1] < counts[2]

    # sum mod 3: the visit commits to the residue-1 chain (color 2)
    counts = []
    for budget in budgets:
        coloring = builtin_coloring("sum-mod", 3)
        report, visit = homog_pipeline(coloring, 3 * budget + 16, budget)
        assert not visit.terminated, "horizon must outlast the budget"
        assert stable_chain_ok(visit, visit_words(visit))
        counts.append(report.census[2])
    assert counts[0] < counts[1] < counts[2]


@criterion("9 (byte-identical outputs across repeated runs)")
def test_criterion_9_determinism(tmp_path, cli_env):
    tree_path = tmp_path / "tree.json"
    save_tree(complete_tree(3, 2), str(tree_path))
    commands = [
        (
            ["visit", "--tree", str(tree_path), "--priority", "2,0,1",
             "--budget", "40", "--out", "trace.json"],
            "trace.json",
        ),
        (
            ["homog", "--coloring", "(x + y) % 3", "--k", "3",
             "--horizon", "60", "--budget", "600", "--out", "report.json"],
            "report.json",
        ),
        (
            ["check", "--suite", "expansions", "--seed", "9", "--cases", "5"],
            None,
        ),
    ]
    for args, artifact in commands:
        outputs = []
        for _ in range(3):
            result = subprocess.run(
                [sys.executable, "-m", "colorvisit.cli", *args],
                capture_output=True,
                cwd=tmp_path,
                env=cli_env,
            )
            assert result.returncode == 0, result.stderr.decode()
            blob = result.stdout
            if artifact:
                blob += (tmp_path / artifact).read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1] == outputs[2]
