"""Seeded property suites behind the ``check`` command.

Each suite draws a deterministic corpus from its seed, replays the package
invariants on it, and reports the first failure with a shrunk input dump.
The suites mirror the pytest properties so the same checks can run from an
installed CLI without the test tree.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Iterator, Optional

from .colorings import Coloring, builtin_coloring
from .corpus import (
    TreeGenParams,
    chain_tree,
    complete_tree,
    random_coloring,
    random_tree,
    star_tree,
)
from .dsl import dsl_coloring
from .erdos import build_erdos, homog_pipeline
from .oracles import (
    ALL_VISITS_NODE_CAP,
    all_visits,
    ancestor_formula_relation,
    build_by_insertion,
    check_erdos_property,
    is_complete_for,
    restricted_nodes,
    visit_words,
)
from .trees import FiniteColorTree, tree_to_dict
from .visit import Visit, enumerate_visit, lex_order
from .words import ROOT, Record, Word


class SuiteResult(Record):
    __slots__ = ("name", "passed", "cases", "failure")

    def __init__(
        self, name: str, passed: bool, cases: int, failure: Optional[str] = None
    ) -> None:
        super().__init__(name, passed, cases, failure)


# the corpus's largest color count and node count
K_MAX = 4
MAX_NODES = 40


def tree_corpus(seed: int, count: int) -> Iterator[tuple[FiniteColorTree, Word]]:
    """Deterministic stream of (tree, priority) cases mixing random shapes
    with chains, stars and complete trees."""
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        k = rng.randint(1, K_MAX)
        shape = rng.randrange(8)
        if shape == 0:
            tree = chain_tree(k, rng.randrange(k), rng.randint(0, MAX_NODES - 1))
        elif shape == 1:
            tree = star_tree(k)
        elif shape == 2:
            depth = 1
            while _complete_size(k, depth + 1) <= MAX_NODES:
                depth += 1
            tree = complete_tree(k, depth)
        else:
            tree = random_tree(
                TreeGenParams(
                    k=k,
                    max_depth=rng.randint(1, 7),
                    max_nodes=rng.randint(1, MAX_NODES),
                    branching=rng.uniform(0.2, 1.0),
                    seed=rng.randrange(2**32),
                )
            )
        colors = list(range(k))
        rng.shuffle(colors)
        priority = tuple(colors[: rng.randint(0, k)])
        produced += 1
        yield tree, priority


def _complete_size(k: int, depth: int) -> int:
    return depth + 1 if k == 1 else (k ** (depth + 1) - 1) // (k - 1)


def _shrink_tree(
    tree: FiniteColorTree, failing: Callable[[FiniteColorTree], bool]
) -> FiniteColorTree:
    """Greedy leaf removal keeping the failure alive."""
    nodes = set(tree.nodes)
    changed = True
    while changed:
        changed = False
        for leaf in sorted(nodes, key=len, reverse=True):
            if leaf == ROOT:
                continue
            if any(w[: len(leaf)] == leaf for w in nodes if w != leaf):
                continue  # not a leaf
            candidate = FiniteColorTree(tree.k, frozenset(nodes - {leaf}))
            if failing(candidate):
                nodes.discard(leaf)
                changed = True
                break
    return FiniteColorTree(tree.k, frozenset(nodes))


def _visit_broken(
    tree: FiniteColorTree, priority: Word, root: Word
) -> tuple[Optional[str], Optional[tuple[Word, ...]]]:
    """Whether the visit of ``tree`` from ``root`` with a budget one past
    the tree's size raises or breaks an enumeration invariant, and its
    words, None when it raises.

    The first is None for a sound visit and else what follows the failure's
    headline: ``": visit raised T: message"`` for a visit that raises, and
    nothing for a broken invariant."""
    try:
        v = enumerate_visit(tree, priority, root, budget=len(tree.nodes) + 1)
    except Exception as exc:
        return f": {_raised('visit', exc)}", None
    order = visit_words(v)
    entries = set(order)
    broken = (
        len(entries) != len(order)
        or any(w != root and w[:-1] not in entries for w in order)
        or not v.terminated
        or not is_complete_for(tree, order, priority)
        or entries != restricted_nodes(tree, priority, root)
    )
    return ("" if broken else None), order


def _raised(what: str, exc: Exception) -> str:
    return f"{what} raised {type(exc).__name__}: {exc}"


def suite_visits(seed: int, cases: int) -> SuiteResult:
    """Enumeration invariants plus checker agreement on small instances."""
    ran = 0
    for tree, priority in tree_corpus(seed, cases):
        ran += 1

        def bad(t: FiniteColorTree, _p: Word = priority) -> bool:
            return _visit_broken(t, _p, ROOT)[0] is not None

        why, order = _visit_broken(tree, priority, ROOT)
        if why is not None:
            small = _shrink_tree(tree, bad)
            return SuiteResult(
                "visits", False, ran,
                f"enumeration invariant failed{_visit_broken(small, priority, ROOT)[0]}\n"
                f"priority={list(priority)}\ntree={tree_to_dict(small)}",
            )
        if len(tree.nodes) <= min(ALL_VISITS_NODE_CAP, 12):
            accepted = all_visits(tree, priority, ROOT)
            chain_ok = all(
                b[: len(a)] == a
                for a, b in itertools.combinations(sorted(accepted, key=len), 2)
            )
            if not chain_ok or max(accepted, key=len) != order:
                return SuiteResult(
                    "visits", False, ran,
                    f"checker/generator disagreement\npriority={list(priority)}\n"
                    f"tree={tree_to_dict(tree)}",
                )
    return SuiteResult("visits", True, ran)


def suite_expansions(seed: int, cases: int) -> SuiteResult:
    """The run path's base order, ``lex_order``, against the sort of the
    words, from horizon-stable heads of budget-cut visits.

    A visit at budget b is a prefix of the complete visit, and the
    generator calls ``lex_order`` only from a head whose later entries all
    descend from it, so these heads cover every call it makes, heads of
    unfinished frames included.
    """
    rng = random.Random(seed)
    ran = 0
    for tree, priority in tree_corpus(seed + 1, cases):
        visit = enumerate_visit(tree, priority, ROOT, budget=len(tree.nodes) + 1)
        words = visit_words(visit)
        for _ in range(10):
            ran += 1
            b = rng.randint(1, len(words))
            parent, letter = visit.parent[:b], visit.letter[:b]
            cut = Visit(tree.k, ROOT, priority, False, parent, letter)
            m = rng.choice(cut.stable())
            got = lex_order(parent, letter, m)
            expected = sorted(range(m, b), key=words.__getitem__)
            if got != expected:
                return SuiteResult(
                    "expansions", False, ran,
                    f"lex_order disagrees with the word order: budget={b} "
                    f"head={m} got={got} expected={expected}\n"
                    f"priority={list(priority)}\ntree={tree_to_dict(tree)}",
                )
    return SuiteResult("expansions", True, ran)


def suite_erdos(seed: int, cases: int) -> SuiteResult:
    """Construction property, agreement of the row-wise build with
    insertion, formula agreement, and distinct node words, on random
    tables; a build that raises fails its case."""
    rng = random.Random(seed)
    for ran in range(1, cases + 1):
        k = rng.choice([2, 3, 4])
        size = rng.randint(2, 64)
        coloring = random_coloring(rng.randrange(2**32), k, size)
        why = _erdos_broken(coloring, size)
        if why is not None:
            return SuiteResult("erdos", False, ran, f"{why}: {coloring.name}")
    return SuiteResult("erdos", True, cases)


def _erdos_broken(coloring: Coloring, size: int) -> Optional[str]:
    """The first of the erdos suite's properties that fails, or None."""
    try:
        tree = build_erdos(coloring, size)
    except Exception as exc:
        return _raised("build", exc)
    if tree != build_by_insertion(coloring, size):
        return "row-wise build differs from insertion"
    if not check_erdos_property(tree, coloring):
        return "construction violates the edge-color property"
    # a node's word is its parent's plus its edge color
    if len(set(zip(tree.parent, tree.edge_color))) != tree.size:
        return "node words not distinct"
    small = min(size, 20)
    descent = {(x, y) for y in range(small) for x in _ancestors(tree, y)}
    if descent != ancestor_formula_relation(coloring, small):
        return f"ancestor formula disagrees with descent at size {small}"
    return None


def _ancestors(tree, y: int) -> Iterator[int]:
    z = tree.parent[y]
    while z is not None:
        yield z
        z = tree.parent[z]


def suite_homog(seed: int, cases: int) -> SuiteResult:
    """End-to-end pipeline verification across coloring sources."""
    rng = random.Random(seed)
    sources: list[Coloring] = [
        builtin_coloring("constant:0", 2),
        builtin_coloring("sum-mod", 2),
        builtin_coloring("sum-mod", 3),
        builtin_coloring("diff-mod", 3),
        builtin_coloring("block:4", 2),
        dsl_coloring("(x + y) % 2", 2),
        dsl_coloring("if x < y then x else y", 3),
        dsl_coloring("(x * y + x) % 4", 4),
    ]
    for ran in range(1, cases + 1):
        if ran <= len(sources):
            coloring = sources[ran - 1]
            size = rng.randint(10, 120)
        else:
            k = rng.choice([2, 3, 4])
            size = rng.randint(2, 120)
            coloring = random_coloring(rng.randrange(2**32), k, size)
        try:
            report, _visit = homog_pipeline(coloring, size, budget=4 * size + 4)
        except Exception as exc:
            why = _raised("pipeline", exc)
        else:
            if report.verified:
                continue
            why = f"unverified report, classes={[sorted(c) for c in report.classes]}"
        return SuiteResult("homog", False, ran, f"{why}: {coloring.name} size={size}")
    return SuiteResult("homog", True, cases)


def suite_restricted(seed: int, cases: int) -> SuiteResult:
    """The enumeration invariants of visits from a drawn root: prefix
    closure above it, completeness and the restricted subtree above it."""
    rng = random.Random(seed)
    ran = 0
    for tree, priority in tree_corpus(seed + 2, cases):
        ran += 1
        nodes = sorted(tree.nodes)
        root = nodes[rng.randrange(len(nodes))]
        why = _visit_broken(tree, priority, root)[0]
        if why is not None:
            return SuiteResult(
                "restricted", False, ran,
                f"enumeration invariant failed from root {root}{why}\n"
                f"priority={list(priority)}\ntree={tree_to_dict(tree)}",
            )
    return SuiteResult("restricted", True, ran)


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "visits": suite_visits,
    "expansions": suite_expansions,
    "erdos": suite_erdos,
    "homog": suite_homog,
    "restricted": suite_restricted,
}
