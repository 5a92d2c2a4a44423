"""Brute-force reference implementations and seeded generators.

Everything here exists to cross-check the efficient code paths, so these
functions deliberately share nothing with the generator beyond the core
word and tree types: agreement between the two routes is evidence, not a
tautology.  All of it is exponential or quadratic and meant for desk-scale
inputs only.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .colorings import Coloring, TableIncomplete
from .erdos import ErdosTree
from .trees import ColorTree, FiniteColorTree, in_restricted
from .visit import Visit, check_visit
from .words import ROOT, Word, is_proper_prefix, lex_compare

ALL_VISITS_NODE_CAP = 25


class TreeTooLarge(ValueError):
    def __init__(self, size: int) -> None:
        super().__init__(
            f"exhaustive visit search capped at {ALL_VISITS_NODE_CAP} nodes, got {size}"
        )


def all_visits(
    tree: FiniteColorTree, priority: Sequence[int], root: Word = ROOT
) -> list[tuple[Word, ...]]:
    """Every node list accepted by :func:`check_visit`, smallest first.

    Grown by one-node extensions starting from ``[root]``; this reaches
    every accepted list because a nonempty prefix of an accepted list is
    itself accepted (dropping the last element weakens every clause of the
    recursive definition), which the test suite re-checks against a full
    permutation search on very small trees.
    """
    if tree.nodes is None or len(tree.nodes) > ALL_VISITS_NODE_CAP:
        raise TreeTooLarge(len(tree.nodes) if tree.nodes is not None else -1)
    candidates = sorted(tree.nodes)
    found: list[tuple[Word, ...]] = []
    frontier: list[tuple[Word, ...]] = []
    seed = (root,)
    if check_visit(tree, seed, priority, root):
        frontier.append(seed)
    while frontier:
        current = frontier.pop(0)
        found.append(current)
        in_current = set(current)
        for node in candidates:
            if node in in_current:
                continue
            extended = current + (node,)
            if check_visit(tree, extended, priority, root):
                frontier.append(extended)
    found.sort(key=len)
    return found


def naive_nth_expansion(
    tree: ColorTree, bases: Sequence[Word], n: int, color: int
) -> Optional[Word]:
    """Direct transcription of the expansion definition: sort the bases
    lexicographically, keep those whose ``color``-child is in the tree,
    index into the result."""
    if n < 0:
        return None
    ordered = sorted(bases, key=functools.cmp_to_key(lex_compare))
    hits = [b + (color,) for b in ordered if tree.contains(b + (color,))]
    return hits[n] if n < len(hits) else None


def restricted_nodes(
    tree: FiniteColorTree, priority: Sequence[int], root: Word
) -> frozenset[Word]:
    """Exhaustively computed node set of the restricted subtree above the
    root, by direct scan of the explicit node set."""
    return frozenset(
        w for w in tree.nodes if in_restricted(tree, priority, root, w)
    )


def brute_stable_indices(order: Sequence[Word]) -> tuple[int, ...]:
    """Quadratic transcription of horizon-stability: index m qualifies iff
    every later entry properly extends ``order[m]``."""
    return tuple(
        m
        for m in range(len(order))
        if all(is_proper_prefix(order[m], order[n]) for n in range(m + 1, len(order)))
    )


def visit_trace(visit: Visit) -> dict:
    """The visit trace schema as a dict, with the stable indices and the
    branch computed from the words alone (quadratic):
    ``export.visit_trace_json`` must equal its canonical dump byte for
    byte."""
    deepest = visit.order[-1]
    return {
        "k": visit.tree.k,
        "priority": list(visit.priority),
        "root": list(visit.root),
        "order": [list(w) for w in visit.order],
        "terminated": visit.terminated,
        "stable": list(brute_stable_indices(visit.order)),
        "branch": [
            list(deepest[:i]) for i in range(len(visit.root), len(deepest) + 1)
        ],
    }


def to_word_tree(tree: ErdosTree) -> FiniteColorTree:
    """The finite color tree of a comparison tree's root-path color words.

    Children are color-unique, so distinct nodes get distinct words; the
    visit of this tree is the reference for the visit that runs on the
    comparison tree's ids.
    """
    node_word: list[Word] = [ROOT] * tree.size
    for n in range(1, tree.size):
        node_word[n] = node_word[tree.parent[n]] + (tree.edge_color[n],)
    return FiniteColorTree(k=tree.k, nodes=frozenset(node_word))


def ancestor_formula_relation(coloring: Coloring, size: int) -> set[tuple[int, int]]:
    """The comparison-tree ancestor relation read off its defining formula.

    ``x`` is an ancestor of ``y`` (for x < y) iff y agrees with x on the
    color of every edge down to one of x's own ancestors; the relation for
    x is well-founded because it only consults pairs with smaller first
    component.  Used to cross-check the insertion-descent construction.
    """
    rel: set[tuple[int, int]] = set()
    for x in range(size):
        ancestors_of_x = [z for z in range(x) if (z, x) in rel]
        for y in range(x + 1, size):
            if all(coloring(z, x) == coloring(z, y) for z in ancestors_of_x):
                rel.add((x, y))
    return rel


# --- seeded generators ----------------------------------------------------------


@dataclass(frozen=True)
class TreeGenParams:
    """Knobs for the random tree generator; output is deterministic in seed."""

    k: int
    max_depth: int
    max_nodes: int
    branching: float | tuple[float, ...] = 0.5
    seed: int = 0

    def per_color(self) -> tuple[float, ...]:
        if isinstance(self.branching, (int, float)):
            return (float(self.branching),) * self.k
        if len(self.branching) != self.k:
            raise ValueError("branching probabilities must match the color count")
        return tuple(float(p) for p in self.branching)


def random_tree(params: TreeGenParams) -> FiniteColorTree:
    """Grow a prefix-closed tree breadth-first under the given bounds.

    Chains, stars and complete trees all occur with positive probability
    for interior branching values, and probability 1.0 forces the complete
    tree up to the depth bound.
    """
    rng = random.Random(params.seed)
    probs = params.per_color()
    nodes: set[Word] = {ROOT}
    queue: list[Word] = [ROOT]
    while queue and len(nodes) < params.max_nodes:
        node = queue.pop(0)
        if len(node) >= params.max_depth:
            continue
        for c in range(params.k):
            if len(nodes) >= params.max_nodes:
                break
            if rng.random() < probs[c]:
                child = node + (c,)
                nodes.add(child)
                queue.append(child)
    return FiniteColorTree(k=params.k, nodes=frozenset(nodes))


def chain_tree(k: int, color: int, depth: int) -> FiniteColorTree:
    """A single branch repeating one color (degenerate shape for corpora)."""
    nodes = frozenset((color,) * i for i in range(depth + 1))
    return FiniteColorTree(k=k, nodes=nodes)


def complete_tree(k: int, depth: int) -> FiniteColorTree:
    """The full k-ary tree truncated at the given depth."""
    levels: list[list[Word]] = [[ROOT]]
    for _ in range(depth):
        levels.append([w + (c,) for w in levels[-1] for c in range(k)])
    return FiniteColorTree(k=k, nodes=frozenset(w for lv in levels for w in lv))


def star_tree(k: int) -> FiniteColorTree:
    """Root plus one child per color."""
    return FiniteColorTree(
        k=k, nodes=frozenset([ROOT] + [(c,) for c in range(k)])
    )


def random_coloring(seed: int, k: int, size: int) -> Coloring:
    """Uniform independent colors for every unordered pair below ``size``,
    deterministic in the seed.

    The colors are the values ``random.Random(seed).randrange(k)`` gives
    when called once per pair in x-major order, ``(0, 1), (0, 2), ...,
    (1, 2), ...``.  That stream is pinned: the ``random(seed=...)`` name a
    failing suite case prints rebuilds the same table, so counterexamples
    stay reproducible.  ``randrange(k)`` draws ``getrandbits(k.bit_length())``
    until the value is below k; the table keeps the accepted draws of that
    same stream, drawn in C by ``map`` and ``filter``, in one flat list
    with pair ``(lo, hi)`` at ``offset[lo] + hi``.  Pairs outside the table
    raise :class:`TableIncomplete`.
    """
    if k < 2 or size < 2:
        raise ValueError("random colorings need k >= 2 and size >= 2")
    getrandbits = random.Random(seed).getrandbits
    bits = k.bit_length()
    total = size * (size - 1) // 2
    colors: list[int] = []
    while len(colors) < total:
        draws = map(getrandbits, itertools.repeat(bits, total - len(colors)))
        colors.extend(filter(k.__gt__, draws))
    # row lo starts after the size-1-x pairs of every x < lo, at hi = lo + 1
    offset = [x * (2 * size - x - 1) // 2 - x - 1 for x in range(size)]

    def lookup(lo: int, hi: int) -> int:
        if 0 <= lo < hi < size:
            return colors[offset[lo] + hi]
        raise TableIncomplete((lo, hi))

    name = f"random(seed={seed},k={k},size={size})"
    return Coloring(k=k, pair_color=lookup, name=name)
