"""Seeded test data: random and degenerate finite color trees, and
random colorings.

The ``check`` suites and the tests draw their corpora from here.  Nothing
here is a reference or is checked against one; every generator is
deterministic in its arguments, so a failing case can be rebuilt from the
seed it prints.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .colorings import Coloring, ColoringError
from .trees import FiniteColorTree
from .words import ROOT, Record, Word


class TreeGenParams(Record):
    """Knobs for the random tree generator; output is deterministic in seed."""

    __slots__ = ("k", "max_depth", "max_nodes", "branching", "seed")

    def __init__(
        self,
        k: int,
        max_depth: int,
        max_nodes: int,
        branching: float = 0.5,
        seed: int = 0,
    ) -> None:
        super().__init__(k, max_depth, max_nodes, branching, seed)


def random_tree(params: TreeGenParams) -> FiniteColorTree:
    """Grow a prefix-closed tree breadth-first under the given bounds.

    Chains, stars and complete trees all occur with positive probability
    for interior branching values, and probability 1.0 forces the complete
    tree up to the depth bound.
    """
    rng = random.Random(params.seed)
    # the nodes in breadth-first order: the loop reads the list by index,
    # so it reaches the children appended behind it
    nodes: list[Word] = [ROOT]
    for node in nodes:
        if len(nodes) >= params.max_nodes:
            break
        if len(node) >= params.max_depth:
            continue
        for c in range(params.k):
            if len(nodes) >= params.max_nodes:
                break
            if rng.random() < params.branching:
                nodes.append(node + (c,))
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


# the bytes.translate tables that shift a byte right by 0..7 bits
_SHIFTED = tuple(bytes(b >> shift for b in range(256)) for shift in range(8))


def random_coloring(seed: int, k: int, size: int) -> Coloring:
    """Uniform independent colors for every unordered pair below ``size``,
    deterministic in the seed.

    The colors are the values ``random.Random(seed).randrange(k)`` gives
    when called once per pair in x-major order, ``(0, 1), (0, 2), ...,
    (1, 2), ...``.  That stream is pinned: the ``random(seed=...)`` name a
    failing suite case prints rebuilds the same table, so counterexamples
    stay reproducible.  ``randrange(k)`` draws ``getrandbits(k.bit_length())``
    until the value is below k; the table keeps the accepted draws of that
    same stream, drawn in C, in one flat sequence with pair ``(lo, hi)`` at
    ``offset[lo] + hi``.  Pairs outside the table raise
    :class:`ColoringError`, as a table coloring's do.

    Each draw is the top ``bits`` bits of one 32-bit generator word, and
    ``getrandbits(32 * m)`` lays m such words out little-endian.  So for
    ``bits <= 8`` the draws are the top bytes of those words, shifted by
    ``bytes.translate``, which also deletes the rejected ones, and the
    table is the ``bytes`` it returns; wider draws go through ``map`` and
    ``filter`` into a list.
    """
    if k < 2 or size < 2:
        raise ValueError("random colorings need k >= 2 and size >= 2")
    getrandbits = random.Random(seed).getrandbits
    bits = k.bit_length()
    total = size * (size - 1) // 2
    if bits <= 8:
        shift = 8 - bits
        table, reject = _SHIFTED[shift], bytes(range(k << shift, 256))

        def draw(m: int) -> Sequence[int]:
            words = getrandbits(32 * m).to_bytes(4 * m, "little")
            return words[3::4].translate(table, reject)
    else:
        def draw(m: int) -> Sequence[int]:
            return list(filter(k.__gt__, map(getrandbits, itertools.repeat(bits, m))))
    colors = draw(total)
    while len(colors) < total:
        colors += draw(total - len(colors))
    # row lo starts after the size-1-x pairs of every x < lo, at hi = lo + 1
    offset = list(itertools.accumulate(range(size - 2, -1, -1), initial=-1))

    def row(lo: int, his: Sequence[int]) -> list[int] | int:
        if not his:
            return []
        if lo < 0 or his[-1] >= size:
            hi = next(h for h in his if lo < 0 or h >= size)
            raise ColoringError(f"table coloring has no entry for pair {(lo, hi)}")
        start = offset[lo]
        if len(his) == 1:
            # a row of one pair has one color, given as the int itself
            return colors[start + his[0]]
        return [colors[start + hi] for hi in his]

    name = f"random(seed={seed},k={k},size={size})"
    return Coloring(k, row, name)
