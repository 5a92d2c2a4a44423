"""Horizon-stable nodes, branch approximation, and per-color edge counts.

An index m of an enumeration is horizon-stable when every later entry is a
proper descendant of ``order[m]``; the last index always qualifies
vacuously.  On trees with a single infinite branch the horizon-stable set
shrinks toward the truly stable nodes as the budget grows, and the prefix
chain through the deepest horizon-stable entry approximates that branch
from above.  None of this is assumed anywhere: the package only ever
asserts it on engineered families where the limit is known.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .visit import Visit
from .words import Word, common_prefix


def stable_indices_of(order: Sequence[Word]) -> tuple[int, ...]:
    """All m with ``order[m]`` a proper prefix of every later entry.

    Single right-to-left scan tracking the common prefix and the minimum
    length of the entries seen so far.
    """
    if not order:
        raise ValueError("order must be nonempty")
    out = [len(order) - 1]
    lcp = order[-1]
    min_len = len(order[-1])
    for m in range(len(order) - 2, -1, -1):
        w = order[m]
        if len(w) < min_len and lcp[: len(w)] == w:
            out.append(m)
        lcp = common_prefix(lcp, w)
        min_len = min(min_len, len(w))
    out.reverse()
    return tuple(out)


def stable_indices(visit: Visit) -> tuple[int, ...]:
    return stable_indices_of(visit.order)


def branch_approx_of(order: Sequence[Word], root: Word) -> tuple[Word, ...]:
    """All prefixes, from the root inclusive, of the deepest horizon-stable
    entry, in increasing length.

    Horizon-stable entries form a prefix chain ending at the final entry, so
    the deepest one is ``order[-1]`` and the approximation is its ancestor
    chain down to the root.
    """
    if not order:
        raise ValueError("order must be nonempty")
    deepest = order[-1]
    return tuple(deepest[:i] for i in range(len(root), len(deepest) + 1))


def branch_approx(visit: Visit) -> tuple[Word, ...]:
    return branch_approx_of(visit.order, visit.root)


def color_census(entries: Iterable[Word], k: int) -> dict[int, int]:
    """Per-color counts of parent-to-child edges within a node sequence.

    An edge is counted for every entry after the first whose one-letter-
    shorter parent appeared earlier in the sequence; the edge color is the
    entry's final letter.  On a visit order this counts every enumerated
    edge; on a branch chain it counts the consecutive-pair letters.  All
    colors 0..k-1 are present in the result, possibly with count 0.
    """
    counts = {c: 0 for c in range(k)}
    seen: set[Word] = set()
    for w in entries:
        if w and w[:-1] in seen:
            counts[w[-1]] += 1
        seen.add(w)
    return counts


def visit_census(visit: Visit) -> dict[int, int]:
    return color_census(visit.order, visit.tree.k)


def branch_census(branch: Sequence[Word], k: int) -> dict[int, int]:
    return color_census(branch, k)
