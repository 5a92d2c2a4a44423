"""Horizon-stable nodes, branch approximation, and per-color edge counts.

An index m of an enumeration is horizon-stable when every later entry is a
proper descendant of ``order[m]``; the last index always qualifies
vacuously.  On trees with a single infinite branch the horizon-stable set
shrinks toward the truly stable nodes as the budget grows, and the prefix
chain through the deepest horizon-stable entry approximates that branch
from above.  None of this is assumed anywhere: the package only ever
asserts it on engineered families where the limit is known.

Both are read off a visit's parent array (``Visit.parent``) in linear
time, without comparing words: parents come before their children in a
visit order, so the descendants of ``order[m]`` within the order all lie at
or after m.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from .visit import Visit
from .words import Word

T = TypeVar("T")


def stable_indices_of(parent: Sequence[int]) -> tuple[int, ...]:
    """All m with ``order[m]`` a proper prefix of every later entry, given
    a visit order's parent array.

    m qualifies exactly when the subtree of ``order[m]`` within the order
    holds all ``n - m`` entries from m on; one right-to-left pass adds each
    entry's subtree size to its parent's.
    """
    n = len(parent)
    if not n:
        raise ValueError("order must be nonempty")
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[parent[i]] += size[i]
    return tuple(m for m in range(n) if size[m] == n - m)


def stable_indices(visit: Visit) -> tuple[int, ...]:
    return stable_indices_of(visit.parent)


def branch_approx_of(entries: Sequence[T], parent: Sequence[int]) -> tuple[T, ...]:
    """The items of ``entries`` along the root path of the last entry, from
    the root, given a visit order's parent array.

    Horizon-stable entries form a prefix chain ending at the final entry, so
    the deepest one is the last entry and the approximation is its ancestor
    chain down to the root.  ``entries`` is indexed like the order: the
    order's words give the branch words, ``range(len(parent))`` their
    indices.
    """
    if not parent:
        raise ValueError("order must be nonempty")
    chain = []
    i = len(parent) - 1
    while i >= 0:
        chain.append(entries[i])
        i = parent[i]
    chain.reverse()
    return tuple(chain)


def branch_approx(visit: Visit) -> tuple[Word, ...]:
    return branch_approx_of(visit.order, visit.parent)


def branch_census(entries: Iterable[Word], k: int) -> dict[int, int]:
    """Per-color counts of parent-to-child edges within a node sequence.

    An edge is counted for every entry after the first whose one-letter-
    shorter parent appeared earlier in the sequence; the edge color is the
    entry's final letter.  On a branch chain it counts the consecutive-pair
    letters.  All colors 0..k-1 are present in the result, possibly with
    count 0.
    """
    counts = {c: 0 for c in range(k)}
    seen: set[Word] = set()
    for w in entries:
        if w and w[:-1] in seen:
            counts[w[-1]] += 1
        seen.add(w)
    return counts
