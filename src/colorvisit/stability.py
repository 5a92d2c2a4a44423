"""Horizon-stable nodes and branch approximation.

An index m of an enumeration is horizon-stable when every later entry is a
proper descendant of entry m; the last index always qualifies
vacuously.  On trees with a single infinite branch the horizon-stable set
shrinks toward the truly stable nodes as the budget grows, and the prefix
chain through the deepest horizon-stable entry approximates that branch
from above.  None of this is assumed anywhere: the package only ever
asserts it on engineered families where the limit is known.

Both are read off a visit's parent array (``Visit.parent``) in linear
time, without comparing words: parents come before their children in a
visit order, so the descendants of entry m within the order all lie at or
after m.  The references that read the words instead,
``oracles.brute_stable_indices`` and ``oracles.branch_census``, live with
the other oracles.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

from .visit import Visit

T = TypeVar("T")


def stable_indices_of(parent: Sequence[int]) -> tuple[int, ...]:
    """All m whose entry's word is a proper prefix of every later entry's,
    given a visit order's parent array.

    m qualifies exactly when the subtree of entry m within the order
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
    words of ``oracles.visit_words`` give the branch words, ``Visit.letter``
    its edge colors (-1 at the root) and ``range(len(parent))`` its
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
