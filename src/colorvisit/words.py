"""Color words (finite sequences of color indices) and the order they carry.

A word is a plain tuple of small non-negative ints; the empty tuple is the
root of every tree.  The only order used anywhere in the package is plain
sequence-lexicographic order in which a proper prefix sorts before all of
its extensions.
"""

from __future__ import annotations

from typing import Iterable

Word = tuple[int, ...]

ROOT: Word = ()


class InvalidPriority(ValueError):
    """Priority list is malformed: duplicates, non-integers or colors
    outside 0..k-1."""


def validate_priority(colors: Iterable[int], k: int) -> Word:
    """Check a priority list against a color count and return it as a tuple.

    The list may be empty and may be a reordered proper subset of 0..k-1;
    duplicates, non-integers and out-of-range colors are rejected.
    """
    prio = tuple(colors)
    seen: set[int] = set()
    for c in prio:
        # bool is an int subclass, and int() would round a float
        if type(c) is not int:
            raise InvalidPriority(f"color {c!r} is not an integer")
        if not 0 <= c < k:
            raise InvalidPriority(f"color {c} outside 0..{k - 1}")
        if c in seen:
            raise InvalidPriority(f"duplicate color {c} in priority list")
        seen.add(c)
    return prio


def rotate(priority: Word) -> Word:
    """Move the lowest-priority color to the top: <d0,d1,...> -> <d1,...,d0>."""
    return priority[1:] + priority[:1]


def full_priority(k: int) -> Word:
    """The default priority list <0, 1, ..., k-1>."""
    return tuple(range(k))


def parse_word(text: str) -> Word:
    """Parse a comma-separated word such as ``"1,0"``; "" is the root."""
    text = text.strip()
    if not text:
        return ROOT
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}: {exc}") from None

