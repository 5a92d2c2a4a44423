"""Color words (finite sequences of color indices) and the order they carry.

A word is a plain tuple of small non-negative ints; the empty tuple is the
root of every tree.  The only order used anywhere in the package is plain
sequence-lexicographic order in which a proper prefix sorts before all of
its extensions.

The module also holds the pieces the other run-path modules share:
:func:`parse_int`, the one reader of integers in user text,
:func:`read_json`, the one reader of tree and table files, and
:class:`Record`, the base of the package's small immutable value classes.
"""

from __future__ import annotations

from typing import Iterable

Word = tuple[int, ...]

ROOT: Word = ()


class Record:
    """A value whose fields are its ``__slots__``.

    Equality, hashing and ``repr`` go by the fields, as for a frozen
    dataclass, and a field cannot be assigned after ``__init__``.
    Subclasses list their fields in ``__slots__``.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        """Set the fields, in ``__slots__`` order, past ``__setattr__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state: tuple) -> None:
        # copy and pickle restore the fields as (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def parse_int(text: str) -> int:
    """The integer ``text`` spells in ASCII digits, with an optional leading
    ``-`` and surrounding whitespace; ValueError for anything else.

    ``int()`` alone would also take other scripts' digits, ``_`` separators
    and a ``+`` sign.
    """
    body = text.strip()
    digits = body[1:] if body.startswith("-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not an integer")
    try:
        return int(body)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(f"an integer of {len(digits)} digits is too long") from None


def read_json(path: str, kind: str, error: type[Exception]) -> object:
    """The JSON value in the UTF-8 ``kind`` file at ``path``; ``error`` if
    it is not UTF-8 JSON, holds an integer too long to convert or is nested
    too deeply for the parser."""
    import json  # only tree and table files need it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise error(f"{kind} file is not UTF-8 JSON: {exc}") from None
        # the parser's one other ValueError: an integer past the
        # interpreter's digit limit, in well-formed JSON
        except ValueError:
            raise error(f"{kind} file holds an integer too long to read") from None
        except RecursionError:
            raise error(f"{kind} file is nested too deeply") from None


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
        return tuple(parse_int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"cannot parse word {text!r}: {exc}") from None

