"""Total edge colorings of the naturals.

A coloring assigns a color below ``k`` to every unordered pair of distinct
naturals.  Symmetry is structural: every evaluation canonicalizes its
arguments to ``(min, max)`` before consulting the underlying pair function,
so ``coloring(x, y) == coloring(y, x)`` holds by construction.
:meth:`Coloring.row` colors the pairs of one smaller endpoint with many
larger ones in a single call, through the coloring's compiled row kernel
when it has one.  Colorings are pure and immutable; sharing
them across threads is safe.
"""

from __future__ import annotations

import json
from typing import Callable, Mapping, Optional, Sequence

from .words import Record, parse_int


class ColoringError(ValueError):
    """Base class for coloring definition and evaluation errors."""


class UnknownBuiltin(ColoringError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown builtin coloring {name!r}")


class TableIncomplete(ColoringError):
    def __init__(self, pair: tuple[int, int]) -> None:
        self.pair = pair
        super().__init__(f"table coloring has no entry for pair {pair}")


class Coloring(Record):
    """A total symmetric coloring; ``pair_color`` receives ``lo < hi``.

    ``row_kernel``, when given, must equal ``[pair_color(lo, hi) for hi in
    his]`` as ints and raise the same first error; :meth:`row` calls it
    in place of that comprehension.
    """

    __slots__ = ("k", "pair_color", "name", "row_kernel")

    def __init__(
        self,
        k: int,
        pair_color: Callable[[int, int], int],
        name: str = "coloring",
        row_kernel: Optional[Callable[[int, Sequence[int]], list[int]]] = None,
    ) -> None:
        super().__init__(k, pair_color, name, row_kernel)

    def __call__(self, x: int, y: int) -> int:
        if x == y:
            raise ColoringError(f"colorings are defined on distinct pairs, got {x}")
        lo, hi = (x, y) if x < y else (y, x)
        color = int(self.pair_color(lo, hi))
        if not 0 <= color < self.k:
            raise self._out_of_range(color)
        return color

    def row(self, lo: int, his: Sequence[int]) -> list[int]:
        """``[self(lo, hi) for hi in his]`` for an ascending ``his`` above
        ``lo``: one call of the row kernel, or one ``pair_color`` call per
        pair without one, and one range check for the whole row."""
        if his and his[0] <= lo:
            raise ColoringError(f"row of {lo} must lie above it, got {his[0]}")
        if self.row_kernel is not None:
            colors = self.row_kernel(lo, his)
        else:
            pair_color = self.pair_color
            colors = [int(pair_color(lo, hi)) for hi in his]
        if colors and (min(colors) < 0 or max(colors) >= self.k):
            raise self._out_of_range(next(c for c in colors if not 0 <= c < self.k))
        return colors

    def _out_of_range(self, color: int) -> ColoringError:
        return ColoringError(
            f"{self.name} produced color {color} outside 0..{self.k - 1}"
        )


def constant_coloring(value: int, k: int) -> Coloring:
    if not 0 <= value < k:
        raise ColoringError(f"constant color {value} outside 0..{k - 1}")
    return Coloring(k=k, pair_color=lambda lo, hi: value, name=f"constant:{value}")


def sum_mod_coloring(k: int) -> Coloring:
    return Coloring(k=k, pair_color=lambda lo, hi: (lo + hi) % k, name="sum-mod")


def diff_mod_coloring(k: int) -> Coloring:
    return Coloring(k=k, pair_color=lambda lo, hi: (hi - lo) % k, name="diff-mod")


def block_coloring(block: int, k: int) -> Coloring:
    """Color by which block of ``block`` consecutive numbers the smaller
    endpoint falls into, cyclically."""
    if block < 1:
        raise ColoringError(f"block size {block} must be at least 1")
    return Coloring(
        k=k, pair_color=lambda lo, hi: (lo // block) % k, name=f"block:{block}"
    )


def table_coloring(
    pairs: Mapping[tuple[int, int], int], k: int, name: str = "table"
) -> Coloring:
    """Explicit finite coloring; queries beyond the table raise
    :class:`TableIncomplete`."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    canon: dict[tuple[int, int], int] = {}
    for (x, y), color in pairs.items():
        if x == y:
            raise ColoringError(f"table contains the degenerate pair ({x},{y})")
        lo, hi = (x, y) if x < y else (y, x)
        if not 0 <= int(color) < k:
            raise ColoringError(f"table color {color} outside 0..{k - 1}")
        if canon.setdefault((lo, hi), int(color)) != int(color):
            raise ColoringError(f"table colors pair ({lo},{hi}) twice")

    def lookup(lo: int, hi: int) -> int:
        try:
            return canon[(lo, hi)]
        except KeyError:
            raise TableIncomplete((lo, hi)) from None

    return Coloring(k=k, pair_color=lookup, name=name)


def table_from_dict(data: dict) -> Coloring:
    """Load the table file format ``{"k": int, "pairs": [[x, y, color], ...]}``."""
    if not isinstance(data, dict) or "k" not in data or "pairs" not in data:
        raise ColoringError("table file must be an object with 'k' and 'pairs'")
    k = data["k"]
    if type(k) is not int:
        raise ColoringError(f"table k must be a JSON integer, got {k!r}")
    if not isinstance(data["pairs"], list):
        raise ColoringError("table 'pairs' must be an array")
    pairs: dict[tuple[int, int], int] = {}
    for entry in data["pairs"]:
        # bool is an int subclass; JSON true/false are not colors
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or any(type(v) is not int for v in entry)
        ):
            raise ColoringError(
                f"table entry {entry!r} must be [x, y, color] of JSON integers"
            )
        x, y, color = entry
        pairs[(x, y)] = color
    return table_coloring(pairs, k)


def load_table(path: str) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return table_from_dict(json.load(fh))


def _int_suffix(name: str) -> int:
    suffix = name.split(":", 1)[1]
    try:
        return parse_int(suffix)
    except ValueError:
        raise UnknownBuiltin(name) from None


def builtin_coloring(name: str, k: int) -> Coloring:
    """Resolve builtin names: ``constant:i``, ``sum-mod``, ``diff-mod``,
    ``block:b`` and ``table:<file>``."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    if name == "sum-mod":
        return sum_mod_coloring(k)
    if name == "diff-mod":
        return diff_mod_coloring(k)
    if name.startswith("constant:"):
        return constant_coloring(_int_suffix(name), k)
    if name.startswith("block:"):
        return block_coloring(_int_suffix(name), k)
    if name.startswith("table:"):
        coloring = load_table(name.split(":", 1)[1])
        if coloring.k != k:
            raise ColoringError(
                f"table declares k={coloring.k} but k={k} was requested"
            )
        return coloring
    raise UnknownBuiltin(name)
