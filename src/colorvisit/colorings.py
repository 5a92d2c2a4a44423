"""Total edge colorings of the naturals.

A coloring assigns a color below ``k`` to every unordered pair of distinct
naturals.  It is one row function, which colors the pairs of a smaller
endpoint with many larger ones in a single call.  A single pair is put in
``(min, max)`` order and colored as a row of one, so ``coloring(x, y) ==
coloring(y, x)`` holds by construction.  :meth:`Coloring.split` groups a
row by color, for the comparison-tree build and the verification alike.

The package makes two kinds.  Closed-form colorings are expressions of the
coloring language, whose row function :func:`colorvisit.dsl.dsl_coloring`
compiles; the builtin names are such expressions.  Tables look a row up
pair by pair.  Colorings are pure and immutable; sharing them across
threads is safe.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

from .words import Record, parse_int, read_json


class ColoringError(ValueError):
    """A bad coloring definition or evaluation: the module's one error."""


# lo, the ascending his above it -> the color of each pair (lo, hi), or
# one int when every pair of a non-empty row has that color
Row = Callable[[int, Sequence[int]], Union[list[int], int]]


class Coloring(Record):
    """A total symmetric coloring given by its row function.

    ``row(lo, his)`` lists the colors of the pairs ``(lo, hi)`` for an
    ascending ``his`` above ``lo``, as ints, or returns one int when ``his``
    is not empty and every pair has that color, so that a row of one color
    costs O(1).  It raises the error of the first pair it cannot color,
    and checks neither its arguments nor the range of its colors;
    :meth:`__call__` and :meth:`split` do.
    """

    __slots__ = ("k", "row", "name")

    def __init__(self, k: int, row: Row, name: str = "coloring") -> None:
        super().__init__(k, row, name)

    def __call__(self, x: int, y: int) -> int:
        if x == y:
            raise ColoringError(f"colorings are defined on distinct pairs, got {x}")
        lo, hi = (x, y) if x < y else (y, x)
        color = self.row(lo, (hi,))
        if type(color) is not int:
            [color] = color
        if not 0 <= color < self.k:
            raise self._out_of_range(color)
        return color

    def split(self, lo: int, his: Sequence[int]) -> dict[int, Sequence[int]]:
        """``his``, ascending above ``lo``, grouped by the color of their pair
        with ``lo`` in order of first appearance; a row of one color comes
        back whole as ``{color: his}``, without a list built or counted when
        the row function returns it as an int.  The first color out of range
        in row order raises, as a single call of it does."""
        if his and his[0] <= lo:
            raise ColoringError(f"row of {lo} must lie above it, got {his[0]}")
        colors = self.row(lo, his)
        if type(colors) is int:
            groups: dict[int, Sequence[int]] = {colors: his}
        elif colors and colors.count(colors[0]) == len(colors):
            groups = {colors[0]: his}
        else:
            groups = {}
            for hi, color in zip(his, colors):
                group = groups.get(color)
                if group is None:
                    groups[color] = [hi]
                else:
                    group.append(hi)
        for color in groups:
            if not 0 <= color < self.k:
                raise self._out_of_range(color)
        return groups

    def _out_of_range(self, color: int) -> ColoringError:
        return ColoringError(
            f"{self.name} produced color {color} outside 0..{self.k - 1}"
        )


def table_coloring(entries: Iterable[object], k: int) -> Coloring:
    """Explicit finite coloring from ``[x, y, color]`` lists, the entries of
    a table file, each checked once; queries beyond the table raise
    :class:`ColoringError`.  Endpoints and colors must be ``int``s: a
    float, bool or string is rejected, not rounded or read as a number."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    canon: dict[tuple[int, int], int] = {}
    for entry in entries:
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
        if x == y:
            raise ColoringError(f"table contains the degenerate pair ({x},{y})")
        lo, hi = (x, y) if x < y else (y, x)
        if not 0 <= color < k:
            raise ColoringError(f"table color {color} outside 0..{k - 1}")
        if canon.setdefault((lo, hi), color) != color:
            raise ColoringError(f"table colors pair ({lo},{hi}) twice")

    def row(lo: int, his: Sequence[int]) -> list[int]:
        try:
            return [canon[lo, hi] for hi in his]
        except KeyError as missing:
            raise ColoringError(
                f"table coloring has no entry for pair {missing.args[0]}"
            ) from None

    return Coloring(k, row, "table")


def table_from_dict(data: dict) -> Coloring:
    """Load the table file format ``{"k": int, "pairs": [[x, y, color], ...]}``."""
    if not isinstance(data, dict) or "k" not in data or "pairs" not in data:
        raise ColoringError("table file must be an object with 'k' and 'pairs'")
    k = data["k"]
    if type(k) is not int:
        raise ColoringError(f"table k must be a JSON integer, got {k!r}")
    if not isinstance(data["pairs"], list):
        raise ColoringError("table 'pairs' must be an array")
    return table_coloring(data["pairs"], k)


def load_table(path: str) -> Coloring:
    return table_from_dict(read_json(path, "table", ColoringError))


def _int_suffix(name: str) -> int:
    suffix = name.split(":", 1)[1]
    try:
        return parse_int(suffix)
    except ValueError:
        raise ColoringError(f"unknown builtin coloring {name!r}") from None


def builtin_coloring(name: str, k: int) -> Coloring:
    """Resolve the builtin names, each a coloring expression: ``constant:i``
    is ``i``, ``sum-mod`` is ``x + y``, ``diff-mod`` is ``y - x`` and
    ``block:b`` is ``x / b``, the block of ``b`` consecutive numbers the
    smaller endpoint falls into, cyclically."""
    if k < 1:
        raise ColoringError(f"color count k={k} must be at least 1")
    if name == "sum-mod":
        expr = "x + y"
    elif name == "diff-mod":
        expr = "y - x"
    elif name.startswith("constant:"):
        value = _int_suffix(name)
        if not 0 <= value < k:
            raise ColoringError(f"constant color {value} outside 0..{k - 1}")
        name, expr = f"constant:{value}", str(value)
    elif name.startswith("block:"):
        block = _int_suffix(name)
        if block < 1:
            raise ColoringError(f"block size {block} must be at least 1")
        name, expr = f"block:{block}", f"x / {block}"
    else:
        raise ColoringError(f"unknown builtin coloring {name!r}")
    from .dsl import dsl_coloring  # dsl imports this module

    return Coloring(k, dsl_coloring(expr, k).row, name)
