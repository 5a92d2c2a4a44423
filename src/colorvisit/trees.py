"""Prefix-closed color trees.

A run builds one of two trees, which share one interface (``k``,
``node``, ``step``):

* :class:`FiniteColorTree` -- node ids: a tree file, the comparison tree
  of :mod:`colorvisit.erdos` and the seeded corpus trees.
* :class:`FullColorTree` -- every word over ``0..k-1``, the builtins
  ``full:k`` and ``unary`` (k = 1); its nodes are depths.

``node(w)`` takes a word and returns the node it names, or None for a
word off the tree.  The run path calls it once, for a visit's root; the
references in ``oracles`` probe words with it directly.  A visit then
fetches ``step(c)`` once per color: a function of one node that returns
its ``c``-child or None, one C call that builds no word.  Nothing changes
a tree once it is built, so trees are safe to share.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Iterable, Optional, Union

from .words import MAX_COLORS, ROOT, Record, Word, parse_int, read_json


class TreeError(ValueError):
    """A malformed tree or a bad tree query: the module's one error."""


class FiniteColorTree(Record):
    """Rooted tree on ids ``0..size-1``, node 0 the root and a parent's id
    below its children's.  ``parent[n]`` and ``edge_color[n]`` are node
    n's parent and the color of the edge to it (None at the root).  The
    two arrays are the whole tree: ``__init__`` derives ``children[c]``,
    which maps each node that has a ``c``-child to that child.  A tree
    file's ids are breadth-first, children in color order, so two files
    with the same words load into equal trees.
    """

    __slots__ = ("k", "parent", "edge_color", "children")

    def __init__(
        self, k: int, parent: list[Optional[int]], edge_color: list[Optional[int]]
    ) -> None:
        children: list[dict[int, int]] = [{} for _ in range(k)]
        for n in range(1, len(parent)):
            children[edge_color[n]][parent[n]] = n
        super().__init__(k, parent, edge_color, children)

    @property
    def size(self) -> int:
        return len(self.parent)

    def node(self, w: Word) -> Optional[int]:
        """The node ``w`` leads to from node 0, one child-map lookup per
        letter, or None once a letter leaves the tree."""
        children, k = self.children, self.k
        n: Optional[int] = 0
        for c in w:
            if not 0 <= c < k or (n := children[c].get(n)) is None:
                return None
        return n

    def step(self, c: int) -> Callable[[int], Optional[int]]:
        """The ``c``-child of a node or None: a C-level ``dict.get``, of an
        empty dict for a color outside ``0..k-1``."""
        return self.children[c].get if 0 <= c < self.k else {}.get


class FullColorTree(Record):
    """The complete infinite k-ary tree: every word over 0..k-1.

    Its nodes are depths, so the word a node stands for is not kept:
    ``step(c)`` maps ``d`` to ``d + 1`` for a color below k and to None
    otherwise.
    """

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        super().__init__(k)

    def node(self, w: Word) -> Optional[int]:
        # min and max run in C, a letter-by-letter test would not
        return len(w) if not w or (min(w) >= 0 and max(w) < self.k) else None

    def step(self, c: int) -> Callable[[int], Optional[int]]:
        # both run in C; an empty dict's get gives None for every depth
        return (1).__add__ if 0 <= c < self.k else {}.get


ColorTree = Union[FiniteColorTree, FullColorTree]


def validate_tree(nodes: Iterable[Iterable[int]], k: int) -> FiniteColorTree:
    """Build a finite tree from an explicit node set, in canonical ids.

    Letters must be ints (not bools).  Raises :class:`TreeError` for a
    letter that is not, then for a missing root, then for the least node
    with a letter not below ``k``, then for the least node whose immediate
    prefix is missing, and last for a ``k`` above ``MAX_COLORS``, before
    the tree makes its per-color maps.  Ids go a level at a time, each
    level by parent id and then letter: breadth-first, children in color
    order.
    """
    if k < 1:
        raise TreeError(f"color count k={k} must be at least 1")
    node_words = [tuple(n) for n in nodes]
    for w in node_words:
        for letter in w:
            # bool is an int subclass, and int() would round a float
            if type(letter) is not int:
                raise TreeError(f"letter {letter!r} in node {w} is not an integer")
    node_set = set(node_words)
    if ROOT not in node_set:
        raise TreeError("tree does not contain the empty word")
    # min and max run in C, a letter-by-letter test would not
    bad = [w for w in node_set if w and (min(w) < 0 or max(w) >= k)]
    if bad:
        w = min(bad)
        letter = next(c for c in w if not 0 <= c < k)
        raise TreeError(f"letter {letter} in node {w} not below k={k}")
    ids = {ROOT: 0}
    parent, edge_color = [None], [None]
    # a word gets an id once its prefix has one
    for _, level in groupby(sorted(node_set, key=len)[1:], len):
        placed = [(x, w[-1], w) for w in level if (x := ids.get(w[:-1])) is not None]
        for x, c, w in sorted(placed):
            ids[w] = len(parent)
            parent.append(x)
            edge_color.append(c)
    if len(ids) < len(node_set):
        # the least word with no id has a missing prefix: its descendants,
        # which have no id either, sort after it
        w = min(w for w in node_set if w not in ids)
        raise TreeError(f"node {w} present but its prefix {w[:-1]} is missing")
    if k > MAX_COLORS:
        raise TreeError(f"color count k={k} exceeds the limit of {MAX_COLORS}")
    return FiniteColorTree(k, parent, edge_color)


# --- built-in trees -----------------------------------------------------------

def full_tree(k: int) -> FullColorTree:
    """The complete infinite k-ary tree: every word over 0..k-1."""
    if k < 1:
        raise TreeError(f"color count k={k} must be at least 1")
    return FullColorTree(k)


def builtin_tree(name: str) -> FullColorTree:
    """Resolve a builtin tree name: ``unary`` or ``full:<k>``.  The front
    end reads a ``--tree`` text as a builtin name when no file has it."""
    if name == "unary":
        return full_tree(1)
    if name.startswith("full:"):
        try:
            return full_tree(parse_int(name.split(":", 1)[1]))
        except ValueError:
            raise TreeError(
                f"bad color count in builtin tree {name!r}, and no file has that name"
            ) from None
    raise TreeError(f"unknown builtin tree {name!r}, and no file has that name")


# --- JSON file format ---------------------------------------------------------

def tree_from_dict(data: dict) -> FiniteColorTree:
    if not isinstance(data, dict) or "k" not in data or "nodes" not in data:
        raise TreeError("tree file must be an object with 'k' and 'nodes'")
    k, nodes = data["k"], data["nodes"]
    # bool is an int subclass; JSON true/false are not counts
    if type(k) is not int:
        raise TreeError(f"tree k must be a JSON integer, got {k!r}")
    if not isinstance(nodes, list):
        raise TreeError("tree 'nodes' must be an array")
    for node in nodes:
        if not isinstance(node, list):
            raise TreeError(f"tree node {node!r} must be an array")
    return validate_tree(nodes, k)


def load_tree(path: str) -> FiniteColorTree:
    return tree_from_dict(read_json(path, "tree", TreeError))
