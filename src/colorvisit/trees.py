"""Prefix-closed color trees.

A run builds one of two trees, which share one interface (``k``,
``contains``, ``node``, ``step``) with the comparison tree of ``erdos``:

* :class:`FiniteColorTree` -- a tree file: an explicit, validated node set
  ``nodes``, and ``contains`` is a set lookup.
* :class:`FullColorTree` -- every word over ``0..k-1``, the builtins
  ``full:k`` and ``unary`` (k = 1).

``contains`` takes a word.  The run path calls it to check a visit's
root; the references in ``oracles`` probe words with it directly.  A visit
starts from ``node(root)``, the node the root word names, and fetches
``step(c)`` once per color: a function of one node that returns its
``c``-child or None.  The nodes of a finite tree are its words: a step maps
``w`` to ``w + (c,)`` when the tree contains it, at one probe of the node
set (the lookup ``contains`` makes, without its call), so it costs
O(depth) to copy and test the word.
All the nodes of one depth of a full tree have the same children, so its
nodes are depths and a step is ``d + 1`` in C, building no word.  Both
trees are immutable after construction and safe to share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .words import ROOT, Record, Word, parse_int, read_json


class TreeError(ValueError):
    """A malformed tree or a bad tree query: the module's one error."""


class FiniteColorTree(Record):
    """Explicit finite tree: a validated, prefix-closed set of words."""

    __slots__ = ("k", "nodes")

    def __init__(self, k: int, nodes: frozenset[Word]) -> None:
        super().__init__(k, nodes)

    def contains(self, w: Word) -> bool:
        return w in self.nodes

    def node(self, w: Word) -> Word:
        return w

    def step(self, c: int) -> Callable[[Word], Optional[Word]]:
        """Maps ``w`` to ``w + (c,)`` if the tree contains it: one probe,
        O(depth)."""
        # the set lookup ``contains`` makes, without its call
        nodes = self.nodes

        def step(w: Word) -> Optional[Word]:
            v = w + (c,)
            return v if v in nodes else None

        return step


class FullColorTree(Record):
    """The complete infinite k-ary tree: every word over 0..k-1.

    Its nodes are depths, so the word a node stands for is not kept:
    ``step(c)`` maps ``d`` to ``d + 1`` for a color below k and to None
    otherwise.
    """

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        super().__init__(k)

    def contains(self, w: Word) -> bool:
        # min and max run in C, a letter-by-letter test would not
        return not w or (min(w) >= 0 and max(w) < self.k)

    def node(self, w: Word) -> int:
        return len(w)

    def step(self, c: int) -> Callable[[int], Optional[int]]:
        # both run in C; an empty dict's get gives None for every depth
        return (1).__add__ if 0 <= c < self.k else {}.get


ColorTree = Union[FiniteColorTree, FullColorTree]


def validate_tree(nodes: Iterable[Iterable[int]], k: int) -> FiniteColorTree:
    """Build a finite tree from an explicit node set.

    Letters must be ints (not bools).  Raises :class:`TreeError` for a
    letter that is not, then for a missing root, a letter not below ``k``
    or a node whose immediate prefix is missing; the last two run in a
    deterministic order over the lexicographically sorted node set.
    """
    if k < 1:
        raise TreeError(f"color count k={k} must be at least 1")
    node_words = [tuple(n) for n in nodes]
    for w in node_words:
        for letter in w:
            # bool is an int subclass, and int() would round a float
            if type(letter) is not int:
                raise TreeError(f"letter {letter!r} in node {w} is not an integer")
    node_set = frozenset(node_words)
    if ROOT not in node_set:
        raise TreeError("tree does not contain the empty word")
    for w in sorted(node_set):
        for letter in w:
            if not 0 <= letter < k:
                raise TreeError(f"letter {letter} in node {w} not below k={k}")
    for w in sorted(node_set):
        if w and w[:-1] not in node_set:
            raise TreeError(
                f"node {w} present but its prefix {w[:-1]} is missing"
            )
    return FiniteColorTree(k=k, nodes=node_set)


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

def tree_to_dict(tree: FiniteColorTree) -> dict:
    """Serializable form: ``{"k": int, "nodes": [[int...], ...]}``."""
    return {"k": tree.k, "nodes": [list(w) for w in sorted(tree.nodes)]}


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
