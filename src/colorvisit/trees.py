"""Prefix-closed color trees.

Three representations share one interface (``k``, ``contains``, ``node``,
``child``, ``nodes``):

* :class:`FiniteColorTree` -- an explicit, validated node set; ``contains``
  is a set lookup and ``nodes`` is the full frozenset.
* :class:`OracleColorTree` -- a membership predicate over an unbounded word
  space; ``nodes`` is ``None``.  The predicate must be pure and the word set
  it accepts must contain the root and be closed under prefix; neither
  property is checkable here, so they are the caller's contract.
* :class:`FullColorTree` -- every word over ``0..k-1``, the builtins
  ``full:k`` and ``unary`` (k = 1); ``nodes`` is ``None``.

``contains`` takes a word.  The run path calls it to check a visit's root
and, in the word trees, inside ``child``; the references in ``oracles``
probe words with it directly.  A visit starts from ``node(root)``, the node
the root word names, and steps by ``child(node, c)``, the ``c``-child of a
node or None.  The nodes of the first two are their words: ``child(w, c)`` is
``w + (c,)`` when the tree contains it, at one ``contains`` probe, so it
costs O(depth) to copy and test the word.  All the nodes of one depth of a
full tree have the same children, so its nodes are depths and ``child`` is
one comparison that builds no word.  All trees are immutable after
construction and safe to share.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Union

from .words import ROOT, Record, Word, parse_int


class TreeError(ValueError):
    """Base class for malformed trees and bad tree queries."""


class MissingRoot(TreeError):
    def __init__(self) -> None:
        super().__init__("tree does not contain the empty word")


class NotPrefixClosed(TreeError):
    """A node's immediate prefix is absent; ``witness`` is the missing prefix."""

    def __init__(self, witness: Word, extension: Word) -> None:
        self.witness = witness
        self.extension = extension
        super().__init__(
            f"node {extension} present but its prefix {witness} is missing"
        )


class ColorOutOfRange(TreeError):
    def __init__(self, letter: int, offending: Word, k: int) -> None:
        self.letter = letter
        self.offending = offending
        super().__init__(f"letter {letter} in node {offending} not below k={k}")


class RootNotInTree(TreeError):
    def __init__(self, root: Word) -> None:
        self.root = root
        super().__init__(f"root {root} is not in the tree")


class _WordTree(Record):
    """Trees whose nodes are their words."""

    __slots__ = ()

    def node(self, w: Word) -> Word:
        return w

    def child(self, w: Word, c: int) -> Optional[Word]:
        """``w + (c,)`` if the tree contains it: one probe, O(depth)."""
        v = w + (c,)
        return v if self.contains(v) else None


class FiniteColorTree(_WordTree):
    """Explicit finite tree: a validated, prefix-closed set of words."""

    __slots__ = ("k", "nodes")

    def __init__(self, k: int, nodes: frozenset[Word]) -> None:
        super().__init__(k, nodes)

    def contains(self, w: Word) -> bool:
        return w in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


class OracleColorTree(_WordTree):
    """Possibly infinite tree given by a pure membership predicate.

    ``child`` builds the child's word and calls the predicate on it once,
    so a step costs O(depth) plus whatever the predicate costs.
    """

    __slots__ = ("k", "membership", "nodes")

    def __init__(self, k: int, membership: Callable[[Word], bool]) -> None:
        super().__init__(k, membership, None)

    def contains(self, w: Word) -> bool:
        return bool(self.membership(w))


class FullColorTree(Record):
    """The complete infinite k-ary tree: every word over 0..k-1.

    Its nodes are depths, so the word a node stands for is not kept:
    ``child(d, c)`` is ``d + 1`` for a color below k and None otherwise.
    """

    __slots__ = ("k", "nodes")

    def __init__(self, k: int) -> None:
        super().__init__(k, None)

    def contains(self, w: Word) -> bool:
        # min and max run in C, a letter-by-letter test would not
        return not w or (min(w) >= 0 and max(w) < self.k)

    def node(self, w: Word) -> int:
        return len(w)

    def child(self, d: int, c: int) -> Optional[int]:
        return d + 1 if 0 <= c < self.k else None


ColorTree = Union[FiniteColorTree, OracleColorTree, FullColorTree]


def validate_tree(nodes: Iterable[Iterable[int]], k: int) -> FiniteColorTree:
    """Build a finite tree from an explicit node set.

    Letters must be ints (not bools).  Raises :class:`TreeError` for a
    letter that is not, then :class:`MissingRoot`, :class:`ColorOutOfRange`
    or :class:`NotPrefixClosed` (reporting the missing prefix as witness);
    the last two run in a deterministic order over the lexicographically
    sorted node set.
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
        raise MissingRoot()
    for w in sorted(node_set):
        for letter in w:
            if not 0 <= letter < k:
                raise ColorOutOfRange(letter, w, k)
    for w in sorted(node_set):
        if w and w[:-1] not in node_set:
            raise NotPrefixClosed(w[:-1], w)
    return FiniteColorTree(k=k, nodes=node_set)


# --- built-in trees -----------------------------------------------------------

def unary_tree() -> FullColorTree:
    """The infinite single-color chain: every word over {0}."""
    return FullColorTree(1)


def full_tree(k: int) -> FullColorTree:
    """The complete infinite k-ary tree: every word over 0..k-1."""
    if k < 1:
        raise TreeError(f"color count k={k} must be at least 1")
    return FullColorTree(k)


_BUILTIN_TREES = {"unary": unary_tree}


def builtin_tree(name: str) -> FullColorTree:
    """Resolve a builtin tree name: ``unary`` or ``full:<k>``."""
    if name in _BUILTIN_TREES:
        return _BUILTIN_TREES[name]()
    if name.startswith("full:"):
        try:
            return full_tree(parse_int(name.split(":", 1)[1]))
        except ValueError:
            raise TreeError(f"bad color count in builtin tree {name!r}") from None
    raise TreeError(f"unknown builtin tree {name!r}")


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
    import json  # only tree files need it, not the builtin trees

    with open(path, "r", encoding="utf-8") as fh:
        return tree_from_dict(json.load(fh))


def save_tree(tree: FiniteColorTree, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tree_to_dict(tree), fh, sort_keys=True)
        fh.write("\n")
