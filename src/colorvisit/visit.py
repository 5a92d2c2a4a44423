"""Priority-driven visits of color trees.

A visit with priority list ``<d0, d1, ..., d_{h-1}>`` from a root node
enumerates a subtree one node at a time.  The first color ``d0`` has the
lowest priority: the visit first runs a full ``<d1, ..., d_{h-1}>``-visit
from the root, and only once that inner visit is complete (no child with a
color in ``<d1, ..., d_{h-1}>`` of an enumerated node is missing) does it
expand in color ``d0``.  Expansion j picks the j-th ``d0``-child of the
inner segment's nodes, bases taken in lexicographic order, and starts a
sub-visit there with ``d0`` rotated to the top priority.  Each sub-visit
must be finished completely before the next expansion starts.

Two faces of the same discipline live here:

* :func:`check_visit` decides the recursive acceptance predicate directly,
  by searching decompositions.  It is the specification-level reference,
  intended for small inputs.
* :func:`visit_nodes` / :func:`enumerate_visit` generate the enumeration
  efficiently with an explicit stack of one frame per emitted node.  Their
  only correctness contract is agreement with :func:`check_visit`, which
  the test suite checks exhaustively at desk scale.

Every step of the generator needs only finitely many child probes, so
oracle-backed (potentially infinite) trees can be visited under a budget.
The generator treats nodes as opaque and reaches them only through
``tree.child(node, c)``, so it runs on the words of a color tree, the
depths of a full tree and the ids of a comparison tree alike.  Its frames
hold order indices: it records each emitted entry's parent index and last
letter and orders bases by a walk over those arrays instead of comparing
words.  :class:`Visit` carries those two arrays, so the stable indices, the
branch and the exports are read off them, and it spells the words only when
its ``order`` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .trees import ColorTree, RootNotInTree
from .words import ROOT, Word, rotate, validate_priority


class VisitError(ValueError):
    """Base class for visit-level errors."""


class EntryNotInTree(VisitError):
    def __init__(self, entry: Word) -> None:
        self.entry = entry
        super().__init__(f"entry {entry} is not in the tree")


# --- completeness -------------------------------------------------------------

def is_color_complete(
    tree: ColorTree,
    entries: Sequence[Word],
    color: int,
    *,
    check_entries: bool = True,
) -> bool:
    """True iff every ``color``-child (in the tree) of an entry is an entry.

    The completeness scan itself uses exactly ``len(entries)`` membership
    probes, one per candidate child.  With ``check_entries`` (the default)
    an extra validation pass raises :class:`EntryNotInTree` on entries
    outside the tree; internal callers that construct entries from the tree
    skip it.
    """
    if check_entries:
        for w in entries:
            if not tree.contains(w):
                raise EntryNotInTree(w)
    entry_set = set(entries)
    for w in entries:
        child = w + (color,)
        if tree.contains(child) and child not in entry_set:
            return False
    return True


def is_complete_for(
    tree: ColorTree,
    entries: Sequence[Word],
    priority: Iterable[int],
    *,
    check_entries: bool = True,
) -> bool:
    """Completeness for every color in the priority list (vacuous if empty)."""
    if check_entries:
        for w in entries:
            if not tree.contains(w):
                raise EntryNotInTree(w)
    return all(
        is_color_complete(tree, entries, c, check_entries=False)
        for c in priority
    )


# --- expansions ---------------------------------------------------------------

def nth_expansion(
    tree: ColorTree,
    bases: Sequence[Word],
    n: int,
    color: int,
    *,
    check_entries: bool = True,
) -> Optional[Word]:
    """The n-th (0-indexed) word ``base + (color,)`` present in the tree,
    scanning bases in lexicographic order; ``None`` if fewer than n+1 exist.

    At most ``len(bases)`` membership probes; the scan stops as soon as the
    n-th hit is found.
    """
    if n < 0:
        return None
    if check_entries:
        seen: set[Word] = set()
        for w in bases:
            if w in seen:
                raise VisitError(f"duplicate base {w}")
            seen.add(w)
            if not tree.contains(w):
                raise EntryNotInTree(w)
    hits = 0
    for base in sorted(bases):
        child = base + (color,)
        if tree.contains(child):
            if hits == n:
                return child
            hits += 1
    return None


# --- the declarative checker ----------------------------------------------------

def check_visit(
    tree: ColorTree,
    entries: Sequence[Iterable[int]],
    priority: Sequence[int],
    root: Word,
) -> bool:
    """Decide whether ``entries`` is a priority-visit from ``root``.

    Direct recursion on the priority length and the entry list: the empty
    priority accepts exactly ``[root]``; otherwise some split
    ``M * L_0 * ... * L_{n-1}`` must exist where M is a visit for the tail
    priority (and complete for it when n >= 1), each ``L_j`` starts at the
    j-th lowest-color expansion of M and is a visit for the rotated
    priority, and every ``L_j`` but the last is complete for the full color
    set.  Returns False on any malformed input (duplicates, entries outside
    the tree, bad priority); never raises.  Exponential in the worst case;
    meant for small inputs.
    """
    L = tuple(tuple(int(c) for c in e) for e in entries)
    root = tuple(int(c) for c in root)
    try:
        prio = validate_priority(priority, tree.k)
    except ValueError:
        return False
    if not L or len(set(L)) != len(L):
        # A visit is a nonempty, repetition-free enumeration; duplicated or
        # empty lists can never satisfy the recursive definition.
        return False
    if any(not tree.contains(w) for w in L):
        return False
    if not tree.contains(root):
        return False
    return _Checker(tree, L).accepts(0, len(L), prio, root)


class _Checker:
    """Decomposition search over contiguous sublists, memoized by content."""

    def __init__(self, tree: ColorTree, entries: tuple[Word, ...]) -> None:
        self.tree = tree
        self.entries = entries
        self.memo: dict[tuple[int, int, Word, Word], bool] = {}

    def accepts(self, lo: int, hi: int, prio: Word, root: Word) -> bool:
        if hi <= lo:
            return False
        if self.entries[lo] != root:
            # every visit starts with its root
            return False
        key = (lo, hi, prio, root)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.memo[key] = False  # cycle guard; recomputed below
        result = self._compute(lo, hi, prio, root)
        self.memo[key] = result
        return result

    def _compute(self, lo: int, hi: int, prio: Word, root: Word) -> bool:
        if not prio:
            return hi - lo == 1
        d0, rest = prio[0], prio[1:]
        rotated = rest + (d0,)
        for m in range(lo + 1, hi + 1):
            if not self.accepts(lo, m, rest, root):
                continue
            if m == hi:
                return True  # n = 0: no expansion happened yet
            segment = self.entries[lo:m]
            if not is_complete_for(self.tree, segment, rest, check_entries=False):
                continue
            if self._segments(m, hi, segment, d0, rotated, prio):
                return True
        return False

    def _segments(
        self,
        start: int,
        hi: int,
        m_entries: tuple[Word, ...],
        d0: int,
        rotated: Word,
        all_colors: Word,
    ) -> bool:
        """Parse ``entries[start:hi]`` as L_0 * ... * L_{n-1}."""

        def parse(j: int, lo: int) -> bool:
            if lo == hi:
                return True
            head = nth_expansion(
                self.tree, m_entries, j, d0, check_entries=False
            )
            if head is None or self.entries[lo] != head:
                return False
            for end in range(lo + 1, hi + 1):
                if not self.accepts(lo, end, rotated, head):
                    continue
                if end == hi:
                    return True  # last segment needs no completeness
                if not is_complete_for(
                    self.tree, self.entries[lo:end], all_colors,
                    check_entries=False,
                ):
                    continue
                if parse(j + 1, end):
                    return True
            return False

        return parse(0, start)


# --- the efficient generator ----------------------------------------------------

@dataclass(frozen=True)
class Visit:
    """A finished (or budget-truncated) enumeration.

    Entry i is the word ``order[i]``.  Entry 0 is ``root``; every later
    entry is a child, by one letter of a priority color, of an earlier
    entry: ``parent[i]`` is the index of that entry (always below i) and
    ``letter[i]`` the letter, while ``parent[0]`` and ``letter[0]`` are -1.
    So the entries have no repetitions, are prefix-closed above the root
    and stay inside the restricted subtree of the priority's colors.
    ``terminated`` is True iff the enumeration ended because the visit got
    complete, not because the budget ran out.  ``tree`` is the visited
    tree, a color tree or the comparison tree of a homog run; only its
    color count ``k`` is read off a visit.

    ``order`` spells every word from ``root``, ``parent`` and ``letter``,
    one tuple per entry, on its first read; a chain of depth n then holds
    n²/2 letters, so code that needs only the tree shape reads ``parent``
    and ``letter``.  Immutable and safe to share.
    """

    tree: ColorTree
    root: Word
    priority: Word
    terminated: bool
    parent: tuple[int, ...]
    letter: tuple[int, ...]

    @cached_property
    def order(self) -> tuple[Word, ...]:
        order = [self.root]
        for i in range(1, len(self.parent)):
            order.append(order[self.parent[i]] + (self.letter[i],))
        return tuple(order)


def lex_order(parent: Sequence[int], letter: Sequence[int], head: int) -> list[int]:
    """The indices from ``head`` to the end of a visit order, sorted by the
    words they spell.

    Those entries are ``head`` and descendants of it, closed under parent
    above it, so their lexicographic order is a preorder walk from ``head``
    with children in color order: no word is built or compared.
    """
    if head == len(parent) - 1:
        return [head]
    kids: dict[int, list[int]] = {}
    for i in sorted(range(head + 1, len(parent)), key=letter.__getitem__,
                    reverse=True):
        kids.setdefault(parent[i], []).append(i)
    out = []
    todo = [head]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(kids.get(i, ()))
    return out


def visit_nodes(
    tree, priority: Word, head, budget: int
) -> tuple[list, list[int], list[int], bool]:
    """Run the unique visit from ``head`` until complete or ``budget``
    entries are emitted: its nodes, their parent indices, their last
    colors (-1 for the head) and whether completion was seen with fewer
    than ``budget`` entries.

    Nodes are opaque: ``tree`` needs only ``child(node, c)``, the
    ``c``-child of a node or None.  ``priority`` must be validated.  Each
    emitted node opens one frame ``[P, level, first, expansions, j]`` that
    runs the visits with priorities ``P[level:]``, from ``len(P)`` (the
    node alone) down to 0.  On top with its segments used up, the frame's
    entries are the indices from ``first`` on; it steps ``level`` down and
    takes the ``P[level]``-children of those entries, bases in
    lexicographic order, as the heads of its next segments, each a visit
    with priority ``rotate(P[level:])``.  At level 0 it closes.
    """
    if budget < 1:
        raise VisitError(f"budget {budget} must be at least 1")
    child = tree.child
    nodes = [head]
    parent = [-1]
    letter = [-1]
    stack = [[priority, len(priority), 0, (), 0]]
    while len(nodes) < budget:
        frame = stack[-1]
        prio, level, first, expansions, j = frame
        if j < len(expansions):
            frame[4] = j + 1
            base, node = expansions[j]
            c = prio[level]
            nodes.append(node)
            parent.append(base)
            letter.append(c)
            inner = rotate(prio[level:])
            stack.append([inner, len(inner), len(nodes) - 1, (), 0])
        elif level:
            level -= 1
            c = prio[level]
            expansions = []
            for base in lex_order(parent, letter, first):
                node = child(nodes[base], c)
                if node is not None:
                    expansions.append((base, node))
            frame[1], frame[3], frame[4] = level, expansions, 0
        else:
            stack.pop()
            if not stack:
                return nodes, parent, letter, True
    return nodes, parent, letter, False


def enumerate_visit(
    tree: ColorTree,
    priority: Iterable[int],
    root: Word = ROOT,
    budget: int = 1000,
) -> Visit:
    """Run the unique visit until complete or ``budget`` entries are emitted.

    Deterministic: identical inputs give identical outputs.  ``terminated``
    is True only when completion was actually observed within the budget.
    The loop starts from ``tree.node(root)`` and keeps no word; the words
    are spelled only when ``order`` is read.
    """
    if budget < 1:
        raise VisitError(f"budget {budget} must be at least 1")
    prio = validate_priority(priority, tree.k)
    root = tuple(root)
    if not tree.contains(root):
        raise RootNotInTree(root)
    _, parent, letter, terminated = visit_nodes(
        tree, prio, tree.node(root), budget
    )
    return Visit(tree, root, prio, terminated, tuple(parent), tuple(letter))
