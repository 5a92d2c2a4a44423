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

The recursive definition itself is decided by ``oracles.check_visit``, a
specification-level reference for small inputs.  This module holds only
the generator: :func:`visit_nodes` / :func:`enumerate_visit` produce the
enumeration with an explicit stack of one frame per emitted node, and
their only correctness contract is agreement with that reference, which
the test suite checks exhaustively at desk scale.

Every step of the generator needs only finitely many child probes, so
oracle-backed (potentially infinite) trees can be visited under a budget.
The generator treats nodes as opaque and reaches them only through
``tree.child(node, c)``, so it runs on the words of a color tree, the
depths of a full tree and the ids of a comparison tree alike.  Its frames
hold order indices: it records each emitted entry's parent index and last
letter and orders bases by a walk over those arrays instead of comparing
words.  :class:`Visit` carries those two arrays and no words, so the stable
indices, the branch and the exports are read off them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .trees import ColorTree, RootNotInTree
from .words import ROOT, Record, Word, rotate, validate_priority


class VisitError(ValueError):
    """Base class for visit-level errors."""


class Visit(Record):
    """A finished (or budget-truncated) enumeration.

    Entry 0 is ``root``; every later entry is a child, by one letter of a
    priority color, of an earlier entry: ``parent[i]`` is the index of that
    entry (always below i) and ``letter[i]`` the letter, while
    ``parent[0]`` and ``letter[0]`` are -1.  So the entries have no
    repetitions, are prefix-closed above the root and stay inside the
    restricted subtree of the priority's colors.  ``terminated`` is True
    iff the enumeration ended because the visit got complete, not because
    the budget ran out.  ``tree`` is the visited tree, a color tree or the
    comparison tree of a homog run; only its color count ``k`` is read off
    a visit.

    Entry i's word is ``root`` followed by the letters on its parent chain.
    No word is kept, since a chain of depth n would hold n²/2 letters;
    ``oracles.visit_words`` spells them for the references.  Immutable and
    safe to share.
    """

    __slots__ = ("tree", "root", "priority", "terminated", "parent", "letter")

    def __init__(
        self,
        tree: ColorTree,
        root: Word,
        priority: Word,
        terminated: bool,
        parent: tuple[int, ...],
        letter: tuple[int, ...],
    ) -> None:
        super().__init__(tree, root, priority, terminated, parent, letter)


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
    The loop starts from ``tree.node(root)`` and keeps no word.
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
