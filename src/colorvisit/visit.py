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
enumeration with an explicit stack of frames, one that emits the head and
one per emitted node that has a child in its visit's colors, and their
only correctness contract is agreement with that reference, which the
test suite checks exhaustively at desk scale.  Each node is probed as
soon as it is emitted, color by color from the top priority down to its
first child, and a node with none opens no frame.

Every step of the generator needs only finitely many child probes, so
infinite trees can be visited under a budget.  The generator treats nodes
as opaque and reaches them only through ``tree.step(c)``, a function per
color from a node to its ``c``-child or None, so it runs on the words of a
finite tree, the depths of a full tree and the ids of a comparison tree
alike, at one call per probe.  Its frames hold order indices: it records
each emitted entry's parent index and last letter and orders bases by a
walk over those arrays instead of comparing words.  :class:`Visit`
carries those two arrays and no words, and reads its horizon-stable
indices and its branch off them.

An index m of a visit is horizon-stable when every later entry is a proper
descendant of entry m; the last index always qualifies vacuously.  On
trees with a single infinite branch the horizon-stable set shrinks toward
the truly stable nodes as the budget grows, and the root path of the last
entry, which runs through every horizon-stable entry, approximates that
branch from above.  None of this is assumed anywhere: the package only
ever asserts it on engineered families where the limit is known.  The
references that read the words instead, ``oracles.brute_stable_indices``
and ``oracles.branch_census``, live with the other oracles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .words import ROOT, Record, Word, rotate, validate_priority

if TYPE_CHECKING:
    from .trees import ColorTree


class VisitError(ValueError):
    """A bad visit request, such as a budget below 1 or a root outside the
    tree: the module's one error."""


class Visit(Record):
    """A finished (or budget-truncated) enumeration.

    Entry 0 is ``root``; every later entry is a child, by one letter of a
    priority color, of an earlier entry: ``parent[i]`` is the index of that
    entry (always below i) and ``letter[i]`` the letter, while
    ``parent[0]`` and ``letter[0]`` are -1.  So the entries have no
    repetitions, are prefix-closed above the root and stay inside the
    restricted subtree of the priority's colors.  ``terminated`` is True
    iff the enumeration ended because the visit got complete, not because
    the budget ran out.  ``k`` is the color count of the visited tree, a
    color tree or the comparison tree of a homog run.

    Entry i's word is ``root`` followed by the letters on its parent chain.
    No word is kept, since a chain of depth n would hold n²/2 letters;
    ``oracles.visit_words`` spells them for the references.  Immutable and
    safe to share.
    """

    __slots__ = ("k", "root", "priority", "terminated", "parent", "letter")

    def __init__(
        self,
        k: int,
        root: Word,
        priority: Word,
        terminated: bool,
        parent: tuple[int, ...],
        letter: tuple[int, ...],
    ) -> None:
        super().__init__(k, root, priority, terminated, parent, letter)

    def stable(self) -> tuple[int, ...]:
        """The horizon-stable indices: all m whose entry's word is a proper
        prefix of every later entry's.

        Parents come before their children, so m qualifies exactly when
        no entry after m has its parent before m: then each entry after m
        descends from m through parents at or after m.  One right-to-left
        pass keeps the least parent of the entries after m.
        """
        parent = self.parent
        low = len(parent)
        stable = []
        for m in range(len(parent) - 1, -1, -1):
            if low >= m:
                stable.append(m)
            if parent[m] < low:
                low = parent[m]
        return tuple(reversed(stable))

    def branch(self) -> tuple[int, ...]:
        """The indices on the root path of the last entry, from the root.

        The horizon-stable entries form a prefix chain ending at the last
        entry, so this is the chain through all of them.  Map the indices
        to read other items: ``letter[i]`` gives the edge colors (-1 at the
        root), the words of ``oracles.visit_words`` the branch words.
        """
        parent = self.parent
        chain = []
        i = len(parent) - 1
        while i >= 0:
            chain.append(i)
            i = parent[i]
        chain.reverse()
        return tuple(chain)


def lex_order(parent: Sequence[int], letter: Sequence[int], head: int) -> list[int]:
    """The indices from ``head`` to the end of a visit order, sorted by the
    words they spell.

    Those entries are ``head`` and descendants of it, closed under parent
    above it, so their lexicographic order is a preorder walk from ``head``
    with children in color order: no word is built or compared.  With at
    most one entry after ``head``, that entry is its child and the order is
    the index order.
    """
    if head >= len(parent) - 2:
        # ``head`` itself, not an equal int: the parent entries of its
        # children then share it
        return [head, *range(head + 1, len(parent))]
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

    Nodes are opaque: ``tree`` needs only ``step(c)``, a function from a
    node to its ``c``-child or None, which is fetched once per priority
    color.  ``priority`` must be validated.  The visit a node heads, with
    inner priority ``P``, runs the visits with priorities ``P[level:]``
    from ``len(P)`` (the node alone) down to 0.
    While only the node is emitted, each level step probes the node alone,
    so on emission it is probed for ``P[-1]``, ``P[-2]``, ... up to its
    first child.  A node with none is a complete visit and opens no frame;
    otherwise it opens one frame ``[P, level, first, expansions, j]`` at
    that child's level, with that child as its one expansion.  On top with
    its segments used up, the frame's entries are the indices from
    ``first`` on; it steps ``level`` down and takes the ``P[level]``-children
    of those entries, bases in lexicographic order, as the heads of its next
    segments, each a visit with priority ``rotate(P[level:])``.  At level 0
    it closes.  The head is the one expansion of a first frame at level 0,
    whose heads have inner priority ``priority``, so it is emitted, with
    parent and letter -1, and probed like every other entry.  No node is
    probed once ``budget`` entries are emitted.
    """
    if budget < 1:
        raise VisitError(f"budget {budget} must be at least 1")

    step = {c: tree.step(c) for c in priority}

    def openings(prio: Word) -> list[tuple[Word, int, Callable]]:
        # the order in which a new head with priority prio is probed
        return [(prio, level, step[prio[level]])
                for level in reversed(range(len(prio)))]

    nodes: list = []
    parent: list[int] = []
    letter: list[int] = []
    # the head's frame: its letter and its base are -1
    stack = [[(-1,), 0, -1, [(-1, head)], 0]]
    # the openings of rotate(P[level:]), the priority of the heads that a
    # frame at (P, level) emits
    inners: dict[tuple[Word, int], list[tuple[Word, int, Callable]]] = {
        ((-1,), 0): openings(priority)}
    while stack:
        frame = stack[-1]
        prio, level, first, expansions, j = frame
        if j < len(expansions):
            frame[4] = j + 1
            base, node = expansions[j]
            # one int object for the new index, shared by its frame and
            # by the parent entries of its children
            h = len(nodes)
            nodes.append(node)
            parent.append(base)
            letter.append(prio[level])
            if h + 1 == budget:
                return nodes, parent, letter, False
            probes = inners.get((prio, level))
            if probes is None:
                probes = inners[prio, level] = openings(rotate(prio[level:]))
            for inner, level, child in probes:
                kid = child(node)
                if kid is not None:
                    stack.append([inner, level, h, [(h, kid)], 0])
                    break
        elif level:
            level -= 1
            child = step[prio[level]]
            expansions = []
            for base in lex_order(parent, letter, first):
                node = child(nodes[base])
                if node is not None:
                    expansions.append((base, node))
            frame[1], frame[3], frame[4] = level, expansions, 0
        else:
            stack.pop()
    return nodes, parent, letter, True


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
    prio = validate_priority(priority, tree.k)
    root = tuple(root)
    if not tree.contains(root):
        raise VisitError(f"root {root} is not in the tree")
    _, parent, letter, terminated = visit_nodes(
        tree, prio, tree.node(root), budget
    )
    return Visit(tree.k, root, prio, terminated, tuple(parent), tuple(letter))
