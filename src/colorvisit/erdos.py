"""The comparison tree a total edge coloring induces on an initial segment
of the naturals, and monochromatic-set extraction from its branches.

Node ``n`` is inserted by walking from the root: at node ``x`` look up the
color ``i`` of the edge ``{x, n}``; descend into x's ``i``-child if one
exists, otherwise attach ``n`` there.  The construction forces the defining
property of these trees: whenever ``y`` sits anywhere below the ``i``-child
of ``x``, the edge ``{x, y}`` has color ``i``.  Consequently any chain in
the tree is colored, pair by pair, by the edge colors along it, and the
smaller endpoints of same-colored chain edges form a monochromatic set.

:func:`build_erdos` grows this tree top-down, one :meth:`Coloring.split`
per node: each node groups every number below it by color at once, a group
per child.  The reference construction, one pair at a time, is
``oracles.build_by_insertion``.  Verification of the extracted sets also
splits a row per class member.

The tree is a :class:`~colorvisit.trees.FiniteColorTree`, visited by
``visit.enumerate_visit``; the letters of :meth:`Visit.branch` spell the
branch whose edges yield the extracted sets.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .colorings import Coloring
from .trees import FiniteColorTree
from .visit import Visit, VisitError, enumerate_visit
from .words import ROOT, Record, full_priority, validate_priority


class ErdosError(ValueError):
    """Base class for comparison-tree errors."""


def build_erdos(coloring: Coloring, size: int) -> FiniteColorTree:
    """The tree that inserting 1..size-1 in order builds, grown top-down.

    The numbers below node ``x`` are the larger ones that agree with ``x``
    on the color of every edge to x's ancestors.  One :meth:`Coloring.split`
    groups them by color: the smallest member of each group is x's child of
    that color and the rest stay below it, and a child with nothing below it
    gets no row.  A row of one color passes its numbers down whole, and
    costs O(1) when its row function returns it as one int and its numbers
    are a ``range``: the work list starts as ``range(1, size)``, and the
    ``group[1:]`` of a range is a range.  This evaluates the same pairs as
    insertion, one per node and ancestor, in another order: rows are taken
    depth first, the row of the largest child first.  A coloring error
    propagates from the row that meets it, so it may name another pair than
    insertion would meet first.
    """
    if size < 1:
        raise ErdosError(f"size {size} must be at least 1")
    parent: list[Optional[int]] = [None] * size
    edge_color: list[Optional[int]] = [None] * size
    work: list[tuple[int, Sequence[int]]] = [(0, range(1, size))]
    while work:
        x, below = work.pop()
        for i, group in coloring.split(x, below).items():
            child = group[0]
            parent[child], edge_color[child] = x, i
            if len(group) > 1:
                work.append((child, group[1:]))
    return FiniteColorTree(coloring.k, parent, edge_color)


class HomogeneousReport(Record):
    """Candidate monochromatic sets read off one branch of ``tree``.

    ``classes[i]`` holds the smaller endpoints of branch edges with color
    ``i``; the classes are pairwise disjoint and their union is the branch
    minus its last node.  ``verified`` records an explicit pairwise check of
    every class against the source coloring.  The report presents all k
    candidates because deciding which one extends unboundedly is exactly
    what a finite run cannot do.
    """

    __slots__ = ("tree", "branch_nodes", "classes", "verified")

    def __init__(
        self,
        tree: FiniteColorTree,
        branch_nodes: tuple[int, ...],
        classes: tuple[frozenset[int], ...],
        verified: bool,
    ) -> None:
        super().__init__(tree, branch_nodes, classes, verified)

    @property
    def k(self) -> int:
        return self.tree.k

    @property
    def size(self) -> int:
        return self.tree.size

    @property
    def census(self) -> dict[int, int]:
        """Branch edges per color, which is the size of each class."""
        return {i: len(c) for i, c in enumerate(self.classes)}


def extract_homogeneous(
    tree: FiniteColorTree,
    word: Sequence[int],
    coloring: Coloring,
) -> HomogeneousReport:
    """Split a branch into per-color candidate sets and verify them.

    The branch is the root path of the node ``word`` leads to: each letter
    ``i`` steps from a node ``x`` to its ``i``-child and puts ``x`` into
    class ``i``.  Verification re-checks every pair inside every class, a
    :meth:`Coloring.split` per member, and never hides a failure.
    """
    nodes = [0]
    classes: list[set[int]] = [set() for _ in range(tree.k)]
    for i in word:
        x = nodes[-1]
        if (y := tree.step(i)(x)) is None:
            raise ErdosError(f"branch node {x} has no child of color {i}")
        classes[i].add(x)
        nodes.append(y)
    verified = True
    for i, cls in enumerate(classes):
        members = sorted(cls)
        for j in range(len(members) - 1):
            rest = members[j + 1 :]
            if len(coloring.split(members[j], rest).get(i, ())) != len(rest):
                verified = False
    return HomogeneousReport(
        tree=tree,
        branch_nodes=tuple(nodes),
        classes=tuple(frozenset(c) for c in classes),
        verified=verified,
    )


def homog_pipeline(
    coloring: Coloring,
    size: int,
    budget: int,
    priority: Optional[Sequence[int]] = None,
) -> tuple[HomogeneousReport, Visit]:
    """Build the comparison tree, visit it from node 0, take the root path
    of the last visited node as the branch, and extract the candidate sets.

    The priority must list all k colors (default ``<0, ..., k-1>``).  The
    visit is :func:`enumerate_visit`'s from the empty word, whose
    ``letter`` array holds each visited node's edge color, so the letters
    of :meth:`Visit.branch` spell the branch.  A bad budget is rejected
    before the tree is built, since the build colors up to size²/2 pairs.
    """
    if priority is None:
        prio = full_priority(coloring.k)
    else:
        prio = validate_priority(priority, coloring.k)
        if len(prio) != coloring.k:
            raise ErdosError(
                f"pipeline priority must list all {coloring.k} colors, got {prio}"
            )
    if budget < 1:
        raise VisitError(f"budget {budget} must be at least 1")
    tree = build_erdos(coloring, size)
    visit = enumerate_visit(tree, prio, ROOT, budget)
    word = [visit.letter[i] for i in visit.branch()[1:]]
    return extract_homogeneous(tree, word, coloring), visit
