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

Children are color-unique, so the tree keeps one map per color from a
node to its child of that color.  It is a finite color tree with the
interface of those in :mod:`colorvisit.trees` (``k``, ``contains``,
``node``, ``step``) and node ids in place of words.  A node's word is the
edge colors on its root path, and nothing spells it: ``node`` walks a word
down from node 0, one child-map lookup per letter, and the priority visit
steps through the tree with those maps' ``get``, one C call per probe,
keeping each visited node's last letter.  The root path of the node it
visits last, :meth:`Visit.branch` read as tree nodes, is the branch whose
edges yield the extracted sets.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .colorings import Coloring
from .visit import Visit, VisitError, visit_nodes
from .words import ROOT, Record, Word, full_priority, validate_priority


class ErdosError(ValueError):
    """Base class for comparison-tree errors."""


class ErdosTree(Record):
    """Rooted tree on 0..size-1 with at most one child per color per node.

    Built by :func:`build_erdos`, or by the reference
    ``oracles.build_by_insertion``; parents always precede children
    numerically.  ``children[c]`` maps each node that has a ``c``-child to
    that child.  Nothing changes an instance once it is built.
    """

    __slots__ = ("k", "parent", "edge_color", "children")

    def __init__(
        self,
        k: int,
        parent: list[Optional[int]],
        edge_color: list[Optional[int]],
        children: list[dict[int, int]],
    ) -> None:
        super().__init__(k, parent, edge_color, children)

    @property
    def size(self) -> int:
        return len(self.parent)

    def contains(self, w: Word) -> bool:
        return self.node(w) is not None

    def node(self, w: Word) -> Optional[int]:
        """The node ``w`` leads to from node 0, one step per letter, or None
        once a letter leaves the tree."""
        n: Optional[int] = 0
        for c in w:
            if (n := self.step(c)(n)) is None:
                break
        return n

    def step(self, c: int) -> Callable[[int], Optional[int]]:
        """The ``c``-child of a node or None: a C-level ``dict.get``, of an
        empty dict for a color outside ``0..k-1``."""
        return self.children[c].get if 0 <= c < self.k else {}.get


def build_erdos(coloring: Coloring, size: int) -> ErdosTree:
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
    k = coloring.k
    children: list[dict[int, int]] = [{} for _ in range(k)]
    work: list[tuple[int, Sequence[int]]] = [(0, range(1, size))]
    while work:
        x, below = work.pop()
        for i, group in coloring.split(x, below).items():
            child = group[0]
            parent[child], edge_color[child] = x, i
            children[i][x] = child
            if len(group) > 1:
                work.append((child, group[1:]))
    return ErdosTree(k, parent, edge_color, children)


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
        tree: ErdosTree,
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
    tree: ErdosTree,
    branch_nodes: Sequence[int],
    coloring: Coloring,
) -> HomogeneousReport:
    """Split a branch into per-color candidate sets and verify them.

    ``branch_nodes`` must be a chain of tree nodes, each the parent of the
    next; each consecutive pair ``x`` above ``y`` with edge color ``i`` puts
    ``x`` into class ``i``.  Verification re-checks every pair inside every
    class, a :meth:`Coloring.split` per member, and never hides a failure.
    """
    nodes = tuple(branch_nodes)
    if nodes and not 0 <= nodes[0] < tree.size:
        raise ErdosError(f"branch node {nodes[0]} is not in the tree")
    classes: list[set[int]] = [set() for _ in range(tree.k)]
    for x, y in zip(nodes, nodes[1:]):
        if not 0 < y < tree.size or tree.parent[y] != x:
            raise ErdosError(f"branch node {y} is not a child of {x}")
        classes[tree.edge_color[y]].add(x)
    verified = True
    for i, cls in enumerate(classes):
        members = sorted(cls)
        for j in range(len(members) - 1):
            rest = members[j + 1 :]
            if len(coloring.split(members[j], rest).get(i, ())) != len(rest):
                verified = False
    return HomogeneousReport(
        tree=tree,
        branch_nodes=nodes,
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
    visit starts from the empty word, and its ``letter`` array holds each
    visited node's edge color, so an entry's word is the edge colors on
    that node's root path.  The visit records each entry's parent, so the
    branch is the chain of visit parents from the last entry,
    :meth:`Visit.branch`, read off as tree nodes.  A bad budget is rejected
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
    nodes, parent, letter, terminated = visit_nodes(tree, prio, 0, budget)
    visit = Visit(tree.k, ROOT, prio, terminated, tuple(parent), tuple(letter))
    report = extract_homogeneous(tree, [nodes[i] for i in visit.branch()], coloring)
    return report, visit

