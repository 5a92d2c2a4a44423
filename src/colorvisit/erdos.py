"""The comparison tree a total edge coloring induces on an initial segment
of the naturals, and monochromatic-set extraction from its branches.

Node ``n`` is inserted by walking from the root: at node ``x`` look up the
color ``i`` of the edge ``{x, n}``; descend into x's ``i``-child if one
exists, otherwise attach ``n`` there.  The construction forces the defining
property of these trees: whenever ``y`` sits anywhere below the ``i``-child
of ``x``, the edge ``{x, y}`` has color ``i``.  Consequently any chain in
the tree is colored, pair by pair, by the edge colors along it, and the
smaller endpoints of same-colored chain edges form a monochromatic set.

:func:`insert` is the reference construction.  :func:`build_erdos` grows
the same tree top-down, one coloring row per node: each node colors every
number below it at once and splits them by color among its children.
Verification of the extracted sets also runs a row per class member.

Children are color-unique, so the tree is a finite color tree with node
ids in place of words: the priority visit runs on it through
:meth:`ErdosTree.child`, and the root path of the node it visits last is
the branch whose edges yield the extracted sets.  A visited node's word is
the edge colors on its root path; the visit keeps only each node's last
one.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .colorings import Coloring, ColoringError
from .visit import Visit, visit_nodes
from .words import ROOT, Record, full_priority, validate_priority


class ErdosError(ValueError):
    """Base class for comparison-tree errors."""


class NonContiguousInsert(ErdosError):
    def __init__(self, n: int, size: int) -> None:
        super().__init__(f"expected insertion of {size}, got {n}")


class ErdosTree(Record):
    """Rooted tree on 0..size-1 with at most one child per color per node.

    Built by :func:`build_erdos` or by :func:`insert`; parents always
    precede children numerically.  The lists default to the lone root 0.
    Treat instances as immutable once construction finishes.
    """

    __slots__ = ("k", "parent", "edge_color", "children")
    # its lists grow in insert and its fields may be reassigned, so it is
    # mutable and unhashable
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        k: int,
        parent: Optional[list[Optional[int]]] = None,
        edge_color: Optional[list[Optional[int]]] = None,
        children: Optional[list[dict[int, int]]] = None,
    ) -> None:
        super().__init__(
            k,
            [None] if parent is None else parent,
            [None] if edge_color is None else edge_color,
            [{}] if children is None else children,
        )

    @property
    def size(self) -> int:
        return len(self.parent)

    def child(self, x: int, c: int) -> Optional[int]:
        return self.children[x].get(c)

    def path_to_root(self, n: int) -> list[int]:
        """Nodes from the root down to ``n`` inclusive."""
        path = []
        current: Optional[int] = n
        while current is not None:
            path.append(current)
            current = self.parent[current]
        path.reverse()
        return path


def insert(tree: ErdosTree, n: int, coloring: Coloring) -> ErdosTree:
    """Attach node ``n`` by root-to-leaf descent along edge colors.

    ``n`` must equal the current size (nodes are inserted contiguously) and
    the coloring must be total on pairs from 0..n.  Mutates and returns the
    tree.
    """
    if n != tree.size:
        raise NonContiguousInsert(n, tree.size)
    x = 0
    while True:
        i = coloring(x, n)
        nxt = tree.children[x].get(i)
        if nxt is None:
            tree.children[x][i] = n
            tree.parent.append(x)
            tree.edge_color.append(i)
            tree.children.append({})
            return tree
        x = nxt


def build_erdos(coloring: Coloring, size: int) -> ErdosTree:
    """The tree that inserting 1..size-1 in order builds, grown top-down.

    The numbers below node ``x`` are the larger ones that agree with ``x``
    on the color of every edge to x's ancestors.  ``x`` colors them in one
    :meth:`Coloring.row` and splits them by color: the smallest member of
    each color class is x's child of that color and the rest stay below
    that child; a row of one color passes down whole, unsplit, and a child
    with nothing below it gets no row.  This evaluates the same pairs as
    insertion, one per node and ancestor, and meets each node's children in
    the order insertion attaches them.  When the coloring fails, the tree is
    built again by insertion so that the error raised is the first one
    insertion meets.
    """
    if size < 1:
        raise ErdosError(f"size {size} must be at least 1")
    parent: list[Optional[int]] = [None] * size
    edge_color: list[Optional[int]] = [None] * size
    children: list[dict[int, int]] = [{} for _ in range(size)]
    work = [(0, list(range(1, size)))]
    try:
        while work:
            x, below = work.pop()
            colors = coloring.row(x, below)
            groups: dict[int, list[int]] = {}
            if colors and colors.count(colors[0]) == len(colors):
                groups[colors[0]] = below
            else:
                for n, i in zip(below, colors):
                    group = groups.get(i)
                    if group is None:
                        groups[i] = [n]
                    else:
                        group.append(n)
            for i, group in groups.items():
                child = group[0]
                parent[child], edge_color[child] = x, i
                children[x][i] = child
                if len(group) > 1:
                    work.append((child, group[1:]))
    except (ColoringError, ArithmeticError):
        build_by_insertion(coloring, size)
        raise
    return ErdosTree(coloring.k, parent, edge_color, children)


def build_by_insertion(coloring: Coloring, size: int) -> ErdosTree:
    """Reference build: :func:`insert` 1..size-1 in order into {0}."""
    tree = ErdosTree(k=coloring.k)
    for n in range(1, size):
        insert(tree, n, coloring)
    return tree


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
    class against the coloring and never hides a failure.
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
            row = coloring.row(members[j], members[j + 1 :])
            if row.count(i) != len(row):
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
    that node's root path.
    """
    if priority is None:
        prio = full_priority(coloring.k)
    else:
        prio = validate_priority(priority, coloring.k)
        if len(prio) != coloring.k:
            raise ErdosError(
                f"pipeline priority must list all {coloring.k} colors, got {prio}"
            )
    tree = build_erdos(coloring, size)
    nodes, parent, letter, terminated = visit_nodes(tree, prio, 0, budget)
    visit = Visit(tree, ROOT, prio, terminated, tuple(parent), tuple(letter))
    report = extract_homogeneous(tree, tree.path_to_root(nodes[-1]), coloring)
    return report, visit


def horizon_comparison(
    small: HomogeneousReport, large: HomogeneousReport
) -> dict[str, object]:
    """Compare two runs of growing horizon.

    When the smaller run's branch is a prefix of the larger one's, the
    largest class can only grow; when it is not, the runs disagree about
    the branch and the instability is reported instead of hidden.
    """
    prefix = small.branch_nodes == large.branch_nodes[: len(small.branch_nodes)]
    return {
        "branch_prefix": prefix,
        "max_class_small": max(len(c) for c in small.classes),
        "max_class_large": max(len(c) for c in large.classes),
    }
