"""Brute-force reference implementations and the insertion build of the
comparison tree.  The seeded generators they are run on live in
:mod:`colorvisit.corpus`.

Everything here, from the declarative visit checker :func:`check_visit` on,
exists to cross-check the efficient code paths, and only the ``check``
suites and the tests import it.  These functions share nothing with the
generator beyond the core word and tree types: agreement between the two
routes is evidence, not a tautology.  The visit references reach a tree
only through ``k`` and ``contains``, so they take a comparison tree's ids
as they take a tree file's words.  All of it is exponential or quadratic
and meant for desk-scale inputs only.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .colorings import Coloring
from .dsl import BinOp, DivisionByZero, Expr, If, Lit, Neg, Var
from .erdos import ErdosTree
from .trees import ColorTree, FiniteColorTree, TreeError
from .visit import Visit
from .words import ROOT, Word, validate_priority


# --- words ----------------------------------------------------------------------

def is_proper_prefix(a: Sequence[int], b: Sequence[int]) -> bool:
    return len(a) < len(b) and tuple(b[: len(a)]) == tuple(a)


def visit_words(visit: Visit) -> tuple[Word, ...]:
    """Every entry's word in visit order, spelled from ``root``, ``parent``
    and ``letter``: entry i is its parent's word plus its letter.  A chain
    of depth n holds n²/2 letters."""
    order = [visit.root]
    for i in range(1, len(visit.parent)):
        order.append(order[visit.parent[i]] + (visit.letter[i],))
    return tuple(order)


def visit_by_definition(
    tree: ColorTree,
    priority: Sequence[int],
    root: Word = ROOT,
    budget: Optional[int] = None,
) -> tuple[Word, ...]:
    """The first ``budget`` words (all if None) of the visit, written as its
    definition reads.

    V(P) from w is V(P[1:]) from w; then, for each base of that segment in
    ``sorted`` word order that has a P[0]-child, V(rotate(P)) from that
    child.  V(()) from w is w alone.  The tree is reached only through
    ``tree.contains``, and the priority and the root are taken as valid.
    It shares no code with ``visit.visit_nodes``: no frames, no
    ``lex_order``, no index arrays.

    Every entry passes up through the whole chain of nested generators, so
    an entry at depth d costs O(d), and a chain a few hundred deep raises
    ``RecursionError``: a reference for bushy trees and shallow chains.
    """
    visit = _defined_visit(tree, tuple(priority), tuple(root))
    return tuple(itertools.islice(visit, budget))


def _defined_visit(tree: ColorTree, prio: Word, w: Word) -> Iterator[Word]:
    if not prio:
        yield w
        return
    segment = []
    for v in _defined_visit(tree, prio[1:], w):
        segment.append(v)
        yield v
    for base in sorted(segment):
        child = base + (prio[0],)
        if tree.contains(child):
            yield from _defined_visit(tree, prio[1:] + prio[:1], child)


# --- the declarative checker and its helpers ------------------------------------

def is_complete_for(
    tree: ColorTree, entries: Sequence[Word], priority: Iterable[int]
) -> bool:
    """True iff, for every color in the priority list (vacuous if empty),
    every child of that color (in the tree) of an entry is an entry.

    One membership probe per entry and color, the colors in priority
    order, stopping at the first missing child.
    """
    entry_set = set(entries)
    for c in priority:
        for w in entries:
            child = w + (c,)
            if tree.contains(child) and child not in entry_set:
                return False
    return True


def nth_expansion(
    tree: ColorTree, bases: Sequence[Word], n: int, color: int
) -> Optional[Word]:
    """The n-th (0-indexed) word ``base + (color,)`` present in the tree,
    scanning bases in lexicographic order; ``None`` if fewer than n+1 exist.

    At most ``len(bases)`` membership probes; the scan stops as soon as the
    n-th hit is found.
    """
    if n < 0:
        return None
    hits = 0
    for base in sorted(bases):
        child = base + (color,)
        if tree.contains(child):
            if hits == n:
                return child
            hits += 1
    return None


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
    """Decomposition search over contiguous sublists, memoized by content.

    ``memo[hi]`` maps ``(lo, prio, root)`` to the decision on
    ``entries[lo:hi]``, which depends on ``entries[:hi]`` alone, so a
    checker for an extension of ``entries`` can take the memo over.
    """

    def __init__(
        self, tree: ColorTree, entries: tuple[Word, ...], memo: Sequence[dict] = ()
    ) -> None:
        self.tree = tree
        self.entries = entries
        self.memo = [*memo] + [{} for _ in range(len(memo), len(entries) + 1)]

    def extend(self, node: Word) -> _Checker:
        """The checker of ``entries + (node,)``, sharing this one's memo."""
        return _Checker(self.tree, self.entries + (node,), self.memo)

    def accepts(self, lo: int, hi: int, prio: Word, root: Word) -> bool:
        if hi <= lo:
            return False
        if self.entries[lo] != root:
            # every visit starts with its root
            return False
        memo, key = self.memo[hi], (lo, prio, root)
        cached = memo.get(key)
        if cached is not None:
            return cached
        memo[key] = False  # cycle guard; recomputed below
        result = memo[key] = self._compute(lo, hi, prio, root)
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
            if not is_complete_for(self.tree, segment, rest):
                continue
            if self._segments(0, m, hi, segment, d0, rotated, prio):
                return True
        return False

    def _segments(
        self,
        j: int,
        lo: int,
        hi: int,
        m_entries: tuple[Word, ...],
        d0: int,
        rotated: Word,
        all_colors: Word,
    ) -> bool:
        """Parse ``entries[lo:hi]`` as L_j * ... * L_{n-1}.  A method, not a
        recursive closure: a closure that calls itself is a reference cycle,
        which would keep this checker and its memo alive until the cyclic
        collector runs."""
        if lo == hi:
            return True
        head = nth_expansion(self.tree, m_entries, j, d0)
        if head is None or self.entries[lo] != head:
            return False
        for end in range(lo + 1, hi + 1):
            if not self.accepts(lo, end, rotated, head):
                continue
            if end == hi:
                return True  # last segment needs no completeness
            if not is_complete_for(self.tree, self.entries[lo:end], all_colors):
                continue
            if self._segments(j + 1, end, hi, m_entries, d0, rotated, all_colors):
                return True
        return False


# --- brute-force references -----------------------------------------------------

ALL_VISITS_NODE_CAP = 25


def all_visits(
    tree: FiniteColorTree, priority: Sequence[int], root: Word = ROOT
) -> list[tuple[Word, ...]]:
    """Every node list accepted by :func:`check_visit`, smallest first.

    Grown by one-node extensions starting from ``[root]``; this reaches
    every accepted list because a nonempty prefix of an accepted list is
    itself accepted (dropping the last element weakens every clause of the
    recursive definition), which the test suite re-checks against a full
    permutation search on very small trees.  Once ``check_visit`` has
    accepted ``[root]``, so the priority and the root are valid, each
    extension by a node not yet listed is decided by the checker of the
    list it extends, whose memo already holds every shorter sublist.
    """
    if len(tree.nodes) > ALL_VISITS_NODE_CAP:
        raise TreeError(
            f"exhaustive visit search capped at {ALL_VISITS_NODE_CAP} nodes, "
            f"got {len(tree.nodes)}"
        )
    root = tuple(int(c) for c in root)
    if not check_visit(tree, (root,), priority, root):
        return []
    prio = validate_priority(priority, tree.k)
    candidates = sorted(tree.nodes)
    found: list[tuple[Word, ...]] = []
    frontier = [_Checker(tree, (root,))]
    while frontier:
        current = frontier.pop(0)
        found.append(current.entries)
        in_current = set(current.entries)
        for node in candidates:
            if node not in in_current:
                extended = current.extend(node)
                if extended.accepts(0, len(extended.entries), prio, root):
                    frontier.append(extended)
    found.sort(key=len)
    return found


def in_restricted(
    tree: ColorTree, priority: Iterable[int], root: Word, node: Word
) -> bool:
    """Membership in the subtree above ``root`` whose extra letters all come
    from the priority list's color set."""
    if not tree.contains(root):
        raise TreeError(f"root {root} is not in the tree")
    if len(node) < len(root) or node[: len(root)] != root:
        return False
    allowed = set(priority)
    if any(letter not in allowed for letter in node[len(root) :]):
        return False
    return tree.contains(node)


def restricted_nodes(
    tree: FiniteColorTree, priority: Sequence[int], root: Word
) -> frozenset[Word]:
    """Exhaustively computed node set of the restricted subtree above the
    root, by direct scan of the explicit node set."""
    return frozenset(
        w for w in tree.nodes if in_restricted(tree, priority, root, w)
    )


def brute_stable_indices(order: Sequence[Word]) -> tuple[int, ...]:
    """Quadratic transcription of horizon-stability: index m qualifies iff
    every later entry properly extends ``order[m]``."""
    return tuple(
        m
        for m in range(len(order))
        if all(is_proper_prefix(order[m], order[n]) for n in range(m + 1, len(order)))
    )


def branch_census(entries: Iterable[Word], k: int) -> dict[int, int]:
    """Per-color counts of parent-to-child edges within a node sequence.

    An edge is counted for every entry after the first whose one-letter-
    shorter parent appeared earlier in the sequence; the edge color is the
    entry's final letter.  On a branch chain it counts the consecutive-pair
    letters.  All colors 0..k-1 are present in the result, possibly with
    count 0.
    """
    counts = {c: 0 for c in range(k)}
    seen: set[Word] = set()
    for w in entries:
        if w and w[:-1] in seen:
            counts[w[-1]] += 1
        seen.add(w)
    return counts


def visit_trace(visit: Visit) -> dict:
    """The visit trace schema as a dict, with the stable indices and the
    branch computed from the words alone (quadratic): the pieces of
    ``export.visit_trace_pieces``, joined, must equal its canonical dump
    byte for byte."""
    order = visit_words(visit)
    deepest = order[-1]
    return {
        "k": visit.k,
        "priority": list(visit.priority),
        "root": list(visit.root),
        "order": [list(w) for w in order],
        "terminated": visit.terminated,
        "stable": list(brute_stable_indices(order)),
        "branch": [
            list(deepest[:i]) for i in range(len(visit.root), len(deepest) + 1)
        ],
    }


def build_by_insertion(coloring: Coloring, size: int) -> ErdosTree:
    """Reference build: node ``n`` = 1..size-1 in order descends from the
    root along the colors of its edges to the nodes it passes, and attaches
    at the first node that has no child of that color."""
    # each pair (x, n) is one call of the row function, as ``coloring(x, n)``
    # would make it, and its checks are spelled out here
    row, k = coloring.row, coloring.k
    parent: list[Optional[int]] = [None]
    edge_color: list[Optional[int]] = [None]
    children: list[dict[int, int]] = [{} for _ in range(k)]
    for n in range(1, size):
        his, x = (n,), 0
        while True:
            i = row(x, his)
            if type(i) is not int:
                [i] = i
            if not 0 <= i < k:
                coloring(x, n)  # raises the error of a color out of range
            child = children[i].get(x)
            if child is None:
                break
            x = child
        children[i][x] = n
        parent.append(x)
        edge_color.append(i)
    return ErdosTree(k, parent, edge_color, children)


def _row_list(coloring: Coloring, lo: int, his: Sequence[int]) -> list[int]:
    """The row's colors as a list, a row of one color given as an int
    spelled out pair by pair."""
    colors = coloring.row(lo, his)
    return [colors] * len(his) if type(colors) is int else colors


def check_erdos_property(tree: ErdosTree, coloring: Coloring) -> bool:
    """Direct check of the defining property: for every node ``y`` and every
    proper ancestor ``x``, the edge ``{x, y}`` has the color of the tree
    edge leaving ``x`` toward ``y``.  One coloring row per node, over its
    descendants, so quadratically many pairs; rows are compared color by
    color and never grouped.
    """
    parent, edge_color = tree.parent, tree.edge_color
    toward: list[dict[int, int]] = [{} for _ in parent]
    for y in range(len(parent)):
        z = y
        while (x := parent[z]) is not None:
            toward[x][y] = edge_color[z]
            z = x
    # a node with no descendants has an empty row, which holds vacuously
    return all(
        _row_list(coloring, x, list(t)) == list(t.values())
        for x, t in enumerate(toward)
        if t
    )


def ancestor_formula_relation(coloring: Coloring, size: int) -> set[tuple[int, int]]:
    """The comparison-tree ancestor relation read off its defining formula.

    ``x`` is an ancestor of ``y`` (for x < y) iff y agrees with x on the
    color of every edge down to one of x's own ancestors; the relation for
    x is well-founded because it only consults pairs with smaller first
    component.  Used to cross-check the insertion-descent construction.
    """
    # color_of[z][y] is the color of {z, y} for z < y, read a row at a time
    # and never grouped, so that the reference shares no split with the build
    color_of = [
        [None] * (z + 1) + _row_list(coloring, z, range(z + 1, size))
        for z in range(size)
    ]
    rel: set[tuple[int, int]] = set()
    ancestors: list[list[int]] = [[] for _ in range(size)]
    for x in range(size):
        # the y > x that agree with x on each ancestor's row, one row at a time
        below = range(x + 1, size)
        for z in ancestors[x]:
            row = color_of[z]
            color = row[x]
            below = [y for y in below if row[y] == color]
        for y in below:
            ancestors[y].append(x)
        rel.update(zip(itertools.repeat(x), below))
    return rel


def evaluate(expr: Expr, x: int, y: int, strict: bool = False) -> int:
    """Evaluate at concrete endpoints.  Total unless ``strict`` and a
    division or remainder hits a zero divisor."""
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Var):
        return x if expr.name == "x" else y
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, x, y, strict)
    if isinstance(expr, If):
        if evaluate(expr.cond, x, y, strict) != 0:
            return evaluate(expr.then, x, y, strict)
        return evaluate(expr.orelse, x, y, strict)
    if isinstance(expr, BinOp):
        left = evaluate(expr.left, x, y, strict)
        right = evaluate(expr.right, x, y, strict)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "min":
            return min(left, right)
        if expr.op == "max":
            return max(left, right)
        if expr.op == "<":
            return int(left < right)
        if expr.op == "<=":
            return int(left <= right)
        if expr.op == "==":
            return int(left == right)
        if expr.op == "!=":
            return int(left != right)
        if expr.op == "/":
            if right == 0:
                if strict:
                    raise DivisionByZero("division")
                return 0
            return left // right
        if right == 0:
            if strict:
                raise DivisionByZero("remainder")
            return left
        return left % right
    raise TypeError(f"not an expression node: {expr!r}")
