"""Canonical JSON and DOT rendering for visits and homogeneity reports.

All JSON is dumped with sorted keys and fixed separators so that identical
runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .erdos import ErdosTree, HomogeneousReport
from .stability import branch_approx, stable_indices
from .visit import Visit
from .words import Word, word_str

# Fill colors for per-class node highlighting in DOT output, cycled.
_PALETTE = (
    "lightblue",
    "lightcoral",
    "palegreen",
    "khaki",
    "plum",
    "lightsalmon",
    "lightgray",
    "wheat",
)


def dumps_canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --- visit traces --------------------------------------------------------------


def visit_trace(visit: Visit) -> dict:
    """Trace schema: k, priority, root, order, terminated, stable, branch."""
    return {
        "k": visit.tree.k,
        "priority": list(visit.priority),
        "root": list(visit.root),
        "order": [list(w) for w in visit.order],
        "terminated": visit.terminated,
        "stable": list(stable_indices(visit)),
        "branch": [list(w) for w in branch_approx(visit)],
    }


def visit_trace_json(visit: Visit) -> str:
    return dumps_canonical(visit_trace(visit))


def _node_id(w: Word) -> str:
    return "n" + "".join(f"_{c}" for c in w)


def visit_dot(visit: Visit) -> str:
    """One DOT node per enumerated word, edges labeled by the final letter,
    stable nodes double-bordered and branch nodes filled."""
    stable = {visit.order[m] for m in stable_indices(visit)}
    branch = set(branch_approx(visit))
    present = set(visit.order)
    lines = ["digraph visit {", "  rankdir=TB;"]
    for w in visit.order:
        attrs = [f'label="{word_str(w)}"']
        if w in branch:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        if w in stable:
            attrs.append("peripheries=2")
        lines.append(f"  {_node_id(w)} [{', '.join(attrs)}];")
    for w in visit.order:
        if w and w[:-1] in present:
            lines.append(
                f'  {_node_id(w[:-1])} -> {_node_id(w)} [label="{w[-1]}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def visit_text(visit: Visit) -> str:
    """Short human-readable summary of a run."""
    stable = stable_indices(visit)
    branch = branch_approx(visit)
    lines = [
        f"k={visit.tree.k} priority={list(visit.priority)} root={list(visit.root)}",
        f"entries={len(visit.order)} terminated={visit.terminated}",
        f"stable indices: {list(stable)}",
        "branch: " + " ".join(word_str(w) for w in branch),
        "order: " + " ".join(word_str(w) for w in visit.order),
    ]
    return "\n".join(lines) + "\n"


# --- homogeneity reports --------------------------------------------------------


def report_dict(report: HomogeneousReport) -> dict:
    """Report schema: k, N, branch (node ids), H (per-color sets),
    verified, census."""
    return {
        "k": report.k,
        "N": report.size,
        "branch": list(report.branch_nodes),
        "H": [sorted(cls) for cls in report.classes],
        "verified": report.verified,
        "census": {str(c): n for c, n in sorted(report.census.items())},
    }


def report_json(report: HomogeneousReport) -> str:
    return dumps_canonical(report_dict(report))


def report_text(report: HomogeneousReport) -> str:
    lines = [f"k={report.k} N={report.size} verified={report.verified}"]
    for i, cls in enumerate(report.classes):
        members = sorted(cls)
        shown = ", ".join(str(m) for m in members[:12])
        if len(members) > 12:
            shown += ", ..."
        lines.append(f"H{i} ({len(members)}): {{{shown}}}")
    lines.append("branch nodes: " + " ".join(str(n) for n in report.branch_nodes))
    return "\n".join(lines) + "\n"


def erdos_dot(tree: ErdosTree, report: HomogeneousReport | None = None) -> str:
    """DOT rendering of the comparison tree; with a report, branch nodes are
    bold and every node in class i gets the i-th palette fill."""
    branch = set(report.branch_nodes) if report else set()
    fill: dict[int, str] = {}
    if report:
        for i, cls in enumerate(report.classes):
            for node in cls:
                fill[node] = _PALETTE[i % len(_PALETTE)]
    lines = ["digraph erdos {", "  rankdir=TB;"]
    for n in range(tree.size):
        attrs = [f'label="{n}"']
        if n in fill:
            attrs.append("style=filled")
            attrs.append(f"fillcolor={fill[n]}")
        if n in branch:
            attrs.append("penwidth=2")
        lines.append(f"  v{n} [{', '.join(attrs)}];")
    for n in range(1, tree.size):
        lines.append(f'  v{tree.parent[n]} -> v{n} [label="{tree.edge_color[n]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
