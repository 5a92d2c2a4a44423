"""Canonical JSON and DOT rendering for visits and homogeneity reports.

All JSON is dumped with sorted keys and fixed separators so that identical
runs produce byte-identical files.  The visit trace is written out in that
same canonical form directly: each entry's word is rendered once from its
parent's rendering, through ``Visit.parent``, so the cost is the size of the
output rather than one encoder step per letter.  ``oracles.visit_trace``
keeps the dict the trace encodes as the reference.
"""

from __future__ import annotations

import json
from typing import Sequence

from .erdos import ErdosTree, HomogeneousReport
from .stability import branch_approx_of, stable_indices
from .visit import Visit

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


def _open_lists(visit: Visit) -> list[str]:
    """Each entry's word as a JSON list without its closing bracket
    (``"[1,0"``), built from its parent's: one concatenation per entry."""
    out = ["[" + ",".join(map(str, visit.root))]
    order = visit.order
    for i in range(1, len(order)):
        above = out[visit.parent[i]]
        out.append(above + ("," if len(above) > 1 else "") + str(order[i][-1]))
    return out


def _list_pieces(opened: Sequence[str]) -> list[str]:
    """The JSON list of the words whose open renderings are ``opened``, as
    pieces for one final join, so that no intermediate copy is made."""
    pieces = ["["]
    for item in opened:
        pieces += (item, "],")
    pieces[-1] = "]]"
    return pieces


def _json_ints(values: Sequence[int]) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def visit_trace_json(visit: Visit) -> str:
    """Trace schema: k, priority, root, order, terminated, stable, branch;
    byte for byte ``dumps_canonical`` of that dict, with each word rendered
    once from its parent's rendering instead of letter by letter."""
    opened = _open_lists(visit)
    return "".join([
        '{"branch":', *_list_pieces(branch_approx_of(opened, visit.parent)),
        ',"k":', str(visit.tree.k),
        ',"order":', *_list_pieces(opened),
        ',"priority":', _json_ints(visit.priority),
        ',"root":', _json_ints(visit.root),
        ',"stable":', _json_ints(stable_indices(visit)),
        ',"terminated":', "true" if visit.terminated else "false",
        "}\n",
    ])


def visit_dot(visit: Visit) -> str:
    """One DOT node per enumerated word, edges labeled by the final letter,
    stable nodes double-bordered and branch nodes filled."""
    stable = set(stable_indices(visit))
    branch = set(branch_approx_of(range(len(visit.order)), visit.parent))
    letters = [opened[1:] for opened in _open_lists(visit)]
    ids = ["n_" + ls.replace(",", "_") if ls else "n" for ls in letters]
    lines = ["digraph visit {", "  rankdir=TB;"]
    for i, ls in enumerate(letters):
        attrs = [f'label="<{ls}>"']
        if i in branch:
            attrs.append("style=filled")
            attrs.append("fillcolor=lightblue")
        if i in stable:
            attrs.append("peripheries=2")
        lines.append(f"  {ids[i]} [{', '.join(attrs)}];")
    for i in range(1, len(ids)):
        lines.append(
            f'  {ids[visit.parent[i]]} -> {ids[i]} [label="{visit.order[i][-1]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def visit_text(visit: Visit) -> str:
    """Short human-readable summary of a run."""
    shown = [f"<{opened[1:]}>" for opened in _open_lists(visit)]
    lines = [
        f"k={visit.tree.k} priority={list(visit.priority)} root={list(visit.root)}",
        f"entries={len(visit.order)} terminated={visit.terminated}",
        f"stable indices: {list(stable_indices(visit))}",
        "branch: " + " ".join(branch_approx_of(shown, visit.parent)),
        "order: " + " ".join(shown),
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
