"""Canonical JSON and DOT rendering for visits and homogeneity reports.

All JSON is dumped with sorted keys and fixed separators so that identical
runs produce byte-identical files.  The visit trace is written out in that
same canonical form directly: each entry's word is rendered once from its
parent's rendering, through ``Visit.parent`` and ``Visit.letter``, so the
cost is the size of the output rather than one encoder step per letter, and
no word is spelled as a tuple.  The trace comes as pieces that a writer
passes on one by one, so the whole text is never held as one string.
``oracles.visit_trace`` keeps the dict the trace encodes as the reference.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .stability import branch_approx_of, stable_indices
from .visit import Visit

if TYPE_CHECKING:
    from .erdos import ErdosTree, HomogeneousReport

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
    import json  # the visit trace is written without it

    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# --- visit traces --------------------------------------------------------------


def _open_lists(visit: Visit, indices: Sequence[int]) -> Iterator[str]:
    """The words of the entries ``indices`` in turn, each as a JSON list
    without its closing bracket (``"[1,0"``), built from its parent's text:
    one concatenation per entry.

    ``indices`` start at the root, ascend, and hold the parent of each
    entry after the first.  A text is kept only until the last of its
    children is built, so a chain holds one text at a time.
    """
    parent, letter = visit.parent, visit.letter
    last = [0] * len(parent)
    for i in indices[1:]:
        last[parent[i]] = i
    held: list[Optional[str]] = [None] * len(parent)
    text = held[0] = "[" + ",".join(map(str, visit.root))
    yield text
    for i in indices[1:]:
        p = parent[i]
        above = held[p]
        if last[p] == i:
            held[p] = None
        text = above + ("," if len(above) > 1 else "") + str(letter[i])
        if last[i]:
            held[i] = text
        yield text


def _list_pieces(opened: Iterable[str]) -> Iterator[str]:
    """The JSON list of the words whose open renderings are ``opened``, as
    pieces, so that no intermediate copy is made."""
    sep = "["
    for item in opened:
        yield sep
        yield item
        sep = "],"
    yield "]]"


def _json_ints(values: Sequence[int]) -> str:
    return "[" + ",".join(map(str, values)) + "]"


def visit_trace_pieces(visit: Visit) -> Iterator[str]:
    """Trace schema: k, priority, root, order, terminated, stable, branch;
    pieces whose concatenation is byte for byte ``dumps_canonical`` of that
    dict, with each word rendered once from its parent's rendering instead
    of letter by letter.

    The pieces are made as they are taken, and each word's text is dropped
    once its children's are made, so a writer that passes them on one by
    one holds only the texts of entries with children still to come, not
    the trace.
    """
    entries = range(len(visit.parent))
    branch = branch_approx_of(entries, visit.parent)
    yield '{"branch":'
    yield from _list_pieces(_open_lists(visit, branch))
    yield ',"k":' + str(visit.tree.k) + ',"order":'
    yield from _list_pieces(_open_lists(visit, entries))
    yield (
        ',"priority":' + _json_ints(visit.priority)
        + ',"root":' + _json_ints(visit.root)
        + ',"stable":' + _json_ints(stable_indices(visit))
        + ',"terminated":' + ("true" if visit.terminated else "false")
        + "}\n"
    )


def visit_trace_json(visit: Visit) -> str:
    """The trace as one string: the pieces of :func:`visit_trace_pieces`
    joined."""
    return "".join(visit_trace_pieces(visit))


def visit_dot(visit: Visit) -> str:
    """One DOT node per enumerated word, edges labeled by the final letter,
    stable nodes double-bordered and branch nodes filled."""
    stable = set(stable_indices(visit))
    entries = range(len(visit.parent))
    branch = set(branch_approx_of(entries, visit.parent))
    letters = [opened[1:] for opened in _open_lists(visit, entries)]
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
            f'  {ids[visit.parent[i]]} -> {ids[i]} [label="{visit.letter[i]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def visit_text(visit: Visit) -> str:
    """Short human-readable summary of a run."""
    entries = range(len(visit.parent))
    shown = [f"<{opened[1:]}>" for opened in _open_lists(visit, entries)]
    lines = [
        f"k={visit.tree.k} priority={list(visit.priority)} root={list(visit.root)}",
        f"entries={len(visit.parent)} terminated={visit.terminated}",
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
