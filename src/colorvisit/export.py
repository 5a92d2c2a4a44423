"""Canonical JSON and DOT rendering for visits and homogeneity reports.

All JSON is written in one canonical form, keys sorted and no spaces, so
that identical runs produce byte-identical files: the form
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` gives, plus a
final newline.  Both JSON outputs are written in that form directly,
without the ``json`` module.  The visit trace renders each entry's word
once from its parent's rendering, through ``Visit.parent`` and
``Visit.letter``, so the cost is the size of the output rather than one
encoder step per letter, and no word is spelled as a tuple.  The stable
indices and the branch are the visit's own readings, ``Visit.stable`` and
``Visit.branch``.  Every renderer yields pieces of text that a writer
passes on one by one, made as they are taken, so no output is ever held as
one string; the visit's DOT and text renderings hold no more word texts
than its trace.  ``oracles.visit_trace`` and :func:`report_dict` keep the
dicts the two JSON outputs encode, as the references.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from .visit import Visit

if TYPE_CHECKING:
    from .erdos import HomogeneousReport

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
    pieces whose concatenation is byte for byte the canonical JSON of that
    dict, with each word rendered once from its parent's rendering instead
    of letter by letter.

    The pieces are made as they are taken, and each word's text is dropped
    once its children's are made, so a writer that passes them on one by
    one holds only the texts of entries with children still to come, not
    the trace.
    """
    yield '{"branch":'
    yield from _list_pieces(_open_lists(visit, visit.branch()))
    yield ',"k":' + str(visit.k) + ',"order":'
    yield from _list_pieces(_open_lists(visit, range(len(visit.parent))))
    yield (
        ',"priority":' + _json_ints(visit.priority)
        + ',"root":' + _json_ints(visit.root)
        + ',"stable":' + _json_ints(visit.stable())
        + ',"terminated":' + ("true" if visit.terminated else "false")
        + "}\n"
    )


def _dot_id(opened: str) -> str:
    return "n_" + opened[1:].replace(",", "_") if len(opened) > 1 else "n"


def visit_dot(visit: Visit) -> Iterator[str]:
    """One DOT node per enumerated word, edges labeled by the final letter,
    stable nodes double-bordered and branch nodes filled.  The nodes and
    then the edges each take one pass over the open texts: an edge's parent
    text is its child's up to the last comma."""
    stable = set(visit.stable())
    entries = range(len(visit.parent))
    branch = set(visit.branch())
    yield "digraph visit {\n  rankdir=TB;\n"
    for i, opened in enumerate(_open_lists(visit, entries)):
        attrs = f'label="<{opened[1:]}>"'
        if i in branch:
            attrs += ", style=filled, fillcolor=lightblue"
        if i in stable:
            attrs += ", peripheries=2"
        yield f"  {_dot_id(opened)} [{attrs}];\n"
    for i, opened in enumerate(_open_lists(visit, entries)):
        if i:
            above = _dot_id(opened[: max(opened.rfind(","), 1)])
            yield f'  {above} -> {_dot_id(opened)} [label="{visit.letter[i]}"];\n'
    yield "}\n"


def visit_text(visit: Visit) -> Iterator[str]:
    """Short human-readable summary of a run."""
    entries = range(len(visit.parent))
    yield (
        f"k={visit.k} priority={list(visit.priority)} root={list(visit.root)}\n"
        f"entries={len(entries)} terminated={visit.terminated}\n"
        f"stable indices: {list(visit.stable())}\n"
        "branch:"
    )
    for opened in _open_lists(visit, visit.branch()):
        yield f" <{opened[1:]}>"
    yield "\norder:"
    for opened in _open_lists(visit, entries):
        yield f" <{opened[1:]}>"
    yield "\n"


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


def report_json(report: HomogeneousReport) -> Iterator[str]:
    """The canonical JSON of :func:`report_dict`, keys in sorted order;
    census keys are strings, so they sort as strings ("10" before "2")."""
    census = sorted((str(c), n) for c, n in report.census.items())
    yield (
        '{"H":[' + ",".join(_json_ints(sorted(cls)) for cls in report.classes)
        + '],"N":' + str(report.size)
        + ',"branch":' + _json_ints(report.branch_nodes)
        + ',"census":{' + ",".join(f'"{c}":{n}' for c, n in census)
        + '},"k":' + str(report.k)
        + ',"verified":' + ("true" if report.verified else "false")
        + "}\n"
    )


def report_text(report: HomogeneousReport) -> Iterator[str]:
    yield f"k={report.k} N={report.size} verified={report.verified}\n"
    for i, cls in enumerate(report.classes):
        members = sorted(cls)
        shown = ", ".join(str(m) for m in members[:12])
        if len(members) > 12:
            shown += ", ..."
        yield f"H{i} ({len(members)}): {{{shown}}}\n"
    yield "branch nodes: " + " ".join(str(n) for n in report.branch_nodes) + "\n"


def erdos_dot(report: HomogeneousReport) -> Iterator[str]:
    """DOT rendering of a report's comparison tree: branch nodes are bold
    and every node in class i gets the i-th palette fill."""
    tree = report.tree
    branch = set(report.branch_nodes)
    fill: dict[int, str] = {}
    for i, cls in enumerate(report.classes):
        for node in cls:
            fill[node] = _PALETTE[i % len(_PALETTE)]
    yield "digraph erdos {\n  rankdir=TB;\n"
    for n in range(tree.size):
        attrs = f'label="{n}"'
        if n in fill:
            attrs += f", style=filled, fillcolor={fill[n]}"
        if n in branch:
            attrs += ", penwidth=2"
        yield f"  v{n} [{attrs}];\n"
    for n in range(1, tree.size):
        yield f'  v{tree.parent[n]} -> v{n} [label="{tree.edge_color[n]}"];\n'
    yield "}\n"
