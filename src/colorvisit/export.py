"""Canonical JSON and DOT rendering for visits and homogeneity reports.

All JSON is written in one canonical form, keys sorted and no spaces, so
that identical runs produce byte-identical files: the form
``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` gives, plus a
final newline.  Both JSON outputs are written in that form without the
``json`` module, by one small writer of ints, bools, lists and dicts: the
report as the canonical JSON of :func:`report_dict`, and the visit trace
but for its two word lists.  The trace renders each entry's word once
from its parent's rendering, through ``Visit.parent`` and
``Visit.letter``, so the cost is the size of the output rather than one
encoder step per letter, and no word is spelled as a tuple.  The stable
indices and the branch are the visit's own readings, ``Visit.stable`` and
``Visit.branch``.  Every renderer yields pieces of text that a writer
passes on one by one, made as they are taken, so no output is ever held as
one string.  Each entry counts its children still to come, and its word's
text is dropped when the last child's text is made, so the visit's trace,
DOT and text renderings hold only the texts of entries with children still
to come.  The trace and the text rendering join their word texts into
pieces of about 64 KiB, so a writer makes a few large writes rather than
one per word.  ``oracles.visit_trace`` keeps the dict the trace encodes,
as the reference.
"""

from __future__ import annotations

from itertools import islice
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


# The least size of a piece of joined word texts, but the last: a writer
# gets a few large pieces, not one per word.
_PIECE = 65536


def _open_lists(visit: Visit, indices: Sequence[int]) -> Iterator[str]:
    """The words of the entries ``indices`` in turn, each as a JSON list
    without its closing bracket (``"[1,0"``), built from its parent's text:
    one concatenation per entry, of a letter's text from a per-color table.

    ``indices`` start at the root, ascend, and hold the parent of each
    entry after the first.  Each entry counts its children still to come,
    and its text is dropped when the last of them is built, so a chain
    holds one text at a time.
    """
    parent, letter = visit.parent, visit.letter
    left = [0] * len(parent)
    for i in indices[1:]:
        left[parent[i]] += 1
    held: list[Optional[str]] = [None] * len(parent)
    text = held[0] = "[" + ",".join(map(str, visit.root))
    yield text
    tails = ["," + str(c) for c in range(visit.k)]
    heads = tails if visit.root else [str(c) for c in range(visit.k)]
    for i in indices[1:]:
        p = parent[i]
        text = held[p] + (tails if p else heads)[letter[i]]
        left[p] -= 1
        if not left[p]:
            held[p] = None
        if left[i]:
            held[i] = text
        yield text


def _joined(opened: Iterable[str], sep: str, head: str = "") -> Iterator[str]:
    """``head + sep.join(opened)`` in pieces of at least ``_PIECE``
    characters but the last.

    A piece is joined from chunks of consecutive texts, each chunk sized
    from the last one to about an eighth of a piece, so that short texts
    are dropped once their chunk is joined rather than held for the whole
    piece, and the texts are taken at C speed.
    """
    opened = iter(opened)
    chunks = [head + next(opened, "")]
    size = len(chunks[0])
    count = 1
    # a text is never empty, so an empty chunk means no text was left
    while chunk := sep.join(islice(opened, count)):
        count = max(1, min(2 * count, count * (_PIECE >> 3) // len(chunk)))
        chunks.append(chunk)
        size += len(chunk)
        if size >= _PIECE:
            # the next piece opens with sep; this one is held as the chunk,
            # so the next chunk drops it
            chunk, chunks, size = sep.join(chunks), [""], 0
            yield chunk
    if size:
        yield sep.join(chunks)


def _json(value: object) -> str:
    """The canonical JSON of ``value``: an int, a bool, or a list, tuple or
    dict of such values, the dict's keys strings that JSON spells as they
    are, written in sorted order.  A list or tuple of ints only is joined
    in C."""
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is int:
        return str(value)
    if type(value) is dict:
        return "{" + ",".join(
            f'"{key}":{_json(v)}' for key, v in sorted(value.items())) + "}"
    if {int}.issuperset(map(type, value)):
        return "[" + ",".join(map(str, value)) + "]"
    return "[" + ",".join(map(_json, value)) + "]"


def visit_trace_pieces(visit: Visit) -> Iterator[str]:
    """Trace schema: k, priority, root, order, terminated, stable, branch;
    pieces whose concatenation is byte for byte the canonical JSON of that
    dict, with each word rendered once from its parent's rendering instead
    of letter by letter.

    The pieces are made as they are taken, each of about ``_PIECE``
    characters, and each word's text is dropped once its children's are
    made, so a writer that passes them on one by one holds only the texts
    of entries with children still to come and one piece, not the trace.
    """
    # a word list is its open texts joined by "],", between "[" and "]]";
    # the text between the lists opens the next one's first piece
    yield from _joined(_open_lists(visit, visit.branch()), "],", '{"branch":[')
    yield from _joined(
        _open_lists(visit, range(len(visit.parent))), "],",
        ']],"k":' + str(visit.k) + ',"order":[',
    )
    tail = {"priority": visit.priority, "root": visit.root,
            "stable": visit.stable(), "terminated": visit.terminated}
    # these keys sort after "order": the text that closes the order list
    # takes the place of the writer's opening brace
    yield "]]," + _json(tail)[1:] + "\n"


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


def _text_words(visit: Visit, indices: Sequence[int]) -> Iterator[str]:
    """The words of the entries ``indices`` as `` <1,0>`` each, in pieces
    of joined texts: an open text has one "[", at its start, and " <" takes
    its place."""
    for piece in _joined(_open_lists(visit, indices), ">"):
        yield piece.replace("[", " <")
    yield ">"


def visit_text(visit: Visit) -> Iterator[str]:
    """Short human-readable summary of a run."""
    entries = range(len(visit.parent))
    yield (
        f"k={visit.k} priority={list(visit.priority)} root={list(visit.root)}\n"
        f"entries={len(entries)} terminated={visit.terminated}\n"
        f"stable indices: {list(visit.stable())}\n"
        "branch:"
    )
    yield from _text_words(visit, visit.branch())
    yield "\norder:"
    yield from _text_words(visit, entries)
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
        "census": {str(c): n for c, n in report.census.items()},
    }


def report_json(report: HomogeneousReport) -> Iterator[str]:
    """The canonical JSON of :func:`report_dict`."""
    yield _json(report_dict(report)) + "\n"


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
