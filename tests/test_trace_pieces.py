"""Visit renderings joined into pieces: where the pieces are cut changes no
byte, a wide trace comes in a few large pieces, and writing it holds only
the texts of entries with children still to come and one piece."""

import hashlib
import tracemalloc

import pytest
from hypothesis import given

from colorvisit import cli, export
from colorvisit.dsl import dsl_coloring
from colorvisit.erdos import homog_pipeline
from colorvisit.export import visit_dot, visit_text, visit_trace_pieces
from colorvisit.oracles import visit_trace
from colorvisit.trees import full_tree
from colorvisit.visit import enumerate_visit
from conftest import dumps_canonical, st_visits

RENDERERS = {"json": visit_trace_pieces, "dot": visit_dot, "text": visit_text}

# (tree, priority, root, budget) and the length and sha256 of each rendering,
# recorded while every word's text was its own piece: the empty root, whose
# children take no comma; an inner root with two-digit letters; a visit of
# the root alone; and budget 1
HAND_VISITS = {
    "empty-root": (
        (full_tree(12), (0, 3, 10, 11), (), 40),
        {"json": (5045, "464563e25f06f68e3cc807c2a6cb2cec"
                        "6191c84ce46ce08421bc54edec56af84"),
         "dot": (12853, "98f7e2eba12c1237330da7a580dd3545"
                        "e1a6aa4202e095c8d6a9be5d9b83ee7a"),
         "text": (5089, "bea17aa13e9537e2d2a18284ab18e09a"
                        "5979615f655c267653567591a3e75627")},
    ),
    "two-digit-root": (
        (full_tree(12), (0, 3, 10, 11), (10, 11), 40),
        {"json": (5528, "c5200bbc807b29c2357bfd5a48d699aa"
                        "9ee5a77ff4c986e27bcb276c9f066129"),
         "dot": (13800, "1cc392986a277cfc6ebf895756fb1eec"
                        "94a08441ee4b4610428ba9a7f06c449d"),
         "text": (5573, "12a07d271605b9f766c0f24fd0d77171"
                        "aeb1600fb2b8b77a41a9a231f12be392")},
    ),
    "root-only": (
        (full_tree(3), (), (), 10),
        {"json": (90, "d5329eb6b754e5752194db0aeed14f59"
                      "51d603b5bca50d3572872c2add118481"),
         "dot": (100, "ae7f91b343ae6730d9af8239fd696188"
                      "640bf9a158f2d041b0d6aee2c1e5713e"),
         "text": (91, "a6fde6ddb0b8897ff33e3eb6b0e7b1f4"
                      "74a3df395faeb315183b28729f1be866")},
    ),
    "budget-1": (
        (full_tree(2), (0, 1), (1,), 1),
        {"json": (97, "fc425505ab7a66dd00d6a1c11071aacd"
                      "391946e6340b9f8d2ac34904a32e652b"),
         "dot": (103, "a480868e2b4cfdfce7c5425704631c5a"
                      "0a768f267482f7fb570ab6f12ad9a4dd"),
         "text": (99, "4077b507a579cd8ca3e8da39aef0fc9e"
                      "7d96a6b617f90d6c3e8613feb3dec300")},
    ),
}

# the hash coloring of test_cli.HOMOG_PINS, whose comparison tree is
# shallow and bushy: a wide visit of many short words
WIDE_EXPR = "((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521"


@pytest.mark.parametrize("piece", [1, 5])
@given(visit=st_visits())
def test_piece_size_changes_no_byte(piece, visit):
    text = "".join(visit_text(visit))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(export, "_PIECE", piece)
        assert "".join(visit_trace_pieces(visit)) == dumps_canonical(
            visit_trace(visit))
        assert "".join(visit_text(visit)) == text


@pytest.mark.parametrize("piece", [1, 5, export._PIECE])
@pytest.mark.parametrize("name", sorted(HAND_VISITS))
def test_hand_visits_render_as_pinned(name, piece, monkeypatch):
    (tree, priority, root, budget), pins = HAND_VISITS[name]
    visit = enumerate_visit(tree, priority, root, budget)
    monkeypatch.setattr(export, "_PIECE", piece)
    assert "".join(visit_trace_pieces(visit)) == dumps_canonical(
        visit_trace(visit))
    for emit, render in RENDERERS.items():
        data = "".join(render(visit)).encode()
        assert (len(data), hashlib.sha256(data).hexdigest()) == pins[emit]


def test_wide_trace_is_written_in_few_pieces_and_little_memory(tmp_path):
    _, visit = homog_pipeline(dsl_coloring(WIDE_EXPR, 3), 20000, 40000,
                              (0, 1, 2))
    assert len(visit.parent) == 20000
    sizes = [len(piece) for piece in visit_trace_pieces(visit)]
    assert len(sizes) <= sum(sizes) // 65536 + 4
    tracemalloc.start()
    try:
        cli._write(tmp_path / "trace.json", visit_trace_pieces(visit))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trace.json").stat().st_size == sum(sizes)
    # about 0.48 MiB; a piece per word needed 0.71 MiB, and joined pieces
    # without the children's counts 0.80 MiB
    assert peak < 5 * 2**17
