"""Command-line contract: flags, exit codes, file outputs, determinism."""

import ast
import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from colorvisit import cli
from colorvisit.cli import MAX_BUDGET, MAX_COLORS, MAX_HORIZON, main
from colorvisit.colorings import builtin_coloring
from colorvisit.corpus import complete_tree
from colorvisit.dsl import UnknownIdentifier, dsl_coloring, parse
from colorvisit.erdos import HomogeneousReport, homog_pipeline
from colorvisit.export import (
    _json,
    erdos_dot,
    report_dict,
    report_json,
    visit_dot,
    visit_text,
    visit_trace_pieces,
)
from colorvisit.oracles import brute_stable_indices, visit_trace, visit_words
from colorvisit.trees import full_tree
from conftest import MAX_ERROR_LINE, dumps_canonical, save_tree, st_visits
from colorvisit.visit import enumerate_visit

GOLDEN = [[], [1], [1, 1], [0], [0, 0], [0, 1], [1, 0]]


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    save_tree(complete_tree(2, 2), str(path))
    return path


def run_cli(args, cwd, env):
    return subprocess.run(
        [sys.executable, "-m", "colorvisit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_visit_writes_golden_trace(tree_file, tmp_path):
    out = tmp_path / "trace.json"
    code = main([
        "visit", "--tree", str(tree_file), "--priority", "0,1",
        "--budget", "100", "--emit", "json", "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["order"] == GOLDEN
    assert data["terminated"] is True
    assert data["stable"] == [0, 6]
    assert data["branch"] == [[], [1], [1, 0]]


def test_visit_builtin_unary(tmp_path, monkeypatch):
    monkeypatch.setenv("COLORVISIT_OUTDIR", str(tmp_path))
    assert main(["visit", "--tree", "unary", "--budget", "5"]) == 0
    data = json.loads((tmp_path / "visit.json").read_text())
    assert len(data["order"]) == 5 and data["terminated"] is False


def test_visit_duplicate_priority_is_config_error(tree_file, capsys):
    code = main(["visit", "--tree", str(tree_file), "--priority", "0,0"])
    assert code == 2
    assert "duplicate" in capsys.readouterr().err


def test_cli_priority_must_cover_all_colors(tree_file, capsys):
    code = main(["visit", "--tree", str(tree_file), "--priority", "1"])
    assert code == 2
    assert "cover" in capsys.readouterr().err
    assert main(["visit", "--tree", str(tree_file), "--priority", "1,0",
                 "--out", str(tree_file.parent / "t.json")]) == 0


def test_homog_unverified_report_exits_3(monkeypatch, tmp_path):
    from colorvisit import erdos

    real = erdos.homog_pipeline

    def rigged(coloring, size, budget, priority=None):
        report, visit = real(coloring, size, budget, priority)
        rigged_report = erdos.HomogeneousReport(
            tree=report.tree,
            branch_nodes=report.branch_nodes,
            classes=report.classes,
            verified=False,
        )
        return rigged_report, visit

    monkeypatch.setattr(erdos, "homog_pipeline", rigged)
    out = tmp_path / "r.json"
    code = main(["homog", "--builtin", "sum-mod", "--k", "2",
                 "--horizon", "10", "--out", str(out)])
    assert code == 3
    assert json.loads(out.read_text())["verified"] is False


def test_visit_missing_tree_file_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["visit", "--tree", "nope.json"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown builtin tree 'nope.json', and no file has that name\n")
    assert list(tmp_path.iterdir()) == []


def test_visit_missing_full_tree_file_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["visit", "--tree", "full:2.json"]) == 2
    assert capsys.readouterr().err == (
        "error: bad color count in builtin tree 'full:2.json', "
        "and no file has that name\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, message",
    [
        ("full:" + "9" * 5000, "bad color count in builtin tree"),
        ("a" * 300, "unknown builtin tree"),
    ],
    ids=["full-count", "name"],
)
def test_visit_tree_names_too_long_for_a_file_are_builtin_names(
    name, message, tmp_path, capsys
):
    out = tmp_path / "out.json"
    assert main(["visit", "--tree", name, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message} ") and err.count("\n") == 1
    assert "Errno" not in err
    assert not out.exists()


def test_visit_tree_file_wins_over_a_builtin_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_tree(complete_tree(2, 2), "unary")
    assert main(["visit", "--tree", "unary", "--out", "v.json"]) == 0
    assert json.loads((tmp_path / "v.json").read_text())["order"] == GOLDEN


def test_visit_dot_output(tree_file, tmp_path):
    out = tmp_path / "trace.dot"
    assert main([
        "visit", "--tree", str(tree_file), "--emit", "dot", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.startswith("digraph visit {")
    assert 'label="<1,0>"' in text and "->" in text


def test_visit_dot_and_text_from_an_inner_root(binary_depth2):
    visit = enumerate_visit(binary_depth2, (0, 1), (1,), budget=100)
    assert "".join(visit_dot(visit)) == (
        "digraph visit {\n"
        "  rankdir=TB;\n"
        '  n_1 [label="<1>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n_1_1 [label="<1,1>"];\n'
        '  n_1_0 [label="<1,0>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n_1 -> n_1_1 [label="1"];\n'
        '  n_1 -> n_1_0 [label="0"];\n'
        "}\n"
    )
    assert "".join(visit_text(visit)) == (
        "k=2 priority=[0, 1] root=[1]\n"
        "entries=3 terminated=True\n"
        "stable indices: [0, 2]\n"
        "branch: <1> <1,0>\n"
        "order: <1> <1,1> <1,0>\n"
    )


def test_visit_dot_and_text_of_a_cut_visit(binary_depth2):
    visit = enumerate_visit(binary_depth2, (1, 0), (), budget=4)
    assert "".join(visit_dot(visit)) == (
        "digraph visit {\n"
        "  rankdir=TB;\n"
        '  n [label="<>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n_0 [label="<0>"];\n'
        '  n_0_0 [label="<0,0>"];\n'
        '  n_1 [label="<1>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n -> n_0 [label="0"];\n'
        '  n_0 -> n_0_0 [label="0"];\n'
        '  n -> n_1 [label="1"];\n'
        "}\n"
    )
    assert "".join(visit_text(visit)) == (
        "k=2 priority=[1, 0] root=[]\n"
        "entries=4 terminated=False\n"
        "stable indices: [0, 3]\n"
        "branch: <> <1>\n"
        "order: <> <0> <0,0> <1>\n"
    )


def _letters(word):
    return ",".join(map(str, word))


def reference_dot_and_text(visit):
    """The lines of the DOT and text renderings of ``visit``, built from its
    words, with the stable indices and the branch found from the words alone
    (quadratic)."""
    order = visit_words(visit)
    stable = set(brute_stable_indices(order))
    deepest = order[-1]
    branch = [deepest[:i] for i in range(len(visit.root), len(deepest) + 1)]

    def ident(word):
        return "n" + "".join(f"_{c}" for c in word)

    lines = ["digraph visit {", "  rankdir=TB;"]
    for i, word in enumerate(order):
        attrs = [f'label="<{_letters(word)}>"']
        if word in branch:
            attrs += ["style=filled", "fillcolor=lightblue"]
        if i in stable:
            attrs.append("peripheries=2")
        lines.append(f"  {ident(word)} [{', '.join(attrs)}];")
    for word in order[1:]:
        lines.append(f'  {ident(word[:-1])} -> {ident(word)} [label="{word[-1]}"];')
    lines.append("}")
    text = [
        f"k={visit.k} priority={list(visit.priority)} root={list(visit.root)}",
        f"entries={len(order)} terminated={visit.terminated}",
        f"stable indices: {sorted(stable)}",
        "branch:" + "".join(f" <{_letters(w)}>" for w in branch),
        "order:" + "".join(f" <{_letters(w)}>" for w in order),
    ]
    return lines, text


def assert_renders_as_the_reference(visit):
    # compared line by line, so that a failure names the first line that
    # differs rather than diffing two long texts
    dot, text = reference_dot_and_text(visit)
    assert "".join(visit_dot(visit)).split("\n") == [*dot, ""]
    assert "".join(visit_text(visit)).split("\n") == [*text, ""]


@given(visit=st_visits())
def test_visit_dot_and_text_match_the_word_reference(visit):
    assert_renders_as_the_reference(visit)


@pytest.mark.parametrize(
    "tree, root",
    [(full_tree(12), ()), (full_tree(12), (10, 11)), (complete_tree(12, 2), ())],
    ids=["full-empty-root", "full-two-digit-root", "complete-mixed-letters"],
)
def test_visit_dot_and_text_with_two_digit_letters(tree, root):
    # an edge's parent is its child's text up to the last comma, which must
    # hold for two-digit letters under the empty root and an inner one
    visit = enumerate_visit(tree, (0, 3, 10, 11), root, budget=40)
    assert max(visit.letter) >= 10
    assert_renders_as_the_reference(visit)


def test_homog_writes_report(tmp_path):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.json"
    code = main([
        "homog", "--coloring", "(x + y) % 2", "--k", "2",
        "--horizon", "40", "--budget", "400",
        "--out", str(out), "--trace-out", str(trace),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verified"] is True
    assert report["N"] == 40
    assert sorted(map(len, report["H"])) == sorted(
        [len(c) for c in report["H"]]
    )
    assert json.loads(trace.read_text())["k"] == 2


def test_homog_builtin_constant(tmp_path, monkeypatch):
    monkeypatch.setenv("COLORVISIT_OUTDIR", str(tmp_path))
    code = main([
        "homog", "--builtin", "constant:0", "--k", "2", "--horizon", "10",
    ])
    assert code == 0
    report = json.loads((tmp_path / "homog.json").read_text())
    assert report["H"][0] == list(range(9))


def test_homog_table_source(tmp_path):
    table = tmp_path / "table.json"
    pairs = [[x, y, (x * y) % 2] for x in range(8) for y in range(x + 1, 8)]
    table.write_text(json.dumps({"k": 2, "pairs": pairs}))
    out = tmp_path / "report.json"
    code = main([
        "homog", "--table", str(table), "--horizon", "8", "--budget", "64",
        "--out", str(out),
    ])
    assert code == 0
    assert json.loads(out.read_text())["verified"] is True


def test_homog_syntax_error_exit(capsys):
    assert main(["homog", "--coloring", "x +", "--k", "2"]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_homog_expression_with_a_leading_minus_takes_the_equals_form(
        tmp_path, capsys):
    # after a space, "-x" is read as an option, not as the value
    assert main(["homog", "--coloring", "-x", "--k", "3"]) == 2
    assert capsys.readouterr().err == (
        "error: argument --coloring: expected one argument\n")
    out = tmp_path / "homog.json"
    assert main(["homog", "--coloring=-x", "--k", "3", "--horizon", "20",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads(out.read_text())["verified"] is True


def test_homog_rejects_too_deep_expressions(capsys):
    shapes = [
        "(" * 2000 + "x" + ")" * 2000,
        "0+" + "-" * 3000 + "x",
        "if x < y then " * 800 + "x" + " else y" * 800,
        "x" + "+1" * 899,
    ]
    for expr in shapes:
        assert main(["homog", "--coloring", expr, "--k", "2",
                     "--horizon", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: syntax error") and err.count("\n") == 1


def test_homog_dot_builds_the_tree_once(pair_evaluations, tmp_path):
    per_emit = {}
    for emit in ("json", "dot"):
        pair_evaluations[0] = 0
        assert main(["homog", "--coloring", "if x < y then x else y", "--k", "3",
                     "--horizon", "200", "--emit", emit,
                     "--out", str(tmp_path / f"homog.{emit}")]) == 0
        per_emit[emit] = pair_evaluations[0]
    # 19 900 build pairs (one chain) and 6 501 verified pairs
    assert per_emit == {"json": 26_401, "dot": 26_401}


def test_homog_requires_k_with_expression():
    assert main(["homog", "--coloring", "x"]) == 2


@pytest.mark.parametrize("k", ["0", "-3"])
def test_homog_expression_rejects_color_counts_below_one(k, capsys):
    expected = f"error: color count k={k} must be at least 1\n"
    assert main(["homog", "--coloring", "x", "--k", k]) == 2
    assert capsys.readouterr().err == expected
    assert main(["homog", "--builtin", "sum-mod", "--k", k]) == 2
    assert capsys.readouterr().err == expected


def test_color_counts_above_the_cap_are_rejected_first(tmp_path, capsys):
    # a priority over every color would be built before any other check
    huge = "1000000000000"
    expected = f"error: color count k={huge} exceeds the limit of {MAX_COLORS}\n"
    for argv in (
        ["visit", "--tree", f"full:{huge}"],
        ["visit", "--tree", f"full:{huge}", "--priority", "0,1"],
        ["homog", "--coloring", "x", "--k", huge],
        ["homog", "--builtin", "sum-mod", "--k", huge, "--priority", "1,0"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == expected
    assert main(["homog", "--coloring", "x % 2", "--k", str(MAX_COLORS),
                 "--horizon", "3", "--out", str(tmp_path / "h.json")]) == 0
    assert main(["homog", "--coloring", "x", "--k", str(MAX_COLORS + 1)]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-3"])
def test_homog_bad_horizon(horizon, capsys):
    # the message names the option given, not the comparison tree's size
    assert main(["homog", "--coloring", "x", "--k", "2",
                 "--horizon", horizon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --horizon {horizon} must be at least 1\n"


def test_horizons_above_the_cap_are_rejected_first(tmp_path, capsys, monkeypatch):
    # the comparison tree allocates O(H) before its first coloring, so the
    # cap is checked before the pipeline runs at all
    def no_pipeline(*args):
        raise AssertionError("the pipeline ran")

    over = str(MAX_HORIZON + 1)
    expected = f"error: horizon {over} exceeds the limit of {MAX_HORIZON}\n"
    with monkeypatch.context() as patch:
        patch.setattr("colorvisit.erdos.homog_pipeline", no_pipeline)
        for source in (["--builtin", "sum-mod"], ["--coloring", "x + y"]):
            assert main(["homog", *source, "--k", "2", "--horizon", over]) == 2
            assert capsys.readouterr().err == expected
    for horizon in ("1", "2", "50"):
        assert main(["homog", "--builtin", "sum-mod", "--k", "2",
                     "--horizon", horizon, "--out", str(tmp_path / "h.json")]) == 0
    assert capsys.readouterr().err == ""


def test_visit_budgets_above_the_cap_are_rejected_first(tmp_path, capsys, monkeypatch):
    # a visit holds about 300 bytes per entry, so the cap is checked before
    # the tree is read or the visit starts
    def no_visit(*args):
        raise AssertionError("the visit ran")

    out = tmp_path / "v.json"
    over = str(MAX_BUDGET + 1)
    expected = f"error: budget {over} exceeds the limit of {MAX_BUDGET}\n"
    with monkeypatch.context() as patch:
        patch.setattr("colorvisit.visit.enumerate_visit", no_visit)
        for tree in ("full:2", "unary", str(tmp_path / "missing.json")):
            assert main(["visit", "--tree", tree, "--budget", over,
                         "--out", str(out)]) == 2
            assert capsys.readouterr() == ("", expected)
    assert not out.exists()
    # a finite tree's visit ends long before a budget at the cap
    save_tree(complete_tree(2, 2), str(tmp_path / "tree.json"))
    assert main(["visit", "--tree", str(tmp_path / "tree.json"),
                 "--budget", str(MAX_BUDGET), "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("visit: 7 entries, terminated=True")


@pytest.mark.parametrize(
    "argv",
    [
        ["visit", "--tree", "full:\u0662"],
        ["visit", "--tree", "full:1_0"],
        ["visit", "--tree", "full:2", "--priority", "\u0661,0"],
        ["homog", "--builtin", "block:\u0662", "--k", "2"],
        ["homog", "--coloring", "x + \u0663\u0663", "--k", "2"],
        ["homog", "--coloring", "x + \u00b2", "--k", "2"],
    ],
)
def test_integers_in_user_text_take_ascii_digits_only(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int()" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["visit", "--tree", "full:" + "9" * 5000],
        ["visit", "--tree", "a" * 3000],
        ["homog", "--builtin", "a" * 3000, "--k", "2"],
        ["homog", "--coloring", "x+" + "a" * 3000, "--k", "2"],
        ["visit", "--tree", "full:2", "--priority", "9" * 5000],
    ],
    ids=["full-count", "tree-name", "builtin", "identifier", "priority"],
)
def test_diagnostics_of_long_user_text_are_cut(argv, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith("...\n") and len(err) <= MAX_ERROR_LINE
    assert not out.exists()


def test_cut_diagnostics_keep_the_whole_exception():
    with pytest.raises(UnknownIdentifier) as info:
        parse("x+" + "a" * 3000)
    assert info.value.name == "a" * 3000


# each builtin name and the expression it stands for
BUILTIN_EXPRESSIONS = [
    ("sum-mod", "x + y"),
    ("diff-mod", "y - x"),
    ("constant:2", "2"),
    ("block:4", "x / 4"),
]


@pytest.mark.parametrize("emit", ["json", "dot", "text"])
@pytest.mark.parametrize("name, expr", BUILTIN_EXPRESSIONS)
def test_builtin_names_run_as_their_expressions(name, expr, emit, tmp_path,
                                                capsys):
    runs = []
    for source in (["--builtin", name], ["--coloring", expr]):
        out, trace = tmp_path / "homog.out", tmp_path / "trace.json"
        assert main(["homog", *source, "--k", "3", "--horizon", "120",
                     "--budget", "300", "--emit", emit, "--out", str(out),
                     "--trace-out", str(trace)]) == 0
        runs.append((out.read_bytes(), trace.read_bytes(),
                     capsys.readouterr().out))
    assert runs[0] == runs[1]


def test_suite_names_match_the_suites():
    # the help text and the unknown-suite message read the names without
    # importing the suites
    from colorvisit import cli, suites

    assert cli.SUITE_NAMES == tuple(sorted(suites.SUITES))


def test_check_pass_and_unknown_suite(capsys):
    assert main(["check", "--suite", "expansions", "--seed", "42",
                 "--cases", "5"]) == 0
    out = capsys.readouterr().out
    assert "suite expansions: pass" in out
    assert main(["check", "--suite", "nosuch"]) == 2


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_rejects_cases_below_one(cases, capsys):
    assert main(["check", "--suite", "all", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cases {cases} must be at least 1\n"


@pytest.mark.parametrize("data", [
    {"k": 2.7, "pairs": [[0, 1, 1.9], ["0", 2, True], [1, 2, 0]]},
    {"k": 2, "pairs": [[0, 1, 0], 7]},
    {"k": 2, "pairs": 5},
])
def test_homog_table_rejects_non_integers(data, tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert main(["homog", "--table", str(table), "--horizon", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("data", [
    {"k": 2.0, "nodes": [[], [0]]},
    {"k": 2, "nodes": [[], [False]]},
    {"k": 2, "nodes": [[], 1]},
])
def test_visit_tree_file_rejects_non_integers(data, tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps(data))
    out = tmp_path / "visit.json"
    assert main(["visit", "--tree", str(tree), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", ["[" * 200000, "[" * 5000 + "]" * 5000],
                         ids=["open", "closed"])
@pytest.mark.parametrize("command, option", [("homog", "--table"),
                                             ("visit", "--tree")])
def test_deeply_nested_input_file_is_config_error(command, option, text,
                                                   tmp_path, cli_env):
    (tmp_path / "deep.json").write_text(text)
    result = run_cli([command, option, "deep.json", "--out", "out"],
                     cwd=tmp_path, env=cli_env)
    assert result.returncode == 2
    assert result.stderr == f"error: {option[2:]} file is nested too deeply\n"
    assert not (tmp_path / "out").exists()


# past the interpreter's 4300-digit limit, json raises a plain ValueError
# on well-formed JSON
@pytest.mark.parametrize(
    "data", [b"", b"[1,2", b"\xff\xfe", b"[" + b"7" * 5000 + b"]"],
    ids=["empty", "truncated", "not-utf-8", "5000-digits"])
@pytest.mark.parametrize("command, option", [("homog", "--table"),
                                             ("visit", "--tree")])
def test_malformed_input_file_is_config_error(command, option, data,
                                              tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    out = tmp_path / "out"
    assert main([command, option, str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    if len(data) > 4300:
        assert err == f"error: {option[2:]} file holds an integer too long to read\n"
    else:
        assert err.startswith(f"error: {option[2:]} file is not UTF-8 JSON: ")
        assert err.count("\n") == 1
    assert not out.exists()


def test_exports_render_reports():
    coloring = builtin_coloring("sum-mod", 2)
    report, visit = homog_pipeline(coloring, 20, 200)
    data = report_dict(report)
    assert set(data) == {"k", "N", "branch", "H", "verified", "census"}
    assert "".join(report_json(report)).endswith("\n")
    dot = "".join(erdos_dot(report))
    assert dot.startswith("digraph erdos {") and "penwidth=2" in dot
    trace = visit_trace(visit)
    assert set(trace) == {
        "k", "priority", "root", "order", "terminated", "stable", "branch",
    }
    assert "".join(visit_dot(visit)).startswith("digraph visit {")


HASH = "((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521"


@pytest.mark.parametrize("size", [1, 300])
@pytest.mark.parametrize("k", [1, 2, 3, 11, 12])
def test_report_json_is_the_canonical_dump_of_report_dict(k, size):
    # from k = 11 on the census keys sort as strings, "10" before "2"; the
    # hash fills some of the 11 or 12 classes, among them the last, and
    # leaves the others empty, and a horizon of 1 leaves every class empty
    report, _ = homog_pipeline(dsl_coloring(HASH, k), size, 4000)
    assert "".join(report_json(report)) == dumps_canonical(report_dict(report))
    if size == 1:
        assert report.size == 1 and not any(report.classes)
    elif k >= 11:
        assert report.classes[-1] and not all(report.classes)


# the values the export writer takes: ints, bools, lists and tuples, and
# dicts whose keys JSON spells as they are
st_json = st.recursive(
    st.integers(-10**20, 10**20) | st.booleans(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text("abkN019_", max_size=3), inner, max_size=4),
    max_leaves=20,
)


@given(value=st_json)
def test_export_writer_is_the_canonical_dump(value):
    assert _json(value) + "\n" == dumps_canonical(value)


def test_report_json_renders_an_unverified_report():
    report, _ = homog_pipeline(dsl_coloring(HASH, 12), 300, 4000)
    rigged = HomogeneousReport(
        tree=report.tree,
        branch_nodes=(0, 10, 2),
        classes=(frozenset({10, 2}),) + (frozenset(),) * 10 + (frozenset({7}),),
        verified=False,
    )
    text = "".join(report_json(rigged))
    assert text == dumps_canonical(report_dict(rigged))
    assert '"H":[[2,10],[]' in text and '"verified":false}' in text
    assert '"census":{"0":2,"1":0,"10":0,"11":1,"2":0' in text


def test_cli_outputs_are_byte_identical_across_runs(tmp_path, tree_file,
                                                     cli_env):
    args = [
        "visit", "--tree", str(tree_file), "--priority", "1,0",
        "--budget", "50", "--emit", "json", "--out", "trace.json",
    ]
    blobs = []
    for _ in range(3):
        result = run_cli(args, cwd=tmp_path, env=cli_env)
        assert result.returncode == 0, result.stderr
        blobs.append((tmp_path / "trace.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]


# an exit handler registered before the command runs reports whether the
# collector was frozen by the time the process exits
ENTRY = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0))
from colorvisit import cli
{call}
"""


@pytest.mark.parametrize("call, frozen", [("cli.run()", True),
                                          ("sys.exit(cli.main())", False)])
def test_process_entry_freezes_the_collector_before_exit(call, frozen,
                                                         tmp_path, cli_env):
    result = subprocess.run(
        [sys.executable, "-c", ENTRY.format(call=call),
         "visit", "--tree", "full:2", "--budget", "3", "--out", "v.json"],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"visit: 3 entries, terminated=False, wrote v.json\n{frozen}\n"


def test_main_leaves_the_collector_as_it_is(tmp_path, capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert main(["visit", "--tree", "full:2", "--budget", "3",
                 "--out", str(tmp_path / "v.json")]) == 0
    assert main(["visit", "--tree", "full:2", "--budget", "x"]) == 2
    assert main(["--help"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


@pytest.mark.parametrize("args, code", [
    (["visit", "--tree", "full:2", "--budget", "3", "--out", "v.json"], 0),
    (["visit", "--tree", "full:2", "--budget", "x", "--out", "v.json"], 2),
    (["--help"], 0),
], ids=["exit-0", "exit-2", "help"])
def test_module_entry_matches_in_process_main(args, code, tmp_path, cli_env,
                                              monkeypatch, capsys):
    result = run_cli(args, cwd=tmp_path, env=cli_env)
    written = sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir())
    assert result.returncode == code
    for f in tmp_path.iterdir():
        f.unlink()
    monkeypatch.chdir(tmp_path)
    assert main(args) == code
    assert capsys.readouterr() == (result.stdout, result.stderr)
    assert sorted((f.name, f.read_bytes()) for f in tmp_path.iterdir()) == written


def test_console_script_is_the_module_entry():
    """``[project.scripts]`` starts the function that ``python -m
    colorvisit.cli`` calls."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    [block] = [node for node in ast.parse(Path(cli.__file__).read_text()).body
               if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    [call] = block.body
    assert ast.unparse(call) == "run()"
    assert scripts == {"colorvisit": "colorvisit.cli:run"}


def test_trace_json_matches_library_rendering(tree_file, tmp_path):
    tree = complete_tree(2, 2)
    visit = enumerate_visit(tree, (0, 1), (), budget=100)
    out = tmp_path / "trace.json"
    main([
        "visit", "--tree", str(tree_file), "--priority", "0,1",
        "--budget", "100", "--out", str(out),
    ])
    assert out.read_text() == "".join(visit_trace_pieces(visit))


# sha256 and length of outputs recorded before homog compiled its coloring
# rows; any change to the tree, the visit, the branch or the report shows.
# The DOT and text reports were recorded while their renderers returned one
# string.
HOMOG_PINS = [
    (
        ["--coloring", "if x < y then x else y", "--horizon", "200",
         "--budget", "400"],
        {"homog.json": (1463, "3a891b6e730671ddc89a67691e993722"
                              "d86917e7635e0d9588c057d98cea44b9"),
         "homog.dot": (18997, "455ddbe193401346207d1bd33ebaa849"
                              "1bd31b511b21886f6089e05199e43035"),
         "homog.txt": (907, "247cda3a5b97661d2576c3faa04582aa"
                            "949689a60b799fb2a5a5ef1cbc7d1a47")},
    ),
    (
        ["--coloring", "((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521",
         "--horizon", "2000", "--budget", "4000", "--trace-out", "trace.json"],
        {"homog.json": (138, "d0ace9eee6cc476fc455b0fc04737035"
                             "d6e01e5bcfce3a4c7beb75b3e95b285d"),
         "homog.dot": (102994, "9a18a1af1dad1e064853c59d7a005e8a"
                               "ec815a4f831df2a0f032719eae639dc7"),
         "homog.txt": (126, "f185a591766e23e62d783ac5d90c0272"
                            "9dfcba412d88fa1a7143ab1b568dde96"),
         "trace.json": (29660, "7ce7cf2f54ac2cb9a2d7db697acd6d87"
                               "47af019efb848c5d6f9cfaaceff5d75e")},
    ),
    # recorded before compiled colorings folded the row invariant x < y: two
    # rows with no y after folding, and one that folds to x + y
    (
        ["--builtin", "block:4", "--horizon", "200", "--budget", "400"],
        {"homog.json": (1463, "ffa0837e2a2e0cab6a6adde40d6e8abe"
                              "607fe791cb488641fe6fe6570e619d82")},
    ),
    (
        ["--builtin", "constant:1", "--horizon", "200", "--budget", "400"],
        {"homog.json": (1464, "e1a926a699ba99c1af853cc6d6c727e7"
                              "b6aa10d2cdd52b4709bfbf5cebce0bbc")},
    ),
    (
        ["--coloring", "if y <= x then y else x + y", "--horizon", "200",
         "--budget", "400"],
        {"homog.json": (543, "9646e528b57bc9cb22065720ab04d14a"
                             "2c72177b6b16ad7dd31fa351775d23d3")},
    ),
]


# the same for visit on a finite tree that terminates through many frames and
# levels: the 1093-node complete ternary tree of depth 6, recorded before the
# visit ran one frame per emitted node
VISIT_PINS = {
    "json": (14368, "b1dc00d9be09ac8bc75010ec18ba7364"
                    "dc86ff08c5af4c369e50640cb83c7b0d"),
    "dot": (88849, "dca967f4d36d42059290693194d2b38b"
                   "64b30b4c48fc4d4a08cef11031b4680d"),
    "text": (14375, "5f8b26e3600eb42b8499da8a03a8d148"
                    "1c077948f22f16ef4326ef149ff67c2d"),
}


@pytest.mark.parametrize("emit", sorted(VISIT_PINS))
def test_visit_output_bytes_are_pinned(emit, tmp_path, capsys):
    save_tree(complete_tree(3, 6), str(tmp_path / "tree.json"))
    out = tmp_path / "visit.out"
    assert main(["visit", "--tree", str(tmp_path / "tree.json"), "--priority",
                 "2,0,1", "--budget", "2000", "--emit", emit,
                 "--out", str(out)]) == 0
    assert "1093 entries, terminated=True" in capsys.readouterr().out
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == VISIT_PINS[emit]


# the same for the builtin trees, visited from an inner root and cut by the
# budget; recorded while their nodes were still words
BUILTIN_VISIT_PINS = {
    "full3-json": (
        ["--tree", "full:3", "--priority", "2,0,1", "--root", "1",
         "--budget", "300", "--emit", "json"],
        (182979, "32b209a482160a4b1f08434692c43db6"
                 "e627d6a5f84dadaf32eba0f93227d622"),
    ),
    "full3-dot": (
        ["--tree", "full:3", "--priority", "2,0,1", "--root", "1",
         "--budget", "300", "--emit", "dot"],
        (387308, "75c5c1aa679236ab28544bef44e4bd00"
                 "1b354b0fcfe9d5dcedf89927aec7d263"),
    ),
    "full3-text": (
        ["--tree", "full:3", "--priority", "2,0,1", "--root", "1",
         "--budget", "300", "--emit", "text"],
        (183283, "982d1f3fbb819b756f7180bba8314715"
                 "09ca7bee573d6fac7525c5eca334fe9c"),
    ),
    "unary-json": (
        ["--tree", "unary", "--root", "0,0", "--budget", "50", "--emit", "json"],
        (5727, "06e03075554404a33f66f1e5da024ecf"
               "18013ca3b9d233a947669262aabf11be"),
    ),
}


@pytest.mark.parametrize("name", sorted(BUILTIN_VISIT_PINS))
def test_builtin_visit_output_bytes_are_pinned(name, tmp_path, capsys):
    args, pin = BUILTIN_VISIT_PINS[name]
    out = tmp_path / "visit.out"
    assert main(["visit", *args, "--out", str(out)]) == 0
    assert "entries, terminated=False" in capsys.readouterr().out
    data = out.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == pin


@pytest.mark.parametrize("emit", ["json", "dot", "text"])
def test_visit_trace_is_written_without_holding_it(emit, tmp_path, capsys):
    # the output of a 3000-deep chain is 18 MB of JSON or text, 36 MB of DOT;
    # rendered as it is written, only about one root path of it is held at
    # a time
    out = tmp_path / f"deep.{emit}"
    tracemalloc.start()
    try:
        assert main(["visit", "--tree", "full:2", "--priority", "0,1",
                     "--budget", "3000", "--emit", emit, "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "3000 entries, terminated=False" in capsys.readouterr().out
    assert out.stat().st_size > 18 * 10**6
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "args, pins", HOMOG_PINS,
    ids=["min-chain", "hash", "block", "constant", "partial-fold"],
)
def test_homog_output_bytes_are_pinned(args, pins, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for emit, name in [("json", "homog.json"), ("dot", "homog.dot"),
                       ("text", "homog.txt")]:
        if name in pins:
            assert main(["homog", *args, "--k", "3", "--emit", emit,
                         "--out", name]) == 0
    for name, (size, digest) in pins.items():
        data = (tmp_path / name).read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)

