"""Command-line contract: flags, exit codes, file outputs, determinism."""

import hashlib
import json
import subprocess
import sys
import tracemalloc

import pytest

from colorvisit.cli import MAX_COLORS, MAX_HORIZON, main
from colorvisit.colorings import sum_mod_coloring
from colorvisit.erdos import homog_pipeline
from colorvisit.export import (
    erdos_dot,
    report_dict,
    report_json,
    visit_dot,
    visit_text,
    visit_trace_json,
)
from colorvisit.oracles import complete_tree, visit_trace
from colorvisit.trees import save_tree
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


def test_visit_missing_tree_file_is_config_error(tmp_path):
    assert main(["visit", "--tree", str(tmp_path / "nope.json")]) == 2


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
    assert visit_dot(visit) == (
        "digraph visit {\n"
        "  rankdir=TB;\n"
        '  n_1 [label="<1>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n_1_1 [label="<1,1>"];\n'
        '  n_1_0 [label="<1,0>", style=filled, fillcolor=lightblue, peripheries=2];\n'
        '  n_1 -> n_1_1 [label="1"];\n'
        '  n_1 -> n_1_0 [label="0"];\n'
        "}\n"
    )
    assert visit_text(visit) == (
        "k=2 priority=[0, 1] root=[1]\n"
        "entries=3 terminated=True\n"
        "stable indices: [0, 2]\n"
        "branch: <1> <1,0>\n"
        "order: <1> <1,1> <1,0>\n"
    )


def test_visit_dot_and_text_of_a_cut_visit(binary_depth2):
    visit = enumerate_visit(binary_depth2, (1, 0), (), budget=4)
    assert visit_dot(visit) == (
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
    assert visit_text(visit) == (
        "k=2 priority=[1, 0] root=[]\n"
        "entries=4 terminated=False\n"
        "stable indices: [0, 3]\n"
        "branch: <> <1>\n"
        "order: <> <0> <0,0> <1>\n"
    )


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


def test_homog_bad_horizon():
    assert main(["homog", "--coloring", "x", "--k", "2", "--horizon", "0"]) == 2


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


def test_exports_render_reports():
    coloring = sum_mod_coloring(2)
    report, visit = homog_pipeline(coloring, 20, 200)
    data = report_dict(report)
    assert set(data) == {"k", "N", "branch", "H", "verified", "census"}
    assert report_json(report).endswith("\n")
    dot = erdos_dot(report.tree, report)
    assert dot.startswith("digraph erdos {") and "penwidth=2" in dot
    trace = visit_trace(visit)
    assert set(trace) == {
        "k", "priority", "root", "order", "terminated", "stable", "branch",
    }
    assert visit_dot(visit).startswith("digraph visit {")


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


def test_trace_json_matches_library_rendering(tree_file, tmp_path):
    tree = complete_tree(2, 2)
    visit = enumerate_visit(tree, (0, 1), (), budget=100)
    out = tmp_path / "trace.json"
    main([
        "visit", "--tree", str(tree_file), "--priority", "0,1",
        "--budget", "100", "--out", str(out),
    ])
    assert out.read_text() == visit_trace_json(visit)


# sha256 and length of outputs recorded before homog compiled its coloring
# rows; any change to the tree, the visit, the branch or the report shows
HOMOG_PINS = [
    (
        ["--coloring", "if x < y then x else y", "--horizon", "200",
         "--budget", "400"],
        {"homog.json": (1463, "3a891b6e730671ddc89a67691e993722"
                              "d86917e7635e0d9588c057d98cea44b9")},
    ),
    (
        ["--coloring", "((x * 56340 + y) * (y * 26247 + x) + 49673) % 65521",
         "--horizon", "2000", "--budget", "4000", "--trace-out", "trace.json"],
        {"homog.json": (138, "d0ace9eee6cc476fc455b0fc04737035"
                             "d6e01e5bcfce3a4c7beb75b3e95b285d"),
         "trace.json": (29660, "7ce7cf2f54ac2cb9a2d7db697acd6d87"
                               "47af019efb848c5d6f9cfaaceff5d75e")},
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


def test_visit_trace_is_written_without_holding_it(tmp_path, capsys):
    # the trace of a 3000-deep chain is 18 MB of JSON; rendered as it is
    # written, only about one root path of it is held at a time
    out = tmp_path / "deep.json"
    tracemalloc.start()
    try:
        assert main(["visit", "--tree", "full:2", "--priority", "0,1",
                     "--budget", "3000", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "3000 entries, terminated=False" in capsys.readouterr().out
    assert out.stat().st_size > 18 * 10**6
    assert peak < 4 * 2**20


@pytest.mark.parametrize("args, pins", HOMOG_PINS, ids=["min-chain", "hash"])
def test_homog_output_bytes_are_pinned(args, pins, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["homog", *args, "--k", "3", "--emit", "json",
                 "--out", "homog.json"]) == 0
    for name, (size, digest) in pins.items():
        data = (tmp_path / name).read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)
