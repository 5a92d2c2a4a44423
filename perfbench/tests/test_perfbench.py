"""Tests of the benchmark's own arithmetic and correctness gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_child_spans():
    # a: 0..10 holds b: 1..4 (which holds c: 2..3) and b: 5..6
    rec = tracer.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    rec.enter("a")
    rec.enter("b")
    rec.enter("c")
    rec.exit()
    rec.exit()
    rec.enter("b")
    rec.exit()
    rec.exit()
    assert rec.edges == {
        (None, "a"): [1, 10, 6],
        ("a", "b"): [2, 4, 3],
        ("b", "c"): [1, 1, 1],
    }
    trace = tracer.Trace(json.loads(json.dumps(rec.to_json())))
    assert trace.total("a") == 10 and trace.self_time("a") == 6
    assert trace.count("b", parent="a") == 2 and trace.count("c", parent="a") == 0
    assert trace.self_time("a") + trace.self_time("b") + trace.self_time("c") == 10


def test_growth_fit_recovers_exponents():
    sizes = [1000, 2000, 4000]
    assert tracer.growth(sizes, [3e-7 * n * n for n in sizes]) == pytest.approx(2.0)
    assert tracer.growth(sizes, [5e-4 * n for n in sizes]) == pytest.approx(1.0)
    assert tracer.growth(sizes, [0.25, 0.25, 0.25]) == pytest.approx(0.0)
    assert tracer.growth(sizes, [0.0, 0.0, 1.0]) is None


def test_layer_metrics_mark_missing_layers_absent():
    rec = tracer.Recorder(clock=FakeClock(range(100)))
    rec.enter("cli.main")
    rec.enter("visit.enumerate")
    rec.exit()
    rec.exit()
    metrics = tracer.layer_metrics([tracer.Trace(rec.to_json())], [10], untraced_s=1.5)
    assert set(metrics) == set(tracer.LAYER_UNITS)
    assert metrics["cli.main_s"] == 3 and metrics["cli.self_s"] == 2
    assert metrics["trace.overhead"] == 2
    assert metrics["colorings.calls"] is None and metrics["visit.growth"] is None


def test_traced_cli_run_counts_outermost_evaluate(tmp_path):
    stats = tmp_path / "stats.json"
    argv = ["homog", "--coloring", "if x < y then x else y", "--k", "3",
            "--horizon", "30", "--budget", "60", "--out", str(tmp_path / "h.json")]
    subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(stats), "--", *argv],
                   check=True, capture_output=True, env={"PYTHONPATH": str(SRC)})
    dump = json.loads(stats.read_text())
    trace = tracer.Trace(dump)
    assert dump["absent"] == []
    assert trace.count("colorings.call") > 0
    assert trace.count("dsl.eval") == trace.count("colorings.call")
    assert trace.count("dsl.eval", parent="colorings.call") == trace.count("dsl.eval")
    assert trace.count("colorings.call", parent="erdos.build") == 30 * 29 // 2  # node n descends n levels


def test_install_skips_missing_targets():
    rec = tracer.Recorder()
    missing = [("x.gone", "colorvisit.erdos", "no_such_function", None),
               ("x.gone", "colorvisit.no_such_module", "f", None)]
    assert tracer.install(rec, missing) == [
        "colorvisit.erdos.no_such_function", "colorvisit.no_such_module.f"]


@pytest.fixture(scope="module")
def chain_report():
    from colorvisit import dsl_coloring, homog_pipeline
    from colorvisit.export import report_dict

    report, _ = homog_pipeline(dsl_coloring(workloads.CHAIN_EXPR, workloads.K), 60, 120)
    return report_dict(report)


def test_gate_accepts_the_real_report(chain_report):
    assert workloads.check_report(chain_report, 60, workloads.chain_color) == []


def test_gate_rejects_one_flipped_class_member(chain_report):
    bad = json.loads(json.dumps(chain_report))
    member = bad["H"][0].pop()
    bad["H"][1].append(member)
    errors = workloads.check_report(bad, 60, workloads.chain_color)
    assert any("class 1 is not monochromatic" in e for e in errors)


def test_gate_rejects_overlap_and_wrong_horizon(chain_report):
    bad = json.loads(json.dumps(chain_report))
    bad["H"][2].append(bad["H"][1][0])
    assert any("shares" in e for e in workloads.check_report(bad, 60, workloads.chain_color))
    assert workloads.check_report(chain_report, 61, workloads.chain_color)


def test_gate_on_visit_traces_and_suite_lines():
    chain = [[1] * i for i in range(5)]
    good = {"order": chain, "branch": chain, "terminated": False}
    assert workloads.check_visit_trace(good, 5) == []
    assert workloads.check_visit_trace(dict(good, terminated=True), 5)
    assert workloads.check_visit_trace(dict(good, order=chain[:4] + [[1, 1, 0, 1]]), 5)
    passing = "".join(f"suite {n}: pass (3 cases)\n" for n in workloads.SUITE_NAMES)
    assert workloads.check_suites_stdout(passing) == []
    assert workloads.check_suites_stdout(passing.replace("homog: pass", "homog: FAIL"))
    assert workloads.check_suites_stdout(passing.split("\n", 1)[1])


def test_gate_requires_recorded_bytes(tmp_path):
    c = workloads.case("check-suites", workloads.SETUP, 3)
    out = "".join(f"suite {n}: pass (1 cases)\n" for n in workloads.SUITE_NAMES).encode()
    recorded = {c.key: workloads.digest(out)}
    assert workloads.check(c, 0, tmp_path, out, recorded, {}) == ([], recorded[c.key])
    errors, _ = workloads.check(c, 0, tmp_path, out + b"\n", recorded, {})
    assert errors == [f"output differs from the recorded digest for {c.key}"]
    assert workloads.check(c, 1, tmp_path, out, recorded, {})[0] == ["exit code 1"]


def test_launcher_reports_the_childs_own_peak_rss(tmp_path):
    ballast = bytearray(200 * 2**20)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # make the spawner resident and large
    launcher = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    request = {"argv": [sys.executable, "-c", "pass"], "cwd": str(tmp_path),
               "env": {}, "limit": 60}
    reply, _ = launcher.communicate(json.dumps(request) + "\n", timeout=60)
    reply = json.loads(reply)
    assert reply["code"] == 0 and reply["wall"] > 0
    assert reply["maxrss_kb"] < 100 * 1024
    assert len(ballast) == 200 * 2**20
