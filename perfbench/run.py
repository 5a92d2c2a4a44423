"""End-to-end benchmark of the colorvisit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in a closed loop: each
CLI run (``python -m colorvisit.cli``) starts only after the previous one
ended, in a fresh directory under ``.perfbench_tmp/`` with its outputs
written there.  Every run's output goes through the correctness gate in
``workloads.py``; a run that exits nonzero or fails the gate counts as
failed.

``--trace 0`` alternates full-size runs with smallest-size runs for
``--seconds`` and reports the medians ``wall_s`` (one full CLI run, spawn to
exit), ``setup_s`` (one smallest-size run: interpreter start, imports,
argument parsing, output) and ``peak_rss_mb`` (the child's own peak RSS from
``os.wait4``).  ``--trace 1`` does the same untraced measurement, then
replays the workload in-process under ``tracer.py`` at 1/4, 1/2 and 1x its
size and reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

The machine's speed drifts by tens of percent within a minute, so times are
reported in reference seconds: the benchmark and its children are pinned to
one CPU, a fixed mix of pure-Python work is timed before and after every run
on that CPU, and each wall time is scaled by ``REF_CAL_S`` over the mean of
the two calibration times.  The raw medians are printed as well.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import POOL, SETUP, WORKLOADS, case  # noqa: E402

MIN_RUNS = 3        # full-size runs per measurement, even past --seconds
SETUP_PER_RUN = 1   # smallest-size runs after each full-size run
RUN_LIMIT_S = 120   # a CLI run still going after this is killed and fails
REF_CAL_S = 0.061   # the calibration's median time on the reference machine
TRACE_SCALES = (0.25, 0.5, 1.0)
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {**E2E_UNITS, "wall_raw_s": "s", "setup_raw_s": "s", "speed": "1"}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package source)."""


def package_src() -> Path:
    """The checkout's ``src`` directory, found through ``colorvisit.__file__``.

    Children get it as an absolute ``PYTHONPATH``, which still resolves from
    their temporary working directories.  A ``colorvisit`` found anywhere
    else (an installed copy) is refused."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("colorvisit")
    if spec is None or spec.origin is None:
        raise SetupError(f"no colorvisit package under {src}")
    origin = Path(spec.origin).resolve()
    if not origin.is_relative_to(src):
        raise SetupError(f"colorvisit resolves to {origin}, outside {src}")
    return origin.parent.parent


@dataclass
class Run:
    wall: float
    rss_mb: float
    errors: list[str]
    digest: str | None


@dataclass
class Runner:
    """Runs cases one at a time through ``launcher.py`` and keeps the
    failure tally."""

    src: Path
    tmp: Path
    digests: dict[str, str]
    launcher: subprocess.Popen
    verdicts: dict[str, list[str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def _spawn(self, argv: list[str], rundir: Path) -> tuple[float, float, int, bytes]:
        request = {"argv": argv, "cwd": str(rundir), "limit": RUN_LIMIT_S,
                   "env": dict(os.environ, PYTHONPATH=str(self.src))}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return (reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"],
                (rundir / ".stdout").read_bytes())

    def run(self, c: workloads.Case, prefix: tuple[str, ...] = ("-m", "colorvisit.cli"),
            keep=None) -> Run:
        """Run case ``c``, gate its output, and return its timing.  ``prefix``
        replaces the module invocation (the traced run uses the tracer
        script); ``keep(rundir)`` reads extra files before cleanup."""
        rundir = Path(tempfile.mkdtemp(dir=self.tmp))
        try:
            wall, rss, code, stdout = self._spawn([sys.executable, *prefix, *c.argv], rundir)
            errors, digest = workloads.check(c, code, rundir, stdout, self.digests,
                                             self.verdicts)
            if code != 0:
                tail = (rundir / ".stderr").read_text("utf-8", "replace").strip()[-300:]
                errors = errors + [tail] if tail else errors
            if keep is not None and not errors:
                keep(rundir)
        finally:
            shutil.rmtree(rundir, ignore_errors=True)
        self.attempted += 1
        if errors:
            self.failures.append(f"{c.key}: {'; '.join(errors)}")
        return Run(wall, rss, errors, digest)


@contextlib.contextmanager
def scratch_runner(src: Path, digests: dict[str, str]):
    """A runner whose run directories live in ``.perfbench_tmp/`` of the
    checkout; on exit the launcher is stopped and the directories removed."""
    base = ROOT / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    runner = Runner(src, Path(tempfile.mkdtemp(dir=base)), digests, launcher)
    try:
        yield runner
    finally:
        launcher.stdin.close()
        launcher.wait()
        launcher.stdout.close()
        shutil.rmtree(runner.tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def _descend(i: int, depth: int) -> int:
    return i & 7 if depth == 0 else _descend(i, depth - 1) + 1


_NESTED = [[1] * i for i in range(300)]


def calibration_time() -> float:
    """Seconds a fixed mix of pure-Python work takes here, now: dict and
    tuple operations, recursive calls, JSON encoding of nested lists, and
    sorting, the kinds of work the CLI does."""
    start = time.perf_counter()
    table: dict[tuple[int, int], int] = {}
    for i in range(90_000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
    for i in range(2_400):
        _descend(i, 6)
    for _ in range(7):
        json.dumps(_NESTED, separators=(",", ":"))
    sorted(((i * 7919) % 1009, i) for i in range(24_000))
    return time.perf_counter() - start


def measure(runner: Runner, workload: str, order: list[int], seconds: float) -> dict:
    """Alternate full-size and smallest-size runs for ``seconds``; each full
    run uses the next pool variant in ``order``.

    The calibration runs before the first run and after every run, so
    each run sits between two calibrations on the same CPU.  Its time in
    reference seconds is its wall time times ``REF_CAL_S`` over the mean of
    those two calibrations."""
    runner.run(case(workload, SETUP, order[0]))  # warm-up: byte-code cache, file cache
    samples: dict[str, list[float]] = {
        "wall_s": [], "setup_s": [], "peak_rss_mb": [], "wall_raw_s": [],
        "setup_raw_s": [], "speed": []}
    before = calibration_time()

    def timed(c: workloads.Case, raw: str, scaled: str) -> Run:
        nonlocal before
        run = runner.run(c)
        after = calibration_time()
        speed = 2 * REF_CAL_S / (before + after)
        before = after
        samples["speed"].append(speed)
        samples[raw].append(run.wall)
        samples[scaled].append(run.wall * speed)
        return run

    start = time.perf_counter()
    while len(samples["wall_s"]) < MIN_RUNS or (
            time.perf_counter() - start
            + statistics.median(samples["wall_raw_s"]) <= seconds):
        variant = order[len(samples["wall_s"]) % POOL]
        run = timed(case(workload, 1.0, variant), "wall_raw_s", "wall_s")
        samples["peak_rss_mb"].append(run.rss_mb)
        for _ in range(SETUP_PER_RUN):
            timed(case(workload, SETUP, variant), "setup_raw_s", "setup_s")
    return samples


def traced(runner: Runner, workload: str, variant: int, untraced_s: float
           ) -> tuple[dict, list[str]]:
    """Per-layer metrics from in-process traced runs at each TRACE_SCALES
    size, plus the tracer targets the package no longer has."""
    traces, sizes, absent = [], [], set()
    for scale in TRACE_SCALES:
        c = case(workload, scale, variant)
        dumps: list[dict] = []
        before = calibration_time()
        runner.run(c, prefix=(str(HERE / "tracer.py"), "stats.json", "--"),
                   keep=lambda d: dumps.append(json.loads((d / "stats.json").read_text())))
        if not dumps:
            return {}, []
        speed = 2 * REF_CAL_S / (before + calibration_time())
        traces.append(tracer.Trace(dumps[0], speed))
        sizes.append(c.size)
        absent.update(dumps[0]["absent"])
    return tracer.layer_metrics(traces, sizes, untraced_s), sorted(absent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        src = package_src()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    order = random.Random(args.seed).sample(range(POOL), POOL)
    # one CPU for the calibration and every child, which inherit it
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with scratch_runner(src, workloads.load_digests()) as runner:
        samples = measure(runner, args.workload, order, args.seconds)
        medians = {k: statistics.median(v) for k, v in samples.items()}
        layers, absent = {}, []
        if args.trace:
            layers, absent = traced(runner, args.workload, order[0],
                                    medians["wall_s"] - medians["setup_s"])

    failed = len(runner.failures)
    full = case(args.workload, 1.0, order[0])
    print(f"perfbench {args.workload}: seed {args.seed}, size {full.size}, "
          f"{len(samples['wall_s'])} full and {len(samples['setup_s'])} setup runs, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    for name, unit in REPORTED.items():
        q1, q2, q3 = statistics.quantiles(samples[name], n=4)
        print(f"  {name:<12} {q2:12.4f} {unit:<3} (q1 {q1:.4f}, q3 {q3:.4f}, "
              f"n={len(samples[name])})")
    print(f"  {'error_rate':<12} {failed / runner.attempted:12.4f} 1   "
          f"({failed} of {runner.attempted} runs failed)")
    for failure in runner.failures[:10]:
        print(f"  FAILED {failure}")
    if args.trace:
        metrics = {}
        for name, unit in tracer.LAYER_UNITS.items():
            value = layers.get(name)
            print(f"  {name:<28} {'absent' if value is None else f'{value:.6g}':>12} {unit}")
            metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        if absent:
            print(f"  tracer targets missing from the package: {', '.join(absent)}")
    else:
        metrics = {name: {"value": medians[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
