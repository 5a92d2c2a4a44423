"""Record what later runs of the benchmark are compared against.

    python3 perfbench/record.py digests
        Runs every case the benchmark can run once (each workload at every
        size, every pool variant) and writes the SHA-256 of its output to
        ``perfbench/digests.json``.  Run it only on a commit whose outputs
        are the reference: the gate then requires the same bytes.

    python3 perfbench/record.py baseline --seeds 0-9 [--out perfbench/baseline.json]
        Runs ``run.py`` once per seed and workload, workloads interleaved,
        with ``run_seconds`` from ``BENCHMARK.json``, then one traced run per
        workload.  Prints each end-to-end metric's median, quartiles and
        quartile spread (q3 - q1 over the median) against a third of its
        bound, and writes everything to ``--out`` when given.

Run from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = HERE.parent / "BENCHMARK.json"


def record_digests() -> int:
    digests: dict[str, str] = {}
    scales = (workloads.SETUP, *run.TRACE_SCALES)
    with run.scratch_runner(run.package_src(), {}) as runner:
        for name in workloads.WORKLOADS:
            for variant in range(workloads.POOL):
                for scale in scales:
                    c = workloads.case(name, scale, variant)
                    if c.key in digests:
                        continue
                    result = runner.run(c)
                    if result.errors:
                        print(f"{c.key}: {result.errors}", file=sys.stderr)
                        return 1
                    digests[c.key] = result.digest
                    print(f"{c.key} {result.wall:.2f}s {result.digest[:16]}", flush=True)
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def _bench(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(proc.stdout, proc.stderr, file=sys.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    return result


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_baseline(seeds: list[int], out: Path | None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    command = [sys.executable if a == "python3" else a for a in spec["command"]]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, dict[str, list[float]]] = {n: {m: [] for m in bounds} for n in names}
    for seed in seeds:
        for name in names:
            result = _bench(command, name, seed, spec["run_seconds"], 0)
            for metric in bounds:
                values[name][metric].append(result["metrics"][metric]["value"])
            print(f"seed {seed} {name}: " + " ".join(
                f"{m}={v[-1]:.4f}" for m, v in values[name].items()), flush=True)
    summary: dict[str, dict] = {}
    steady = True
    for name in names:
        summary[name] = {"size": workloads.case(name, 1.0).size, "metrics": {}}
        for metric, vals in values[name].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread < bounds[metric] / 3
            steady &= ok or metric == "setup_s"
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            print(f"{name:<13} {metric:<12} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound/3 {bounds[metric] / 3:.3f}"
                  f"{'' if ok else '  WIDE'}")
    if out is not None:
        for name in names:
            traced = _bench(command, name, seeds[0], spec["run_seconds"], 1)
            summary[name]["traced_seed"] = seeds[0]
            summary[name]["per_layer"] = {
                m: v["value"] for m, v in traced["metrics"].items()}
        out.write_text(json.dumps({
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": summary,
        }, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    base = sub.add_parser("baseline")
    base.add_argument("--seeds", type=_seeds, default=_seeds("0-9"))
    base.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    if args.what == "digests":
        return record_digests()
    return record_baseline(args.seeds, args.out)


if __name__ == "__main__":
    sys.exit(main())
