"""The four benchmark workloads: their CLI argv and their correctness gate.

Every workload is one ``colorvisit`` subcommand.  ``case(name, scale,
variant)`` gives the argv at a size (``scale`` 1.0 is the measured size,
0.25 and 0.5 feed the growth fits, ``SETUP`` is the smallest size, which
times the fixed cost) and the files whose bytes are the run's output.
``check`` judges a finished run without trusting the program's own
``verified`` flag: it re-derives what the output must say and, where
``digests.json`` holds a digest of the seed commit's output for the same
case, requires the same bytes.

Seed-dependent workloads draw their inputs from a pool of ``POOL`` variants;
a benchmark seed picks the order in which a run walks the pool, so that the
median of one run mixes several inputs and every input has a recorded digest.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

SETUP = 0.0  # scale of the smallest run: budget 1, horizon 2, cases 1
POOL = 16
SUITE_NAMES = ("erdos", "expansions", "homog", "restricted", "visits")
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = {
    "visit-deep": "oracle full:2 tree whose visit is one chain of 1s: trees probes, "
                  "the visit machine, stable indices and an 8 MB trace; no colorings",
    "homog-chain": "min-coloring whose comparison tree is one chain: N^2/2 interpreted "
                   "DSL calls in the build and N^2/6 verified pairs",
    "homog-hash": "seeded hash coloring giving a shallow bushy tree: build of N*8 calls "
                  "and a wide visit with trivial verification",
    "check-suites": "property suites over thousands of tiny trees: check_visit, "
                    "all_visits and per-call overhead",
}

# measured sizes (scale 1.0); visit-deep, homog-chain and check-suites run at
# half the size first proposed for them, which doubles the runs per
# measurement and keeps the quadratic stages quadratic
VISIT_BUDGET = 2000
CHAIN_HORIZON = 1000
HASH_HORIZON = 20000
SUITE_CASES = 200

CHAIN_EXPR = "if x < y then x else y"
HASH_EXPR = "((x * {A} + y) * (y * {B} + x) + {C}) % 65521"
K = 3


def hash_params(variant: int) -> tuple[int, int, int]:
    rng = random.Random(variant)
    return rng.randrange(1000, 65521), rng.randrange(1000, 65521), rng.randrange(65521)


# The gate's own evaluation of each coloring at (lo, hi), lo < hi, written
# independently of the package's DSL evaluator.
def chain_color(lo: int, hi: int) -> int:
    return (lo if lo < hi else hi) % K


def hash_color(params: tuple[int, int, int]) -> Callable[[int, int], int]:
    a, b, c = params

    def color(lo: int, hi: int) -> int:
        return (((lo * a + hi) * (hi * b + lo) + c) % 65521) % K

    return color


@dataclass(frozen=True)
class Case:
    """One CLI invocation: ``argv`` for ``python -m colorvisit.cli`` and the
    output files (relative to the run's directory) holding its result; an
    empty ``outputs`` means the result is the standard output.  ``key``
    (workload, size and pool variant) names its recorded digest."""

    key: str
    workload: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    size: int
    color: Optional[Callable[[int, int], int]] = None


def _scaled(full: int, scale: float, smallest: int) -> int:
    return smallest if scale == SETUP else max(smallest, int(full * scale))


def case(workload: str, scale: float, variant: int = 0) -> Case:
    """The CLI run of ``workload`` at ``scale`` (seed-dependent inputs come
    from pool entry ``variant``)."""
    if workload == "visit-deep":
        budget = _scaled(VISIT_BUDGET, scale, 1)
        argv = ("visit", "--tree", "full:2", "--priority", "0,1",
                "--budget", str(budget), "--emit", "json", "--out", "visit.json")
        return Case(f"{workload}:{budget}", workload, argv, ("visit.json",), budget)
    if workload in ("homog-chain", "homog-hash"):
        if workload == "homog-chain":
            horizon = _scaled(CHAIN_HORIZON, scale, 2)
            expr, color, key = CHAIN_EXPR, chain_color, f"{workload}:{horizon}"
            outputs, extra = ("homog.json",), ()
        else:
            horizon = _scaled(HASH_HORIZON, scale, 2)
            params = hash_params(variant % POOL)
            expr = HASH_EXPR.format(A=params[0], B=params[1], C=params[2])
            color, key = hash_color(params), f"{workload}:{horizon}:{variant % POOL}"
            outputs, extra = ("homog.json", "trace.json"), ("--trace-out", "trace.json")
        budget = 1 if scale == SETUP else 2 * horizon
        argv = ("homog", "--coloring", expr, "--k", str(K), "--horizon", str(horizon),
                "--budget", str(budget), "--emit", "json", "--out", "homog.json", *extra)
        return Case(key, workload, argv, outputs, horizon, color)
    if workload == "check-suites":
        cases = _scaled(SUITE_CASES, scale, 1)
        argv = ("check", "--suite", "all", "--seed", str(variant % POOL),
                "--cases", str(cases))
        return Case(f"{workload}:{cases}:{variant % POOL}", workload, argv, (), cases)
    raise KeyError(workload)


def output_bytes(c: Case, rundir: Path, stdout: bytes) -> bytes:
    if not c.outputs:
        return stdout
    return b"".join((rundir / name).read_bytes() for name in c.outputs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    try:
        return json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


# --- the gate ----------------------------------------------------------------


def check_visit_trace(trace: dict, budget: int) -> list[str]:
    """``order`` and ``branch`` are the chain (), (1,), (1,1), ... of length
    ``budget`` and the visit did not terminate."""
    errors = []
    ones = [1] * budget
    for key in ("order", "branch"):
        words = trace.get(key)
        if not isinstance(words, list) or len(words) != budget:
            errors.append(f"{key} has {len(words) if isinstance(words, list) else words!r}"
                          f" entries, expected {budget}")
        elif any(w != ones[:i] for i, w in enumerate(words)):
            errors.append(f"{key} is not the chain of 1s")
    if trace.get("terminated") is not False:
        errors.append(f"terminated is {trace.get('terminated')!r}, expected false")
    return errors


def check_report(report: dict, horizon: int, color: Callable[[int, int], int]) -> list[str]:
    """Classes lie in 0..N-1, are pairwise disjoint, and every pair inside
    class i has color i under the gate's own evaluation of the coloring."""
    errors = []
    if report.get("N") != horizon:
        errors.append(f"N is {report.get('N')!r}, expected the horizon {horizon}")
    classes = report.get("H")
    if not isinstance(classes, list) or len(classes) != K:
        return errors + [f"H must list {K} classes"]
    seen: set[int] = set()
    for i, members in enumerate(classes):
        members = sorted(members)
        if any(not 0 <= m < horizon for m in members):
            errors.append(f"class {i} has a member outside 0..{horizon - 1}")
        overlap = seen.intersection(members)
        if overlap:
            errors.append(f"class {i} shares {sorted(overlap)[:5]} with an earlier class")
        seen.update(members)
        bad = next(((a, b) for j, a in enumerate(members) for b in members[j + 1:]
                    if color(a, b) != i), None)
        if bad is not None:
            errors.append(f"class {i} is not monochromatic: pair {bad} "
                          f"has color {color(*bad)}")
    return errors


def check_suites_stdout(text: str) -> list[str]:
    lines = [line for line in text.splitlines() if line.startswith("suite ")]
    names = {line.split()[1].rstrip(":") for line in lines}
    errors = [f"not a pass: {line}" for line in lines if ": pass (" not in line]
    missing = sorted(set(SUITE_NAMES) - names)
    if missing:
        errors.append(f"no result line for suites {missing}")
    return errors


def check(c: Case, returncode: int, rundir: Path, stdout: bytes,
          digests: dict[str, str], verdicts: dict[str, list[str]]
          ) -> tuple[list[str], Optional[str]]:
    """All reasons the finished run ``c`` is wrong (empty when it is right),
    and the digest of its output.

    ``verdicts`` caches the content checks by output digest: identical bytes
    get the identical verdict, so a repeated run is only hashed."""
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        data = output_bytes(c, rundir, stdout)
    except OSError as exc:
        return [f"missing output: {exc}"], None
    found = digest(data)
    expected = digests.get(c.key)
    if expected is not None and expected != found:
        return [f"output differs from the recorded digest for {c.key}"], found
    if found not in verdicts:
        verdicts[found] = _check_content(c, rundir, stdout)
    return verdicts[found], found


def _check_content(c: Case, rundir: Path, stdout: bytes) -> list[str]:
    if c.workload == "check-suites":
        return check_suites_stdout(stdout.decode("utf-8", "replace"))
    try:
        first = json.loads((rundir / c.outputs[0]).read_bytes())
    except ValueError as exc:
        return [f"{c.outputs[0]} is not JSON: {exc}"]
    if c.workload == "visit-deep":
        return check_visit_trace(first, c.size)
    return check_report(first, c.size, c.color)
