"""Span tracing of one in-process CLI run, installed from outside the package.

``python perfbench/tracer.py STATS_JSON -- <cli argv>`` imports
``colorvisit``, wraps the public functions and methods listed in
``TARGETS`` so that each call opens a span, runs ``colorvisit.cli.main`` on
the argv and writes the aggregated spans to ``STATS_JSON``.  The package
source is not touched.  A target that no longer exists is reported as absent
instead of failing the run, so refactors that delete or rename functions
only drop the metrics built on them.

Spans are aggregated as they close, keyed by (enclosing span, span name):
count, inclusive time and self time (duration minus the time covered by
child spans).  Per-call records would not fit in memory for the millions of
coloring calls of a pipeline run.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from typing import Callable, Optional, Sequence

# (span name, module, attribute path, observation): the observation names
# what ``_observe`` reads off each call's result, if anything.
TARGETS: tuple[tuple[str, str, str, Optional[str]], ...] = (
    ("cli.main", "colorvisit.cli", "main", None),
    ("trees.contains", "colorvisit.trees", "OracleColorTree.contains", None),
    ("trees.contains", "colorvisit.trees", "FiniteColorTree.contains", None),
    ("visit.enumerate", "colorvisit.visit", "enumerate_visit", "entries"),
    ("visit.check_visit", "colorvisit.visit", "check_visit", None),
    ("stability.stable", "colorvisit.stability", "stable_indices_of", None),
    ("stability.branch", "colorvisit.stability", "branch_approx_of", "branch_len"),
    ("export.render", "colorvisit.export", "visit_trace_json", "bytes"),
    ("export.render", "colorvisit.export", "visit_dot", "bytes"),
    ("export.render", "colorvisit.export", "visit_text", "bytes"),
    ("export.render", "colorvisit.export", "report_json", "bytes"),
    ("export.render", "colorvisit.export", "report_text", "bytes"),
    ("export.render", "colorvisit.export", "erdos_dot", "bytes"),
    ("colorings.call", "colorvisit.colorings", "Coloring.__call__", None),
    ("dsl.parse", "colorvisit.dsl", "parse", None),
    ("dsl.eval", "colorvisit.dsl", "evaluate", None),
    ("erdos.build", "colorvisit.erdos", "build_erdos", "tree"),
    ("erdos.word_tree", "colorvisit.erdos", "to_word_tree", None),
    ("erdos.extract", "colorvisit.erdos", "extract_homogeneous", "verify_pairs"),
    ("erdos.pipeline", "colorvisit.erdos", "homog_pipeline", None),
    ("suites.visits", "colorvisit.suites", "suite_visits", None),
    ("suites.expansions", "colorvisit.suites", "suite_expansions", None),
    ("suites.erdos", "colorvisit.suites", "suite_erdos", None),
    ("suites.homog", "colorvisit.suites", "suite_homog", None),
    ("suites.restricted", "colorvisit.suites", "suite_restricted", None),
    ("oracles.all_visits", "colorvisit.oracles", "all_visits", None),
)

# functions that call themselves through their module global: only the
# outermost call is a span, the inner calls run unwrapped
RECURSIVE = {("colorvisit.dsl", "evaluate")}


class Recorder:
    """Aggregating span recorder.  ``enter``/``exit`` must nest."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._open: list[list] = []  # [name, start, child time]
        self.edges: dict[tuple[Optional[str], str], list[float]] = {}
        self.observed: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self._open.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._open.pop()
        duration = self.clock() - start
        parent = None
        if self._open:
            self._open[-1][2] += duration
            parent = self._open[-1][0]
        edge = self.edges.get((parent, name))
        if edge is None:
            edge = self.edges[(parent, name)] = [0, 0.0, 0.0]
        edge[0] += 1
        edge[1] += duration
        edge[2] += duration - child

    def observe(self, key: str, value: float, how: str = "sum") -> None:
        old = self.observed.get(key)
        if old is None:
            self.observed[key] = value
        else:
            self.observed[key] = old + value if how == "sum" else max(old, value)

    def to_json(self) -> dict:
        return {
            "edges": [[p, n, c, t, s] for (p, n), (c, t, s) in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0] or "", kv[0][1]))],
            "observed": self.observed,
        }


def _observe(rec: Recorder, what: str, result) -> None:
    """Record what a span's result says; a result of another shape is
    skipped, since the metric built on it is then absent rather than wrong."""
    try:
        if what == "entries":
            rec.observe("visit.entries", len(result.order))
        elif what == "branch_len":
            rec.observe("stability.branch_len", len(result), "max")
        elif what == "bytes":
            rec.observe("export.bytes", len(result.encode("utf-8")))
        elif what == "tree":
            depth = [0] * len(result.parent)
            for n in range(1, len(depth)):
                depth[n] = depth[result.parent[n]] + 1
            rec.observe("erdos.depth_max", max(depth), "max")
            rec.observe("erdos.nodes", len(depth))
        elif what == "verify_pairs":
            rec.observe("erdos.verify_pairs",
                        sum(len(c) * (len(c) - 1) // 2 for c in result.classes))
    except (AttributeError, TypeError, IndexError):
        pass


def _wrap(rec: Recorder, name: str, orig: Callable, what: Optional[str],
          home: Optional[dict] = None, attr: str = "") -> Callable:
    enter, exit_ = rec.enter, rec.exit

    if home is not None:
        # recursive module function: point the global back at the original
        # for the duration of the outermost call
        def wrapper(*args, **kwargs):
            home[attr] = orig
            enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                exit_()
                home[attr] = wrapper
    elif what is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return orig(*args, **kwargs)
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                exit_()
            _observe(rec, what, result)
            return result

    wrapper.__wrapped__ = orig
    return wrapper


def install(rec: Recorder, targets: Sequence = TARGETS) -> list[str]:
    """Wrap every target that exists; return the targets that do not.

    A module-level function is replaced wherever a loaded ``colorvisit``
    module holds it: as a module attribute (``cli`` imports its own copy of
    ``build_erdos``) or as a value of a module-level dict (``SUITES``)."""
    absent = []
    for name, modname, path, what in targets:
        try:
            module = importlib.import_module(modname)
            owner = module
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except (ImportError, AttributeError):
            absent.append(f"{modname}.{path}")
            continue
        if parents:
            setattr(owner, attr, _wrap(rec, name, orig, what))
            continue
        home = vars(module) if (modname, path) in RECURSIVE else None
        wrapper = _wrap(rec, name, orig, what, home, attr)
        for modname2, mod in list(sys.modules.items()):
            if modname2 != "colorvisit" and not modname2.startswith("colorvisit."):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is orig:
                    namespace[key] = wrapper
                elif isinstance(value, dict):
                    for k2, v2 in list(value.items()):
                        if v2 is orig:
                            value[k2] = wrapper
    return absent


# --- metrics from aggregated spans ----------------------------------------------


class Trace:
    """Read side of a recorder dump, times multiplied by ``speed``."""

    def __init__(self, dump: dict, speed: float = 1.0) -> None:
        self.edges = [(p, n, c, t * speed, s * speed) for p, n, c, t, s in dump["edges"]]
        self.observed = dump["observed"]

    def _sum(self, name: str, index: int, parent: Optional[str] = None) -> float:
        return sum(e[index] for e in self.edges
                   if e[1] == name and (parent is None or e[0] == parent))

    def count(self, name: str, parent: Optional[str] = None) -> int:
        return int(self._sum(name, 2, parent))

    def total(self, name: str) -> float:
        return self._sum(name, 3)

    def self_time(self, name: str) -> float:
        return self._sum(name, 4)


def growth(sizes: Sequence[float], times: Sequence[float]) -> Optional[float]:
    """Least-squares slope of log(time) against log(size); None unless at
    least two sizes have a positive time."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, times) if n > 0 and t > 0]
    if len(pts) < 2:
        return None
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return None
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


SUITES = ("visits", "expansions", "erdos", "homog", "restricted")

# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "trees.probes": "count", "trees.probe_s": "s", "trees.probes_per_entry": "probes/entry",
    "visit.entries": "count", "visit.enumerate_s": "s", "visit.growth": "slope",
    "visit.check_visit_calls": "count", "visit.check_visit_s": "s",
    "stability.stable_s": "s", "stability.branch_len": "nodes", "stability.growth": "slope",
    "export.render_s": "s", "export.bytes": "bytes", "export.growth": "slope",
    "colorings.calls": "count", "colorings.call_s": "s",
    "dsl.parse_s": "s", "dsl.eval_s": "s", "dsl.eval_us_per_call": "us/call",
    "erdos.build_s": "s", "erdos.build_calls_per_node": "calls/node",
    "erdos.depth_max": "nodes", "erdos.build_growth": "slope", "erdos.word_tree_s": "s",
    "erdos.extract_s": "s", "erdos.verify_pairs": "pairs", "erdos.extract_growth": "slope",
    **{f"suites.{s}_s": "s" for s in SUITES},
    "oracles.all_visits_calls": "count", "oracles.all_visits_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "trace.overhead": "ratio",
}

# growth metric -> span whose self time is fitted against the workload size
GROWTH_SPANS = {
    "visit.growth": "visit.enumerate",
    "stability.growth": "stability.stable",
    "export.growth": "export.render",
    "erdos.build_growth": "erdos.build",
    "erdos.extract_growth": "erdos.extract",
}


def layer_metrics(traces: Sequence[Trace], sizes: Sequence[float],
                  untraced_s: float) -> dict[str, Optional[float]]:
    """Per-layer metrics of the largest traced run (the last one), growth
    slopes over all of them, and ``trace.overhead``, the traced
    ``cli.main`` time over ``untraced_s``.  A metric whose spans or
    observations never occurred is None."""
    t = traces[-1]
    obs = t.observed

    def ratio(num: Optional[float], den: Optional[float], scale: float = 1.0):
        return num * scale / den if num is not None and den else None

    def seen(name: str, value: float) -> Optional[float]:
        return value if t.count(name) else None

    entries = obs.get("visit.entries")
    evals = t.count("dsl.eval")
    out: dict[str, Optional[float]] = {
        "trees.probes": seen("trees.contains", t.count("trees.contains")),
        "trees.probe_s": seen("trees.contains", t.self_time("trees.contains")),
        "trees.probes_per_entry": ratio(
            t.count("trees.contains", "visit.enumerate"), entries),
        "visit.entries": entries,
        "visit.enumerate_s": seen("visit.enumerate", t.self_time("visit.enumerate")),
        "visit.check_visit_calls": seen("visit.check_visit", t.count("visit.check_visit")),
        "visit.check_visit_s": seen("visit.check_visit", t.self_time("visit.check_visit")),
        "stability.stable_s": seen("stability.stable", t.self_time("stability.stable")),
        "stability.branch_len": obs.get("stability.branch_len"),
        "export.render_s": seen("export.render", t.self_time("export.render")),
        "export.bytes": obs.get("export.bytes"),
        "colorings.calls": seen("colorings.call", t.count("colorings.call")),
        "colorings.call_s": seen("colorings.call", t.self_time("colorings.call")),
        "dsl.parse_s": seen("dsl.parse", t.self_time("dsl.parse")),
        "dsl.eval_s": seen("dsl.eval", t.self_time("dsl.eval")),
        "dsl.eval_us_per_call": ratio(t.self_time("dsl.eval"), evals, 1e6),
        "erdos.build_s": seen("erdos.build", t.self_time("erdos.build")),
        "erdos.build_calls_per_node": ratio(
            t.count("colorings.call", "erdos.build"), obs.get("erdos.nodes")),
        "erdos.depth_max": obs.get("erdos.depth_max"),
        "erdos.word_tree_s": seen("erdos.word_tree", t.self_time("erdos.word_tree")),
        "erdos.extract_s": seen("erdos.extract", t.self_time("erdos.extract")),
        "erdos.verify_pairs": obs.get("erdos.verify_pairs"),
        "oracles.all_visits_calls": seen("oracles.all_visits", t.count("oracles.all_visits")),
        "oracles.all_visits_s": seen("oracles.all_visits", t.self_time("oracles.all_visits")),
        "cli.main_s": seen("cli.main", t.total("cli.main")),
        "cli.self_s": seen("cli.main", t.self_time("cli.main")),
        "trace.overhead": ratio(t.total("cli.main") if t.count("cli.main") else None,
                                untraced_s),
    }
    for suite in SUITES:
        name = f"suites.{suite}"
        out[f"{name}_s"] = seen(name, t.self_time(name))
    for metric, span in GROWTH_SPANS.items():
        out[metric] = growth(sizes, [tr.self_time(span) for tr in traces])
    return {name: out[name] for name in LAYER_UNITS}


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py STATS_JSON -- <colorvisit cli argv>", file=sys.stderr)
        return 2
    stats_path, cli_argv = argv[0], list(argv[2:])
    rec = Recorder()
    import colorvisit.cli  # noqa: F401  (loads every module the CLI uses)
    absent = install(rec)
    cli = sys.modules["colorvisit.cli"]
    code = cli.main(cli_argv)
    dump = rec.to_json()
    dump["absent"] = absent
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
