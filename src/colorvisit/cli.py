"""Batch command-line front end.

Three subcommands: ``visit`` enumerates a tree and writes the trace,
``homog`` runs the coloring pipeline and writes the homogeneity report,
``check`` replays the seeded property suites.  Summaries go to stdout,
diagnostics to stderr; exit codes are 0 for success, 1 for a failed
property suite, 2 for configuration or validation errors, and 3 when a
homogeneity report fails verification.  Identical configurations (seed
included) produce byte-identical output files.

Each command imports the modules it runs when it starts, so a ``visit``
run loads no coloring code and neither ``visit`` nor ``homog`` loads the
suites or their oracles.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .words import full_priority, parse_word, validate_priority

OUTDIR_ENV = "COLORVISIT_OUTDIR"

# the names of ``suites.SUITES``, sorted, for the help text and the
# unknown-suite message without importing the suites
SUITE_NAMES = ("erdos", "expansions", "homog", "restricted", "visits")

# the largest color count the command line takes; the default priority, the
# priority check and the per-color classes all cost O(k) before any work
MAX_COLORS = 4096

# the largest horizon the command line takes; the comparison tree allocates
# O(H) lists before its first coloring, and the build colors up to H²/2 pairs
MAX_HORIZON = 1_000_000

# every domain error in the package derives from one of these
_CONFIG_ERRORS = (ValueError, ArithmeticError, OSError)


def _outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _out_path(arg: Optional[str], default_name: str) -> Path:
    if arg:
        return Path(arg)
    return _outdir() / default_name


def _parse_priority(text: Optional[str], k: int) -> tuple[int, ...]:
    """Priorities on the command line must cover all k colors (any order),
    and k must not exceed ``MAX_COLORS``."""
    if k > MAX_COLORS:
        raise ValueError(f"color count k={k} exceeds the limit of {MAX_COLORS}")
    if text is None:
        return full_priority(k)
    priority = validate_priority(parse_word(text), k)
    if set(priority) != set(range(k)):
        raise ValueError(
            f"priority {list(priority)} must cover exactly colors 0..{k - 1}"
        )
    return priority


def _write(path: Path, payload: Union[str, Iterable[str]]) -> None:
    """Write a string, or pieces of text in order without joining them."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, str):
        # encoding a multi-megabyte text in one piece would hold a second
        # full copy of it; slices keep the extra memory to one slice
        text = payload
        payload = (text[i : i + (1 << 20)] for i in range(0, len(text), 1 << 20))
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(payload)


def cmd_visit(args: argparse.Namespace) -> int:
    from . import export
    from .trees import builtin_tree, load_tree
    from .visit import enumerate_visit

    source = args.tree
    if Path(source).exists():
        tree = load_tree(source)
    else:
        tree = builtin_tree(source)
    priority = _parse_priority(args.priority, tree.k)
    root = parse_word(args.root)
    visit = enumerate_visit(tree, priority, root, args.budget)
    suffix = {"json": ".json", "dot": ".dot", "text": ".txt"}[args.emit]
    path = _out_path(args.out, "visit" + suffix)
    if args.emit == "json":
        _write(path, export.visit_trace_pieces(visit))
    elif args.emit == "dot":
        _write(path, export.visit_dot(visit))
    else:
        _write(path, export.visit_text(visit))
    print(
        f"visit: {len(visit.parent)} entries, terminated={visit.terminated}, "
        f"wrote {path}"
    )
    return 0


def _homog_coloring(args: argparse.Namespace):
    from .colorings import builtin_coloring, load_table

    if args.coloring is not None:
        if args.k is None:
            raise ValueError("--k is required with --coloring")
        from .dsl import dsl_coloring

        return dsl_coloring(args.coloring, args.k, strict=args.strict)
    if args.builtin is not None:
        if args.k is None:
            raise ValueError("--k is required with --builtin")
        return builtin_coloring(args.builtin, args.k)
    coloring = load_table(args.table)
    if args.k is not None and args.k != coloring.k:
        raise ValueError(
            f"table declares k={coloring.k} but --k {args.k} was given"
        )
    return coloring


def cmd_homog(args: argparse.Namespace) -> int:
    from . import export
    from .erdos import homog_pipeline

    if args.horizon > MAX_HORIZON:
        raise ValueError(
            f"horizon {args.horizon} exceeds the limit of {MAX_HORIZON}"
        )
    coloring = _homog_coloring(args)
    priority = _parse_priority(args.priority, coloring.k)
    report, visit = homog_pipeline(coloring, args.horizon, args.budget, priority)
    suffix = {"json": ".json", "dot": ".dot", "text": ".txt"}[args.emit]
    path = _out_path(args.out, "homog" + suffix)
    if args.emit == "json":
        _write(path, export.report_json(report))
    elif args.emit == "dot":
        _write(path, export.erdos_dot(report.tree, report))
    else:
        _write(path, export.report_text(report))
    if args.trace_out:
        _write(Path(args.trace_out), export.visit_trace_pieces(visit))
    sizes = " ".join(f"H{i}={len(c)}" for i, c in enumerate(report.classes))
    print(f"homog: {sizes} verified={str(report.verified).lower()}, wrote {path}")
    if not report.verified:
        print("verification failed: extracted sets are not monochromatic",
              file=sys.stderr)
        return 3
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    if args.cases < 1:
        raise ValueError(f"--cases {args.cases} must be at least 1")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITE_NAMES:
            print(f"unknown suite {name!r}; available: "
                  f"{', '.join(SUITE_NAMES)}, all", file=sys.stderr)
            return 2
    from .suites import run_suite

    failed = False
    for name in names:
        result = run_suite(name, args.seed, args.cases)
        status = "pass" if result.passed else "FAIL"
        print(f"suite {name}: {status} ({result.cases} cases)")
        if not result.passed:
            failed = True
            print(f"counterexample for suite {name}:\n{result.failure}",
                  file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorvisit",
        description="Priority-driven tree enumeration and monochromatic-set extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_visit = sub.add_parser("visit", help="enumerate a tree and write the trace")
    p_visit.add_argument("--tree", required=True,
                         help="tree JSON file, or builtin: unary, full:<k>; "
                              f"k at most {MAX_COLORS}")
    p_visit.add_argument("--priority", default=None,
                         help="comma-separated colors, lowest priority first "
                              "(default 0,...,k-1)")
    p_visit.add_argument("--root", default="",
                         help="comma-separated root word (default the empty word)")
    p_visit.add_argument("--budget", type=int, default=1000,
                         help="maximum number of enumerated nodes")
    p_visit.add_argument("--emit", choices=("json", "dot", "text"), default="json")
    p_visit.add_argument("--out", default=None, help="output path")
    p_visit.set_defaults(func=cmd_visit)

    p_homog = sub.add_parser("homog", help="extract candidate monochromatic sets")
    src = p_homog.add_mutually_exclusive_group(required=True)
    src.add_argument("--coloring", default=None, help="coloring expression over x and y")
    src.add_argument("--builtin", default=None,
                     help="constant:<i>, sum-mod, diff-mod, block:<b>, table:<file>")
    src.add_argument("--table", default=None, help="table coloring JSON file")
    p_homog.add_argument("--k", type=int, default=None,
                         help=f"number of colors, at most {MAX_COLORS}")
    p_homog.add_argument("--horizon", type=int, default=100,
                         help="how many naturals the comparison tree covers, "
                              f"at most {MAX_HORIZON}")
    p_homog.add_argument("--budget", type=int, default=1000,
                         help="visit budget on the comparison tree")
    p_homog.add_argument("--priority", default=None,
                         help="visit priority listing all k colors")
    p_homog.add_argument("--strict", action="store_true",
                         help="make division/remainder by zero an error")
    p_homog.add_argument("--emit", choices=("json", "dot", "text"), default="json")
    p_homog.add_argument("--out", default=None, help="output path")
    p_homog.add_argument("--trace-out", default=None,
                         help="also write the visit trace JSON here")
    p_homog.set_defaults(func=cmd_homog)

    p_check = sub.add_parser("check", help="run the seeded property suites")
    p_check.add_argument("--suite", required=True,
                         help=f"one of: {', '.join(SUITE_NAMES)}, all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--cases", type=int, default=100)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
