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
from typing import Iterable, NoReturn, Optional, Sequence

from .words import full_priority, parse_int, parse_word, validate_priority

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

# the largest visit budget the command line takes; a visit holds about 300
# bytes per entry, so a run stays near 0.3 GB (a homog visit ends within
# horizon entries and needs no cap)
MAX_BUDGET = 1_000_000

# every domain error in the package derives from one of these
_CONFIG_ERRORS = (ValueError, ArithmeticError, OSError)

# the most characters of an error message printed; messages quote user
# text, which may be of any length
MAX_MESSAGE = 200


def _outdir() -> Path:
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _out_path(arg: Optional[str], default_name: str) -> Path:
    if arg:
        return Path(arg)
    return _outdir() / default_name


def _int_option(args: argparse.Namespace, name: str) -> Optional[int]:
    """The integer that option ``--name`` spells, or None when it is unset.

    Integer options reach the commands as text, so that a bad value gets
    the same bounded ``error:`` line as every other configuration error.
    """
    text = getattr(args, name)
    if text is None:
        return None
    try:
        return parse_int(text)
    except ValueError as exc:
        raise ValueError(f"--{name}: {exc}") from None


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


def _write(path: Path, pieces: Iterable[str]) -> None:
    """Write pieces of text in order, each as it is made, without joining
    them: a renderer's output is never held whole."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def cmd_visit(args: argparse.Namespace) -> int:
    from . import export
    from .trees import builtin_tree, load_tree
    from .visit import enumerate_visit

    budget = _int_option(args, "budget")
    if budget > MAX_BUDGET:
        raise ValueError(f"budget {budget} exceeds the limit of {MAX_BUDGET}")
    source = args.tree
    try:
        is_file = Path(source).exists()
    except OSError:  # a name too long for the file system names no file
        is_file = False
    tree = load_tree(source) if is_file else builtin_tree(source)
    priority = _parse_priority(args.priority, tree.k)
    root = parse_word(args.root)
    visit = enumerate_visit(tree, priority, root, budget)
    name, render = {
        "json": ("visit.json", export.visit_trace_pieces),
        "dot": ("visit.dot", export.visit_dot),
        "text": ("visit.txt", export.visit_text),
    }[args.emit]
    path = _out_path(args.out, name)
    _write(path, render(visit))
    print(
        f"visit: {len(visit.parent)} entries, terminated={visit.terminated}, "
        f"wrote {path}"
    )
    return 0


def _homog_coloring(args: argparse.Namespace, k: Optional[int]):
    from .colorings import builtin_coloring, load_table

    if args.coloring is not None:
        if k is None:
            raise ValueError("--k is required with --coloring")
        from .dsl import dsl_coloring

        return dsl_coloring(args.coloring, k, strict=args.strict)
    if args.builtin is not None:
        if k is None:
            raise ValueError("--k is required with --builtin")
        return builtin_coloring(args.builtin, k)
    coloring = load_table(args.table)
    if k is not None and k != coloring.k:
        raise ValueError(
            f"table declares k={coloring.k} but --k {k} was given"
        )
    return coloring


def cmd_homog(args: argparse.Namespace) -> int:
    k = _int_option(args, "k")
    horizon = _int_option(args, "horizon")
    budget = _int_option(args, "budget")
    if horizon > MAX_HORIZON:
        raise ValueError(
            f"horizon {horizon} exceeds the limit of {MAX_HORIZON}"
        )
    if horizon < 1:
        raise ValueError(f"--horizon {horizon} must be at least 1")
    # the coloring is compiled before the pipeline's modules load: a bad
    # expression fails without them, and dsl, the largest module a homog run
    # compiles from source, compiles on the smallest heap
    coloring = _homog_coloring(args, k)
    from . import export
    from .erdos import homog_pipeline

    priority = _parse_priority(args.priority, coloring.k)
    report, visit = homog_pipeline(coloring, horizon, budget, priority)
    name, render = {
        "json": ("homog.json", export.report_json),
        "dot": ("homog.dot", export.erdos_dot),
        "text": ("homog.txt", export.report_text),
    }[args.emit]
    path = _out_path(args.out, name)
    _write(path, render(report))
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
    seed = _int_option(args, "seed")
    cases = _int_option(args, "cases")
    if cases < 1:
        raise ValueError(f"--cases {cases} must be at least 1")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}; available: "
                             f"{', '.join(SUITE_NAMES)}, all")
    from .suites import run_suite

    failed = False
    for name in names:
        result = run_suite(name, seed, cases)
        status = "pass" if result.passed else "FAIL"
        print(f"suite {name}: {status} ({result.cases} cases)")
        if not result.passed:
            failed = True
            print(f"counterexample for suite {name}:\n{result.failure}",
                  file=sys.stderr)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Raises its and its subparsers' errors as one line, with the line
    breaks escaped, since argparse echoes unknown options raw."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message.replace("\r", "\\r").replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_visit.add_argument("--budget", default="1000",
                         help="maximum number of enumerated nodes, "
                              f"at most {MAX_BUDGET}")
    p_visit.add_argument("--emit", choices=("json", "dot", "text"), default="json")
    p_visit.add_argument("--out", default=None, help="output path")
    p_visit.set_defaults(func=cmd_visit)

    p_homog = sub.add_parser("homog", help="extract candidate monochromatic sets")
    src = p_homog.add_mutually_exclusive_group(required=True)
    src.add_argument("--coloring", default=None, help="coloring expression over x and y")
    src.add_argument("--builtin", default=None,
                     help="constant:<i>, sum-mod, diff-mod, block:<b>")
    src.add_argument("--table", default=None, help="table coloring JSON file")
    p_homog.add_argument("--k", default=None,
                         help=f"number of colors, at most {MAX_COLORS}")
    p_homog.add_argument("--horizon", default="100",
                         help="how many naturals the comparison tree covers, "
                              f"at most {MAX_HORIZON}")
    p_homog.add_argument("--budget", default="1000",
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
    p_check.add_argument("--seed", default="0")
    p_check.add_argument("--cases", default="100")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        message = str(exc)
        if len(message) > MAX_MESSAGE:
            message = message[:MAX_MESSAGE] + "..."
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
