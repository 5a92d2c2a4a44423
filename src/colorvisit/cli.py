"""Batch command-line front end.

Three subcommands: ``visit`` enumerates a tree and writes the trace,
``homog`` runs the coloring pipeline and writes the homogeneity report,
``check`` replays the seeded property suites.  Summaries go to stdout,
diagnostics to stderr; exit codes are 0 for success, 1 for a failed
property suite, 2 for configuration or validation errors, and 3 when a
homogeneity report fails verification.  Identical configurations (seed
included) produce byte-identical output files.

Each command's options are one table that ``parse_args`` reads in one
pass over argv, with argparse's rules but exact option names:
``--name value`` and ``--name=value`` both set a value, the last
occurrence wins, and a value after a space may start with ``-`` only if
it spells a negative number or holds a space.  ``--help`` prints the
usage the tables give.  A run thus imports neither ``argparse`` nor the
``gettext`` and ``locale`` that argparse's messages load.

Each command imports the modules it runs when it starts, so a ``visit``
run loads no coloring code and neither ``visit`` nor ``homog`` loads the
suites or their oracles.

A process enters through ``run``, which runs ``main`` and exits with its
code; ``main`` is the entry for callers in the same process.
"""

from __future__ import annotations

import gc
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, NoReturn, Optional, Sequence

from .words import MAX_COLORS, full_priority, parse_int, parse_word, validate_priority

OUTDIR_ENV = "COLORVISIT_OUTDIR"

# the names of ``suites.SUITES``, sorted, for the unknown-suite message
# without importing the suites
SUITE_NAMES = ("erdos", "expansions", "homog", "restricted", "visits")

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


def _int_option(args: SimpleNamespace, name: str) -> Optional[int]:
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
    them: a renderer's output is never held whole.  A failed directory,
    write or close names the file; a failed open names it already."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # with exist_ok, "File exists" means a file where a directory must be
        why = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise OSError(f"cannot write {path}: {why}") from None
    fh = path.open("w", encoding="utf-8")
    try:
        with fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror}") from None


def cmd_visit(args: SimpleNamespace) -> int:
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


def _homog_coloring(args: SimpleNamespace, k: Optional[int]):
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


def cmd_homog(args: SimpleNamespace) -> int:
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


def cmd_check(args: SimpleNamespace) -> int:
    seed = _int_option(args, "seed")
    cases = _int_option(args, "cases")
    if cases < 1:
        raise ValueError(f"--cases {cases} must be at least 1")
    names = SUITE_NAMES if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}; available: "
                             f"{', '.join(SUITE_NAMES)}, all")
    from .suites import SUITES

    failed = False
    for name in names:
        result = SUITES[name](seed, cases)
        status = "pass" if result.passed else "FAIL"
        print(f"suite {name}: {status} ({result.cases} cases)")
        if not result.passed:
            failed = True
            print(f"counterexample for suite {name}:\n{result.failure}",
                  file=sys.stderr)
    return 1 if failed else 0


# each command's options and their defaults: False makes a flag, a tuple
# lists the values an option takes (the first is the default), and
# REQUIRED marks an option that must be given
REQUIRED = object()
EMITS = ("json", "dot", "text")
VISIT_OPTIONS = {"--tree": REQUIRED, "--priority": None, "--root": "",
                 "--budget": "1000", "--emit": EMITS, "--out": None}
HOMOG_OPTIONS = {"--coloring": None, "--builtin": None, "--table": None,
                 "--k": None, "--horizon": "100", "--budget": "1000",
                 "--priority": None, "--strict": False, "--emit": EMITS,
                 "--out": None, "--trace-out": None}
CHECK_OPTIONS = {"--suite": REQUIRED, "--seed": "0", "--cases": "100"}
# each command's function, options, and the options of which it takes
# exactly one
COMMANDS = {
    "visit": (cmd_visit, VISIT_OPTIONS, ()),
    "homog": (cmd_homog, HOMOG_OPTIONS, ("--coloring", "--builtin", "--table")),
    "check": (cmd_check, CHECK_OPTIONS, ()),
}
HELP = ("-h", "--help")


def _usage(command: str) -> str:
    _, options, group = COMMANDS[command]
    words = ["usage: colorvisit", command]
    if group:
        words.append(f"({' | '.join(f'{n} {n[2:].upper()}' for n in group)})")
    for name, default in options.items():
        if name not in group:
            if type(default) is tuple:
                name += f" {{{','.join(default)}}}"
            elif default is not False:
                name += f" {name[2:].upper()}"
            words.append(name if default is REQUIRED else f"[{name}]")
    return " ".join(words)


def _invalid_choice(name: str, value: str, choices) -> ValueError:
    return ValueError(f"argument {name}: invalid choice: {value!r} "
                      f"(choose from {', '.join(map(repr, choices))})")


def _is_option(arg: str, names) -> bool:
    """Whether ``arg`` is read as an option, not as a value: an option
    name, with or without ``=value``, or text that starts with ``-`` and
    spells neither a negative number nor anything with a space."""
    if arg.partition("=")[0] in names:
        return True
    if len(arg) < 2 or arg[0] != "-" or " " in arg:
        return False
    # a negative number is -D or -D.D, D decimal digits, the part before
    # the point optional, and one final newline allowed
    number = arg[1:].removesuffix("\n")
    return not number.replace(".", "", 1).isdecimal() or number.endswith(".")


def parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The command function and option values that ``argv`` gives, as
    ``func`` and one attribute per option (``--trace-out`` as
    ``trace_out``); None once ``--help`` has printed a usage.

    Option names are exact, ``--name value`` and ``--name=value`` both
    set a value, and the last occurrence wins.  A bad command line raises
    ValueError with a one-line message."""
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, *argv = argv
    if command in HELP:
        print("\n".join(map(_usage, COMMANDS)))
        return None
    if command not in COMMANDS:
        raise _invalid_choice("command", command, COMMANDS)
    func, options, group = COMMANDS[command]
    names = {*options, *HELP}
    given = {}
    extras = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg == "--":  # from here on every argument is a stray value
            extras += argv[i - 1:]
            break
        if arg in HELP:
            print(_usage(command))
            return None
        name, equals, value = arg.partition("=")
        if name not in options:  # an unknown option or a stray value
            extras.append(arg)
            continue
        default = options[name]
        if default is False:
            if equals:
                raise ValueError(
                    f"argument {name}: ignored explicit argument {value!r}")
            value = True
        elif not equals:
            if i == len(argv) or _is_option(argv[i], names):
                raise ValueError(f"argument {name}: expected one argument")
            value = argv[i]
            i += 1
        if type(default) is tuple and value not in default:
            raise _invalid_choice(name, value, default)
        if name in group:
            for other in group:
                if other != name and other in given:
                    raise ValueError(
                        f"argument {name}: not allowed with argument {other}")
        given[name] = value
    missing = [n for n, d in options.items() if d is REQUIRED and n not in given]
    if missing:
        raise ValueError(
            f"the following arguments are required: {', '.join(missing)}")
    if group and given.keys().isdisjoint(group):
        raise ValueError(f"one of the arguments {' '.join(group)} is required")
    if extras:
        # unknown options are echoed as given, bar their line breaks
        shown = " ".join(extras).replace("\r", "\\r").replace("\n", "\\n")
        raise ValueError(f"unrecognized arguments: {shown}")
    return SimpleNamespace(func=func, **{
        name[2:].replace("-", "_"):
            given.get(name, default[0] if type(default) is tuple else default)
        for name, default in options.items()})


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return 0 if args is None else args.func(args)
    except _CONFIG_ERRORS as exc:
        message = str(exc)
        if len(message) > MAX_MESSAGE:
            message = message[:MAX_MESSAGE] + "..."
        print(f"error: {message}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Exit the process with ``main()``'s code, leaving the objects still
    alive to the OS.

    ``gc.freeze`` moves every tracked object into the permanent generation,
    which the collections of interpreter shutdown neither walk nor free; the
    OS reclaims that memory a moment later.  Unlike ``os._exit`` it keeps
    the atexit handlers and the flushes of stdout and stderr.  ``main``
    itself never freezes: in-process callers keep their collector as it is.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
