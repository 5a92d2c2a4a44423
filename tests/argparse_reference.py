"""The command line as an argparse parser: the reference that
``cli.parse_args`` is compared against.

``build_parser().parse_args(argv)`` returns a namespace holding
``command``, ``func`` and each option's value, raises ValueError with a
one-line message for a bad command line, and exits for ``--help``.
"""

import argparse
from typing import NoReturn

from colorvisit.cli import (
    MAX_BUDGET,
    MAX_COLORS,
    MAX_HORIZON,
    SUITE_NAMES,
    cmd_check,
    cmd_homog,
    cmd_visit,
)


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
