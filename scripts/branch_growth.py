#!/usr/bin/env python3
"""Watch the approximated branch absorb the dominant color as budgets grow.

For each engineered family the visit commits to one chain; the per-color
edge counts along the approximated branch should grow linearly in the
budget for the committed color and stay flat for the others.  Prints one
table per family.
"""

from __future__ import annotations

import argparse

from colorvisit.colorings import builtin_coloring
from colorvisit.erdos import homog_pipeline
from colorvisit.trees import full_tree
from colorvisit.visit import enumerate_visit


def unary_row(budget: int) -> dict[int, int]:
    visit = enumerate_visit(full_tree(1), (0,), (), budget=budget)
    letters = [visit.letter[i] for i in visit.branch()[1:]]
    return {c: letters.count(c) for c in range(visit.k)}


def pipeline_row(k: int, budget: int, horizon_factor: int) -> dict[int, int]:
    coloring = builtin_coloring("sum-mod", k)
    report, _ = homog_pipeline(coloring, horizon_factor * budget + 16, budget)
    return report.census


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budgets", default="100,400,1600",
        help="comma-separated visit budgets",
    )
    args = parser.parse_args()
    budgets = [int(b) for b in args.budgets.split(",")]

    families = [
        ("unary chain", lambda b: unary_row(b)),
        ("sum mod 2", lambda b: pipeline_row(2, b, 2)),
        ("sum mod 3", lambda b: pipeline_row(3, b, 3)),
    ]
    for name, row in families:
        print(f"\n{name}")
        header = None
        for budget in budgets:
            census = row(budget)
            if header is None:
                header = sorted(census)
                print("  budget  " + "  ".join(f"color {c}" for c in header))
            print(
                f"  {budget:6d}  "
                + "  ".join(f"{census[c]:7d}" for c in header)
            )


if __name__ == "__main__":
    main()
