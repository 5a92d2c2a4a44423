#!/usr/bin/env python3
"""Run the extraction pipeline over a spread of colorings and print the
per-color class sizes; every row must come out verified."""

from __future__ import annotations

import argparse
import random

from colorvisit.colorings import builtin_coloring
from colorvisit.corpus import random_coloring
from colorvisit.dsl import dsl_coloring
from colorvisit.erdos import homog_pipeline


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizon", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--random-cases", type=int, default=5)
    args = parser.parse_args()

    colorings = [
        builtin_coloring("constant:0", 2),
        builtin_coloring("sum-mod", 2),
        builtin_coloring("sum-mod", 3),
        builtin_coloring("diff-mod", 4),
        builtin_coloring("block:7", 3),
        dsl_coloring("(x * y + x) % 3", 3),
        dsl_coloring("if x < y then x else y", 4),
        # every row from x = 5 on has color 0: H0 is the class that grows
        dsl_coloring("if x < 5 then x + y else 0", 3),
    ]
    rng = random.Random(args.seed)
    for _ in range(args.random_cases):
        k = rng.choice([2, 3, 4])
        colorings.append(random_coloring(rng.randrange(2**32), k, args.horizon))

    print(f"{'coloring':38s}  {'classes':24s}  verified")
    for coloring in colorings:
        report, visit = homog_pipeline(
            coloring, args.horizon, budget=4 * args.horizon
        )
        sizes = " ".join(f"H{i}={len(c)}" for i, c in enumerate(report.classes))
        print(f"{coloring.name[:38]:38s}  {sizes:24s}  {report.verified}")


if __name__ == "__main__":
    main()
