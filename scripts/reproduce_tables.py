#!/usr/bin/env python3
"""Reproduce the critical-load, convergence and inf-sup tables and the
classical-method check.

Runs the certified critical-load tables for both model problems, the two
manufactured-solution convergence studies, the inf-sup estimates of the
MINI pair and of its bubble-stripped P1/P1 control, and the unstabilized
sanity probes.  Takes about 4 s on a 2-core machine, about 2 s of it the
problem 2 critical loads.  The mesh family defaults to the CLI's.

    python3 scripts/reproduce_tables.py [--meshes 5,9,17,33] [--skip-stability]
"""

import argparse
import time

from stabmix import ProblemConfig, is_stable
from stabmix.cli import DEFAULT_MESHES, emit, parse_args, run


def print_table(title, argv):
    """Run one CLI table and print it under its title and run time; the
    title may name fields of the run's ProblemConfig as {config.field}."""
    spec = parse_args(argv)
    t0 = time.perf_counter()
    result = run(spec)
    dt = time.perf_counter() - t0
    print(f"== {title.format(config=spec.config)} ({dt:.0f}s)")
    print(emit(result, spec))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--meshes", default=",".join(map(str, DEFAULT_MESHES)))
    parser.add_argument("--skip-stability", action="store_true",
                        help="only run the fast convergence and inf-sup studies")
    args = parser.parse_args()
    nodes = ["--nodes", args.meshes]

    if not args.skip_stability:
        for problem in (1, 2):
            print_table(f"Stability limits, problem {problem}",
                        ["stability", "--problem", str(problem)] + nodes)

    for problem in (1, 2):
        print_table(f"Convergence, problem {problem}, "
                    "gamma_tilde = {config.gamma_tilde}",
                    ["convergence", "--problem", str(problem)] + nodes)

    for pair, extra in (("MINI", []), ("P1/P1 control", ["--drop-bubbles"])):
        print_table(f"Inf-sup constant, problem 1, {pair}",
                    ["infsup", "--problem", "1"] + nodes + extra)

    print("== Classical method (M = 0), problem 1, 9x9")
    for gt in (0.5, 2.0):
        lam, ok = is_stable(ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0,
                                          gamma_tilde=gt))
        verdict = "stable" if ok else "unstable"
        print(f"gamma_tilde = {gt}: lambda_min = {lam:.6g} ({verdict})")


if __name__ == "__main__":
    main()
