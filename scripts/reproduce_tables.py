#!/usr/bin/env python3
"""Reproduce the four reference tables and the classical-method check.

Runs the stabilized critical-load scans for both model problems, the two
manufactured-solution convergence studies, and the unstabilized sanity
probes.  Takes about 13 s on a 2-core machine; the 33x33 scans dominate.

    python3 scripts/reproduce_tables.py [--meshes 5,9,17,33] [--skip-stability]
"""

import argparse
import time

from stabmix import ProblemConfig, is_stable
from stabmix.cli import emit, parse_args, run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--meshes", default="5,9,17,33")
    parser.add_argument("--skip-stability", action="store_true",
                        help="only run the fast convergence studies")
    args = parser.parse_args()
    nodes = ["--nodes", args.meshes]

    if not args.skip_stability:
        for problem in (1, 2):
            spec = parse_args(["stability", "--problem", str(problem)] + nodes)
            t0 = time.perf_counter()
            reports = run(spec)
            dt = time.perf_counter() - t0
            print(f"== Stability limits, problem {problem} ({dt:.0f}s)")
            print(emit(reports, "pretty", spec))

    for problem in (1, 2):
        spec = parse_args(["convergence", "--problem", str(problem)] + nodes)
        t0 = time.perf_counter()
        table = run(spec)
        dt = time.perf_counter() - t0
        print(f"== Convergence, problem {problem}, "
              f"gamma_tilde = {spec.gamma_tilde} ({dt:.0f}s)")
        print(emit(table, "pretty", spec))

    print("== Classical method (M = 0), problem 1, 9x9")
    for gt in (0.5, 2.0):
        lam, ok = is_stable(ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0,
                                          gamma_tilde=gt))
        verdict = "stable" if ok else "unstable"
        print(f"gamma_tilde = {gt}: lambda_min = {lam:.6g} ({verdict})")


if __name__ == "__main__":
    main()
