#!/usr/bin/env python3
"""Reproduce the four reference tables and the classical-method check.

Runs the stabilized critical-load scans for both model problems, the two
manufactured-solution convergence studies, and the unstabilized sanity
probes.  Takes about 13 s on a 2-core machine; the 33x33 scans dominate.

    python3 scripts/reproduce_tables.py [--meshes 5,9,17,33] [--skip-stability]
"""

import argparse
import time

from stabmix import ProblemConfig, find_stability_limits, is_stable, run_convergence
from stabmix.cli import RunSpec, emit


def _spec(command, problem, meshes, gamma_tilde=0.0):
    m2 = 0.0 if problem == 1 else 1.36
    return RunSpec(command=command, problem=problem, meshes=meshes, mu=40.0,
                   m1=320.0, m2=m2, gamma_tilde=gamma_tilde, delta_gamma=1.0,
                   scan_step=0.25, bisect_tol=0.01, cap=1e6, classical=False,
                   drop_bubbles=False, fmt="pretty", output=None)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--meshes", default="5,9,17,33")
    parser.add_argument("--skip-stability", action="store_true",
                        help="only run the fast convergence studies")
    args = parser.parse_args()
    meshes = tuple(int(tok) for tok in args.meshes.split(","))

    if not args.skip_stability:
        for problem in (1, 2):
            t0 = time.perf_counter()
            reports = [find_stability_limits(
                ProblemConfig(problem=problem, n=n)) for n in meshes]
            dt = time.perf_counter() - t0
            print(f"== Stability limits, problem {problem} ({dt:.0f}s)")
            print(emit(reports, "pretty", _spec("stability", problem, meshes)))

    for problem, gamma_tilde in ((1, 7.125), (2, 3.23)):
        t0 = time.perf_counter()
        table = run_convergence(
            ProblemConfig(problem=problem, gamma_tilde=gamma_tilde), meshes)
        dt = time.perf_counter() - t0
        print(f"== Convergence, problem {problem}, "
              f"gamma_tilde = {gamma_tilde} ({dt:.0f}s)")
        print(emit(table, "pretty",
                   _spec("convergence", problem, meshes, gamma_tilde)))

    print("== Classical method (M = 0), problem 1, 9x9")
    for gt in (0.5, 2.0):
        lam, ok = is_stable(ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0,
                                          gamma_tilde=gt))
        verdict = "stable" if ok else "unstable"
        print(f"gamma_tilde = {gt}: lambda_min = {lam:.6g} ({verdict})")


if __name__ == "__main__":
    main()
