"""The stabmix benchmark: one workload per invocation, run from the checkout root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is sampled SETUP_SAMPLES times, each in a fresh worker process
(interpreter start, stabmix import, one 5x5 warm-up probe); the last of
those workers then runs the workload.  With ``--trace 0`` the last line of
standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of one traced pass; the line before it is the run record
(environment, dof counts, seed, samples, timing summaries, failures).
BLAS keeps the library's default thread count and STABMIX_THREADS is
removed from the workers' environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

WORKLOADS = ("stability-table", "verdict-33", "refine")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0

# phases reported per call; every other phase is summed over a pass
PER_CALL_PHASES = ("verdict_s",)
PHASES = ("stability_p1_s", "stability_p2_s", "verdict_s", "convergence_s",
          "infsup_s", "assemble65_s")


def summary(samples: list[float]) -> dict:
    """Median, and the highest of p50/p90/p99 with ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    ranked = sorted(samples)
    for p in (99, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = ranked[math.ceil(len(ranked) * p / 100) - 1]
            break
    return out


def _phase_samples(passes: list[dict], phase: str) -> list[float]:
    if phase in PER_CALL_PHASES:
        return [t for p in passes for t in p["phases"].get(phase, [])]
    return [sum(p["phases"][phase]) for p in passes if phase in p["phases"]]


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _start_worker(args, setup_only: bool):
    env = dict(os.environ)
    env.pop("STABMIX_THREADS", None)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.wait()
        raise RuntimeError(f"worker did not start (exit {proc.returncode})")
    return proc, setup


def _finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure(args) -> tuple[dict, list[float]]:
    start = time.perf_counter()
    setups = []
    for i in range(SETUP_SAMPLES):
        proc, setup = _start_worker(args, setup_only=i < SETUP_SAMPLES - 1)
        setups.append(setup)
        out = _finish(proc, DEADLINE_S - (time.perf_counter() - start))
    return json.loads(out.strip().splitlines()[-1]), setups


def report(args, result: dict, setups: list[float]):
    passes = result["passes"]
    failures = list(result["failures"])
    attempted = result["attempted"]
    walls = [p["wall"] for p in passes]
    timings = {"setup_s": summary(setups), "wall_s": summary(walls)}
    for phase in PHASES:
        samples = _phase_samples(passes, phase)
        if samples:
            timings[phase] = summary(samples)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": len(passes), "git_commit": _git_commit(),
        "nproc": os.cpu_count(), "stabmix_threads": "unset",
        **result["environment"], "timings": timings,
    }

    if args.trace:
        metrics = dict(result["layers"])
        for phase in PHASES:
            metrics[phase] = timings.get(phase, {"median": 0.0})["median"]
        # a binding renamed away would silently zero its layer
        zero = [m for m in result["expected_layers"] if metrics[m] == 0]
        attempted += len(result["expected_layers"])
        failures += [f"layer metric {m} is zero on {args.workload}" for m in zero]
        metrics["failed_frac"] = len(failures) / attempted
        if result["eig_ms"]:
            timings["solvers.eig_ms"] = summary(result["eig_ms"])
        record.update(missing_bindings=result["missing_bindings"],
                      traced_wall_s=result["traced"]["wall"],
                      solver_paths="inferred from DENSE_CUTOFF and result sign"
                      if result["environment"]["dense_cutoff"] is not None
                      else "unknown (no DENSE_CUTOFF)")
    else:
        metrics = {"setup_s": timings["setup_s"]["median"],
                   "wall_s": timings["wall_s"]["median"],
                   "peak_rss_mb": result["peak_rss_mb"]}
    record["failures"] = failures[:20]
    return record, metrics, attempted, len(failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stabmix" / "__init__.py").is_file():
        print(f"perfbench: no stabmix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, setups = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    record, metrics, attempted, failed = report(args, result, setups)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
