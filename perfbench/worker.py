"""One benchmark worker process: set up stabmix, then run one workload.

The worker imports stabmix from the checkout's own ``src/`` and makes one
5x5 warm-up probe, then prints ``ready``; the parent times set-up from
process start to that line.  With ``--setup-only`` it exits there.
Otherwise it runs passes of the workload as a closed loop of one caller:
the workload's minimum number of passes, then more until the next pass
would end after ``--seconds``; or, with ``--trace 1``, one untraced pass followed by one traced pass.
Its result is the last line of its standard output, as JSON.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_stabmix():
    sys.path.insert(0, str(ROOT / "src"))
    import stabmix
    origin = Path(stabmix.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"stabmix imported from {origin}, not from this checkout")


def _blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = fn()
                break
    return threads


def _environment(workload) -> dict:
    import numpy as np
    import scipy
    from stabmix import spaces, mesh, solvers

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    dofs = {}
    for problem, n, bubbles in workload.meshes:
        space = spaces.MixedSpace(mesh.build_structured_mesh(n), problem=problem,
                                  include_bubbles=bubbles)
        key = f"p{problem} {n}x{n}" + ("" if bubbles else " no-bubbles")
        dofs[key] = {"free_u": len(space.free_dofs), "p": int(space.n_p)}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "dense_cutoff": getattr(solvers, "DENSE_CUTOFF", None),
        "dofs": dofs,
    }


def _run_passes(workload, seconds: float):
    """Closed loop: the workload's minimum number of passes, then more
    while the next one is expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass())
        last = time.perf_counter() - t0
        if (len(passes) >= workload.min_passes
                and time.perf_counter() - start + last > seconds):
            return passes


def _traced_pass(workload):
    from stabmix import analysis, cli, forms, mesh, solvers, spaces
    from tracing import EIG, Tracer, layer_metrics

    modules = {"mesh": mesh, "spaces": spaces, "forms": forms,
               "solvers": solvers, "analysis": analysis, "cli": cli}
    with Tracer(modules) as tracer:
        traced = workload.run_pass()
    metrics = layer_metrics(tracer.spans, traced.wall,
                            getattr(solvers, "DENSE_CUTOFF", None))
    eig_ms = [1e3 * s.seconds for s in tracer.spans if s.name == EIG]
    return traced, metrics, eig_ms, tracer.missing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_stabmix()
    from stabmix import analysis
    from workloads import WORKLOADS

    lam, stable = analysis.is_stable(analysis.ProblemConfig(problem=1, n=5))
    if not stable:
        raise SystemExit(f"warm-up probe unstable at zero load: {lam}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tmp_root = ROOT / ".bench_build"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        if args.trace:
            passes = [workload.run_pass()]
            traced, layers, eig_ms, missing = _traced_pass(workload)
        else:
            passes = _run_passes(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "passes": [{"wall": p.wall, "phases": p.phases} for p in passes],
            "attempted": sum(p.attempted for p in passes),
            "failures": [f for p in passes for f in p.failures],
            "peak_rss_mb": peak_rss_mb,
            "environment": _environment(workload),
        }
    if args.trace:
        wall = passes[0].wall
        layers["trace.overhead_frac"] = (traced.wall - wall) / wall
        result.update(traced={"wall": traced.wall, "phases": traced.phases},
                      attempted=result["attempted"] + traced.attempted,
                      layers=layers, eig_ms=eig_ms, missing_bindings=missing,
                      expected_layers=list(workload.layers))
        result["failures"] += traced.failures
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
