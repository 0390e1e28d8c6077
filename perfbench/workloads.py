"""The benchmark's workloads: one pass of each, with its output checks.

A pass times only the calls into stabmix; the checks that follow each call
run outside the timed region.  Every checked call is one attempted
operation, and an operation fails when the call raises or its result is
wrong.  A failure is recorded and the pass goes on.

Checks allow for the more exact methods later work may bring in: critical
loads within the bisection tolerance of the seed's printed values, errors
and inf-sup constants within a relative tolerance, and operators compared
by nnz and Frobenius norm instead of bytes.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import scipy.sparse.linalg as spla

from stabmix import analysis, cli, forms, mesh, spaces

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

BISECT_TOL = 0.01      # the CLI's default bisection tolerance
ERR_P_RTOL = 0.01
MIN_ORDER = 1.9
BETA1_RTOL = 1e-6
FRO_RTOL = 1e-9
SYMMETRY_RTOL = 1e-10  # the solvers' own symmetry tolerance

# (problem, low, high, stable): bands of gamma_tilde whose verdict on the
# 33x33 mesh is known from the seed's tables (gamma_M = 7.13 and 3.24)
VERDICT_BANDS = (
    (1, 6.5, 7.0, True),
    (1, 7.3, 8.0, False),
    (1, -400.0, -100.0, True),
    (2, 2.9, 3.2, True),
    (2, 3.3, 3.6, False),
)

# layer metrics every workload must drive above zero
COMMON_LAYERS = (
    "mesh.build_s", "mesh.calls", "spaces.build_s", "spaces.dofs_max",
    "forms.elastic_s", "forms.divdiv_s", "forms.assemble_s", "forms.calls",
    "forms.nnz", "solvers.eig_s", "solvers.eig_calls", "solvers.eig_ms_p50",
    "analysis.probes",
)


class Pass:
    """Timings and check outcomes of one pass over a workload."""

    def __init__(self):
        self.phases: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(sum(v) for v in self.phases.values())

    def timed(self, phase: str, call):
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self.phases.setdefault(phase, []).append(time.perf_counter() - t0)

    def check(self, phase: str, label: str, call, verify):
        """Time call() into phase, then count one operation checked by
        verify(result), which returns a description of what is wrong or
        None."""
        self.attempted += 1
        try:
            result = self.timed(phase, call)
            problem = verify(result)
        except Exception as err:  # noqa: BLE001 - a failed operation is data
            problem = f"raised {type(err).__name__}: {err}"
        if problem:
            self.failures.append(f"{label}: {problem}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _run_cli(args: list[str], out: Path) -> Path:
    """cli.main on args, writing its json table to out."""
    rc = cli.main(args + ["--format", "json", "--output", str(out)])
    if rc != 0:
        raise RuntimeError(f"stabmix {' '.join(args)} exited with {rc}")
    return out


def _rows(doc, key):
    return {str(r["nodes"]): r[key] for r in doc["rows"]}


def _table(verify_doc):
    """Check the json table a CLI run wrote, given a check of its document."""
    return lambda out: verify_doc(json.loads(out.read_text()))


def _check_stability(problem: int):
    def verify(doc):
        want = EXPECTED["stability"][str(problem)]
        got = {str(r["nodes"]): r for r in doc["rows"]}
        if sorted(got) != sorted(want):
            return f"meshes {sorted(got)} != {sorted(want)}"
        for n, ref in want.items():
            gM, gm = float(got[n]["gamma_M"]), float(got[n]["gamma_m"])
            ref = float(ref)
            ok = gM == ref if math.isinf(ref) else abs(gM - ref) <= BISECT_TOL
            if not ok:
                return f"{n}x{n} gamma_M {gM} not within {BISECT_TOL} of {ref}"
            if gm != -math.inf:
                return f"{n}x{n} gamma_m {gm} != -inf"
        return None
    return _table(verify)


def _check_convergence(problem: int):
    def verify(doc):
        want = EXPECTED["err_p"][str(problem)]
        err = _rows(doc, "err_p_L2")
        if sorted(err) != sorted(want):
            return f"meshes {sorted(err)} != {sorted(want)}"
        for n, ref in want.items():
            if _rel(err[n], ref) > ERR_P_RTOL:
                return f"{n}x{n} err_p {err[n]:.6e} not within 1% of {ref:.6e}"
        orders = [r["order"] for r in doc["rows"] if r["order"] is not None]
        if len(orders) != len(want) - 1 or min(orders) < MIN_ORDER:
            return f"observed orders {orders} below {MIN_ORDER}"
        return None
    return _table(verify)


def _check_infsup(variant: str):
    def verify(doc):
        want = EXPECTED["beta1"][variant]
        beta = _rows(doc, "beta1")
        if sorted(beta) != sorted(want):
            return f"meshes {sorted(beta)} != {sorted(want)}"
        for n, ref in want.items():
            if _rel(beta[n], ref) > BETA1_RTOL:
                return f"{n}x{n} beta1 {beta[n]!r} differs from {ref!r}"
        return None
    return _table(verify)


def _check_operators(ref: dict):
    def verify(mats):
        for name, A in mats.items():
            want = ref[name]
            fro = (float(spla.norm(A)) if A.ndim == 2
                   else float(np.linalg.norm(A)))
            nnz = int(A.nnz) if A.ndim == 2 else int(np.count_nonzero(A))
            if list(A.shape) != want["shape"] or nnz != want["nnz"]:
                return f"{name} shape {A.shape} nnz {nnz} != seed {want}"
            if _rel(fro, want["fro"]) > FRO_RTOL:
                return f"{name} Frobenius norm {fro!r} != seed {want['fro']!r}"
            if A.ndim == 2 and A.shape[0] == A.shape[1]:
                asym = abs(A - A.T).max()
                if asym > SYMMETRY_RTOL * abs(A).max():
                    return f"{name} asymmetry {asym:.3e}"
        return None
    return verify


class Workload:
    """One pass is a fixed sequence of stabmix calls; `layers` names the
    per-layer metrics the workload is predicted to move, `meshes` the
    (problem, nodes, bubbles) spaces whose dof counts the run records, and
    `min_passes` the passes an untraced run makes whatever its length."""

    name = ""
    layers: tuple = ()
    meshes: tuple = ()
    min_passes = 1

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def run_pass(self) -> Pass:
        raise NotImplementedError


class StabilityTable(Workload):
    name = "stability-table"
    layers = COMMON_LAYERS + (
        "solvers.path_dense", "analysis.probes_per_scan",
        "analysis.limits_self_s", "cli.emit_s",
        "stability_p1_s", "stability_p2_s")
    meshes = tuple((k, n, True) for k in (1, 2) for n in (5, 9, 17))

    def run_pass(self) -> Pass:
        p = Pass()
        for k in (1, 2):
            out = self.tmp / f"stability-{k}.json"
            p.check(f"stability_p{k}_s", f"stability --problem {k}",
                    lambda: _run_cli(["stability", "--problem", str(k),
                                      "--nodes", "5,9,17"], out),
                    _check_stability(k))
        return p


class Verdict33(Workload):
    """One analysis.is_stable call per verdict band, at a load the seeded
    generator draws inside the band."""

    name = "verdict-33"
    layers = COMMON_LAYERS + (
        "solvers.path_cholesky", "solvers.path_indefinite", "verdict_s")
    meshes = ((1, 33, True), (2, 33, True))

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.rng = np.random.default_rng(seed)

    def run_pass(self) -> Pass:
        p = Pass()
        for problem, lo, hi, stable in VERDICT_BANDS:
            gt = float(self.rng.uniform(lo, hi))
            cfg = analysis.ProblemConfig(problem=problem, n=33, gamma_tilde=gt)

            def verify(res, stable=stable):
                lam, verdict = res
                if verdict != stable or (lam > 0.0) != verdict:
                    return f"verdict {verdict} (lambda_min {lam:.6e}), band says {stable}"
                return None

            p.check("verdict_s", f"is_stable p{problem} 33x33 gt={gt!r}",
                    lambda cfg=cfg: analysis.is_stable(cfg), verify)
        return p


class Refine(Workload):
    name = "refine"
    layers = COMMON_LAYERS + (
        "solvers.path_dense", "solvers.path_cholesky", "solvers.saddle_s",
        "solvers.saddle_calls", "analysis.infsup_self_s", "analysis.errors_s",
        "analysis.convergence_self_s", "forms.coupling_s", "forms.load_s",
        "forms.h1_gram_s", "forms.pressure_mass_s", "cli.emit_s",
        "convergence_s", "infsup_s", "assemble65_s")
    meshes = (tuple((k, n, True) for k in (1, 2) for n in (5, 9, 17, 33, 65))
              + tuple((1, n, False) for n in (5, 9, 17, 33)))

    NODES = "5,9,17,33"
    # Half of a pass is memory-bound assembly, whose speed swings with the
    # host's memory traffic; with one pass per run, wall time spread by up
    # to a quarter across seeds.
    min_passes = 2

    def run_pass(self) -> Pass:
        p = Pass()
        out = self.tmp / "refine.json"
        for k in (1, 2):
            p.check("convergence_s", f"convergence --problem {k}",
                    lambda k=k: _run_cli(["convergence", "--problem", str(k),
                                          "--nodes", self.NODES], out),
                    _check_convergence(k))
        for variant, extra in (("bubbles", []), ("drop-bubbles", ["--drop-bubbles"])):
            p.check("infsup_s", f"infsup --problem 1 {' '.join(extra)}".strip(),
                    lambda extra=extra: _run_cli(["infsup", "--problem", "1",
                                                  "--nodes", self.NODES] + extra, out),
                    _check_infsup(variant))
        for k in (1, 2):
            ref = EXPECTED["operators65"][str(k)]
            space = p.timed("assemble65_s", lambda k=k: spaces.MixedSpace(
                mesh.build_structured_mesh(65), problem=k))
            operators = (
                (("E2", "R"), lambda: forms.elastic_parts(space)),
                (("S",), lambda: (forms.assemble_divdiv(space),)),
                (("B",), lambda: (forms.assemble_coupling(space),)),
                (("F",), lambda: (forms.assemble_load(space, analysis.manufactured_load),)),
                (("K_V",), lambda: (forms.assemble_h1_gram(space),)),
                (("M_p",), lambda: (forms.assemble_pressure_mass(space),)),
            )
            for names, call in operators:
                p.check("assemble65_s", f"65x65 p{k} {'/'.join(names)}",
                        lambda call=call, names=names: dict(zip(names, call())),
                        _check_operators(ref))
        return p


WORKLOADS = {w.name: w for w in (StabilityTable, Verdict33, Refine)}
