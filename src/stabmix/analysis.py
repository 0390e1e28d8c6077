"""Stability and convergence studies for the stabilized mixed method.

The displacement block of the stabilized problem at load factor gamma is

    A(w, v) = 2*mu*int eps(w):eps(v) - gamma*int r (grad w)^T : grad v
              + M * int div w div v,          M = m1*|gt| + m2*gt^2,

with the nondimensional load gt = gamma*L/mu (L = 1 here).  The method is
stable at gt exactly when the smallest eigenvalue of the constrained
block is positive; the critical loads are located by an outward scan
from gt = 0 in both directions followed by bisection.  A scan that keeps
stepping linearly to the unbounded-load cutoff of 1e6 would take millions
of eigenvalue probes, so beyond ``LINEAR_SPAN`` the probe spacing doubles;
bisection restores the requested resolution whenever a sign change is
found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import forms
from .mesh import build_structured_mesh
from .solvers import SaddleSystem, smallest_eigenvalue, solve_saddle
from .spaces import MixedSpace

# load magnitude up to which the scan steps linearly before doubling
LINEAR_SPAN = 8.0
# inf-sup eigenvalues below this fraction of the largest are kernel modes
KERNEL_RTOL = 1e-10


@dataclass(frozen=True)
class ProblemConfig:
    """One model-problem instance plus detection parameters.

    m2 defaults by problem id (0 for the clamped problem 1, 1.36 for the
    normal-constrained problem 2); the remaining defaults are the
    reference values used throughout: mu = 40, m1 = 320, unit load
    increment, quarter-step scan with two-decimal bisection, and the 1e6
    unbounded-load cutoff.
    """

    problem: int = 1
    n: int = 17
    mu: float = 40.0
    gamma_tilde: float = 0.0
    m1: float = 320.0
    m2: float | None = None
    delta_gamma: float = 1.0
    scan_step: float = 0.25
    bisect_tol: float = 0.01
    gamma_cap: float = 1e6

    def __post_init__(self):
        if self.problem not in (1, 2):
            raise ValueError(f"unknown problem id {self.problem!r}; expected 1 or 2")
        if self.n < 2:
            raise ValueError(f"mesh resolution must be >= 2, got {self.n}")
        if self.m2 is None:
            object.__setattr__(self, "m2", 0.0 if self.problem == 1 else 1.36)
        for name in ("mu", "gamma_tilde", "m1", "m2", "delta_gamma", "scan_step",
                     "bisect_tol", "gamma_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("stabilization coefficients must be nonnegative")
        if self.scan_step <= 0 or self.bisect_tol <= 0 or self.gamma_cap <= 0:
            raise ValueError("scan_step, bisect_tol and gamma_cap must be positive")

    def gamma(self, gamma_tilde: float | None = None) -> float:
        """Dimensional load gamma = mu * gt (characteristic length 1)."""
        gt = self.gamma_tilde if gamma_tilde is None else gamma_tilde
        return self.mu * gt


@dataclass(frozen=True)
class StabilityReport:
    """Critical loads of one mesh, with the probed eigenvalue trace."""

    problem: int
    n: int
    gamma_m: float
    gamma_M: float
    trace: tuple = ()

    def __post_init__(self):
        if not (self.gamma_m <= 0.0 <= self.gamma_M):
            raise ValueError("critical loads must bracket zero")


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    err_p_L2: float
    err_w_H1: float
    order: float | None


@dataclass(frozen=True)
class ConvergenceTable:
    problem: int
    gamma_tilde: float
    rows: tuple


@dataclass(frozen=True)
class AbstractConstants:
    """Constants of the abstract stability framework.

    alpha: kernel coercivity, beta: continuous inf-sup, c1/c2: continuity
    bounds of the unstabilized form.
    """

    alpha: float
    beta: float
    c1: float
    c2: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.c1 <= 0:
            raise ValueError("alpha, beta and c1 must be positive")
        if self.c2 < 0:
            raise ValueError("c2 must be nonnegative")


def stabilization_parameter(cfg: ProblemConfig,
                            gamma_tilde: float | None = None) -> float:
    """Load-dependent div-div weight M = m1*|gt| + m2*gt^2."""
    gt = cfg.gamma_tilde if gamma_tilde is None else gamma_tilde
    return cfg.m1 * abs(gt) + cfg.m2 * gt * gt


def compute_M0(constants: AbstractConstants) -> float:
    """Sufficient stabilization weight (alpha/2 + c2 + 2*c1^2/alpha) / beta^2."""
    a, b, c1, c2 = constants.alpha, constants.beta, constants.c1, constants.c2
    return (0.5 * a + c2 + 2.0 * c1 * c1 / a) / (b * b)


class _StabilityOperator:
    """Reduced operators of one mesh, reusable across load probes."""

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.space = MixedSpace(build_structured_mesh(cfg.n), problem=cfg.problem)
        self.E2, self.R = forms.elastic_parts(self.space)
        self.S = forms.assemble_divdiv(self.space)

    def matrix(self, gamma_tilde: float):
        cfg = self.cfg
        A = cfg.mu * self.E2 - cfg.gamma(gamma_tilde) * self.R
        M = stabilization_parameter(cfg, gamma_tilde)
        if M != 0.0:
            A = A + M * self.S
        return A.tocsr()

    def lambda_min(self, gamma_tilde: float) -> float:
        return smallest_eigenvalue(self.matrix(gamma_tilde))


def is_stable(cfg: ProblemConfig):
    """Smallest eigenvalue of the stabilized block at cfg.gamma_tilde.

    Returns (lambda_min, verdict) with verdict True iff lambda_min > 0.
    """
    lam = _StabilityOperator(cfg).lambda_min(cfg.gamma_tilde)
    return lam, lam > 0.0


def _probe_magnitudes(cfg: ProblemConfig):
    """Outward probe magnitudes: linear steps, then doubling, then the cap;
    none lies beyond the cap."""
    span = min(LINEAR_SPAN, cfg.gamma_cap)
    # whole steps within the span, forgiving the rounding of an exact quotient
    k = math.floor(span / cfg.scan_step * (1.0 + 1e-12))
    probes = [min(cfg.scan_step * i, span) for i in range(1, k + 1)]
    t = probes[-1] if probes else cfg.scan_step
    while t * 2.0 < cfg.gamma_cap:
        t *= 2.0
        probes.append(t)
    if not probes or probes[-1] < cfg.gamma_cap:
        probes.append(cfg.gamma_cap)
    return probes


def find_stability_limits(cfg: ProblemConfig) -> StabilityReport:
    """Critical loads of the stabilized block on one mesh.

    Scans outward from gt = 0 in both loading directions; the first probe
    with a nonpositive smallest eigenvalue brackets the critical load and
    bisection refines it to bisect_tol.  Directions that stay stable all
    the way to the cap are reported as unbounded (+-inf).
    """
    op = _StabilityOperator(cfg)
    trace = []

    def probe(gt):
        lam = op.lambda_min(gt)
        trace.append((gt, lam))
        return lam

    lam0 = probe(0.0)
    if lam0 <= 0.0:
        raise ValueError(
            f"baseline is unstable: lambda_min = {lam0:.6e} at gamma_tilde = 0")

    def scan(sign):
        prev = 0.0
        for t in _probe_magnitudes(cfg):
            if probe(sign * t) <= 0.0:
                lo, hi = prev, t
                while hi - lo > cfg.bisect_tol:
                    mid = 0.5 * (lo + hi)
                    if probe(sign * mid) <= 0.0:
                        hi = mid
                    else:
                        lo = mid
                return sign * 0.5 * (lo + hi)
            prev = t
        return sign * math.inf

    gamma_M = scan(+1.0)
    gamma_m = scan(-1.0)
    return StabilityReport(problem=cfg.problem, n=cfg.n, gamma_m=gamma_m,
                           gamma_M=gamma_M, trace=tuple(trace))


def estimate_inf_sup(space: MixedSpace) -> float:
    """Discrete inf-sup constant of the pair on this mesh.

    beta1 is the square root of the smallest eigenvalue of the pressure
    Schur complement B K_V^{-1} B^T in the pressure-mass metric, skipping
    the numerical kernel of B^T (eigenvalues below KERNEL_RTOL times the
    largest).  The intended displacement/pressure pair has no kernel
    here; the bubble-stripped control pair carries a small exact one made
    of its spurious pressure modes, and the constant reported for it then
    measures the non-spurious remainder.
    """
    B = forms.assemble_coupling(space)
    KV = forms.assemble_h1_gram(space)
    Mp = forms.assemble_pressure_mass(space)
    try:
        lu = spla.splu(KV.tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as err:
        raise ValueError(
            f"displacement Gram matrix is singular; constraints of problem "
            f"{space.problem} leave the space degenerate: {err}") from err
    X = lu.solve(B.toarray().T)
    schur = B @ X
    schur = 0.5 * (schur + schur.T)
    w = sla.eigh(schur, Mp.toarray(), eigvals_only=True, check_finite=False)
    n_kernel = int(np.sum(w < KERNEL_RTOL * max(w[-1], 1e-300)))
    if n_kernel >= len(w):
        return 0.0
    return float(math.sqrt(max(w[n_kernel], 0.0)))


def manufactured_load(x, y):
    """Body force whose exact response is zero displacement."""
    ex = np.exp(x)
    return np.stack([-ex * (1.0 - y), ex], axis=-1)


def manufactured_pressure(x, y):
    """Exact pressure of the manufactured problem, per unit load increment."""
    return np.exp(x) * (1.0 - y)


def compute_errors(space: MixedSpace, w_h, p_h, exact_pressure,
                   exact_displacement=None, exact_displacement_grad=None):
    """L2 pressure error and H1 displacement error against exact fields.

    Exact callables must be vectorized: pressure (x, y) -> (...,),
    displacement (x, y) -> (..., 2) and its gradient (x, y) -> (..., 2, 2)
    with [c, i] = d_i w_c; omitted displacement fields default to zero.
    Everything is integrated element by element with the high-degree
    rule of the load vectors.
    """
    rule, vals, ref_grads = forms._reference_table(space, forms.LOAD_QUAD_DEGREE)
    p, det, invJT = forms._element_geometry(space)
    xy = rule.points @ p
    x, y = xy[..., 0], xy[..., 1]
    w = rule.weights

    full_w = np.zeros(space.n_u)
    full_w[space.free_dofs] = np.asarray(w_h, dtype=float)
    wloc = full_w[space.elem_dofs].reshape(-1, space.local_basis_size, 2)

    uh = np.einsum("aq,eac->eqc", vals, wloc, optimize=True)
    # d_i w_c = sum_(a, m) (d_m phi_a) * w_ac invJT[i, m]: one matmul over (a, m)
    wmap = np.einsum("eac,eim->eamci", wloc, invJT)
    guh = np.einsum("aqm,eamci->eqci", ref_grads, wmap, optimize=True)
    ph = np.asarray(p_h)[space.mesh.triangles] @ vals[:3]

    p_ex = np.asarray(exact_pressure(x, y), dtype=float)
    u_ex = (0.0 if exact_displacement is None
            else np.asarray(exact_displacement(x, y), dtype=float))
    gu_ex = (0.0 if exact_displacement_grad is None
             else np.asarray(exact_displacement_grad(x, y), dtype=float))

    err_p2 = np.einsum("q,eq,e->", w, (p_ex - ph) ** 2, det)
    du = u_ex - uh
    dg = gu_ex - guh
    err_w2 = np.einsum("q,eqc,e->", w, du ** 2, det) \
        + np.einsum("q,eqci,e->", w, dg ** 2, det)
    return float(math.sqrt(max(err_p2, 0.0))), float(math.sqrt(max(err_w2, 0.0)))


def _vertex_part(space: MixedSpace, w_free):
    """Zero the bubble coefficients of a free-dof displacement vector."""
    full = np.zeros(space.n_u)
    full[space.free_dofs] = np.asarray(w_free, dtype=float)
    full[2 * space.mesh.n_nodes:] = 0.0
    return full[space.free_dofs]


def run_convergence(cfg: ProblemConfig, meshes) -> ConvergenceTable:
    """Manufactured-solution study across a mesh family.

    Solves the stabilized system at cfg.gamma_tilde on each mesh, checks
    stability first (refusing with a diagnostic if the block is not
    positive definite), and reports pressure/displacement errors with the
    observed pressure order under mesh halving.

    The displacement error is measured on the vertex (conforming P1) part
    of the field; the element bubbles are interior enrichment whose
    gradients would otherwise dominate a norm of a quantity that is zero
    for the exact solution.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("mesh list must not be empty")
    rows = []
    prev_err = None
    for n in meshes:
        c = replace(cfg, n=n)
        op = _StabilityOperator(c)
        lam = op.lambda_min(c.gamma_tilde)
        if lam <= 0.0:
            raise ValueError(
                f"stabilized block is not positive definite on the {n}x{n} "
                f"mesh at gamma_tilde = {c.gamma_tilde} "
                f"(lambda_min = {lam:.6e}); refusing to run convergence")
        A = op.matrix(c.gamma_tilde)
        B = forms.assemble_coupling(op.space)
        F = forms.assemble_load(op.space, manufactured_load, scale=c.delta_gamma)
        w_h, p_h = solve_saddle(SaddleSystem(
            A_total=A, B=B, rhs_u=F, rhs_p=np.zeros(op.space.n_p)))
        err_p, err_w = compute_errors(
            op.space, _vertex_part(op.space, w_h), p_h,
            exact_pressure=lambda x, y: c.delta_gamma * manufactured_pressure(x, y))
        order = None if prev_err is None else math.log2(prev_err / err_p)
        rows.append(ConvergenceRow(n=n, err_p_L2=err_p, err_w_H1=err_w, order=order))
        prev_err = err_p
    return ConvergenceTable(problem=cfg.problem, gamma_tilde=cfg.gamma_tilde,
                            rows=tuple(rows))
