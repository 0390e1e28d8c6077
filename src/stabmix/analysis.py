"""Stability and convergence studies for the stabilized mixed method.

The displacement block of the stabilized problem at load factor gamma is

    A(w, v) = 2*mu*int eps(w):eps(v) - gamma*int r (grad w)^T : grad v
              + M * int div w div v,          M = m1*|gt| + m2*gt^2,

with the nondimensional load gt = gamma*L/mu (L = 1 here).  The method is
stable at gt exactly when the constrained block is positive definite.  In
either loading direction, with s = |gt|, the block is a quadratic
A(s) = K0 + s*Kd + s^2*K2 whose K2 = m2*S is positive semidefinite, so A is
convex in the Loewner order: A(s) >= A(a) + (s - a)*A'(a) for s >= a (an
overdamped-type quadratic pencil; Tisseur & Meerbergen, "The quadratic
eigenvalue problem", SIAM Rev. 43, 2001).  The critical loads are found by
tangent steps outward from gt = 0.  A step from a to b is proved by one
LDL^T positive-definiteness test of the tangent A(a) + (b - a)*A'(a): a
linear pencil positive definite at both ends is positive definite between
them, so A is positive definite on all of [a, b].  An eigen-solve of the
tangent pencil only proposes the step length, so its tolerance cannot make
a verdict wrong.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import forms
from .mesh import build_structured_mesh
from .solvers import (SaddleSystem, ldlt_factor, positive_definite_factor,
                      smallest_eigenvalue, solve_saddle)
from .spaces import MixedSpace

# inf-sup eigenvalues below KERNEL_RTOL * INFSUP_BOUND are kernel modes; none
# exceeds the bound: (int q div v)^2 <= 2 |q|^2 |grad v|^2 <= 2 |q|^2 |v|_H1^2
KERNEL_RTOL, INFSUP_BOUND = 1e-10, 2.0
INFSUP_SHIFT = -1e-5  # Lanczos shift below the spectrum [0, 2], near its bottom


@dataclass(frozen=True)
class ProblemConfig:
    """One model-problem instance plus detection parameters.

    m2 defaults by problem id (0 for the clamped problem 1, 1.36 for the
    normal-constrained problem 2); the remaining defaults are the
    reference values used throughout: mu = 40, m1 = 320, unit load
    increment, critical loads resolved to bisect_tol = 0.01, and the 1e6
    unbounded-load cutoff.
    """

    problem: int = 1
    n: int = 17
    mu: float = 40.0
    gamma_tilde: float = 0.0
    m1: float = 320.0
    m2: float | None = None
    delta_gamma: float = 1.0
    bisect_tol: float = 0.01
    gamma_cap: float = 1e6

    def __post_init__(self):
        if self.problem not in (1, 2):
            raise ValueError(f"unknown problem id {self.problem!r}; expected 1 or 2")
        if self.n < 2:
            raise ValueError(f"mesh resolution must be >= 2, got {self.n}")
        if self.m2 is None:
            object.__setattr__(self, "m2", 0.0 if self.problem == 1 else 1.36)
        for name in ("mu", "gamma_tilde", "m1", "m2", "delta_gamma",
                     "bisect_tol", "gamma_cap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("stabilization coefficients must be nonnegative")
        if self.bisect_tol <= 0 or self.gamma_cap <= 0:
            raise ValueError("bisect_tol and gamma_cap must be positive")

    def gamma(self, gamma_tilde: float | None = None) -> float:
        """Dimensional load gamma = mu * gt (characteristic length 1)."""
        gt = self.gamma_tilde if gamma_tilde is None else gamma_tilde
        return self.mu * gt


# StabilityReport.trace entries, in signed loads: a step proved positive
# definite, and the confirming eigenvalue just past a finite critical load
CertifiedStep = namedtuple("CertifiedStep", "lo hi")
Crossing = namedtuple("Crossing", "load lam")


@dataclass(frozen=True)
class StabilityReport:
    """Critical loads of one mesh, with the certificate that proves them."""

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


def compute_M0(constants: AbstractConstants) -> float:
    """Sufficient stabilization weight (alpha/2 + c2 + 2*c1^2/alpha) / beta^2."""
    a, b, c1, c2 = constants.alpha, constants.beta, constants.c1, constants.c2
    return (0.5 * a + c2 + 2.0 * c1 * c1 / a) / (b * b)


class _StabilityOperator:
    """Reduced operators of one mesh as A(s) = K0 + s*Kd[sign] + s^2*K2 in
    the loading direction sign, s = |gt|: K0 = mu*E2, Kd = -sign*mu*R + m1*S
    and K2 = m2*S."""

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.space = MixedSpace(build_structured_mesh(cfg.n), problem=cfg.problem)
        E2, R = forms.elastic_parts(self.space)
        S = forms.assemble_divdiv(self.space)
        self.K0 = cfg.mu * E2
        self.Kd = {sign: -sign * cfg.mu * R + cfg.m1 * S for sign in (1.0, -1.0)}
        self.K2 = cfg.m2 * S

    def matrix(self, gamma_tilde: float):
        sign, s = math.copysign(1.0, gamma_tilde), abs(gamma_tilde)
        return (self.K0 + s * self.Kd[sign] + s * s * self.K2).tocsr()


def is_stable(cfg: ProblemConfig):
    """Smallest eigenvalue of the stabilized block at cfg.gamma_tilde.

    Returns (lambda_min, verdict) with verdict True iff lambda_min > 0.
    """
    lam = smallest_eigenvalue(_StabilityOperator(cfg).matrix(cfg.gamma_tilde))
    return lam, lam > 0.0


def _certified_limit(op: _StabilityOperator, sign: float, trace: list) -> float:
    """Certified end of the stable interval from gt = 0 in one direction.

    The largest eigenvalue theta of -A'(a) x = theta A(a) x puts the
    tangent's singular point at a + 1/theta; the step 0.999/theta (to the
    cap if theta <= 0) is halved until the tangent passes the test.  After
    a step of at most bisect_tol, a failed test at a + bisect_tol ends the
    search at a, once smallest_eigenvalue confirms lambda < 0 there.
    """
    tol, cap = op.cfg.bisect_tol, op.cfg.gamma_cap
    a = 0.0
    while a < cap:
        A, dA = op.matrix(sign * a), op.Kd[sign] + 2.0 * a * op.K2
        lu = positive_definite_factor(A)
        if lu is None:  # at a > 0 the previous step proved the contrary
            raise ArithmeticError(f"not positive definite at gamma_tilde={sign * a:g}")
        minv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
        theta = float(spla.eigsh(-dA, k=1, M=A, Minv=minv, which="LA", tol=1e-3,
                                 v0=np.ones(A.shape[0]),
                                 return_eigenvectors=False)[0])
        # freed before the next factorizations: factors alive across them
        # fragmented the heap, raising the tables' peak RSS by about 12 MB
        del lu, minv
        t = cap - a if theta <= 0.0 else min(0.999 / theta, cap - a)
        while positive_definite_factor(A + t * dA) is None:
            t *= 0.5
        trace.append(CertifiedStep(sign * a, sign * min(a + t, cap)))
        a = min(a + t, cap)
        end = sign * min(a + tol, cap)
        if t <= tol and a < cap and positive_definite_factor(op.matrix(end)) is None:
            lam = smallest_eigenvalue(op.matrix(end))
            trace.append(Crossing(end, lam))
            if not lam < 0.0:
                raise ArithmeticError(f"not positive definite at gamma_tilde = {end:g}"
                                      f" but lambda_min = {lam:.6e} is not negative")
            return sign * a
    return sign * math.inf


def find_stability_limits(cfg: ProblemConfig) -> StabilityReport:
    """Critical loads of the stabilized block on one mesh: per direction,
    the certified end of the stable interval from gt = 0, within bisect_tol
    below the first crossing, or +-inf if certified up to the cap.  The
    trace holds the proof."""
    op = _StabilityOperator(cfg)
    trace = []
    gamma_M, gamma_m = (_certified_limit(op, sign, trace) for sign in (1.0, -1.0))
    return StabilityReport(problem=cfg.problem, n=cfg.n, gamma_m=gamma_m,
                           gamma_M=gamma_M, trace=tuple(trace))


def estimate_inf_sup(space: MixedSpace) -> float:
    """Discrete inf-sup constant of the pair on this mesh.

    beta1^2 is the smallest eigenvalue of S p = lambda M_p p, S = B K_V^{-1} B^T,
    above the kernel of B^T (spurious pressure modes of the control pair).  The
    pressure part of [[K_V, B^T], [B, sigma M_p]]^{-1} (0, r) is
    -(S - sigma M_p)^{-1} r, so shift-invert Lanczos about sigma = INFSUP_SHIFT
    from a fixed start vector gives the k smallest eigenvalues without forming
    S; k doubles until one clears the kernel.  Once k reaches n_p - 1, beyond
    ARPACK, the same solve is applied to the identity.
    """
    B = forms.assemble_coupling(space)
    Mp = forms.assemble_pressure_mass(space)
    n_p, n_u = B.shape
    sigma = INFSUP_SHIFT
    # quasi-definite (K_V, -sigma M_p SPD): LDL^T exists in any symmetric order
    lu = ldlt_factor(sp.bmat([[forms.assemble_h1_gram(space), B.T], [B, sigma * Mp]]))

    def shifted_solve(r):  # (S - sigma M_p)^{-1} r, r a vector or a block
        rhs = np.zeros((n_u + n_p,) + r.shape[1:])
        rhs[n_u:] = r
        return -lu.solve(rhs)[n_u:]

    def not_applied(x):  # shift-invert mode applies only OPinv and M, never S
        raise NotImplementedError("S is applied only through its shifted inverse")

    schur = spla.LinearOperator((n_p, n_p), matvec=not_applied, dtype=float)
    opinv = spla.LinearOperator((n_p, n_p), matvec=shifted_solve, dtype=float)
    k = 2
    while k < n_p - 1:
        w = spla.eigsh(schur, k=k, M=Mp, sigma=sigma, OPinv=opinv,
                       v0=np.ones(n_p), return_eigenvectors=False)
        if w.max() >= KERNEL_RTOL * INFSUP_BOUND:
            break
        k *= 2
    else:
        # nu = 1/(lambda - sigma) are the eigenvalues of L^T (S - sigma M_p)^{-1} L
        L = np.linalg.cholesky(Mp @ np.eye(n_p))
        w = sigma + 1.0 / np.linalg.eigvalsh(L.T @ shifted_solve(np.eye(n_p)) @ L)
    above = w[w >= KERNEL_RTOL * INFSUP_BOUND]
    return float(math.sqrt(above.min())) if above.size else 0.0


def manufactured_load(x, y):
    """Body force whose exact response is zero displacement."""
    ex = np.exp(x)
    return np.stack([-ex * (1.0 - y), ex], axis=-1)


def manufactured_pressure(x, y):
    """Exact pressure of the manufactured problem, per unit load increment."""
    return np.exp(x) * (1.0 - y)


def compute_errors(space: MixedSpace, w_h, p_h, exact_pressure):
    """L2 pressure error and H1 displacement error of the manufactured
    problem, whose exact displacement is zero.

    exact_pressure (x, y) -> (...,) must be vectorized; the pressure error
    is integrated element by element with the high-degree rule of the load
    vectors.  The displacement error is sqrt(w^T K_V w) with the H1 Gram
    matrix K_V, which integrates the discrete field exactly.
    """
    rule, vals, _ = forms._reference_table(space, forms.LOAD_QUAD_DEGREE)
    p, det, _ = forms._element_geometry(space)
    xy = rule.points @ p
    ph = np.asarray(p_h)[space.mesh.triangles] @ vals[:3]
    p_ex = np.asarray(exact_pressure(xy[..., 0], xy[..., 1]), dtype=float)
    err_p2 = np.einsum("q,eq,e->", rule.weights, (p_ex - ph) ** 2, det)
    w = np.asarray(w_h, dtype=float)
    err_w2 = w @ (forms.assemble_h1_gram(space) @ w)
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
        A = op.matrix(c.gamma_tilde)
        lam = smallest_eigenvalue(A)
        if lam <= 0.0:
            raise ValueError(
                f"stabilized block is not positive definite on the {n}x{n} "
                f"mesh at gamma_tilde = {c.gamma_tilde} "
                f"(lambda_min = {lam:.6e}); refusing to run convergence")
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
