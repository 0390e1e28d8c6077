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
tangent steps outward from gt = 0.  One LDL^T positive-definiteness test of
the tangent A(a) + (b - a)*A'(a) proves A > 0 on [a, b], as a linear pencil
positive definite at both ends is so between them; with A(a) > 0, one of
A'(a) proves A > 0 on the whole ray [a, inf).  Each such test condenses the
MINI bubbles out, element by element: A > 0 iff every 2x2 bubble block and the
vertex Schur complement, a third of the size, are (Haynsworth's inertia
additivity, Linear Algebra Appl. 1, 1968).  Eigen-solves and grown steps only
propose step lengths, so their tolerances cannot make a verdict wrong; a
Lanczos proposal that needs more than LANCZOS_RESTARTS restarts is the cap.
"""

from __future__ import annotations

import functools
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
# critical loads are resolved to BISECT_TOL and unbounded beyond GAMMA_CAP.  At
# BISECT_TOL <= 1e-11 the search was measured to stop with "not positive definite",
# and at <= 1e-12 to differ between processes: re-measure before lowering it
BISECT_TOL, GAMMA_CAP = 0.01, 1e6
GROW = 1.3  # LDL^T tests, problem 2 negative, 9-33 nodes: 163 (1.1: 201, 2.0: 259)
LANCZOS_RESTARTS = 10  # ARPACK restarts of a step proposal; finite crossings took <= 5


@dataclass(frozen=True)
class ProblemConfig:
    """One model-problem instance.

    m2 defaults by problem id (0 for the clamped problem 1, 1.36 for the
    normal-constrained problem 2); the remaining defaults are the
    reference values used throughout: mu = 40, m1 = 320 and a unit load
    increment.  The critical-load resolution and load cap are the module
    constants BISECT_TOL and GAMMA_CAP.
    """

    problem: int = 1
    n: int = 17
    mu: float = 40.0
    gamma_tilde: float = 0.0
    m1: float = 320.0
    m2: float | None = None
    delta_gamma: float = 1.0

    def __post_init__(self):
        if self.problem not in (1, 2):
            raise ValueError(f"unknown problem id {self.problem!r}; expected 1 or 2")
        if self.n < 2:
            raise ValueError(f"mesh resolution must be >= 2, got {self.n}")
        if self.m2 is None:
            object.__setattr__(self, "m2", 0.0 if self.problem == 1 else 1.36)
        for name in ("mu", "gamma_tilde", "m1", "m2", "delta_gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mu <= 0:
            raise ValueError(f"shear modulus must be positive, got {self.mu}")
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError("stabilization coefficients must be nonnegative")

    def gamma(self) -> float:
        """Dimensional load gamma = mu * gamma_tilde (characteristic length 1)."""
        return self.mu * self.gamma_tilde


# StabilityReport.trace entries, in signed loads: a step proved positive definite
# (hi = +-inf: a ray proof), and the confirming eigenvalue past a finite crossing
CertifiedStep = namedtuple("CertifiedStep", "lo hi")
Crossing = namedtuple("Crossing", "load lam")


@dataclass(frozen=True)
class StabilityReport:
    """Critical loads of one mesh and the trace that proves them.  A load is
    within BISECT_TOL below the first crossing, or +-inf: stable up to
    GAMMA_CAP, or at every load where the trace ends in a ray proof."""

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
    """Reduced operators of one mesh as data over the CSR pattern they share,
    explicit zeros included: K0 = mu*E2, the load stiffness R and the
    div-div matrix S.  In the loading direction sign, s = |gt|, the block is
    A(s) = K0 + s*Kd + s^2*K2 with (Kd, K2) = parts(sign)."""

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.space = MixedSpace(build_structured_mesh(cfg.n), problem=cfg.problem)
        self.plan = self.space.scatter_plan("uu")
        E2, R = forms.elastic_parts(self.space)
        self.K0, self.R = cfg.mu * E2.data, R.data
        self.S = forms.assemble_divdiv(self.space).data

    def parts(self, sign: float):
        """(Kd, K2) = (-sign*mu*R + m1*S, m2*S): M = m1*s + m2*s^2 of cfg."""
        cfg = self.cfg
        return -sign * cfg.mu * self.R + cfg.m1 * self.S, cfg.m2 * self.S

    def csr(self, data) -> sp.csr_matrix:
        """The operator of data over the plan's shared arrays: never modify it."""
        return sp.csr_matrix((data, self.plan.indices, self.plan.indptr),
                             shape=self.plan.shape)

    def matrix(self, gamma_tilde: float) -> sp.csr_matrix:
        """The block, summed as sparse matrices, which prunes its exact zeros;
        pruning the summed data instead raised the refine peak RSS by 5 MB."""
        sign, s = math.copysign(1.0, gamma_tilde), abs(gamma_tilde)
        Kd, K2 = (self.csr(d) for d in self.parts(sign))
        return (self.csr(self.K0) + s * Kd + s * s * K2).tocsr()

    @functools.cached_property
    def _condensation(self):
        """Slots of B_e, C_e and C_e^T B_e^-1 C_e, and the slots and pattern of the
        block of the free vertex dofs, numbered first; a fixed vertex takes data
        slot nnz, read as zero, and block slot nvv."""
        plan, nt = self.plan, self.space.mesh.n_triangles
        nvf = int(np.searchsorted(self.space.free_dofs, 2 * self.space.mesh.n_nodes))
        pos = plan.pos.reshape(nt, 4, 4, 2, 2)  # [e, a, b, c, d], bubble a = 3
        vv = np.flatnonzero(plan.indices[:plan.indptr[nvf]] < nvf)
        to_vv = np.full(len(plan.indices) + 1, len(vv))
        to_vv[vv] = np.arange(len(vv))
        upd = to_vv[pos[:, :3, :3].transpose(0, 1, 3, 2, 4).reshape(nt, 6, 6)]
        return (pos[:, 3, 3], pos[:, 3, :3].transpose(0, 2, 1, 3).reshape(nt, 2, 6),
                upd, vv, plan.indices[vv], np.searchsorted(vv, plan.indptr[:nvf + 1]))

    def positive_definite(self, data):
        """positive_definite_factor of the vertex Schur complement A_vv - sum_e
        C_e^T B_e^-1 C_e of block data, or None: A > 0 iff it and every bubble
        block B_e are.  A B_e that is not positive definite returns None unfactored."""
        bb, bv, upd, vv, indices, indptr = self._condensation
        ext = np.append(data, 0.0)
        B, C = ext[bb], ext[bv]
        det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
        if not (np.all(B[:, 0, 0] > 0.0) and np.all(det > 0.0)):
            return None
        Binv = np.stack([B[:, 1, 1], -B[:, 0, 1], -B[:, 1, 0], B[:, 0, 0]], axis=-1)
        U = C.transpose(0, 2, 1) @ ((Binv / det[:, None]).reshape(-1, 2, 2) @ C)
        schur = data[vv] - np.bincount(upd.ravel(), weights=U.ravel(),
                                       minlength=len(vv) + 1)[:len(vv)]
        return positive_definite_factor(
            sp.csr_matrix((schur, indices, indptr), shape=(len(indptr) - 1,) * 2))


def is_stable(cfg: ProblemConfig):
    """Smallest eigenvalue of the stabilized block at cfg.gamma_tilde.

    Returns (lambda_min, verdict) with verdict True iff lambda_min > 0.
    """
    lam = smallest_eigenvalue(_StabilityOperator(cfg).matrix(cfg.gamma_tilde))
    return lam, lam > 0.0


def _certified_limit(op: _StabilityOperator, sign: float, trace: list) -> float:
    """Certified end of the stable interval from gt = 0 in one direction.

    After a step t with m2 > 0, GROW*t and then half that are tried by their
    tangent test alone.  Failing both, a ray test returns sign*inf if A'(a) > 0;
    else the largest eigenvalue theta of -A'(a) x = theta A(a) x proposes
    0.999/theta (the cap if theta <= 0 or Lanczos does not converge within
    LANCZOS_RESTARTS restarts), halved until the tangent passes.  After a step
    of at most BISECT_TOL, a failed test at a + BISECT_TOL ends the search at
    a, once smallest_eigenvalue confirms lambda < 0 there.  A step that does
    not advance a in floating point raises ArithmeticError.
    """
    tol, cap = BISECT_TOL, GAMMA_CAP
    Kd, K2 = op.parts(sign)
    a = last = 0.0
    while a < cap:
        A, dA = op.K0 + a * Kd + a * a * K2, Kd + 2.0 * a * K2  # A(a), A'(a)
        # the last step proved A(a) > 0.  With m2 = 0, A is its own tangent
        # and the last Lanczos step aimed at its singular point: grow no step
        grown = min(GROW * last, cap - a) if op.cfg.m2 > 0 else 0.0
        t = next((t for t in (grown, 0.5 * grown) if a + t > a
                  and op.positive_definite(A + t * dA) is not None), None)
        if t is None:  # ray test (with m2 = 0 at a = 0 only), then a Lanczos step
            ray = (a == 0 or op.cfg.m2 > 0) and op.positive_definite(dA) is not None
            lu = positive_definite_factor(A_csr := op.matrix(sign * a))
            if lu is None:  # at a > 0 the previous step proved the contrary
                raise ArithmeticError(f"not positive definite at gamma_tilde = "
                                      f"{sign * a!r} (bisect_tol = {tol:g})")
            if ray:  # A(s) >= A(a) + (s - a)*A'(a) > 0 for every s >= a
                trace.append(CertifiedStep(sign * a, sign * math.inf))
                return sign * math.inf
            minv = spla.LinearOperator(A_csr.shape, matvec=lu.solve, dtype=float)
            try:
                theta = float(spla.eigsh(
                    -op.csr(dA), k=1, M=A_csr, Minv=minv, which="LA", tol=1e-3,
                    maxiter=LANCZOS_RESTARTS, v0=np.ones(A_csr.shape[0]),
                    return_eigenvectors=False)[0])
            except spla.ArpackNoConvergence:
                theta = 0.0  # no proposal: the cap, halved
            # freed before the next factorizations: factors alive across them
            # fragmented the heap, raising the tables' peak RSS by about 12 MB
            del lu, minv, A_csr
            t = cap - a if theta <= 0.0 else min(0.999 / theta, cap - a)
            while a + t > a and op.positive_definite(A + t * dA) is None:
                t *= 0.5
            if not a + t > a:  # theta NaN, or t below the resolution of a
                raise ArithmeticError(f"no step advances gamma_tilde = {sign * a!r} "
                                      f"(step {t!r}, bisect_tol = {tol:g})")
        trace.append(CertifiedStep(sign * a, sign * min(a + t, cap)))
        a, last = min(a + t, cap), t
        end = sign * min(a + tol, cap)
        if (t <= tol and a < cap and op.positive_definite(
                op.K0 + abs(end) * Kd + end * end * K2) is None):
            lam = smallest_eigenvalue(op.matrix(end))
            trace.append(Crossing(end, lam))
            if not lam < 0.0:
                raise ArithmeticError(f"not positive definite at gamma_tilde = {end:g}"
                                      f" but lambda_min = {lam:.6e} is not negative")
            return sign * a
    return sign * math.inf


def find_stability_limits(cfg: ProblemConfig) -> StabilityReport:
    """Critical loads of the stabilized block on one mesh, per direction the
    certified end of the stable interval from gt = 0 (see StabilityReport)."""
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

    exact_pressure (x, y) -> (...,) must be vectorized; the pressure error is
    integrated with the high-degree rule of the load vectors, one point at a
    time as in assemble_load.  The displacement error is sqrt(w^T K_V w) with
    the H1 Gram matrix K_V, which integrates the discrete field exactly.
    """
    rule, vals, _ = forms._reference_table(space, forms.LOAD_QUAD_DEGREE)
    p, det, _ = forms._element_geometry(space)
    ph, err_p2 = np.asarray(p_h)[space.mesh.triangles], 0.0
    for point, wq, v in zip(rule.points, rule.weights, vals[:3].T):
        xy = np.tensordot(point, p, axes=(0, 1))
        err = np.subtract(exact_pressure(xy[:, 0], xy[:, 1]), ph @ v)
        err_p2 += wq * (err ** 2 @ det)
    w = np.asarray(w_h, dtype=float)
    err_w2 = w @ (forms.assemble_h1_gram(space) @ w)
    return float(math.sqrt(max(err_p2, 0.0))), float(math.sqrt(max(err_w2, 0.0)))


def run_convergence(cfg: ProblemConfig, meshes) -> ConvergenceTable:
    """Manufactured-solution study across a mesh family.

    Solves the stabilized system at cfg.gamma_tilde on each mesh, checks
    stability first (refusing with a diagnostic if the block is not
    positive definite), and reports pressure/displacement errors with the
    observed pressure order log(e_prev/e) / log(h_prev/h), h = 2/(n - 1).

    The displacement error is measured on the vertex (conforming P1) part
    of the field; the element bubbles are interior enrichment whose
    gradients would otherwise dominate a norm of a quantity that is zero
    for the exact solution.
    """
    meshes = list(meshes)
    if not meshes:
        raise ValueError("mesh list must not be empty")
    rows = []
    prev = None  # (n, err_p) of the previous mesh
    for n in meshes:
        c = replace(cfg, n=n)
        op = _StabilityOperator(c)
        space, A = op.space, op.matrix(c.gamma_tilde)
        del op  # its assembled parts would stay alive through the saddle solve
        lam = smallest_eigenvalue(A)
        if lam <= 0.0:
            raise ValueError(
                f"stabilized block is not positive definite on the {n}x{n} "
                f"mesh at gamma_tilde = {c.gamma_tilde} "
                f"(lambda_min = {lam:.6e}); refusing to run convergence")
        B = forms.assemble_coupling(space)
        F = forms.assemble_load(space, manufactured_load, scale=c.delta_gamma)
        w_h, p_h = solve_saddle(SaddleSystem(
            A_total=A, B=B, rhs_u=F, rhs_p=np.zeros(space.n_p)))
        vertex_w = np.where(space.free_dofs < 2 * space.mesh.n_nodes, w_h, 0.0)
        err_p, err_w = compute_errors(
            space, vertex_w, p_h,
            exact_pressure=lambda x, y: c.delta_gamma * manufactured_pressure(x, y))
        order = None  # in h = 2/(n - 1); none on an unchanged mesh or a zero error
        if prev is not None and prev[0] != n and prev[1] > 0.0 and err_p > 0.0:
            order = math.log2(prev[1] / err_p) / math.log2((n - 1) / (prev[0] - 1))
        rows.append(ConvergenceRow(n=n, err_p_L2=err_p, err_w_H1=err_w, order=order))
        prev = n, err_p
    return ConvergenceTable(problem=cfg.problem, gamma_tilde=cfg.gamma_tilde,
                            rows=tuple(rows))
