"""Stability and convergence studies for the stabilized mixed method.

The displacement block of the stabilized problem at load factor gamma is

    A(w, v) = 2*mu*int eps(w):eps(v) - gamma*int r (grad w)^T : grad v
              + M * int div w div v,          M = m1*|gt| + m2*gt^2,

with the nondimensional load gt = gamma*L/mu (L = 1 here).  The method is
stable at gt exactly when the constrained block is positive definite.  In
either loading direction, with s = |gt|, the block is the pencil _Pencil,
A(s) = K0 + s*Kd + s^2*K2, whose K2 = m2*S is positive semidefinite, so A is
convex in the Loewner order: A(s) >= A(a) + (s - a)*A'(a) for s >= a (Tisseur &
Meerbergen, "The quadratic eigenvalue problem", SIAM Rev. 43, 2001).  The critical
loads are found by tangent steps outward from gt = 0, reading the pencil alone: one
LDL^T test of the tangent A(a) + (b - a)*A'(a) proves A > 0 on [a, b]; with
A(a) > 0, one of A'(a) proves it on the ray [a, inf); with m2 > 0 the pencil's tail,
a certificate on ker S, where A(s)/s^2 -> m2*S is singular, on [a, GAMMA_CAP].  Each
test and each verdict factor the block with the MINI bubbles condensed out element by
element by its space (MixedSpace.condense): its inertia is the 2x2 bubble blocks' plus
the vertex Schur complement's, a third of the size (Haynsworth's inertia additivity,
Linear Algebra Appl. 1, 1968), and the count decides.  Eigen-solves only propose step
lengths and measure lambda_min, so their tolerances cannot make a verdict wrong.
"""

from __future__ import annotations

import functools
import math
import types
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import forms
from .mesh import build_structured_mesh
from .solvers import (LANCZOS_TOL, SaddleSystem, factor_with_inertia, largest_ritz_value,
                      ldlt_factor, smallest_eigenvalue, solve_saddle)
from .spaces import MixedSpace

INFSUP_SHIFT = -1e-5  # Lanczos shift below the spectrum [0, 2], near its bottom
# critical loads are resolved to BISECT_TOL and unbounded beyond GAMMA_CAP.  At
# BISECT_TOL <= 1e-11 the search was measured to stop with "not positive definite",
# and at <= 1e-12 to differ between processes: re-measure before lowering it
BISECT_TOL, GAMMA_CAP = 0.01, 1e6


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
# (hi = +-inf: a ray proof; a kernel certificate's step ends at +-GAMMA_CAP), and
# the confirming eigenvalue past a finite crossing
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


def _kernel_basis(A, solve, k: int, eps: float):
    """Orthonormal basis of ker A, A >= 0, given solve, that of the LDL^T of A - eps*I, and
    its count k < n: two block inverse iteration sweeps on k + 1 columns and Rayleigh-Ritz;
    None unless k Ritz values lie below eps and the next at or above 1e3*eps."""
    Y = np.cos(np.outer(np.arange(1.0, A.shape[0] + 1), np.arange(1.0, k + 2)))
    for _ in range(2):  # 8 columns at a time, for a small peak RSS
        Y = np.linalg.qr(np.hstack([solve(Y[:, j:j + 8]) for j in range(0, k + 1, 8)]))[0]
    theta, V = np.linalg.eigh(Y.T @ (A @ Y))
    if np.searchsorted(theta, eps) != k or theta[k] < 1e3 * eps:
        return None
    return Y @ V[:, :k]


class _Pencil(namedtuple("_Pencil", "sign K0 Kd K2 factor csr verdict tail")):
    """The block A(s) = K0 + s*Kd + s^2*K2, s = |gt|, of the loading direction sign as
    data over one CSR pattern, its operator's factor, csr and verdict, and tail(a,
    below), a certificate of A > 0 on [a, GAMMA_CAP]; linear: K2 = 0.0, tail None."""

    def at(self, s: float):
        """Data of A(s): K0 + s*Kd, then s^2*K2 added in place, for a small peak RSS.  It
        may overflow silently: MixedSpace.condense refuses inf and NaN."""
        with np.errstate(over="ignore", invalid="ignore"):
            return np.add(A := np.add(self.K0, s * self.Kd), (s * s) * self.K2, out=A)

    def slope(self, s: float):
        """Data of A'(s)."""
        return self.Kd + 2.0 * s * self.K2


class _StabilityOperator:
    """Reduced operators of one mesh as data over the CSR pattern they share,
    explicit zeros included: K0 = mu*E2, the load stiffness R and the
    div-div matrix S, from which pencil(sign) builds the block of one direction."""

    def __init__(self, cfg: ProblemConfig):
        self.cfg = cfg
        self.space = MixedSpace(build_structured_mesh(cfg.n), problem=cfg.problem)
        self.plan = self.space.scatter_plan("uu")
        E2, R = forms.elastic_parts(self.space)
        self.K0, self.R = cfg.mu * E2.data, R.data
        self.S = forms.assemble_divdiv(self.space).data

    def pencil(self, sign: float) -> _Pencil:
        """Kd = -sign*mu*R + m1*S, and K2 = m2*S with its kernel certificate, or 0.0."""
        cfg, K2, tail = self.cfg, 0.0, None
        Kd = -sign * cfg.mu * self.R + cfg.m1 * self.S
        if cfg.m2 > 0:
            tail = functools.partial(self.kernel_certified, Kd, K2 := cfg.m2 * self.S)
        return _Pencil(sign, self.K0, Kd, K2, self.factor, self.csr, self.verdict, tail)

    def csr(self, data) -> sp.csr_matrix:
        """The operator of data over the plan's shared arrays: never modify it."""
        return sp.csr_matrix((data, self.plan.indices, self.plan.indptr),
                             shape=self.plan.shape)

    def factor(self, data):
        """Bubble-condensed LDL^T of block data (MixedSpace.condense), its solve, and its
        count of non-positive eigenvalues, the B_e's plus the Schur pivots' (Haynsworth),
        or None if it proves nothing, as a singular B_e."""
        if (c := self.space.condense(data)) is None:
            return None, None
        lu, nonpositive = factor_with_inertia(c.schur)
        return (types.SimpleNamespace(solve=functools.partial(c.solve, lu.solve)),
                None if nonpositive is None else c.below + nonpositive)

    def verdict(self, data, f):
        """(lambda_min, A > 0) of block data, given f = factor(data): f's count decides, and
        smallest_eigenvalue, on f at sigma = 0 and on condensed factorizations below, must
        agree in sign; ArithmeticError if it does not or the count proves nothing."""
        lam = smallest_eigenvalue(self.csr(data), lambda s: f if s == 0 else self.factor(
            data - s * self.space.condensation.eye))
        if f[1] is None or (f[1] == 0) != (lam > 0.0):
            raise ArithmeticError(f"the LDL^T counts {f[1]} non-positive eigenvalues but "
                                  f"lambda_min = {lam:.6e}")
        return lam, f[1] == 0

    @functools.cached_property
    def kernel(self):
        """(Z, I) or None: Z = _kernel_basis of S, its dimension k the count of the LDL^T
        of S - eps*I, eps = 1e-12*max|S|; I pivot rows of a QR of Z^T."""
        eps = 1e-12 * np.abs(self.S).max()
        f, k = self.factor(self.S - eps * self.space.condensation.eye)
        if not k or (Z := _kernel_basis(self.csr(self.S), f.solve, k, eps)) is None:
            return None  # a count of None, no kernel, or no gap above it
        I, L = [], np.zeros((len(Z), k))
        d = np.einsum("ij,ij->i", Z, Z)
        for j in range(k):  # pivoted Cholesky of Z Z^T; of tied scores, the lowest row
            I.append(i := int(np.argmax(d >= (1.0 - 1e-9) * d.max())))
            L[:, j] = (Z @ Z[i] - L[:, :j] @ L[i, :j]) / math.sqrt(d[i])
            d -= L[:, j] ** 2
        return Z, np.array(I)

    def kernel_certified(self, Kd, K2, a: float, below: int | None = 0) -> bool:
        """Whether the kernel certificate (README, "Numerics") proves A > 0 on [a, cap]:
        L(u) - diag(dz*I, dy*I) > 0 at u = 1/cap and 1/a.  Times t = 1/u, L's top block
        is H0 + U Mc U^T, H0 = t*(K2_JJ - dz*I) + Kd_JJ with the rows I pinned; Woodbury
        and Haynsworth count it on -Mc^-1 - U^T H0^-1 U, then C - dy*I - t X^T H^-1 X.
        Given A'(a)'s count of non-positive eigenvalues, below, over k, no test runs:
        A'(a/2) <= A'(a) stays indefinite on the codimension-k range of P (interlacing),
        where it is a times L's top block at u = 1/a, up to roundoff."""
        if self.kernel is None or (below or 0) > len(self.kernel[1]):
            return False
        Z, I = self.kernel
        eye = self.space.condensation.eye
        norm = lambda M: math.sqrt(np.linalg.eigvalsh(M.T @ M)[-1])  # noqa: E731
        K2Z, k, J = self.csr(K2) @ Z, len(I), np.ones(len(Z), bool)
        N, M = norm(K2Z), max(0.0, -np.linalg.eigvalsh(Z.T @ K2Z)[0])  # Z^T K2 Z >= -M
        U, J[I] = np.empty((len(Z), 2 * k)), False  # [V^T, (Kd Z)_J], built in place:
        U[:, :k], U[:, k:] = self.csr(self.K0) @ Z, self.csr(Kd) @ Z  # a small peak RSS
        C, F, Ik, U[I] = Z.T @ U[:, :k], Z.T @ U[:, k:], np.eye(k), 0.0
        w, Q = np.linalg.eigh(C)  # dense work by eigh alone, for a small peak RSS
        U[:, :k] = U[:, :k] @ (Q / w) @ Q.T
        V = norm(U[:, :k])  # margins on z and y, README "Numerics"
        dz = 4.0 * N * V + 2.0 * M * V * V
        dy = GAMMA_CAP ** 2 * (N / (2.0 * V) + 2.0 * M) + GAMMA_CAP * norm(F)
        keep = J[self.plan.indices] & np.repeat(J, np.diff(self.plan.indptr))
        for t in (a, GAMMA_CAP):
            data = t * K2 + Kd - t * dz * eye
            data[~keep] = eye[~keep]
            f, neg = self.factor(data)
            if neg is None or neg > k:
                return False
            G = np.hstack([U.T @ f.solve(U[:, j:j + 8]) for j in range(0, 2 * k, 8)])
            w, Q = np.linalg.eigh(np.block([[0.0 * Ik, Ik], [Ik, F]]) - G)  # capacitance
            if np.count_nonzero(w > 0.0) != k + neg:
                return False
            E = np.vstack([-F, Ik])  # X^T H^-1 X by Woodbury:
            XHX = E.T @ G @ (E + Q @ (Q.T @ G @ E / w[:, None]))
            if not np.linalg.eigvalsh(C - dy * Ik - t * XHX)[0] > 0.0:
                return False
        return True


def is_stable(cfg: ProblemConfig):
    """(lambda_min, verdict) of the stabilized block at cfg.gamma_tilde: verdict is True
    iff its LDL^T has no non-positive pivot, as _StabilityOperator.verdict decides."""
    op, gt = _StabilityOperator(cfg), cfg.gamma_tilde
    data = op.pencil(math.copysign(1.0, gt)).at(abs(gt))
    return op.verdict(data, op.factor(data))


def _certified_limit(pencil: _Pencil, trace: list) -> float:
    """Certified end of the stable interval from gt = 0 in the pencil's direction.

    At each a, a ray test returns sign*inf if A'(a) > 0 (for a linear pencil at a = 0
    only), and for a quadratic one the tail certificate ends it with the step (a, cap).
    Else the largest eigenvalue theta of -A'(a) x = theta A(a) x, by largest_ritz_value
    on the solves of A(a)'s factor, proposes 0.999/theta (the cap if theta <= 0), halved
    until the tangent passes.
    After a step of at most BISECT_TOL, a failed test at a + BISECT_TOL ends the search
    at a, once the verdict's lambda_min confirms it there on the same factorization.
    A step that does not advance a raises ArithmeticError.
    """
    tol, cap, sign, a = BISECT_TOL, GAMMA_CAP, pencil.sign, 0.0
    while a < cap:
        A, dA = pencil.at(a), pencil.slope(a)  # a linear pencil's A' is A'(0)
        below = None if a and pencil.tail is None else pencil.factor(dA)[1]
        ray = below == 0  # A'(a)'s non-positive eigenvalues, the certificate's bound
        if not ray and pencil.tail is not None and pencil.tail(a, below):
            trace.append(CertifiedStep(sign * a, sign * cap))
            return sign * math.inf
        f, nonpositive = pencil.factor(A)
        if nonpositive != 0:  # at a > 0 the previous step proved the contrary
            raise ArithmeticError(f"not positive definite at gamma_tilde = "
                                  f"{sign * a!r} (bisect_tol = {tol:g})")
        if ray:  # A(s) >= A(a) + (s - a)*A'(a) > 0 for every s >= a
            trace.append(CertifiedStep(sign * a, sign * math.inf))
            return sign * math.inf
        theta = largest_ritz_value(pencil.csr(-dA), pencil.csr(A), f.solve, 1e-3)
        t = cap - a if theta <= 0.0 else min(0.999 / theta, cap - a)
        while a + t > a and pencil.factor(A + t * dA)[1] != 0:
            t *= 0.5
        if not a + t > a:  # theta NaN, or t below the resolution of a
            raise ArithmeticError(f"no step advances gamma_tilde = {sign * a!r} "
                                  f"(step {t!r}, bisect_tol = {tol:g})")
        trace.append(CertifiedStep(sign * a, sign * min(a + t, cap)))
        a = min(a + t, cap)
        end = sign * min(a + tol, cap)
        if t <= tol and a < cap and (f := pencil.factor(E := pencil.at(abs(end))))[1] != 0:
            trace.append(Crossing(end, pencil.verdict(E, f)[0]))
            return sign * a
    return sign * math.inf


def find_stability_limits(cfg: ProblemConfig) -> StabilityReport:
    """Critical loads of the stabilized block on one mesh, per direction the
    certified end of the stable interval from gt = 0 (see StabilityReport)."""
    op = _StabilityOperator(cfg)
    trace = []
    gamma_M, gamma_m = (_certified_limit(op.pencil(sign), trace) for sign in (1.0, -1.0))
    return StabilityReport(problem=cfg.problem, n=cfg.n, gamma_m=gamma_m,
                           gamma_M=gamma_M, trace=tuple(trace))


def estimate_inf_sup(space: MixedSpace) -> float:
    """Discrete inf-sup constant of the pair on this mesh.

    beta1^2 is the smallest eigenvalue of S p = lambda M_p p, S = B K_V^{-1} B^T, above
    ker S = ker B^T: its dimension k the count of the LDL^T of P - eps*I, P = B B^T, as for
    the stability block's ker S, and its basis _kernel_basis(P), M_p-orthonormalized.  The
    pressure part of [[K_V, B^T], [B, sigma M_p]]^{-1} (0, r) is -(S - sigma M_p)^{-1} r,
    and that of [[K_V^, B^^T], [B^, sigma M_p - D]], the MINI bubbles eliminated, too.  On
    that one factor, the kernel deflated, one Lanczos run in the S - sigma M_p inner
    product finds lambda = sigma + 1/nu (README, "Numerics").
    """
    B, Mp = forms.assemble_coupling(space), forms.assemble_pressure_mass(space)
    P, n_p = B @ B.T, B.shape[0]
    eps = 1e-12 * (abs(P).max() or 1.0)  # 1e-12 if B has no entries
    f, k = factor_with_inertia(P - eps * sp.identity(n_p))
    if k == n_p:  # no pressure above the kernel
        return 0.0
    if k is None or (Z := _kernel_basis(P, f.solve, k, eps)) is None:
        raise ArithmeticError(f"no basis of ker B^T from the LDL^T count {k}")
    Z = Z @ np.linalg.inv(np.linalg.cholesky(Z.T @ (Mp @ Z))).T  # M_p-orthonormal
    sigma, K_V, C = INFSUP_SHIFT, forms.assemble_h1_gram(space), INFSUP_SHIFT * Mp
    if space.include_bubbles:  # the MINI bubbles eliminated: K_V^, B^, sigma*M_p - D
        parts = space.condense(K_V.data, (B, C))
        K_V, B, C = parts.schur, parts.saddle_B, parts.saddle_C
    n_u = B.shape[1]
    lu = ldlt_factor(sp.bmat([[K_V, B.T], [B, C]]))  # quasi-definite: LDL^T in any order
    g = np.random.default_rng(0).standard_normal(n_p)
    g -= Mp @ (Z @ (Z.T @ g))  # Z^T g = 0

    def solve(r):  # (S - sigma M_p)^{-1} r, r a vector or a block, less its part on Z
        y = -lu.solve(np.concatenate([np.zeros((n_u,) + r.shape[1:]), r]))[n_u:]
        return y - Z @ (Z.T @ (Mp @ y))

    nu = largest_ritz_value(Mp, None, solve, LANCZOS_TOL, (solve(g), g))
    return math.sqrt(sigma + 1.0 / nu)


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
    rule, vals, _ = space.reference(forms.LOAD_QUAD_DEGREE)
    p, det, _ = space.geometry
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
    Each mesh eliminates the MINI bubbles from the block, whose vertex factorization
    gives the verdict, then from the block and the coupling: solve_saddle solves the
    condensed saddle [[A^, B^^T], [B^, -D]], and the bubbles follow element by element.

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
        space, gt = op.space, c.gamma_tilde
        data = op.pencil(math.copysign(1.0, gt)).at(abs(gt))
        lam, stable = op.verdict(data, op.factor(data))
        if not stable:
            raise ValueError(
                f"stabilized block is not positive definite on the {n}x{n} "
                f"mesh at gamma_tilde = {c.gamma_tilde} "
                f"(lambda_min = {lam:.6e}); refusing to run convergence")
        parts = space.condense(data, (forms.assemble_coupling(space), 0.0))
        del op, data  # its assembled parts would stay alive through the saddle solve
        F = forms.assemble_load(space, manufactured_load, scale=c.delta_gamma)
        n_p = space.n_p  # the saddle numbers its pressures first
        x = parts.solve(lambda z: np.concatenate(solve_saddle(SaddleSystem(
            parts.schur, parts.saddle_B, z[n_p:], z[:n_p], C=parts.saddle_C))[::-1]),
            np.concatenate([np.zeros(n_p), F]))
        vertex_w = np.where(space.free_dofs < 2 * space.mesh.n_nodes, x[n_p:], 0.0)
        err_p, err_w = compute_errors(
            space, vertex_w, x[:n_p],
            exact_pressure=lambda x, y: c.delta_gamma * manufactured_pressure(x, y))
        order = None  # in h = 2/(n - 1); none on an unchanged mesh or a zero error
        if prev is not None and prev[0] != n and prev[1] > 0.0 and err_p > 0.0:
            order = math.log2(prev[1] / err_p) / math.log2((n - 1) / (prev[0] - 1))
        rows.append(ConvergenceRow(n=n, err_p_L2=err_p, err_w_H1=err_w, order=order))
        prev = n, err_p
    return ConvergenceTable(problem=cfg.problem, gamma_tilde=cfg.gamma_tilde,
                            rows=tuple(rows))
