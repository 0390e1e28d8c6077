"""Symmetric eigen-analysis and saddle-point solves on sparse matrices.

Every factorization is ``ldlt_factor``'s: SuperLU in a symmetric fill-reducing order with
diagonal pivots preferred.  ``smallest_eigenvalue`` takes a shift sigma with at most one
negative LDL^T pivot of A - sigma*I, so at most one eigenvalue below it (sigma = 0 first,
then geometric steps down and a bisection), and runs ``largest_ritz_value`` to LANCZOS_TOL
on +-(A - sigma*I)^-1 from a seeded start vector, so results are deterministic.  Every
Lanczos run is that routine's: ARPACK's residual test stops it, or it raises after n
steps.  The stability block passes its factorization with the MINI bubbles condensed out,
a third of the size, in place of this LDL^T.  The convergence saddles come condensed too:
at 33x33 the order keeps 0.29-0.31M nonzeros in L + U, COLAMD 0.40-0.42M, and factor plus
solve takes 17 ms, not 30-33 ms (65x65: 0.11 s, not 0.3 s; 2 vCPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

# relative tolerances: asymmetry taken as roundoff, accepted saddle residual
SYMMETRY_RTOL = 1e-10
RESIDUAL_RTOL = 1e-10
# Lanczos residual tolerance of lambda_min and beta1 (Ritz values converge quadratically in
# it: against 0, by ARPACK, 33x33 verdicts took 7-10 solves instead of 7-16, lambda moving
# by at most 7.1e-16 relative)
LANCZOS_TOL = 1e-8


class NonSymmetricMatrixError(ValueError):
    """Input matrix violates the symmetry contract."""


class SingularSaddleError(RuntimeError):
    """Saddle factorization failed or the solve left a large residual."""


def _as_symmetric(S, what: str):
    """Return the symmetrized CSC matrix after checking shape, entries and asymmetry."""
    if not sp.issparse(S):
        S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NonSymmetricMatrixError(f"{what} must be square, got {S.shape}")
    S = sp.csr_matrix(S, dtype=float)
    if not np.all(np.isfinite(S.data)):
        raise ValueError(f"{what} has non-finite entries")
    asym_max = abs(S - S.T).max() if S.nnz else 0.0
    scale = abs(S).max() if S.nnz else 0.0
    if asym_max > SYMMETRY_RTOL * max(scale, 1e-300):
        raise NonSymmetricMatrixError(
            f"{what} is not symmetric: max asymmetry {asym_max:.3e} "
            f"exceeds {SYMMETRY_RTOL:.0e} * max entry {scale:.3e}")
    return ((S + S.T) * 0.5).tocsc()


def ldlt_factor(A):
    """Sparse LU of symmetric A in a symmetric fill-reducing order with
    diagonal pivots preferred: while perm_r == perm_c it is L D L^T with
    D = diag(U)."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def factor_with_inertia(A):
    """ldlt_factor of symmetric A and its count of non-positive pivots, which
    is the number of non-positive eigenvalues of A (Sylvester's law of
    inertia).  The count is None when the factorization proves nothing: A
    exactly singular, or a non-symmetric permutation."""
    try:
        lu = ldlt_factor(A)
    except RuntimeError:  # exactly singular
        return None, None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return lu, None
    return lu, int(np.count_nonzero(~(lu.U.diagonal() > 0.0)))


def _shift_below_spectrum(A, shifted):
    """Shift sigma <= 0 with at most one eigenvalue of A below it, the
    factorization shifted(sigma) and the count (0 or 1) of those eigenvalues.

    Negative shifts start at 1e-8 of the infinity norm and grow tenfold.  One with
    none below after one with two or more starts a bisection between them for exactly
    one below, which isolates lambda_min from a cluster above it; a bracket as wide as
    the first step ends it at its lower shift.  Below the Gershgorin lower bound A -
    sigma*I is strictly diagonally dominant with a positive diagonal, so the walk ends
    there at the latest; a refusal at that point raises instead of searching on.
    """
    sigma, lo, hi, gershgorin = 0.0, None, 0.0, None  # none below lo, two or more below hi
    while True:
        lu, below = shifted(sigma)
        if below == 1 or below == 0 and (sigma == 0.0 or hi - sigma <= width):
            return sigma, lu, below
        if gershgorin is None:  # only when sigma = 0 does not end the search
            diag = A.diagonal()
            row_abs = np.asarray(abs(A).sum(axis=1)).ravel()
            gershgorin = float(np.min(diag + np.abs(diag) - row_abs))
            step = width = 1e-8 * (float(row_abs.max()) or 1.0)
        if below != 0 and not sigma >= gershgorin:  # a NaN bound refuses too
            raise ArithmeticError(
                f"no LDL^T factorization of A - sigma*I with at most one negative "
                f"pivot at sigma = {sigma:.3e}, below the Gershgorin bound "
                f"{gershgorin:.3e}")
        lo, hi = (sigma, hi) if below == 0 else (lo, sigma)
        sigma, step = (-step, 10.0 * step) if lo is None else (0.5 * (lo + hi), step)


def smallest_eigenvalue(S, shifted=None) -> float:
    """Smallest algebraic eigenvalue of a symmetric matrix.

    Raises NonSymmetricMatrixError when the input violates the symmetry tolerance
    (SYMMETRY_RTOL relative), and ValueError on non-finite entries; otherwise the
    symmetrized matrix is used.  A given shifted(sigma) returns A - sigma*I factored as
    factor_with_inertia does; S is then taken as is.  ArithmeticError if Lanczos takes
    more than n steps.
    """
    A = _as_symmetric(S, "eigenvalue input") if shifted is None else S
    shifted = shifted or (lambda sigma: factor_with_inertia(
        A - sigma * sp.identity(A.shape[0], format="csc")))
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    sigma, lu, below = _shift_below_spectrum(A, shifted)
    # nu = 1/(lambda - sigma): with no eigenvalue below sigma lambda_min has the
    # largest nu, with one the only negative nu, the largest of -nu
    sign = -1.0 if below else 1.0
    inverse = spla.LinearOperator(A.shape, matvec=lambda x: sign * lu.solve(x), dtype=float)
    theta = largest_ritz_value(inverse, sp.identity(n), lambda r: r, LANCZOS_TOL)
    return sigma + sign / theta


def largest_ritz_value(K, M, solve, tol: float, start=None) -> float:
    """Largest Ritz value theta of K x = lambda M x, M > 0, solve(b) = M^-1 b: Lanczos in
    the M inner product from a seeded Gaussian start, or from start = (z, M z), so that M
    need not be applied, stops at the first step whose residual bound beta_{j+1}*|s_j| (s:
    T_j's top eigenvector) is at most tol*|theta| (ARPACK's test less its eps^(2/3) floor,
    so it cannot pass near theta = 0; theta is then that close to some lambda, below
    lambda_max if the run stalls on a cluster; exact at a breakdown, beta = 0);
    ArithmeticError after len(z) steps.  Only theta is read: no basis is kept, nothing is
    reorthogonalized, and a Ritz value exceeds lambda_max only by roundoff.  einsum takes
    the inner products, summed in one order at every BLAS thread count."""
    z, r = start or ((z := np.random.default_rng(0).standard_normal(M.shape[0])), M @ z)
    Mv, alpha, beta = 0.0, [], [np.sqrt(np.einsum("i,i", z, r))]  # r = M z throughout
    for j in range(len(z)):
        Mv_prev, Mv, v = Mv, r / beta[-1], z / beta[-1]
        alpha.append(np.einsum("i,i", v, (r := K @ v)))
        r -= alpha[-1] * Mv + beta[-1] * Mv_prev
        z = solve(r)
        beta.append(np.sqrt(max(np.einsum("i,i", z, r), 0.0)))
        # T_j's top eigenpair by MRRR (range 3: by index); dstemr overwrites its e
        _, w, s, info = lapack.dstemr(np.array(alpha), np.array(beta[1:]), 3, 0.0, 0.0,
                                      j + 1, j + 1)
        if not info and beta[-1] * abs(s[j, 0]) <= tol * abs(w[0]):
            return float(w[0])
    raise ArithmeticError(f"Lanczos took over {len(z)} steps")


@dataclass(frozen=True)
class SaddleSystem:
    """Block system [[A, B^T], [B, C]], C zero unless given, and both right-hand sides."""

    A_total: sp.spmatrix
    B: sp.spmatrix
    rhs_u: np.ndarray
    rhs_p: np.ndarray
    C: sp.spmatrix | None = None


def solve_saddle(system: SaddleSystem):
    """Direct sparse LU solve of the full block system by ldlt_factor,
    which pivots off the diagonal on a zero pressure block.

    Returns (w, p).  Raises SingularSaddleError when the factorization
    fails, produces non-finite values, or leaves a block residual larger
    than RESIDUAL_RTOL relative to the right-hand side norm.
    """
    A = _as_symmetric(system.A_total, "saddle displacement block")
    B = sp.csr_matrix(system.B)
    n_u, n_p = A.shape[0], B.shape[0]
    if B.shape[1] != n_u:
        raise ValueError(f"coupling block shape {B.shape} does not match "
                         f"{n_u} displacement dofs")
    C = None if system.C is None else _as_symmetric(system.C, "saddle pressure block")
    K = sp.bmat([[A, B.T], [B, C]], format="csc")
    rhs = np.concatenate([system.rhs_u, system.rhs_p]).astype(float)
    if rhs.shape[0] != n_u + n_p:
        raise ValueError("right-hand side length does not match block sizes")

    name = f"saddle system ({n_u} displacement + {n_p} pressure dofs)"
    try:
        x = ldlt_factor(K).solve(rhs)
    except RuntimeError as err:
        raise SingularSaddleError(f"{name}: factorization failed: {err}") from err
    if not np.all(np.isfinite(x)):
        raise SingularSaddleError(f"{name}: solve produced non-finite values")

    resid = np.linalg.norm(K @ x - rhs)
    scale = max(np.linalg.norm(rhs), 1e-300)
    if resid > RESIDUAL_RTOL * scale:
        raise SingularSaddleError(
            f"{name}: block residual {resid:.3e} exceeds "
            f"{RESIDUAL_RTOL:.0e} * ||rhs|| = {RESIDUAL_RTOL * scale:.3e}")
    return x[:n_u], x[n_u:]
