"""Symmetric eigen-analysis and saddle-point solves on sparse matrices.

The stability verdicts only ever use the sign of the smallest eigenvalue
of the (constrained) displacement block, which by Sylvester's law of
inertia is invariant under congruence transforms such as dof rescaling.
``smallest_eigenvalue`` takes one path at every size: a sparse symmetric
LDL^T factorization of A - sigma*I with positive pivots proves the shift
sigma lies below the spectrum (sigma = 0 first, then geometric steps down,
bounded by the Gershgorin disc), and shift-invert Lanczos about that shift
returns the eigenvalue nearest to it, which is the smallest.  The Lanczos
start vector is fixed, so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# relative tolerances: asymmetry taken as roundoff, accepted saddle residual
SYMMETRY_RTOL = 1e-10
RESIDUAL_RTOL = 1e-10


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
    asym = abs(S - S.T)
    asym_max = asym.max() if asym.nnz else 0.0
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


def positive_definite_factor(A):
    """Sparse LDL^T factorization of symmetric A if it proves A positive
    definite, else None.

    Positive pivots of an LDL^T factor prove positive definiteness
    (Sylvester's law of inertia).  A failed factorization or a
    non-symmetric permutation proves nothing, so it counts as not
    positive definite.
    """
    try:
        lu = ldlt_factor(A)
    except RuntimeError:  # exactly singular
        return None
    if np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0):
        return lu
    return None


def _shift_below_spectrum(A):
    """Shift sigma <= 0 with A - sigma*I positive definite, and its sparse LU.

    Below the Gershgorin lower bound A - sigma*I is strictly diagonally
    dominant with a positive diagonal, so the search ends there at the
    latest; a refusal at that point raises instead of searching on.
    """
    diag = A.diagonal()
    row_abs = np.asarray(abs(A).sum(axis=1)).ravel()
    gershgorin = float(np.min(diag + np.abs(diag) - row_abs))
    # negative shifts start at 1e-8 of the infinity norm and grow tenfold
    step = 1e-8 * (float(row_abs.max()) or 1.0)
    eye = sp.identity(A.shape[0], format="csc")
    sigma = 0.0
    while True:
        lu = positive_definite_factor(A - sigma * eye)
        if lu is not None:
            return sigma, lu
        if sigma < gershgorin:
            raise ArithmeticError(
                f"no positive definite factorization of A - sigma*I even at "
                f"sigma = {sigma:.3e}, below the Gershgorin bound {gershgorin:.3e}")
        sigma = -step
        step *= 10.0


def smallest_eigenvalue(S) -> float:
    """Smallest algebraic eigenvalue of a symmetric matrix.

    Raises NonSymmetricMatrixError when the input violates the symmetry
    tolerance (SYMMETRY_RTOL relative), and ValueError on non-finite entries;
    otherwise the symmetrized matrix is used.
    """
    A = _as_symmetric(S, "eigenvalue input")
    n = A.shape[0]
    if n == 1:
        return float(A[0, 0])
    sigma, lu = _shift_below_spectrum(A)
    opinv = spla.LinearOperator(A.shape, matvec=lu.solve, dtype=float)
    vals = spla.eigsh(A, k=1, sigma=sigma, which="LM", OPinv=opinv,
                      v0=np.ones(n), return_eigenvectors=False)
    return float(vals[0])


@dataclass(frozen=True)
class SaddleSystem:
    """Block system [[A, B^T], [B, 0]] with right-hand sides for both rows."""

    A_total: sp.spmatrix
    B: sp.spmatrix
    rhs_u: np.ndarray
    rhs_p: np.ndarray


def solve_saddle(system: SaddleSystem):
    """Direct sparse LU solve of the full block system.

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
    K = sp.bmat([[A, B.T], [B, None]], format="csc")
    rhs = np.concatenate([np.asarray(system.rhs_u, dtype=float),
                          np.asarray(system.rhs_p, dtype=float)])
    if rhs.shape[0] != n_u + n_p:
        raise ValueError("right-hand side length does not match block sizes")

    name = f"saddle system ({n_u} displacement + {n_p} pressure dofs)"
    try:
        lu = spla.splu(K)
        x = lu.solve(rhs)
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
