"""The continuous problem's positive critical load, by a divergence-free spectral basis.

On a divergence-free v with v = 0 (problem 1) or v.n = 0 (problem 2) on the sides and the
bottom, the load form is R(v, v) = int_top v_2^2 (test_load_form_matches_continuum_identity
checks it on the assembled R), so the continuous block 2*int eps(v):eps(v) - gt*R(v, v)
stays positive on the kernel exactly below

    gamma_c = min 2*int eps(v):eps(v) / int_top v_2^2,

a Steklov-type eigenvalue.  Its Galerkin approximation on v = curl psi, psi = b*P_i(x)*P_j(y)
with Legendre degrees i, j < N, is an upper bound that falls with N.  The bubble b makes
each v admissible: b = (1 - x^2)^2 (1 + y)^2 (problem 1) clears psi and its gradient on
the sides and the bottom, b = (1 - x^2)(1 + y) (problem 2) clears psi there.  numpy only.
"""

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.legendre import Legendre, leggauss

# 1-D bubbles of the sides (in x) and of the bottom (in y), per problem
BUBBLES = {1: (Polynomial([1.0, 0.0, -1.0]) ** 2, Polynomial([1.0, 1.0]) ** 2),
           2: (Polynomial([1.0, 0.0, -1.0]), Polynomial([1.0, 1.0]))}


def _factors(bubble, N, t):
    """Values at t of f_i = bubble*P_i, i < N, and of its first two derivatives."""
    f = [bubble * Legendre.basis(i).convert(kind=Polynomial) for i in range(N)]
    return [np.array([g.deriv(d)(t) for g in f]) for d in range(3)]


def critical_load(problem: int, N: int) -> float:
    """gamma_c's Galerkin upper bound on psi = f_i(x)*g_j(y), i, j < N, by N + 12
    Gauss-Legendre points per direction: v = (f g', -f' g), so eps_11 = -eps_22 = f' g' and
    eps_12 = (f g'' - f'' g)/2.  The E-orthonormal basis drops the directions of
    E = 2*int eps:eps below 1e-12 of its largest eigenvalue, and gamma_c = 1/tau, tau the
    largest eigenvalue of T = int_top v_2 w_2 in that basis."""
    t, wt = leggauss(N + 12)
    bx, by = BUBBLES[problem]
    (f, df, d2f), (g, dg, d2g) = _factors(bx, N, t), _factors(by, N, t)
    g1 = _factors(by, N, np.ones(1))[0][:, 0]  # g_j(1), on the top

    def field(a, b):  # a_i(x_p)*b_j(y_q), one row per basis function (i, j)
        return np.einsum("ip,jq->ijpq", a, b).reshape(N * N, -1)

    e11, e12 = field(df, dg), 0.5 * (field(f, d2g) - field(d2f, g))
    w = np.outer(wt, wt).ravel()
    E = 4.0 * ((e11 * w) @ e11.T + (e12 * w) @ e12.T)  # 2 eps:eps = 4 (eps_11^2 + eps_12^2)
    top = np.einsum("ip,j->ijp", df, g1).reshape(N * N, -1)  # -v_2 on the top
    T = (top * wt) @ top.T
    lam, Q = np.linalg.eigh(E)
    keep = lam > 1e-12 * lam[-1]
    B = Q[:, keep] / np.sqrt(lam[keep])
    return float(1.0 / np.linalg.eigvalsh(B.T @ T @ B)[-1])
