"""Assembly of the bilinear forms and load vectors of the model problems.

The displacement block of the linearized problem is

    a(w, v) = 2*mu*int eps(w):eps(v) - gamma*int r (grad w)^T : grad v

with the weight r(x, y) = 1 - y (the pressure profile of the trivial
solution).  The div-div stabilization matrix int div w div v is
assembled separately, without its load-dependent factor, so callers can
scale it.  The coupling block is b(v, q) = int q div v, and the pressure
mass and displacement H1 Gram matrices back the inf-sup estimator and
error norms.

Elements are affine, so each form is a reference tensor mapped per
element (Kirby & Logg, ACM TOMS 32, 2006): quadrature sums such as
G[a,b,k,l] = sum_q w_q dk phi_a dl phi_b run once on the reference
triangle, and each element applies det * invJ^T (x) invJ^T.  Only a
weight varying in space, such as r, is summed per element.

Local matrices are computed in a fixed element order and scattered with
plain addition, so repeated runs are bit-identical.  Operators are
restricted to the free displacement dofs (homogeneous constraints
eliminated) unless ``reduced=False`` asks for the full ones.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .spaces import (QUAD_DEGREE, MixedSpace, make_quadrature,
                     tabulate_scalar_basis)

# quadrature degree for the non-polynomial integrands: loads and the exact pressure
LOAD_QUAD_DEGREE = 10


def _element_geometry(space: MixedSpace):
    """Vertices, jacobian determinants and inverse-transposed jacobians;
    the columns of J span the triangle edges."""
    p = space.mesh.nodes[space.mesh.triangles]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1]
    invJT[:, 0, 1] = -J[:, 1, 0]
    invJT[:, 1, 0] = -J[:, 0, 1]
    invJT[:, 1, 1] = J[:, 0, 0]
    invJT /= det[:, None, None]
    return p, det, invJT


def _reference_table(space: MixedSpace, degree: int = QUAD_DEGREE):
    """Rule with the reference basis values (k, nq) and gradients (k, nq, 2)."""
    rule = make_quadrature(degree)
    vals, ref_grads = tabulate_scalar_basis(rule, space.include_bubbles)
    return rule, vals, ref_grads


def _gradgrad(space: MixedSpace, weight=None):
    """P[e,a,b,i,j] = int_T weight d_i phi_a d_j phi_b on every element.

    weight(x, y) is evaluated at the physical quadrature points; without
    it the quadrature sum is done once for all elements.
    """
    rule, _, rg = _reference_table(space)
    p, det, invJT = _element_geometry(space)
    k, nq, _ = rg.shape
    w = rule.weights
    if weight is not None:
        xy = rule.points @ p
        w = w * weight(xy[..., 0], xy[..., 1])
    outer = np.einsum("aqk,bql->qabkl", rg, rg).reshape(nq, -1)
    G = (w @ outer).reshape(-1, k * k, 4)
    # T[e, (k, l), (i, j)] = invJT[e,i,k] invJT[e,j,l]
    T = np.einsum("eik,ejl->eklij", invJT, invJT).reshape(-1, 4, 4)
    return ((G @ T) * det[:, None, None]).reshape(-1, k, k, 2, 2)


def _scatter_square(local, dofs, n):
    e, k, _ = local.shape
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((local.reshape(e, -1).ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def _scatter_vector(P, space: MixedSpace, reduced: bool):
    """Scatter component blocks P[e,a,b,c,d] to the dof pairs (2a+c, 2b+d)."""
    e, k = P.shape[:2]
    local = P.transpose(0, 1, 3, 2, 4).reshape(e, 2 * k, 2 * k)
    A = _scatter_square(local, space.elem_dofs, space.n_u)
    free = space.free_dofs
    return A[free, :][:, free] if reduced else A


def assemble_elastic(space: MixedSpace, mu: float, gamma: float,
                     reduced: bool = True) -> sp.csr_matrix:
    """Displacement block 2*mu*eps:eps - gamma*r-weighted transposed-gradient.

    Both terms are exchange-symmetric, so the result is symmetric up to
    roundoff for any (mu, gamma).
    """
    if mu <= 0:
        raise ValueError(f"shear modulus must be positive, got {mu}")
    E2, R = elastic_parts(space, reduced=reduced)
    return (mu * E2 - gamma * R).tocsr()


def elastic_parts(space: MixedSpace, reduced: bool = True):
    """The two gamma-independent pieces of the elastic block.

    Returns (E2, R) with assemble_elastic(mu, gamma) = mu*E2 - gamma*R;
    E2 carries 2*eps:eps and R the r-weighted transposed-gradient term.
    Scans over load factors reuse these instead of reassembling.
    """
    Pd = _gradgrad(space)
    Pr = _gradgrad(space, lambda x, y: 1.0 - y)
    Kg = np.einsum("eabii->eab", Pd)
    # component block (c, d) of E2 is Kg delta_cd + Pd[..., d, c]
    E2 = Kg[..., None, None] * np.eye(2) + Pd.swapaxes(-1, -2)
    return (_scatter_vector(E2, space, reduced),
            _scatter_vector(Pr.swapaxes(-1, -2), space, reduced))


def assemble_divdiv(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Stabilization matrix S with v^T S v = ||div v_h||^2 in L2."""
    return _scatter_vector(_gradgrad(space), space, reduced)


def assemble_coupling(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Pressure-displacement coupling (B v)_q = int q_h div v_h."""
    rule, vals, rg = _reference_table(space)
    _, det, invJT = _element_geometry(space)
    k = rg.shape[0]
    # C[p, a, m] = int hat_p d_m phi_a on the reference triangle
    C = np.einsum("q,pq,aqm->pam", rule.weights, vals[:3], rg).reshape(3 * k, 2)
    local = (C @ invJT.swapaxes(1, 2)) * det[:, None, None]

    rows = np.repeat(space.mesh.triangles, 2 * k, axis=1).ravel()
    cols = np.tile(space.elem_dofs, (1, 3)).ravel()
    B = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(space.n_p, space.n_u)).tocsr()
    return B[:, space.free_dofs] if reduced else B


def assemble_load(space: MixedSpace, f, scale: float = 1.0,
                  reduced: bool = True) -> np.ndarray:
    """Load vector with entries scale * int f . phi_i.

    f(x, y) must be vectorized and return shape (..., 2).  The rule is of
    degree LOAD_QUAD_DEGREE because the model loads are not polynomial.
    """
    rule, vals, _ = _reference_table(space, LOAD_QUAD_DEGREE)
    p, det, _ = _element_geometry(space)
    xy = rule.points @ p
    fv = np.asarray(f(xy[..., 0], xy[..., 1]), dtype=float)
    if fv.shape != xy.shape:
        raise ValueError(f"load field returned shape {fv.shape}, expected {xy.shape}")
    local = ((vals * rule.weights) @ fv) * det[:, None, None]

    F = np.zeros(space.n_u)
    np.add.at(F, space.elem_dofs.ravel(), local.ravel())
    F *= scale
    return F[space.free_dofs] if reduced else F


def assemble_pressure_mass(space: MixedSpace) -> sp.csr_matrix:
    """L2 mass matrix of the continuous P1 pressure space."""
    rule, vals, _ = _reference_table(space)
    _, det, _ = _element_geometry(space)
    local = np.einsum("q,pq,rq->pr", rule.weights, vals[:3], vals[:3])
    local = local[None, :, :] * det[:, None, None]
    return _scatter_square(local, space.mesh.triangles, space.n_p)


def assemble_h1_gram(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Full H1 inner product int grad w : grad v + int w . v."""
    rule, vals, _ = _reference_table(space)
    _, det, _ = _element_geometry(space)
    Kg = np.einsum("eabii->eab", _gradgrad(space))
    Ms = np.einsum("q,aq,bq->ab", rule.weights, vals, vals)
    local = Kg + Ms[None, :, :] * det[:, None, None]
    return _scatter_vector(local[..., None, None] * np.eye(2), space, reduced)


def p1_scalar_stiffness(vertices) -> np.ndarray:
    """Scalar P1 stiffness of a single triangle (gradient-pipeline probe)."""
    verts = np.asarray(vertices, dtype=float)
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    invJT = np.array([[d2[1], -d1[1]], [-d2[0], d1[0]]]) / det
    grads = (invJT @ np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]).T).T
    return 0.5 * det * grads @ grads.T
