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

Element tensors are scattered by the space's scatter plans
(``MixedSpace.scatter_plan``): the CSR pattern of each operator is built
once per space, with the data slot of every element-tensor entry, and each
assembly is one ``np.bincount`` into it.  Every slot sums its entries in
element order, so repeated runs are bit-identical.  The plan is built
before the first element tensor and one tensor is alive at a time: a fresh
65x65 ``elastic_parts`` traces a 17.3 MB peak for 8.3 MB of matrices.
Operators are restricted to the free displacement dofs (homogeneous
constraints eliminated) unless ``reduced=False`` asks for the full ones.
"""

from __future__ import annotations

import functools

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
    return _reference_arrays(degree, space.include_bubbles)


@functools.cache  # read-only, so every assembly can share them
def _reference_arrays(degree: int, include_bubbles: bool):
    rule = make_quadrature(degree)
    tables = tabulate_scalar_basis(rule, include_bubbles)
    for a in tables:
        a.setflags(write=False)
    return (rule, *tables)


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
        del xy
    outer = np.einsum("aqk,bql->qabkl", rg, rg).reshape(nq, -1)
    G = (w @ outer).reshape(-1, k * k, 4)
    # T[e, (k, l), (i, j)] = invJT[e,i,k] invJT[e,j,l]
    T = np.einsum("eik,ejl->eklij", invJT, invJT).reshape(-1, 4, 4)
    P = G @ T
    P *= det[:, None, None]
    return P.reshape(-1, k, k, 2, 2)


def _transposed_blocks(P):
    """P[..., i, j] -> P[..., j, i] in place."""
    P[..., [0, 1], [1, 0]] = P[..., [1, 0], [0, 1]]
    return P


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
    plan = space.scatter_plan("uu", reduced)
    R = plan.assemble(_transposed_blocks(_gradgrad(space, lambda x, y: 1.0 - y)))
    # block (c, d) of E2 is trace(P) delta_cd + P[..., d, c], P = _gradgrad(space)
    P = _transposed_blocks(_gradgrad(space))
    P[..., [0, 1], [0, 1]] += np.einsum("eabii->eab", P)[..., None]
    return plan.assemble(P), R


def assemble_divdiv(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Stabilization matrix S with v^T S v = ||div v_h||^2 in L2."""
    return space.scatter_plan("uu", reduced).assemble(_gradgrad(space))


def assemble_coupling(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Pressure-displacement coupling (B v)_q = int q_h div v_h."""
    plan = space.scatter_plan("pu", reduced)
    rule, vals, rg = _reference_table(space)
    _, det, invJT = _element_geometry(space)
    k = rg.shape[0]
    # C[p, a, m] = int hat_p d_m phi_a on the reference triangle
    C = np.einsum("q,pq,aqm->pam", rule.weights, vals[:3], rg).reshape(3 * k, 2)
    local = C @ invJT.swapaxes(1, 2)
    local *= det[:, None, None]
    return plan.assemble(local)


def assemble_load(space: MixedSpace, f, scale: float = 1.0,
                  reduced: bool = True) -> np.ndarray:
    """Load vector with entries scale * int f . phi_i.

    f(x, y) must be vectorized and return shape (..., 2).  The rule is of
    degree LOAD_QUAD_DEGREE because the model loads are not polynomial; f is
    evaluated one point at a time (all at once: 14.9 MB at 65x65).
    """
    rule, vals, _ = _reference_table(space, LOAD_QUAD_DEGREE)
    p, det, _ = _element_geometry(space)
    corners, local = p.transpose(1, 0, 2).copy(), np.zeros((len(vals), 2 * len(p)))
    for point, w, v in zip(rule.points, rule.weights, vals.T):  # local[a, (e, c)]
        xy = np.tensordot(point, corners, axes=1)
        fv = np.asarray(f(xy[:, 0], xy[:, 1]), dtype=float)
        if fv.shape != xy.shape:
            raise ValueError(f"load field returned shape {fv.shape}, "
                             f"expected {xy.shape}")
        local += np.outer(w * v, fv)
    local = (local.reshape(len(vals), -1, 2) * det[:, None]).transpose(1, 0, 2)
    dofs, n = space.numbering(reduced)
    return np.bincount(dofs.ravel(), weights=local.ravel(), minlength=n + 1)[:n] * scale


def assemble_pressure_mass(space: MixedSpace) -> sp.csr_matrix:
    """L2 mass matrix of the continuous P1 pressure space."""
    plan = space.scatter_plan("pp")
    rule, vals, _ = _reference_table(space)
    _, det, _ = _element_geometry(space)
    local = np.einsum("q,pq,rq->pr", rule.weights, vals[:3], vals[:3])
    return plan.assemble(local[None, :, :] * det[:, None, None])


def assemble_h1_gram(space: MixedSpace, reduced: bool = True) -> sp.csr_matrix:
    """Full H1 inner product int grad w : grad v + int w . v."""
    plan = space.scatter_plan("uu", reduced)
    rule, vals, _ = _reference_table(space)
    _, det, _ = _element_geometry(space)
    Kg = np.einsum("eabii->eab", _gradgrad(space))
    Ms = np.einsum("q,aq,bq->ab", rule.weights, vals, vals)
    local = Kg + Ms[None, :, :] * det[:, None, None]
    return plan.assemble(local[..., None, None] * np.eye(2))


def p1_scalar_stiffness(vertices) -> np.ndarray:
    """Scalar P1 stiffness of a single triangle (gradient-pipeline probe)."""
    verts = np.asarray(vertices, dtype=float)
    d1, d2 = verts[1] - verts[0], verts[2] - verts[0]
    det = d1[0] * d2[1] - d1[1] * d2[0]
    invJT = np.array([[d2[1], -d1[1]], [-d2[0], d1[0]]]) / det
    grads = (invJT @ np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]).T).T
    return 0.5 * det * grads @ grads.T
