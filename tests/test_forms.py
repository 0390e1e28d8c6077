"""Assembled operators against independent oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import integrate

from stabmix import (MixedSpace, assemble_coupling, assemble_divdiv,
                     assemble_elastic, assemble_h1_gram, assemble_load,
                     assemble_pressure_mass, build_structured_mesh,
                     elastic_parts, manufactured_load, smallest_eigenvalue)
from stabmix import forms
from stabmix.forms import p1_scalar_stiffness
from stabmix.mesh import TriMesh
from stabmix.spaces import make_quadrature


def interpolate_p1(space, fx, fy):
    """Vertex-interpolated displacement field, bubbles zero (full vector)."""
    mesh = space.mesh
    v = np.zeros(space.n_u)
    v[0:2 * mesh.n_nodes:2] = fx(mesh.nodes[:, 0], mesh.nodes[:, 1])
    v[1:2 * mesh.n_nodes:2] = fy(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return v


def eval_triangle_fields(space, coeffs, tri, bary):
    """Independent pointwise evaluation of a discrete displacement field.

    Returns (values (nq, 2), gradients (nq, 2, 2)) at barycentric points of
    one triangle, computing the basis from scratch: hat gradients via a
    direct 2x2 inverse, the bubble via the product rule.
    """
    mesh = space.mesh
    verts = mesh.nodes[mesh.triangles[tri]]
    J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    invJT = np.linalg.inv(J).T
    hat_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    hat_grad = hat_ref @ invJT.T                     # (3, 2) physical
    lam = np.asarray(bary, dtype=float)
    nq = lam.shape[0]
    vals = np.zeros((nq, 2))
    grads = np.zeros((nq, 2, 2))
    dofs = space.elem_dofs[tri]
    k = 4 if space.include_bubbles else 3  # hats, then the bubble
    for q in range(nq):
        l = lam[q]
        phis = [l[0], l[1], l[2]]
        gphis = [hat_grad[0], hat_grad[1], hat_grad[2]]
        if k == 4:
            phis.append(27.0 * l[0] * l[1] * l[2])
            gb = 27.0 * (l[1] * l[2] * hat_grad[0]
                         + l[0] * l[2] * hat_grad[1]
                         + l[0] * l[1] * hat_grad[2])
            gphis.append(gb)
        for a in range(k):
            for c in (0, 1):
                coef = coeffs[dofs[2 * a + c]]
                vals[q, c] += coef * phis[a]
                grads[q, c, :] += coef * gphis[a]
    return vals, grads


def triangle_quadrature_xy(space, tri, rule):
    mesh = space.mesh
    verts = mesh.nodes[mesh.triangles[tri]]
    J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
    det = abs(np.linalg.det(J))
    xy = verts[0][None, :] + rule.points[:, 1:] @ J.T
    return xy, det


def jittered_space(n, problem, seed, include_bubbles=True):
    """Space on a structured mesh whose interior nodes are moved at random.

    Every element then has its own jacobian.  Boundary nodes stay put, so
    the boundary classification and the constraints are unchanged.
    """
    base = build_structured_mesh(n)
    nodes = base.nodes.copy()
    interior = np.all(np.abs(nodes) < 1.0 - 1e-12, axis=1)
    rng = np.random.default_rng(seed)
    h = 2.0 / (n - 1)
    nodes[interior] += 0.15 * h * rng.uniform(-1.0, 1.0, (interior.sum(), 2))
    p = nodes[base.triangles]
    d1, d2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0.0)
    mesh = TriMesh(nodes, base.triangles)
    return MixedSpace(mesh, problem=problem, include_bubbles=include_bubbles)


def pointwise_integral(space, integrand, rule):
    """Sum over triangles of int integrand(tri, xy) with the oracle's own
    per-triangle geometry."""
    total = 0.0
    for tri in range(space.mesh.n_triangles):
        xy, det = triangle_quadrature_xy(space, tri, rule)
        total += det * (rule.weights * integrand(tri, xy)).sum()
    return total


def test_p1_scalar_stiffness_reference_triangle():
    K = p1_scalar_stiffness([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K, expected, atol=1e-14)


def test_elastic_symmetry_and_spd():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    for mu, gamma in ((1.0, 0.0), (40.0, 285.0), (7.0, -123.0)):
        A = assemble_elastic(space, mu, gamma)
        scale = abs(A).max()
        assert abs(A - A.T).max() <= 1e-12 * scale
    A0 = assemble_elastic(space, 1.0, 0.0)
    assert smallest_eigenvalue(A0) > 0.0


def test_elastic_rejects_bad_mu():
    space = MixedSpace(build_structured_mesh(3), problem=1)
    with pytest.raises(ValueError):
        assemble_elastic(space, 0.0, 1.0)
    with pytest.raises(ValueError):
        assemble_elastic(space, -2.0, 1.0)


def test_elastic_affine_in_mu_gamma():
    space = MixedSpace(build_structured_mesh(4), problem=2)
    E2, R = elastic_parts(space)
    for mu, gamma in ((3.0, 2.0), (40.0, -7.5), (0.5, 1e4)):
        A = assemble_elastic(space, mu, gamma)
        ref = mu * E2 - gamma * R
        assert abs(A - ref).max() <= 1e-12 * max(abs(ref).max(), 1.0)
    # three-point interpolation: A is affine with no constant part
    A1 = assemble_elastic(space, 1.0, 0.0)
    A2 = assemble_elastic(space, 1.0, 1.0)
    A3 = assemble_elastic(space, 2.0, 3.0)
    combo = 2.0 * A1 + 3.0 * (A2 - A1)
    assert abs(A3 - combo).max() <= 1e-11 * abs(A3).max()


def test_divdiv_linear_field():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    S = assemble_divdiv(space, reduced=False)
    v = interpolate_p1(space, lambda x, y: x, lambda x, y: 0.0 * x)
    assert v @ (S @ v) == pytest.approx(4.0, abs=1e-12)
    t = interpolate_p1(space, lambda x, y: 1.0 + 0.0 * x, lambda x, y: 0.0 * x)
    assert t @ (S @ t) == pytest.approx(0.0, abs=1e-13)


def test_divdiv_matches_pointwise_oracle():
    space = MixedSpace(build_structured_mesh(4), problem=1)
    S = assemble_divdiv(space, reduced=False)
    rng = np.random.default_rng(7)
    v = rng.standard_normal(space.n_u)
    rule = make_quadrature(6)
    total = 0.0
    for tri in range(space.mesh.n_triangles):
        _, grads = eval_triangle_fields(space, v, tri, rule.points)
        div = grads[:, 0, 0] + grads[:, 1, 1]
        _, det = triangle_quadrature_xy(space, tri, rule)
        total += det * (rule.weights * div ** 2).sum()
    assert v @ (S @ v) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("include_bubbles", [True, False])
def test_elastic_parts_matches_pointwise_oracle(include_bubbles):
    space = jittered_space(5, 2, seed=3, include_bubbles=include_bubbles)
    E2, R = elastic_parts(space, reduced=False)
    rng = np.random.default_rng(5)
    w, v = rng.standard_normal((2, space.n_u))
    rule = make_quadrature(6)

    def fields(tri):
        _, gw = eval_triangle_fields(space, w, tri, rule.points)
        _, gv = eval_triangle_fields(space, v, tri, rule.points)
        return gw, gv

    def eps_eps(tri, xy):
        gw, gv = fields(tri)
        ew = 0.5 * (gw + gw.transpose(0, 2, 1))
        ev = 0.5 * (gv + gv.transpose(0, 2, 1))
        return 2.0 * np.einsum("qij,qij->q", ew, ev)

    def weighted_transpose(tri, xy):
        gw, gv = fields(tri)
        return (1.0 - xy[:, 1]) * np.einsum("qji,qij->q", gw, gv)

    assert w @ (E2 @ v) == pytest.approx(
        pointwise_integral(space, eps_eps, rule), rel=1e-12)
    assert w @ (R @ v) == pytest.approx(
        pointwise_integral(space, weighted_transpose, rule), rel=1e-12)


def test_load_form_matches_continuum_identity():
    # for a divergence-free v vanishing on the sides and the bottom,
    # R(v, v) = int r (grad v)^T : grad v = int_top v_2^2, as r = 1 - y vanishes on
    # the top.  v = curl psi; its vertex interpolant, bubbles zero, converges at
    # second order, and the exact side, a degree-8 polynomial, is Gauss-Legendre's
    def psi_derivatives(x, y):
        f, df = (1.0 - x * x) ** 2, -4.0 * x * (1.0 - x * x)
        g, dg, h = (1.0 + y) ** 2, 2.0 * (1.0 + y), 1.0 + 0.3 * x + 0.5 * y * y
        return df * g * h + 0.3 * f * g, f * dg * h + f * g * y  # psi_x, psi_y

    t, wt = np.polynomial.legendre.leggauss(8)
    exact = wt @ psi_derivatives(t, np.ones_like(t))[0] ** 2
    assert exact == pytest.approx(88.94171428571428, rel=1e-14)
    errors = []
    for n in (9, 17, 33):
        space = MixedSpace(build_structured_mesh(n), problem=1)
        v = interpolate_p1(space, lambda x, y: psi_derivatives(x, y)[1],
                           lambda x, y: -psi_derivatives(x, y)[0])
        R = elastic_parts(space, reduced=False)[1]
        errors.append(exact - v @ (R @ v))
    assert all(3.8 <= a / b <= 4.2 for a, b in zip(errors, errors[1:]))
    assert abs(errors[-1]) <= 2e-3 * exact


def test_h1_gram_and_pressure_mass_match_pointwise_oracle():
    space = jittered_space(5, 1, seed=4)
    K = assemble_h1_gram(space, reduced=False)
    M = assemble_pressure_mass(space)
    rng = np.random.default_rng(9)
    w, v = rng.standard_normal((2, space.n_u))
    p, q = rng.standard_normal((2, space.n_p))
    rule = make_quadrature(6)

    def h1(tri, xy):
        uw, gw = eval_triangle_fields(space, w, tri, rule.points)
        uv, gv = eval_triangle_fields(space, v, tri, rule.points)
        return np.einsum("qij,qij->q", gw, gv) + np.einsum("qc,qc->q", uw, uv)

    def mass(tri, xy):
        verts = space.mesh.triangles[tri]
        return (rule.points @ p[verts]) * (rule.points @ q[verts])

    assert w @ (K @ v) == pytest.approx(pointwise_integral(space, h1, rule), rel=1e-12)
    assert p @ (M @ q) == pytest.approx(pointwise_integral(space, mass, rule), rel=1e-12)


def test_divdiv_and_coupling_match_pointwise_oracle_on_jittered_mesh():
    space = jittered_space(5, 2, seed=6)
    S = assemble_divdiv(space, reduced=False)
    B = assemble_coupling(space, reduced=False)
    rng = np.random.default_rng(13)
    w, v = rng.standard_normal((2, space.n_u))
    q = rng.standard_normal(space.n_p)
    rule = make_quadrature(6)

    def div(coeffs, tri):
        _, g = eval_triangle_fields(space, coeffs, tri, rule.points)
        return g[:, 0, 0] + g[:, 1, 1]

    def divdiv(tri, xy):
        return div(w, tri) * div(v, tri)

    def coupling(tri, xy):
        return (rule.points @ q[space.mesh.triangles[tri]]) * div(v, tri)

    assert w @ (S @ v) == pytest.approx(pointwise_integral(space, divdiv, rule), rel=1e-12)
    assert q @ (B @ v) == pytest.approx(pointwise_integral(space, coupling, rule), rel=1e-12)


def test_coupling_constant_pressure():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    B = assemble_coupling(space, reduced=False)
    v = interpolate_p1(space, lambda x, y: x, lambda x, y: 0.0 * x)
    assert np.ones(space.n_p) @ (B @ v) == pytest.approx(4.0, rel=1e-12)
    const = interpolate_p1(space, lambda x, y: 1.0 + 0.0 * x,
                           lambda x, y: 2.0 + 0.0 * x)
    assert np.abs(B @ const).max() <= 1e-13


def test_coupling_matches_pointwise_oracle():
    space = MixedSpace(build_structured_mesh(4), problem=2)
    B = assemble_coupling(space, reduced=False)
    rng = np.random.default_rng(11)
    v = rng.standard_normal(space.n_u)
    q = rng.standard_normal(space.n_p)
    rule = make_quadrature(6)
    total = 0.0
    for tri in range(space.mesh.n_triangles):
        _, grads = eval_triangle_fields(space, v, tri, rule.points)
        div = grads[:, 0, 0] + grads[:, 1, 1]
        qvals = rule.points @ q[space.mesh.triangles[tri]]
        _, det = triangle_quadrature_xy(space, tri, rule)
        total += det * (rule.weights * qvals * div).sum()
    assert q @ (B @ v) == pytest.approx(total, rel=1e-12)


def uniform_vertical_load(x, y):
    """Body force (0, 1)."""
    z = np.zeros_like(np.asarray(x, dtype=float))
    return np.stack([z, z + 1.0], axis=-1)


def test_load_partition_of_unity():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    F = assemble_load(space, uniform_vertical_load, reduced=False)
    n_nodes = space.mesh.n_nodes
    assert F[1:2 * n_nodes:2].sum() == pytest.approx(4.0, rel=1e-12)
    zero = assemble_load(space, lambda x, y: np.zeros(x.shape + (2,)),
                         reduced=False)
    assert np.all(zero == 0.0)
    # the load vector is linear in its scale
    half = assemble_load(space, uniform_vertical_load, scale=0.5)
    full = assemble_load(space, uniform_vertical_load)
    assert np.allclose(half, 0.5 * full)


def test_load_matches_adaptive_quadrature():
    space = MixedSpace(build_structured_mesh(3), problem=1)
    mesh = space.mesh
    F = assemble_load(space, manufactured_load, reduced=False)

    def entry_oracle(dof):
        comp = dof % 2
        total = 0.0
        for tri in range(mesh.n_triangles):
            dofs = list(space.elem_dofs[tri])
            if dof not in dofs:
                continue
            a = dofs.index(dof) // 2
            verts = mesh.nodes[mesh.triangles[tri]]
            J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            det = abs(np.linalg.det(J))

            def integrand(b, acoord):
                xi, eta = acoord * (1.0 - b), acoord * b
                lam = np.array([1.0 - xi - eta, xi, eta])
                phi = lam[a] if a < 3 else 27.0 * lam[0] * lam[1] * lam[2]
                x, y = verts[0] + J @ np.array([xi, eta])
                f = manufactured_load(x, y)
                return f[comp] * phi * acoord * det

            val, err = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.0,
                                         epsabs=1e-13, epsrel=1e-13)
            total += val
        return total

    # one vertex dof per component near the middle, and one bubble dof
    mid = mesh.n_nodes // 2
    for dof in (2 * mid, 2 * mid + 1, 2 * mesh.n_nodes, 2 * mesh.n_nodes + 3):
        assert F[dof] == pytest.approx(entry_oracle(dof), abs=1e-10)


def test_pressure_mass():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    M = assemble_pressure_mass(space)
    ones = np.ones(space.n_p)
    assert ones @ (M @ ones) == pytest.approx(4.0, rel=1e-12)
    assert np.all(np.asarray(M.sum(axis=1)).ravel() > 0.0)


def test_h1_gram_linear_field():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    K = assemble_h1_gram(space, reduced=False)
    v = interpolate_p1(space, lambda x, y: x, lambda x, y: 0.0 * x)
    # grad (x,0) has norm 1, int x^2 over the square is 4/3
    assert v @ (K @ v) == pytest.approx(4.0 + 4.0 / 3.0, rel=1e-12)
    assert smallest_eigenvalue(assemble_h1_gram(space)) > 0.0


def test_divdiv_refinement_consistency():
    fx = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y)
    fy = lambda x, y: x * x * y
    values = []
    for n in (5, 9, 17):
        space = MixedSpace(build_structured_mesh(n), problem=1)
        S = assemble_divdiv(space, reduced=False)
        v = interpolate_p1(space, fx, fy)
        values.append(v @ (S @ v))
    d1 = abs(values[1] - values[0])
    d2 = abs(values[2] - values[1])
    assert d2 <= d1 / 2.0


def test_deterministic_assembly():
    space = MixedSpace(build_structured_mesh(6), problem=2)
    A1 = assemble_elastic(space, 40.0, 285.0)
    A2 = assemble_elastic(space, 40.0, 285.0)
    assert (A1 != A2).nnz == 0


def _coo_square(local, dofs, n):
    e, k, _ = local.shape
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((local.reshape(e, -1).ravel(), (rows, cols)),
                         shape=(n, n)).tocsr()


def _coo_vector(P, space, reduced):
    e, k = P.shape[:2]
    local = P.transpose(0, 1, 3, 2, 4).reshape(e, 2 * k, 2 * k)
    A = _coo_square(local, space.elem_dofs, space.n_u)
    free = space.free_dofs
    return A[free, :][:, free] if reduced else A


def coo_oracle(space, reduced):
    """Every operator of forms from the same element kernels, scattered as
    COO triplets and restricted to the free dofs by slicing."""
    rule, vals, rg = space.reference()
    _, det, invJT = space.geometry
    k = rg.shape[0]
    Pd = forms._gradgrad(space)
    Pr = forms._gradgrad(space, lambda x, y: 1.0 - y)
    Kg = np.einsum("eabii->eab", Pd)
    Ms = np.einsum("q,aq,bq->ab", rule.weights, vals, vals)
    K = Kg + Ms[None, :, :] * det[:, None, None]
    C = np.einsum("q,pq,aqm->pam", rule.weights, vals[:3], rg).reshape(3 * k, 2)
    Bloc = (C @ invJT.swapaxes(1, 2)) * det[:, None, None]
    rows = np.repeat(space.mesh.triangles, 2 * k, axis=1).ravel()
    cols = np.tile(space.elem_dofs, (1, 3)).ravel()
    B = sp.coo_matrix((Bloc.ravel(), (rows, cols)),
                      shape=(space.n_p, space.n_u)).tocsr()
    Mloc = np.einsum("q,pq,rq->pr", rule.weights, vals[:3], vals[:3])
    rule10, vals10, _ = space.reference(forms.LOAD_QUAD_DEGREE)
    p, _, _ = space.geometry
    xy = rule10.points @ p
    Floc = ((vals10 * rule10.weights) @ manufactured_load(xy[..., 0], xy[..., 1])
            * det[:, None, None])
    F = np.zeros(space.n_u)
    np.add.at(F, space.elem_dofs.ravel(), Floc.ravel())
    free = space.free_dofs
    return {
        "E2": _coo_vector(Kg[..., None, None] * np.eye(2) + Pd.swapaxes(-1, -2),
                          space, reduced),
        "R": _coo_vector(Pr.swapaxes(-1, -2), space, reduced),
        "S": _coo_vector(Pd, space, reduced),
        "K_V": _coo_vector(K[..., None, None] * np.eye(2), space, reduced),
        "B": B[:, free] if reduced else B,
        "M_p": _coo_square(Mloc[None, :, :] * det[:, None, None],
                           space.mesh.triangles, space.n_p),
        "F": F[free] if reduced else F,
    }


def assembled(space, reduced):
    E2, R = elastic_parts(space, reduced=reduced)
    return {"E2": E2, "R": R, "S": assemble_divdiv(space, reduced=reduced),
            "K_V": assemble_h1_gram(space, reduced=reduced),
            "B": assemble_coupling(space, reduced=reduced),
            "M_p": assemble_pressure_mass(space),
            "F": assemble_load(space, manufactured_load, reduced=reduced)}


@pytest.mark.parametrize("jitter", [False, True])
@pytest.mark.parametrize("include_bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
def test_scatter_plans_match_coo_oracle(problem, include_bubbles, jitter):
    for n in range(2, 10):
        space = (jittered_space(n, problem, seed=n, include_bubbles=include_bubbles)
                 if jitter else MixedSpace(build_structured_mesh(n), problem=problem,
                                           include_bubbles=include_bubbles))
        for reduced in (True, False):
            want = coo_oracle(space, reduced)
            for name, A in assembled(space, reduced).items():
                ref = want[name]
                scale = np.abs(ref.data if sp.issparse(ref) else ref).max(initial=0.0)
                assert A.shape == ref.shape, (n, reduced, name)
                if sp.issparse(ref):
                    ref.sort_indices()
                    assert np.array_equal(A.indptr, ref.indptr), (n, reduced, name)
                    assert np.array_equal(A.indices, ref.indices), (n, reduced, name)
                    A, ref = A.data, ref.data
                assert np.all(np.abs(A - ref) <= 1e-15 * scale), (n, reduced, name)


@pytest.mark.parametrize("problem,nnz", [(1, 335664), (2, 340029)])
def test_scatter_plan_nnz_at_65(problem, nnz):
    # the benchmark's 65x65 reference counts, explicit zeros included
    space = MixedSpace(build_structured_mesh(65), problem=problem)
    mats = elastic_parts(space) + (assemble_divdiv(space), assemble_h1_gram(space))
    assert [A.nnz for A in mats] == [nnz] * 4


def test_elastic_parts_transient_memory():
    # a fresh space, so the peak includes building its plan; COO scatter
    # with post-hoc slicing peaked at about 5x the bytes returned
    space = MixedSpace(build_structured_mesh(33), problem=1)
    tracemalloc.start()
    try:
        mats = elastic_parts(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(a.nbytes for A in mats for a in (A.data, A.indices, A.indptr))
    assert peak < 3.0 * returned


def test_load_refuses_a_field_of_the_wrong_shape():
    space = MixedSpace(build_structured_mesh(3), problem=1)
    with pytest.raises(ValueError, match=r"load field returned shape \(8,\), expected \(8, 2\)"):
        assemble_load(space, lambda x, y: x + y)
