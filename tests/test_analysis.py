"""Stability detection, convergence study and abstract-constants checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stabmix import (AbstractConstants, MixedSpace, ProblemConfig,
                     assemble_coupling, assemble_h1_gram,
                     assemble_pressure_mass, build_structured_mesh, compute_M0,
                     compute_errors, estimate_inf_sup, find_stability_limits,
                     is_stable, manufactured_pressure, run_convergence)
from stabmix import analysis, forms
from stabmix.analysis import (KERNEL_RTOL, CertifiedStep, Crossing,
                              _StabilityOperator)
from stabmix.mesh import TriMesh
from stabmix.solvers import positive_definite_factor
from stabmix.spaces import make_quadrature


def test_config_defaults_by_problem():
    cfg1 = ProblemConfig(problem=1)
    cfg2 = ProblemConfig(problem=2)
    assert cfg1.mu == 40.0 and cfg1.m1 == 320.0 and cfg1.m2 == 0.0
    assert cfg2.m2 == 1.36
    assert cfg1.gamma(1.0) == 40.0


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(problem=3)
    with pytest.raises(ValueError):
        ProblemConfig(mu=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(m1=-1.0)
    with pytest.raises(ValueError):
        ProblemConfig(bisect_tol=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(n=1)


@pytest.mark.parametrize("field", ["mu", "m1", "m2", "gamma_tilde",
                                   "delta_gamma", "bisect_tol", "gamma_cap"])
def test_config_rejects_non_finite(field):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ProblemConfig(**{field: bad})


def test_compute_M0_frozen_examples():
    assert compute_M0(AbstractConstants(alpha=2, beta=1, c1=1, c2=1)) == pytest.approx(3.0)
    assert compute_M0(AbstractConstants(alpha=1, beta=2, c1=1, c2=0)) == pytest.approx(0.625)
    base = compute_M0(AbstractConstants(alpha=1.7, beta=0.9, c1=2.2, c2=0.3))
    doubled = compute_M0(AbstractConstants(alpha=1.7, beta=1.8, c1=2.2, c2=0.3))
    assert doubled == pytest.approx(base / 4.0, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=0.0, max_value=1e3))
def test_compute_M0_matches_hand_formula(alpha, beta, c1, c2):
    val = compute_M0(AbstractConstants(alpha=alpha, beta=beta, c1=c1, c2=c2))
    hand = (alpha / 2.0 + c2 + 2.0 * c1 * c1 / alpha) / beta ** 2
    assert val == pytest.approx(hand, rel=1e-12)


def test_compute_M0_rejects_nonpositive():
    with pytest.raises(ValueError):
        AbstractConstants(alpha=0.0, beta=1.0, c1=1.0, c2=1.0)
    with pytest.raises(ValueError):
        AbstractConstants(alpha=1.0, beta=-1.0, c1=1.0, c2=1.0)
    with pytest.raises(ValueError):
        AbstractConstants(alpha=1.0, beta=1.0, c1=1.0, c2=-0.5)


def test_is_stable_pure_elasticity():
    lam, ok = is_stable(ProblemConfig(problem=1, n=9, gamma_tilde=0.0))
    assert ok and lam > 0.0


def test_classical_method_verdicts():
    stable = ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0, gamma_tilde=0.5)
    lam, ok = is_stable(stable)
    assert ok and lam > 0.0
    unstable = ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0, gamma_tilde=2.0)
    lam, ok = is_stable(unstable)
    assert not ok and lam < 0.0


def _dense_lambda_min(A):
    return np.linalg.eigvalsh(A.toarray())[0]


@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}],
                         ids=["stabilized", "classical"])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_limits_match_dense_oracle(n, problem, weights):
    cfg = ProblemConfig(problem=problem, n=n, **weights)
    rep = find_stability_limits(cfg)
    op = _StabilityOperator(cfg)
    E2, R = forms.elastic_parts(op.space)
    S = forms.assemble_divdiv(op.space)
    tol = cfg.bisect_tol
    for sign, gamma in ((1.0, rep.gamma_M), (-1.0, rep.gamma_m)):
        g = abs(gamma)
        if math.isfinite(g):
            assert _dense_lambda_min(op.matrix(sign * g)) > 0.0
            assert _dense_lambda_min(op.matrix(sign * (g + tol))) < 0.0
            grid = np.linspace(0.0, g, 200)
        else:  # unbounded: stable at every scale up to the cap
            grid = np.concatenate([[0.0], np.geomspace(1e-2, cfg.gamma_cap, 199)])
        assert all(_dense_lambda_min(op.matrix(sign * s)) > 0.0 for s in grid)
        if cfg.m2 == 0.0:
            # A(s) = K0 + s*Kd is linear: singular first at s = 1/theta_max
            Kd = -sign * cfg.mu * R + cfg.m1 * S
            theta = sla.eigh(-Kd.toarray(), cfg.mu * E2.toarray(),
                             eigvals_only=True)[-1]
            if theta * cfg.gamma_cap > 1.0:
                assert g == pytest.approx(1.0 / theta, abs=tol)
            else:
                assert g == math.inf


def test_stable_set_is_not_an_interval():
    # 9x9 problem 2 is unstable past its critical load and stable again at
    # large loads, where m2*gt^2*S dominates; the first crossing is reported
    cfg = ProblemConfig(problem=2, n=9)
    op = _StabilityOperator(cfg)
    for gt, stable in ((10.0, False), (1e2, False), (1e3, False),
                       (1e4, True), (1e5, True), (1e6, True)):
        assert (positive_definite_factor(op.matrix(gt)) is not None) == stable
    assert find_stability_limits(cfg).gamma_M == pytest.approx(3.858, abs=0.01)
    lam, ok = is_stable(replace(cfg, gamma_tilde=1e5))
    assert ok and lam > 0.0


def test_scan_stays_within_cap():
    cfg = ProblemConfig(problem=2, n=9, gamma_cap=3.8)
    rep = find_stability_limits(cfg)
    assert rep.gamma_M == math.inf
    steps = [e for e in rep.trace if isinstance(e, CertifiedStep)]
    assert max(abs(e.hi) for e in steps) == cfg.gamma_cap


def test_find_stability_limits_small_mesh():
    rep = find_stability_limits(ProblemConfig(problem=1, n=9))
    assert rep.gamma_m == -math.inf
    assert rep.gamma_M == pytest.approx(14.687, abs=0.01)
    # the proved steps tile [0, gamma_M] and, gamma_m being -inf, [-cap, 0]
    for sign, end in ((1.0, rep.gamma_M), (-1.0, -1e6)):
        steps = [e for e in rep.trace
                 if isinstance(e, CertifiedStep) and sign * e.hi > 0.0]
        assert steps[0].lo == 0.0 and steps[-1].hi == end
        assert all(sign * (s.hi - s.lo) > 0.0 for s in steps)
        assert all(s.hi == t.lo for s, t in zip(steps, steps[1:]))
    crossings = [e for e in rep.trace if isinstance(e, Crossing)]
    assert len(crossings) == 1 and crossings[0].lam < 0.0
    assert crossings[0].load == pytest.approx(rep.gamma_M + 0.01)


def test_unconfirmed_crossing_raises(monkeypatch):
    monkeypatch.setattr(analysis, "smallest_eigenvalue", lambda A: 1.0)
    with pytest.raises(ArithmeticError, match="not negative"):
        find_stability_limits(ProblemConfig(problem=1, n=9))


def test_find_stability_limits_classical_is_finite():
    rep = find_stability_limits(
        ProblemConfig(problem=1, n=5, m1=0.0, m2=0.0))
    assert rep.gamma_M < math.inf  # the unstabilized method loses stability
    assert 1.0 <= rep.gamma_M <= 2.0


def test_stability_report_validation():
    from stabmix import StabilityReport
    with pytest.raises(ValueError):
        StabilityReport(problem=1, n=5, gamma_m=1.0, gamma_M=2.0)


def test_infsup_mini_vs_p1p1():
    mini = [estimate_inf_sup(MixedSpace(build_structured_mesh(n), problem=1))
            for n in (5, 9)]
    assert all(b > 0.05 for b in mini)
    control = [estimate_inf_sup(MixedSpace(build_structured_mesh(n), problem=1,
                                           include_bubbles=False))
               for n in (5, 9, 17)]
    assert control[0] > control[1] > control[2]


def dense_inf_sup(space):
    """The dense computation that estimate_inf_sup replaced: the full Schur
    complement and a generalized eigh, skipping eigenvalues below
    KERNEL_RTOL times the largest."""
    B = assemble_coupling(space)
    Mp = assemble_pressure_mass(space)
    lu = spla.splu(assemble_h1_gram(space).tocsc())
    schur = B @ lu.solve(B.toarray().T)
    w = sla.eigh(0.5 * (schur + schur.T), Mp.toarray(), eigvals_only=True)
    n_kernel = int(np.sum(w < KERNEL_RTOL * max(w[-1], 1e-300)))
    if n_kernel >= len(w):
        return 0.0
    return math.sqrt(max(w[n_kernel], 0.0))


@pytest.mark.parametrize("bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9, 17])
def test_infsup_matches_dense_oracle(n, problem, bubbles):
    space = MixedSpace(build_structured_mesh(n), problem=problem,
                       include_bubbles=bubbles)
    assert estimate_inf_sup(space) == pytest.approx(dense_inf_sup(space),
                                                    rel=1e-10)


@pytest.mark.parametrize("problem, bubbles, n, beta1", [
    (1, True, 2, 0.37416574), (1, True, 3, 0.26201159),
    # no free displacement dofs on 2x2: every pressure is a kernel mode
    (1, False, 2, 0.0), (1, False, 3, 0.31145918),
    (2, True, 2, 0.37321792), (2, True, 3, 0.38414334),
    (2, False, 2, 0.42440813), (2, False, 3, 0.10694763),
])
def test_infsup_smallest_meshes(problem, bubbles, n, beta1):
    # n_p = 4 and 9: the kernel search reaches ARPACK's limit k < n_p - 1
    space = MixedSpace(build_structured_mesh(n), problem=problem,
                       include_bubbles=bubbles)
    assert estimate_inf_sup(space) == pytest.approx(beta1, rel=1e-6)


def test_infsup_65():
    # dense-oracle values of this mesh (four kernel modes without bubbles)
    mesh = build_structured_mesh(65)
    mini = estimate_inf_sup(MixedSpace(mesh, problem=1))
    control = estimate_inf_sup(MixedSpace(mesh, problem=1, include_bubbles=False))
    assert mini == pytest.approx(0.31266023, rel=1e-6)
    assert control == pytest.approx(0.0075508636, rel=1e-6)


def test_compute_errors_exact_discrete_field_is_zero():
    space = MixedSpace(build_structured_mesh(5), problem=2)
    # a linear pressure the P1 space reproduces exactly, and the exact
    # displacement zero
    p_exact = lambda x, y: 2.0 * x - 3.0 * y + 1.0
    p_h = p_exact(space.mesh.nodes[:, 0], space.mesh.nodes[:, 1])
    err_p, err_w = compute_errors(space, np.zeros(len(space.free_dofs)), p_h,
                                  exact_pressure=p_exact)
    assert err_p <= 1e-12
    assert err_w == 0.0


def test_compute_errors_interpolant_vs_adaptive_oracle():
    space = MixedSpace(build_structured_mesh(3), problem=1)
    mesh = space.mesh
    p_h = manufactured_pressure(mesh.nodes[:, 0], mesh.nodes[:, 1])
    err_p, _ = compute_errors(space, np.zeros(len(space.free_dofs)), p_h,
                              exact_pressure=manufactured_pressure)

    total = 0.0
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        J = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
        det = abs(np.linalg.det(J))
        pv = p_h[mesh.triangles[tri]]

        def integrand(b, a):
            xi, eta = a * (1.0 - b), a * b
            lam = np.array([1.0 - xi - eta, xi, eta])
            x, y = verts[0] + J @ np.array([xi, eta])
            diff = manufactured_pressure(x, y) - lam @ pv
            return diff * diff * a * det

        val, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.0,
                                   epsabs=1e-13, epsrel=1e-13)
        total += val
    assert err_p == pytest.approx(math.sqrt(total), rel=1e-8)


def test_compute_errors_displacement_gradient_matches_oracle():
    base = build_structured_mesh(4)
    nodes = base.nodes.copy()
    interior = np.all(np.abs(nodes) < 1.0 - 1e-12, axis=1)
    rng = np.random.default_rng(17)
    h = 2.0 / (4 - 1)
    nodes[interior] += 0.15 * h * rng.uniform(-1.0, 1.0, (interior.sum(), 2))
    mesh = TriMesh(nodes, base.triangles)
    space = MixedSpace(mesh, problem=1)
    w_h = rng.standard_normal(len(space.free_dofs))
    _, err_w = compute_errors(space, w_h, np.zeros(space.n_p),
                              exact_pressure=lambda x, y: 0.0 * x)

    # oracle: the H1 norm of w_h (the exact displacement is zero) by
    # pointwise quadrature, with barycentric coordinates from a 3x3 solve
    full = np.zeros(space.n_u)
    full[space.free_dofs] = w_h
    rule = make_quadrature(10)
    total = 0.0
    for tri in range(mesh.n_triangles):
        verts = mesh.nodes[mesh.triangles[tri]]
        coef = np.linalg.inv(np.vstack([np.ones(3), verts.T]))  # lam = coef @ (1, x, y)
        dlam = coef[:, 1:]                                      # (3, 2)
        xy = verts[0][:, None] + (verts[1:] - verts[0]).T @ rule.points[:, 1:].T
        lam = (coef @ np.vstack([np.ones(rule.points.shape[0]), xy])).T
        bubble = 27.0 * lam.prod(axis=1)
        dbubble = 27.0 * (lam[:, [1]] * lam[:, [2]] * dlam[0]
                          + lam[:, [0]] * lam[:, [2]] * dlam[1]
                          + lam[:, [0]] * lam[:, [1]] * dlam[2])
        dofs = space.elem_dofs[tri]
        hats = full[dofs[:6]].reshape(3, 2)                     # [a, c]
        bub = full[dofs[6:]]
        u = lam @ hats + bubble[:, None] * bub
        grad = np.einsum("ac,ai->ci", hats, dlam)[None] + np.einsum(
            "c,qi->qci", bub, dbubble)
        area = abs(np.linalg.det(verts[1:] - verts[0]))
        total += area * (rule.weights @ ((u ** 2).sum(axis=1)
                                         + (grad ** 2).sum(axis=(1, 2))))
    assert err_w == pytest.approx(math.sqrt(total), rel=1e-12)


def test_zero_load_gives_zero_solution():
    from stabmix import SaddleSystem, assemble_elastic, solve_saddle
    space = MixedSpace(build_structured_mesh(5), problem=1)
    A = assemble_elastic(space, mu=40.0, gamma=0.0)
    B = assemble_coupling(space)
    u, p = solve_saddle(SaddleSystem(A, B, np.zeros(len(space.free_dofs)),
                                     np.zeros(space.n_p)))
    assert np.allclose(u, 0.0, atol=1e-14)
    assert np.allclose(p, 0.0, atol=1e-14)
    err_p, err_w = compute_errors(space, u, p,
                                  exact_pressure=lambda x, y: 0.0 * x)
    assert err_p <= 1e-12 and err_w <= 1e-12


def test_convergence_small_meshes():
    cfg = ProblemConfig(problem=1, gamma_tilde=7.125)
    table = run_convergence(cfg, [5, 9])
    assert table.rows[0].order is None
    assert table.rows[1].order == pytest.approx(2.0, abs=0.1)
    assert table.rows[0].err_p_L2 == pytest.approx(6.29e-2, rel=0.02)
    # the manufactured response is near zero on the coarsest mesh
    assert table.rows[0].err_w_H1 <= 1e-5


def test_convergence_linearity_in_delta_gamma():
    base = run_convergence(ProblemConfig(problem=1, gamma_tilde=7.125), [5])
    doubled = run_convergence(
        ProblemConfig(problem=1, gamma_tilde=7.125, delta_gamma=2.0), [5])
    assert doubled.rows[0].err_p_L2 == pytest.approx(
        2.0 * base.rows[0].err_p_L2, rel=1e-10)
    assert doubled.rows[0].err_w_H1 == pytest.approx(
        2.0 * base.rows[0].err_w_H1, rel=1e-8)


def test_convergence_refuses_unstable():
    cfg = ProblemConfig(problem=1, m1=0.0, m2=0.0, gamma_tilde=7.125)
    with pytest.raises(ValueError, match="not positive definite"):
        run_convergence(cfg, [5])
    with pytest.raises(ValueError):
        run_convergence(ProblemConfig(problem=1), [])


def test_lambda_min_monotone_in_m1():
    lams = []
    for m1 in (80.0, 320.0, 1280.0):
        cfg = ProblemConfig(problem=1, n=9, m1=m1, m2=0.0, gamma_tilde=2.0)
        lam, _ = is_stable(cfg)
        lams.append(lam)
    assert lams[0] <= lams[1] + 1e-10 <= lams[2] + 2e-10


def test_stabilization_parameter_values():
    # the div-div weight M = m1*|gt| + m2*gt^2 of the stability operator,
    # written out: m1 = 320 and m2 = 0 (problem 1) or 1.36 (problem 2);
    # even in the load factor
    cases = {1: ((7.125, 2280.0), (-7.125, 2280.0), (0.0, 0.0)),
             2: ((3.23, 320.0 * 3.23 + 1.36 * 3.23 ** 2),)}
    for problem, loads in cases.items():
        cfg = ProblemConfig(problem=problem, n=5)
        op = _StabilityOperator(cfg)
        E2, R = forms.elastic_parts(op.space)
        S = forms.assemble_divdiv(op.space)
        for gt, M in loads:
            A = op.matrix(gt)
            ref = cfg.mu * E2 - cfg.gamma(gt) * R + M * S
            assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()


def test_operator_matrix_affine_pieces():
    cfg = ProblemConfig(problem=2, n=5, gamma_tilde=1.5)
    op = _StabilityOperator(cfg)
    E2, R = forms.elastic_parts(op.space)
    S = forms.assemble_divdiv(op.space)
    for gt in (1.5, -1.5, 0.0):
        A = op.matrix(gt)
        M = 320.0 * abs(gt) + 1.36 * gt ** 2
        ref = cfg.mu * E2 - cfg.gamma(gt) * R + M * S
        assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()
        # the derivative along |gt|: a one-sided difference exact on quadratics
        sign, s = math.copysign(1.0, gt), abs(gt)
        fd = (4.0 * op.matrix(sign * (s + 1.0)) - 3.0 * op.matrix(sign * s)
              - op.matrix(sign * (s + 2.0))) / 2.0
        dA = op.Kd[sign] + 2.0 * s * op.K2
        assert abs(fd - dA).max() <= 1e-8 * abs(dA).max()
