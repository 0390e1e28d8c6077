"""Stability detection, convergence study and abstract-constants checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stabmix import (AbstractConstants, MixedSpace, ProblemConfig,
                     assemble_coupling, build_structured_mesh, compute_M0,
                     compute_errors, estimate_inf_sup, find_stability_limits,
                     is_stable, manufactured_pressure, run_convergence,
                     stabilization_parameter)
from stabmix.analysis import _StabilityOperator, _probe_magnitudes
from stabmix.mesh import TriMesh
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
                                   "delta_gamma", "scan_step", "bisect_tol",
                                   "gamma_cap"])
def test_config_rejects_non_finite(field):
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ProblemConfig(**{field: bad})


def test_stabilization_parameter_values():
    cfg = ProblemConfig(problem=1, gamma_tilde=7.125)
    assert stabilization_parameter(cfg) == pytest.approx(2280.0, abs=1e-12)
    assert stabilization_parameter(cfg, 0.0) == 0.0
    cfg2 = ProblemConfig(problem=2, gamma_tilde=3.23)
    expected = 320.0 * 3.23 + 1.36 * 3.23 ** 2
    assert stabilization_parameter(cfg2) == pytest.approx(expected, abs=1e-6)
    # even in the load factor
    assert stabilization_parameter(cfg, -7.125) == pytest.approx(2280.0, abs=1e-12)


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


def test_probe_schedule_structure():
    cfg = ProblemConfig(problem=1, n=5)
    probes = _probe_magnitudes(cfg)
    # linear quarter steps up to the span
    assert probes[:4] == [0.25, 0.5, 0.75, 1.0]
    assert 8.0 in probes
    after = [t for t in probes if t > 8.0]
    assert after[:3] == [16.0, 32.0, 64.0]
    assert probes[-1] == cfg.gamma_cap
    assert all(b > a for a, b in zip(probes, probes[1:]))
    # the default schedule in full: 32 quarter steps, doubling, the cap
    assert probes == ([0.25 * i for i in range(1, 33)]
                      + [8.0 * 2 ** k for k in range(1, 17)] + [1e6])
    # a step that does not divide the cap never probes beyond it
    for step, cap in ((0.3, 3.8), (0.3, 3.9), (0.7, 0.5), (3.0, 100.0)):
        probes = _probe_magnitudes(ProblemConfig(scan_step=step, gamma_cap=cap))
        assert all(0.0 < t <= cap for t in probes)
        assert probes[-1] == cap
        assert all(b > a for a, b in zip(probes, probes[1:]))


def test_scan_stays_within_cap():
    # 9x9 problem 2 loses stability near 3.86; a 0.3 step rounded up to a
    # 3.9 probe used to report that load although the cap is 3.8
    cfg = ProblemConfig(problem=2, n=9, scan_step=0.3, gamma_cap=3.8)
    rep = find_stability_limits(cfg)
    assert max(abs(gt) for gt, _ in rep.trace) <= cfg.gamma_cap
    assert rep.gamma_M == math.inf


def test_find_stability_limits_small_mesh():
    rep = find_stability_limits(ProblemConfig(problem=1, n=9))
    assert rep.gamma_m == -math.inf
    assert rep.gamma_M == pytest.approx(14.68, abs=0.05)
    # trace positivity strictly inside the stable range
    for gt, lam in rep.trace:
        if rep.gamma_m < gt < rep.gamma_M:
            assert lam > 0.0
    assert rep.gamma_m <= 0.0 <= rep.gamma_M


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


def test_compute_errors_exact_discrete_field_is_zero():
    space = MixedSpace(build_structured_mesh(5), problem=2)
    # linear fields the constrained P1 parts reproduce exactly:
    # w = (0, 0.6*(1+y)) vanishes on every constrained dof of problem 2
    p_exact = lambda x, y: 2.0 * x - 3.0 * y + 1.0
    w_exact = lambda x, y: np.stack([0.0 * x, 0.6 * (1.0 + y)], axis=-1)
    gw_exact = lambda x, y: np.broadcast_to(
        np.array([[0.0, 0.0], [0.0, 0.6]]), x.shape + (2, 2)).copy()
    mesh = space.mesh
    p_h = p_exact(mesh.nodes[:, 0], mesh.nodes[:, 1])
    full = np.zeros(space.n_u)
    full[1:2 * mesh.n_nodes:2] = 0.6 * (1.0 + mesh.nodes[:, 1])
    err_p, err_w = compute_errors(space, full[space.free_dofs], p_h,
                                  exact_pressure=p_exact,
                                  exact_displacement=w_exact,
                                  exact_displacement_grad=gw_exact)
    assert err_p <= 1e-12
    assert err_w <= 1e-12


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
    # an exact field with a nonsymmetric gradient, [c, i] = d_i w_c
    w_ex = lambda x, y: np.stack([np.sin(x) + y * y, x * y ** 3], axis=-1)
    gw_ex = lambda x, y: np.stack([np.stack([np.cos(x), 2.0 * y], axis=-1),
                                   np.stack([y ** 3, 3.0 * x * y * y], axis=-1)],
                                  axis=-2)
    _, err_w = compute_errors(space, w_h, np.zeros(space.n_p),
                              exact_pressure=lambda x, y: 0.0 * x,
                              exact_displacement=w_ex,
                              exact_displacement_grad=gw_ex)

    # oracle: barycentric coordinates of each triangle from a 3x3 solve
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
        diff_u = w_ex(xy[0], xy[1]) - u
        diff_g = gw_ex(xy[0], xy[1]) - grad
        area = abs(np.linalg.det(verts[1:] - verts[0]))
        total += area * (rule.weights @ ((diff_u ** 2).sum(axis=1)
                                         + (diff_g ** 2).sum(axis=(1, 2))))
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


def test_operator_matrix_affine_pieces():
    cfg = ProblemConfig(problem=2, n=5, gamma_tilde=1.5)
    op = _StabilityOperator(cfg)
    A = op.matrix(1.5)
    ref = (cfg.mu * op.E2 - cfg.gamma(1.5) * op.R
           + stabilization_parameter(cfg, 1.5) * op.S)
    assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()
