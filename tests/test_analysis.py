"""Stability detection, convergence study and abstract-constants checks."""

import math
import re
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
    assert replace(cfg1, gamma_tilde=1.0).gamma() == 40.0


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(problem=3)
    with pytest.raises(ValueError):
        ProblemConfig(mu=0.0)
    with pytest.raises(ValueError):
        ProblemConfig(m1=-1.0)
    with pytest.raises(ValueError):
        ProblemConfig(n=1)


@pytest.mark.parametrize("field", ["mu", "m1", "m2", "gamma_tilde",
                                   "delta_gamma"])
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
    tol = analysis.BISECT_TOL
    for sign, gamma in ((1.0, rep.gamma_M), (-1.0, rep.gamma_m)):
        g = abs(gamma)
        if math.isfinite(g):
            assert _dense_lambda_min(op.matrix(sign * g)) > 0.0
            assert _dense_lambda_min(op.matrix(sign * (g + tol))) < 0.0
            grid = np.linspace(0.0, g, 200)
        else:  # unbounded: stable at every scale up to the cap
            grid = np.concatenate([[0.0],
                                   np.geomspace(1e-2, analysis.GAMMA_CAP, 199)])
        assert all(_dense_lambda_min(op.matrix(sign * s)) > 0.0 for s in grid)
        if cfg.m2 == 0.0:
            # A(s) = K0 + s*Kd is linear: singular first at s = 1/theta_max
            Kd = -sign * cfg.mu * R + cfg.m1 * S
            theta = sla.eigh(-Kd.toarray(), cfg.mu * E2.toarray(),
                             eigvals_only=True)[-1]
            if theta * analysis.GAMMA_CAP > 1.0:
                assert g == pytest.approx(1.0 / theta, abs=tol)
            else:
                assert g == math.inf
    # a ray proof rests on A(a) > 0 and A'(a) > 0: check the second through
    # the pencil A'(a) x = lambda K0 x
    rays = [e for e in rep.trace if isinstance(e, CertifiedStep) and math.isinf(e.hi)]
    for ray in rays:
        sign, a = math.copysign(1.0, ray.hi), abs(ray.lo)
        Kd, K2 = op.parts(sign)
        dA = op.csr(Kd + 2.0 * a * K2)
        assert sla.eigh(dA.toarray(), op.csr(op.K0).toarray(),
                        eigvals_only=True)[0] > 0.0
    if problem == 1 and not weights:  # unbounded below, by a ray proof
        assert rays and rays[-1].hi == -math.inf


def _block(op, gt):
    """Data of A(gt), summed as the search sums it."""
    Kd, K2 = op.parts(math.copysign(1.0, gt))
    return op.K0 + abs(gt) * Kd + gt * gt * K2


def _pd_pairs(op, trace):
    """Block data the search tests, named: A(s) near each step end and each
    crossing (within 1e-3), the tangents of the steps, stretched ones that
    may fail, and A'(a) at each step start."""
    eps = (0.0, 1e-6, 1e-4, 1e-3, -1e-3, -1e-4, -1e-6)
    for e in trace:
        if isinstance(e, Crossing):
            sign, g = math.copysign(1.0, e.load), abs(e.load) - analysis.BISECT_TOL
            for d in eps + (analysis.BISECT_TOL,):
                yield f"A({sign * (g + d)!r})", _block(op, sign * (g + d))
            continue
        sign, lo = math.copysign(1.0, e.hi), abs(e.lo)
        Kd, K2 = op.parts(sign)
        dA = Kd + 2.0 * lo * K2
        yield f"A'({e.lo!r})", dA
        if math.isinf(e.hi):
            continue
        t = abs(e.hi) - lo
        for f in (1.0, 1.01, 2.0):
            yield f"tangent {e.lo!r} + {f}*{t!r}", _block(op, e.lo) + f * t * dA
        for d in eps:
            yield f"A({e.hi * (1.0 + d)!r})", _block(op, e.hi * (1.0 + d))


@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}],
                         ids=["stabilized", "classical"])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9, 17])
def test_condensed_verdicts_match_full(n, problem, weights):
    # A > 0 iff every bubble block and the vertex Schur complement are
    # (Haynsworth): the condensed test agrees with one LDL^T of the whole
    # block on every kind of matrix the search tests, crossings included
    cfg = ProblemConfig(problem=problem, n=n, **weights)
    op = _StabilityOperator(cfg)
    trace = [e for e in find_stability_limits(cfg).trace
             if isinstance(e, Crossing) or abs(e.lo) < 1e3]
    seen = set()
    for name, data in _pd_pairs(op, trace):
        full = positive_definite_factor(op.csr(data)) is not None
        assert (op.positive_definite(data) is not None) == full, name
        seen.add(full)
    # loads on both sides of every crossing (5x5 problem 1 has none)
    assert seen == {True, False} or not any(isinstance(e, Crossing) for e in trace)


def test_condensed_test_rejects_bubble_block_unfactored(monkeypatch):
    op = _StabilityOperator(ProblemConfig(problem=1, n=5))
    data = _block(op, 1.0)
    assert op.positive_definite(data) is not None
    bubble_blocks = op._condensation[0]
    data[bubble_blocks[7, 1, 1]] = -1.0  # b11 < 0, so det < 0
    monkeypatch.setattr(analysis, "positive_definite_factor",
                        lambda A: pytest.fail("factored a block with a bad B_e"))
    assert op.positive_definite(data) is None
    data[bubble_blocks[7, 0, 0]] = -1.0  # b00 < 0
    assert op.positive_definite(data) is None


def _trace_of(cfg, sign):
    trace = []
    return analysis._certified_limit(_StabilityOperator(cfg), sign, trace), trace


@pytest.mark.parametrize("n", [5, 9, 17])
def test_lanczos_budget_keeps_finite_directions(monkeypatch, n):
    # the restart budget bounds only the proposal: directions whose Lanczos
    # solves converge within it take bit-identical steps and crossings
    cases = [(ProblemConfig(problem=p, n=n, **w), sign)
             for p in (1, 2) for w in ({}, {"m1": 0.0, "m2": 0.0})
             for sign in (1.0, -1.0)]
    cases = [(c, s) for c, s in cases if not (c.problem == 2 and c.m2 and s < 0)]
    budgeted = [_trace_of(cfg, sign) for cfg, sign in cases]
    monkeypatch.setattr(analysis, "LANCZOS_RESTARTS", 10 ** 6)
    assert budgeted == [_trace_of(cfg, sign) for cfg, sign in cases]
    assert sum(math.isfinite(limit) for limit, _ in budgeted) >= 5


def test_lanczos_budget_proposes_the_cap(monkeypatch):
    # 17x17 problem 2's unbounded direction needs more restarts than the
    # budget: the proposal is the cap, halved until the tangent test passes
    real, outcomes = spla.eigsh, []

    def recorded(*args, **kwargs):
        try:
            outcomes.append(real(*args, **kwargs))
        except spla.ArpackNoConvergence:
            outcomes.append(None)
            raise
        return outcomes[-1]

    monkeypatch.setattr(analysis.spla, "eigsh", recorded)
    limit, trace = _trace_of(ProblemConfig(problem=2, n=17), -1.0)
    assert limit == -math.inf and outcomes == [None]
    first = -trace[0].hi / analysis.GAMMA_CAP
    assert first == 2.0 ** round(math.log2(first)) < 1.0
    assert trace[-1].hi == -analysis.GAMMA_CAP


@pytest.mark.slow
@pytest.mark.parametrize("sign,limit", [(1.0, 6.7367), (-1.0, -307.21)])
def test_critical_loads_65_problem1(sign, limit):
    # gamma_m is finite at 65x65 (the ray test fails there), and its first
    # Lanczos proposal exceeds the restart budget: the cap, halved, steps first
    got, trace = _trace_of(ProblemConfig(problem=1, n=65), sign)
    assert got == pytest.approx(limit, abs=analysis.BISECT_TOL)
    assert isinstance(trace[-1], Crossing) and trace[-1].lam < 0.0
    if sign < 0:
        first = -trace[0].hi / analysis.GAMMA_CAP
        assert first == 2.0 ** round(math.log2(first))


def test_verdicts_build_no_condensation(monkeypatch):
    # the slot maps are built by the first condensed test of a search only
    monkeypatch.setattr(_StabilityOperator, "_condensation",
                        property(lambda op: pytest.fail("built the slot maps")))
    assert is_stable(ProblemConfig(problem=2, n=9, gamma_tilde=3.0))[1]
    run_convergence(ProblemConfig(problem=1, gamma_tilde=2.0), [5, 9])


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


def test_scan_stays_within_cap(monkeypatch):
    monkeypatch.setattr(analysis, "GAMMA_CAP", 3.8)
    rep = find_stability_limits(ProblemConfig(problem=2, n=9))
    assert rep.gamma_M == math.inf
    steps = [e for e in rep.trace if isinstance(e, CertifiedStep)]
    assert max(abs(e.hi) for e in steps) == analysis.GAMMA_CAP


def test_find_stability_limits_small_mesh():
    rep = find_stability_limits(ProblemConfig(problem=1, n=9))
    assert rep.gamma_m == -math.inf
    assert rep.gamma_M == pytest.approx(14.687, abs=0.01)
    # the proved steps tile [0, gamma_M] and, gamma_m being -inf, the whole
    # negative ray: its last step is a ray proof ending at -inf
    for sign, end in ((1.0, rep.gamma_M), (-1.0, -math.inf)):
        steps = [e for e in rep.trace
                 if isinstance(e, CertifiedStep) and sign * e.hi > 0.0]
        assert steps[0].lo == 0.0 and steps[-1].hi == end
        assert all(sign * (s.hi - s.lo) > 0.0 for s in steps)
        assert all(s.hi == t.lo for s, t in zip(steps, steps[1:]))
    crossings = [e for e in rep.trace if isinstance(e, Crossing)]
    assert len(crossings) == 1 and crossings[0].lam < 0.0
    assert crossings[0].load == pytest.approx(rep.gamma_M + analysis.BISECT_TOL)


def _count_eigsh(monkeypatch):
    calls = []
    real = spla.eigsh

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(analysis.spla, "eigsh", counted)
    return calls


@pytest.mark.parametrize("n", [9, 17])
def test_ray_proof_settles_unbounded_direction(monkeypatch, n):
    # problem 1's A'(0) = m1*S + mu*R is positive definite under negative
    # loads, which proves A > 0 on the whole ray from one factorization
    op = _StabilityOperator(ProblemConfig(problem=1, n=n))
    calls = _count_eigsh(monkeypatch)
    trace = []
    assert analysis._certified_limit(op, -1.0, trace) == -math.inf
    assert trace == [CertifiedStep(-0.0, -math.inf)]
    assert math.copysign(1.0, trace[0].lo) == -1.0
    assert calls == []


def test_tail_steps_skip_lanczos(monkeypatch, factor_budget):
    # problem 2's A' fails every ray test, so the negative direction steps
    # to the cap; after the first step the grown proposals are proved by
    # their tangent test alone
    op = _StabilityOperator(ProblemConfig(problem=2, n=9))
    calls = _count_eigsh(monkeypatch)
    trace = []
    assert analysis._certified_limit(op, -1.0, trace) == -math.inf
    assert len(calls) == 1  # the first step's
    assert trace[0].lo == 0.0 and trace[-1].hi == -analysis.GAMMA_CAP
    assert all(s.hi == t.lo for s, t in zip(trace, trace[1:]))
    assert len(trace) > 2


def test_linear_block_grows_no_step(monkeypatch):
    # with m2 = 0 the block is its own tangent, so the Lanczos step aims at
    # its singular point and no grown step is tried: three steps take the ray
    # test at gt = 0, A(a) and the tangent per step, and the end test
    real, calls = analysis.positive_definite_factor, []
    monkeypatch.setattr(analysis, "positive_definite_factor",
                        lambda A: calls.append(None) or real(A))
    op = _StabilityOperator(ProblemConfig(problem=1, n=9))
    trace = []
    limit = analysis._certified_limit(op, 1.0, trace)
    ends = (0.0, 14.672503421350756, 14.687175912877969, 14.6871905853687)
    assert limit == pytest.approx(ends[-1], rel=1e-12)
    steps, (crossing,) = trace[:-1], trace[-1:]
    assert [s.lo for s in steps] == pytest.approx(ends[:-1], rel=1e-12)
    assert [s.hi for s in steps] == pytest.approx(ends[1:], rel=1e-12)
    assert isinstance(crossing, Crossing)
    assert crossing.load == pytest.approx(14.6971905853687, rel=1e-12)
    assert crossing.lam == pytest.approx(-0.015688121188100743, rel=1e-6)
    assert len(calls) == 8


def test_unconfirmed_crossing_raises(monkeypatch):
    monkeypatch.setattr(analysis, "smallest_eigenvalue", lambda A: 1.0)
    with pytest.raises(ArithmeticError, match="not negative"):
        find_stability_limits(ProblemConfig(problem=1, n=9))


def test_nan_step_raises(monkeypatch, factor_budget):
    monkeypatch.setattr(analysis.spla, "eigsh", lambda *a, **k: np.array([np.nan]))
    tol = re.escape(f"bisect_tol = {analysis.BISECT_TOL:g}")
    with pytest.raises(ArithmeticError, match=r"gamma_tilde = 0\.0 .*" + tol):
        find_stability_limits(ProblemConfig(problem=1, n=9))


def test_step_below_resolution_raises(monkeypatch, factor_budget):
    # the first proposal steps to gt = 1, well inside the stable range
    # (gamma_M = 14.69); every later one is a step of 1e-30, which 1.0 + t
    # rounds away.  With m2 = 0 no grown step is tried, and grown to the cap
    # it would fail its tangent test: every later step is the Lanczos one
    monkeypatch.setattr(analysis, "GROW", analysis.GAMMA_CAP)
    thetas = iter([0.999])
    monkeypatch.setattr(analysis.spla, "eigsh",
                        lambda *a, **k: np.array([next(thetas, 1e30)]))
    tol = re.escape(f"bisect_tol = {analysis.BISECT_TOL:g}")
    with pytest.raises(ArithmeticError, match=r"gamma_tilde = 1\.0 .*" + tol):
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


def test_convergence_order_in_h():
    # the order is measured in h = 2/(n - 1), not per halving: 5 -> 17
    # divides h by 4
    cfg = ProblemConfig(problem=1, gamma_tilde=7.125)
    halving = run_convergence(cfg, [5, 9, 17]).rows
    skip = run_convergence(cfg, [5, 17]).rows
    assert skip[1].order == pytest.approx(2.0, abs=0.1)
    assert skip[1].order == pytest.approx(
        math.log2(halving[0].err_p_L2 / halving[2].err_p_L2) / 2.0, rel=1e-12)
    # an unchanged mesh has no order, where log2 printed 0.00
    assert [r.order for r in run_convergence(cfg, [5, 5]).rows] == [None, None]


def test_convergence_zero_errors_have_no_order():
    # a zero load increment has the exact discrete solution zero on every mesh
    table = run_convergence(ProblemConfig(delta_gamma=0.0, gamma_tilde=1.0), [5, 9])
    assert all(r.err_p_L2 == 0.0 and r.err_w_H1 == 0.0 for r in table.rows)
    assert [r.order for r in table.rows] == [None, None]


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
            ref = cfg.mu * E2 - cfg.mu * gt * R + M * S
            assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()


def test_operator_matrix_affine_pieces():
    cfg = ProblemConfig(problem=2, n=5, gamma_tilde=1.5)
    op = _StabilityOperator(cfg)
    E2, R = forms.elastic_parts(op.space)
    S = forms.assemble_divdiv(op.space)
    for gt in (1.5, -1.5, 0.0):
        A = op.matrix(gt)
        M = 320.0 * abs(gt) + 1.36 * gt ** 2
        ref = cfg.mu * E2 - cfg.mu * gt * R + M * S
        assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()
        # the derivative along |gt|: a one-sided difference exact on quadratics
        sign, s = math.copysign(1.0, gt), abs(gt)
        fd = (4.0 * op.matrix(sign * (s + 1.0)) - 3.0 * op.matrix(sign * s)
              - op.matrix(sign * (s + 2.0))) / 2.0
        Kd, K2 = op.parts(sign)
        dA = op.csr(Kd + 2.0 * s * K2)
        assert abs(fd - dA).max() <= 1e-8 * abs(dA).max()
