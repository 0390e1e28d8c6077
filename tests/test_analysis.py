"""Stability detection, convergence study and abstract-constants checks."""

import math
import re
import types
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stabmix import (AbstractConstants, MixedSpace, ProblemConfig,
                     assemble_coupling, assemble_h1_gram,
                     assemble_pressure_mass, build_structured_mesh, compute_M0,
                     compute_errors, estimate_inf_sup, find_stability_limits,
                     is_stable, manufactured_pressure, run_convergence)
from stabmix import analysis, forms, solvers, spaces
from stabmix.analysis import CertifiedStep, Crossing, _StabilityOperator
from stabmix.mesh import TriMesh
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


def _data(op, gt):
    """Block data of op at the signed load gt, from the pencil of its direction."""
    return op.pencil(math.copysign(1.0, gt)).at(abs(gt))


class FullBlock:
    """A(gt) = K0 + s*Kd + s^2*K2, s = |gt|, of one configuration and its derivative
    along s, summed as sparse matrices from forms.elastic_parts and
    forms.assemble_divdiv alone: no _StabilityOperator, no bubble condensation."""

    def __init__(self, cfg):
        space = MixedSpace(build_structured_mesh(cfg.n), problem=cfg.problem)
        self.E2, self.R = forms.elastic_parts(space)
        self.S, self.cfg = forms.assemble_divdiv(space), cfg

    def parts(self, gt):
        """K0, Kd and K2 in the loading direction of gt."""
        cfg = self.cfg
        return (cfg.mu * self.E2, -math.copysign(cfg.mu, gt) * self.R + cfg.m1 * self.S,
                cfg.m2 * self.S)

    def __call__(self, gt):
        K0, Kd, K2 = self.parts(gt)
        return (K0 + abs(gt) * Kd + gt * gt * K2).tocsr()

    def derivative(self, gt):
        _, Kd, K2 = self.parts(gt)
        return (Kd + 2.0 * abs(gt) * K2).tocsr()


# loads at which a kernel-certificate step is sampled for n > 9: 0 and a geometric grid
KERNEL_GRID = np.concatenate([[0.0], np.geomspace(1e-2, analysis.GAMMA_CAP, 199)])


def _quadratic_roots(K0, Kd, K2):
    """The finite s with det(K0 + s*Kd + s^2*K2) = 0: dense eigenvalues of the
    companion pencil [[0, I], [-K0, -Kd]] - s*[[I, 0], [0, K2]]."""
    K0, Kd, K2 = (M.toarray() for M in (K0, Kd, K2))
    I, O = np.eye(len(K0)), np.zeros_like(K0)
    s = sla.eigvals(np.block([[O, I], [-K0, -Kd]]), np.block([[I, O], [O, K2]]))
    return s[np.isfinite(s)]


def check_certificate(cfg, report):
    """Re-prove every entry of report.trace on FullBlock(cfg), independent of the
    search: each positive-definiteness verdict is one full LDL^T
    (solvers.factor_with_inertia) and, for n <= 9, also a dense eigvalsh.

    - In each direction the steps tile [0, gamma] with no gap and no overlap (up to
      the cap or infinity if gamma is infinite), and a finite gamma is followed by
      its one crossing.
    - A step [a, b] is proved by its tangent T(s) = A(a) + (s - a)*A'(a) at both
      ends: with K2 = m2*S >= 0 (checked densely for n <= 9), convexity gives
      A(s) >= T(s) > 0 on [a, b].  A ray [a, inf) by A(a) > 0 and A'(a) > 0.
    - A step [a, cap] past a failing tangent, a kernel certificate's, is proved for
      n <= 9 by A(a) > 0 and no root of det A(s) within 1e-6 relative of [a, cap]:
      an eigenvalue of A(s) that crossed 0 would be one.  For n > 9 it is sampled
      at the KERNEL_GRID loads in it (the dense kernel forms drop terms).
    - A crossing by a negative lambda_min of the full block at gamma + BISECT_TOL
      from smallest_eigenvalue's general path, which the recorded one matches.
    """
    block, dense = FullBlock(cfg), cfg.n <= 9
    tol, cap = analysis.BISECT_TOL, analysis.GAMMA_CAP
    if dense:
        S = block.S.toarray()
        assert cfg.m2 >= 0.0 and np.linalg.eigvalsh(S)[0] >= -1e-12 * np.abs(S).max()

    def positive_definite(A):
        return (solvers.factor_with_inertia(A)[1] == 0
                and (not dense or _dense_lambda_min(A) > 0.0))

    def direction(e):
        return math.copysign(1.0, e.lo if isinstance(e, CertifiedStep) else e.load)

    positive = [e for e in report.trace if direction(e) > 0]
    assert list(report.trace) == positive + [e for e in report.trace if direction(e) < 0]
    for sign, gamma in ((1.0, report.gamma_M), (-1.0, report.gamma_m)):
        entries = [e for e in report.trace if direction(e) == sign]
        steps = [e for e in entries if isinstance(e, CertifiedStep)]
        assert steps and steps[0].lo == 0.0, "the steps do not start at 0"
        assert all(sign * (s.hi - s.lo) > 0.0 for s in steps), "a step does not advance"
        assert all(s.hi == t.lo for s, t in zip(steps, steps[1:])), "a gap or an overlap"
        for s in steps:
            a, b = abs(s.lo), abs(s.hi)
            assert positive_definite(block(s.lo)), f"A at the start of {s}"
            if math.isinf(b):
                assert positive_definite(block.derivative(s.lo)), f"A' on the ray {s}"
            elif not positive_definite(block(s.lo) + (b - a) * block.derivative(s.lo)):
                assert b == cap, f"the tangent of {s} at its end"
                if dense:  # the distance of each root from [a, cap]
                    roots = _quadratic_roots(*block.parts(sign))
                    near = np.sort_complex(
                        roots[abs(roots - np.clip(roots.real, a, b)) <= 1e-6 * abs(roots)])
                    assert not near.size, f"a root {near} of det A in {s}"
                    continue
                for load in KERNEL_GRID[(KERNEL_GRID > a) & (KERNEL_GRID <= b)]:
                    assert positive_definite(block(sign * load)), f"A at {load} in {s}"
        if math.isinf(gamma):
            assert entries == steps and abs(steps[-1].hi) in (math.inf, cap)
            continue
        crossing = entries[-1]
        assert isinstance(crossing, Crossing) and entries == steps + [crossing]
        assert steps[-1].hi == gamma
        assert crossing.load == sign * min(abs(gamma) + tol, cap)
        lam = solvers.smallest_eigenvalue(block(crossing.load))
        assert lam < 0.0 and lam == pytest.approx(crossing.lam, rel=1e-6)


@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}],
                         ids=["stabilized", "classical"])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_limits_match_dense_oracle(n, problem, weights):
    cfg = ProblemConfig(problem=problem, n=n, **weights)
    rep = find_stability_limits(cfg)
    check_certificate(cfg, rep)
    block, tol = FullBlock(cfg), analysis.BISECT_TOL
    for sign, gamma in ((1.0, rep.gamma_M), (-1.0, rep.gamma_m)):
        g = abs(gamma)
        if math.isfinite(g):
            assert _dense_lambda_min(block(sign * g)) > 0.0
            assert _dense_lambda_min(block(sign * (g + tol))) < 0.0
        if cfg.m2 == 0.0:
            # A(s) = K0 + s*Kd is linear: singular first at s = 1/theta_max
            K0, Kd, _ = block.parts(sign)
            theta = sla.eigh(-Kd.toarray(), K0.toarray(), eigvals_only=True)[-1]
            if theta * analysis.GAMMA_CAP > 1.0:
                assert g == pytest.approx(1.0 / theta, abs=tol)
            else:
                assert g == math.inf
    if problem == 1 and not weights:  # unbounded below, by a ray proof
        assert rep.trace[-1] == CertifiedStep(-0.0, -math.inf)


@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}],
                         ids=["stabilized", "classical"])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [17, pytest.param(33, marks=pytest.mark.slow)])
def test_headline_loads_certified(n, problem, weights):
    # the larger meshes of the paper's critical-load tables, re-proved
    cfg = ProblemConfig(problem=problem, n=n, **weights)
    check_certificate(cfg, find_stability_limits(cfg))


def test_certificate_check_catches_faults():
    cfg = ProblemConfig(problem=1, n=9)
    rep = find_stability_limits(cfg)
    check_certificate(cfg, rep)
    *steps, crossing, ray = rep.trace
    tol = analysis.BISECT_TOL
    # the last step run one BISECT_TOL on, past the crossing it stopped before
    last = CertifiedStep(steps[-1].lo, steps[-1].hi + tol)
    past = replace(rep, gamma_M=last.hi, trace=(
        *steps[:-1], last, Crossing(crossing.load + tol, crossing.lam), ray))
    with pytest.raises(AssertionError, match="tangent"):
        check_certificate(cfg, past)
    # the first step shortened, which leaves a gap before the second
    gap = replace(rep, trace=(steps[0]._replace(hi=steps[0].hi - 1.0), *rep.trace[1:]))
    with pytest.raises(AssertionError, match="gap"):
        check_certificate(cfg, gap)
    # a kernel-certificate step claimed across 5x5 problem 2's critical load 7.217
    cfg = ProblemConfig(problem=2, n=5)
    rep = find_stability_limits(cfg)
    claim = replace(rep, gamma_M=math.inf, trace=(
        CertifiedStep(0.0, analysis.GAMMA_CAP), rep.trace[-1]))
    with pytest.raises(AssertionError, match=r"root \[ *7\.217"):
        check_certificate(cfg, claim)


def _pd_pairs(op, trace):
    """Block data the search tests, named: A(s) near each step end and each
    crossing (within 1e-3), the tangents of the steps, stretched ones that
    may fail, and A'(a) at each step start."""
    eps = (0.0, 1e-6, 1e-4, 1e-3, -1e-3, -1e-4, -1e-6)
    for e in trace:
        if isinstance(e, Crossing):
            sign, g = math.copysign(1.0, e.load), abs(e.load) - analysis.BISECT_TOL
            for d in eps + (analysis.BISECT_TOL,):
                yield f"A({sign * (g + d)!r})", _data(op, sign * (g + d))
            continue
        pencil, lo = op.pencil(math.copysign(1.0, e.hi)), abs(e.lo)
        dA = pencil.slope(lo)
        yield f"A'({e.lo!r})", dA
        if math.isinf(e.hi):
            continue
        t = abs(e.hi) - lo
        for f in (1.0, 1.01, 2.0):
            yield f"tangent {e.lo!r} + {f}*{t!r}", pencil.at(lo) + f * t * dA
        for d in eps:
            yield f"A({e.hi * (1.0 + d)!r})", _data(op, e.hi * (1.0 + d))


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
        full = solvers.factor_with_inertia(op.csr(data))[1] == 0
        assert (op.factor(data)[1] == 0) == full, name
        seen.add(full)
    # loads on both sides of every crossing (5x5 problem 1 has none)
    assert seen == {True, False} or not any(isinstance(e, Crossing) for e in trace)


def test_condensed_test_rejects_bubble_block_unfactored():
    # an indefinite B_e counts its negative eigenvalues into the verdict, whatever
    # the vertex Schur complement's pivots, as the full LDL^T does
    op = _StabilityOperator(ProblemConfig(problem=1, n=5))
    data = _data(op, 1.0)
    assert op.factor(data)[1] == 0
    bubble_blocks = op.space.condensation.bb
    for slot in ((1, 1), (0, 0)):  # b11 < 0, so det < 0; then also b00 < 0
        data[bubble_blocks[(7, *slot)]] = -1.0
        below = np.count_nonzero(np.linalg.eigvalsh(data[bubble_blocks[7]]) < 0.0)
        assert op.space.condense(data).below == below > 0
        assert op.factor(data)[1] >= below
        assert solvers.factor_with_inertia(op.csr(data))[1] > 0



@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}],
                         ids=["stabilized", "classical"])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_condense_matches_dense_elimination(n, problem, weights):
    # the condensed parts against the bubbles eliminated densely from the block and the
    # coupling, free vertex dofs first and then each element's two bubble dofs: at loads
    # on both sides of the crossings (5x5 problem 1 has none), and with one bubble
    # block made indefinite
    op = _StabilityOperator(ProblemConfig(problem=problem, n=n, **weights))
    space, B = op.space, assemble_coupling(op.space)
    nvf = int(np.searchsorted(space.free_dofs, 2 * space.mesh.n_nodes))
    v, b, Bd, seen = slice(None, nvf), slice(nvf, None), B.toarray(), set()
    for gt, indefinite in ((0.5, False), (2.0, False), (20.0, False), (-300.0, False),
                           (2.0, True)):
        data = _data(op, gt)
        if indefinite:
            data[space.condensation.bb[7, 1, 1]] = -1.0
        else:
            seen.add(op.factor(data)[1] == 0)
        A = op.csr(data).toarray()
        X = np.linalg.solve(A[b, b], np.hstack([A[b, v], Bd[:, b].T]))  # [A_bv, B_b^T]
        block, parts = space.condense(data), space.condense(data, (B, 0.0))
        below = sum(np.count_nonzero(np.linalg.eigvalsh(A[i:i + 2, i:i + 2]) < 0.0)
                    for i in range(nvf, len(A), 2))
        assert block.below == parts.below == below and (below > 0) >= indefinite
        schur = A[v, v] - A[v, b] @ X[:, :nvf]
        for got in (block.schur, parts.schur):
            assert np.array_equal(got.indices, op.plan.indices[space.condensation.vv])
            assert np.abs(got.toarray() - schur).max() <= 1e-13 * np.abs(A).max()
        saddle_B, saddle_C = Bd[:, v] - Bd[:, b] @ X[:, :nvf], -Bd[:, b] @ X[:, nvf:]
        assert np.abs(parts.saddle_B.toarray() - saddle_B).max() <= 1e-13 * np.abs(Bd).max()
        assert (np.abs(parts.saddle_C.toarray() - saddle_C).max()
                <= 1e-13 * np.abs(saddle_C).max())
    assert seen == {True, False} or (n, problem, weights) == (5, 1, {})


def _trace_of(cfg, sign, factored=None, certified=None):
    """The limit and trace of one direction's search.  Given lists, the pencil it reads
    appends to them the data of each factorization the search makes itself (its ray,
    A(a), tangent and end tests; a certificate and lambda_min's shifts factor through
    the operator) and the arguments of each tail certificate; a linear pencil keeps
    its tail None, which tells the search that it is linear."""
    trace, pencil = [], _StabilityOperator(cfg).pencil(sign)
    if factored is not None:
        real = pencil
        pencil = real._replace(
            factor=lambda data: factored.append(data) or real.factor(data),
            tail=real.tail and (lambda *args: certified.append(args) or real.tail(*args)))
    return analysis._certified_limit(pencil, trace), trace


def _proposals(monkeypatch):
    """Record each step proposal of the search as (theta, its number of solves)."""
    real, calls = analysis.largest_ritz_value, []

    def counted(K, M, solve, tol):
        solves = []
        theta = real(K, M, lambda b: solves.append(None) or solve(b), tol)
        calls.append((theta, len(solves)))
        return theta

    monkeypatch.setattr(analysis, "largest_ritz_value", counted)
    return calls


def test_lanczos_budget_proposes_the_cap(monkeypatch):
    # 33x33 problem 2's unbounded direction: the kernel certificate fails at gt = 0, and
    # the one Lanczos proposal converges within n steps and steps to the tangent's
    # singular point; at its end the kernel certificate closes the tail up to the cap
    real, factored = analysis.factor_with_inertia, []
    monkeypatch.setattr(analysis, "factor_with_inertia",
                        lambda A: factored.append(None) or real(A))
    calls, tests, certificates = _proposals(monkeypatch), [], []
    cfg = ProblemConfig(problem=2, n=33)
    limit, trace = _trace_of(cfg, -1.0, tests, certificates)
    ((theta, solves),) = calls
    assert limit == -math.inf and theta > 0.0
    assert solves <= _StabilityOperator(cfg).plan.shape[0]
    assert trace[0].hi == pytest.approx(-167.47, abs=0.01)
    assert trace == [CertifiedStep(-0.0, trace[0].hi),
                     CertifiedStep(trace[0].hi, -analysis.GAMMA_CAP)]
    # the ray tests at both step starts, A(0)'s test for the proposal and one tangent
    # test; with the kernel's and the certificates' at most 8 factorizations in all
    assert len(certificates) == 2 and len(tests) == 4 and len(factored) <= 8


@pytest.mark.parametrize("n", [5, 9])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("weights", [{}, {"m1": 0.0, "m2": 0.0}], ids=["stab", "m0"])
def test_proposal_matches_dense_pencil(monkeypatch, n, problem, weights):
    # each direction's proposals at gt = 0 and at its first step's end against the
    # eigenvalues of the uncondensed pencil -A'(a) x = lambda A(a) x: never above the
    # largest beyond roundoff, within the stop test's 1e-3 of one of them, and the same
    # bit for bit when run again.  Within 1e-3 of the largest everywhere but 5x5
    # classical problem 1 at gt = 0: four eigenvalues within 1.5e-3 of each other top
    # the spectrum, its Ritz value stalls at 0.77604, below three of them, from step 12
    # to 20 while the largest is still hidden, the stop test passes at step 15, and the
    # tangent test halves that proposal once.  5x5 stabilized problem 1 proposes nothing:
    # ray tests prove both directions
    real, runs, short, seen = analysis.largest_ritz_value, [], [], 0
    monkeypatch.setattr(analysis, "largest_ritz_value",
                        lambda *args: runs.append(args) or real(*args))
    for sign in (1.0, -1.0):
        runs.clear()
        _trace_of(ProblemConfig(problem=problem, n=n, **weights), sign)
        for i, (K, M, solve, tol) in enumerate(runs[:2]):
            seen += 1
            theta, lam = real(K, M, solve, tol), sla.eigh(
                K.toarray(), M.toarray(), eigvals_only=True)
            assert tol == 1e-3 and real(K, M, solve, tol) == theta
            assert theta <= lam[-1] + 1e-9 * abs(lam[-1])
            assert np.min(np.abs(lam - theta)) <= 1e-3 * abs(theta)
            if theta < lam[-1] - 1e-3 * abs(lam[-1]):
                short.append((sign, i))
    stalled = n == 5 and problem == 1 and not weights.get("m1", 1.0)
    assert short == ([(1.0, 0)] if stalled else [])
    assert seen or (n, problem, weights) == (5, 1, {})


def test_proposal_solve_counts(monkeypatch):
    # the stabilized searches of the critical-load table (5...17 nodes): at
    # most 240 solves in all, and every proposal after a direction's first
    # starts near the crossing and converges within 5
    calls, firsts = _proposals(monkeypatch), []
    for n in (5, 9, 17):
        for problem in (1, 2):
            for sign in (1.0, -1.0):
                firsts.append(len(calls))
                _trace_of(ProblemConfig(problem=problem, n=n), sign)
    assert sum(solves for _, solves in calls) <= 240
    assert all(solves <= 5 for i, (_, solves) in enumerate(calls) if i not in firsts)
    assert len(calls) > len(set(firsts))


@pytest.mark.slow
@pytest.mark.parametrize("sign,limit", [(1.0, 6.7367), (-1.0, -307.21)])
def test_critical_loads_65_problem1(sign, limit):
    # gamma_m is finite at 65x65 (the ray test fails there), and its first Lanczos
    # proposal, run to convergence, steps to within 0.31 of the crossing
    got, trace = _trace_of(ProblemConfig(problem=1, n=65), sign)
    assert got == pytest.approx(limit, abs=analysis.BISECT_TOL)
    assert isinstance(trace[-1], Crossing) and trace[-1].lam < 0.0
    if sign < 0:
        assert trace[0].hi == pytest.approx(-306.91, abs=0.01)


@pytest.mark.slow
def test_kernel_certificate_65_problem2(monkeypatch):
    # the certificate's linear lower bound reaches down to about s = 400 at
    # 65x65, so problem 2's unbounded direction takes a few tangent steps
    # before the certificate closes it, one per proposal, each run to convergence
    calls = _proposals(monkeypatch)
    limit, trace = _trace_of(ProblemConfig(problem=2, n=65), -1.0)
    assert limit == -math.inf and trace[-1].hi == -analysis.GAMMA_CAP
    assert 300.0 < -trace[-1].lo < 1e3 and len(calls) == len(trace) - 1 <= 4
    assert calls[0][0] > 0.0
    assert trace[0].hi == pytest.approx(-104.93, abs=0.01)


@pytest.mark.slow
def test_bounded_unstable_interval_129_problem2():
    # 129x129 problem 2's negative direction crosses inside (-256, -128) and is stable
    # again by -2048: no certified step, a kernel certificate's included, reaches past
    # the crossing.  Ranges and signs only, as full-precision loads at 65 nodes and
    # above move with the BLAS thread count
    limit, trace = _trace_of(ProblemConfig(problem=2, n=129), -1.0)
    assert -256.0 < limit < -128.0
    assert isinstance(trace[-1], Crossing) and trace[-1].lam < 0.0
    assert all(e.hi >= limit for e in trace if isinstance(e, CertifiedStep))
    for gt, stable in ((-2048.0, True), (-200.0, False)):
        lam, verdict = is_stable(ProblemConfig(problem=2, n=129, gamma_tilde=gt))
        assert verdict == stable == (lam > 0.0)


def _dense_kernel_forms(op, sign):
    """Dense G(0) and G'(0) = W^T Kd W of the kernel certificate, on the
    orthonormal bases Z of ker S and W of its K0-orthogonal complement."""
    K0, S, Kd = (op.csr(d).toarray() for d in (op.K0, op.S, op.pencil(sign).Kd))
    Z = sla.null_space(S)
    W = sla.null_space(Z.T @ K0)
    G0 = np.block([[op.cfg.m2 * W.T @ S @ W, W.T @ Kd @ Z],
                   [Z.T @ Kd @ W, Z.T @ K0 @ Z]])
    return Z, G0, W.T @ Kd @ W


@pytest.mark.parametrize("n", [5, 9])
def test_kernel_certificate_matches_dense_oracle(n):
    # v = x + s*Z*y, x in W, turns A(s)/s^2 into G(0) + G'(0)/s + O(1/s^2),
    # convex in 1/s: G(0) > 0 and the tangent G(0) + G'(0)/a > 0 (at a = 0:
    # G'(0) > 0) prove A > 0 on [a, inf).  The sparse certificate, which also
    # carries the margins of the dropped K2 Z and Z^T Kd Z terms, agrees
    op = _StabilityOperator(ProblemConfig(problem=2, n=n))
    assert op.kernel[0].shape[1] == n - 2
    for sign in (-1.0, 1.0):
        Z, G0, dG = _dense_kernel_forms(op, sign)
        assert Z.shape[1] == n - 2 and np.linalg.eigvalsh(G0)[0] > 0.0
        verdicts = []
        for a in (0.0, 10.0, 1e3, 1e4):
            tangent = dG if a == 0.0 else G0 + np.pad(dG, (0, n - 2)) / a
            dense = np.linalg.eigvalsh(tangent)[0] > 0.0
            assert op.pencil(sign).tail(a) == dense, (sign, a)
            verdicts.append(dense)
        # the negative direction is proved at every load, the positive one
        # only past its unstable interval
        assert verdicts == ([True] * 4 if sign < 0 else
                            [False, False, n == 5, True])


def test_kernel_certificate_refuses_unsound_claims():
    # 9x9 problem 2 is unstable from gamma_M = 3.86 to about 1884 in the
    # positive direction, so no certificate from a below that may pass
    op = _StabilityOperator(ProblemConfig(problem=2, n=9))
    assert _dense_lambda_min(op.csr(_data(op, 1500.0))) < 0.0
    assert not any(op.pencil(1.0).tail(a)
                   for a in (0.0, 3.0, 3.9, 10.0, 100.0, 1000.0, 1500.0))
    # with m2 = 0.1, 5x5 problem 2 is unstable past gamma_m = -373.1 up to the
    # cap: L > 0 at u = 1/a, and only the test at u = 1/GAMMA_CAP refuses
    weak = _StabilityOperator(ProblemConfig(problem=2, n=5, m2=0.1))
    assert _dense_lambda_min(weak.csr(_data(weak, -1e6))) < 0.0
    assert not any(weak.pencil(-1.0).tail(a) for a in (0.0, 10.0, 100.0))
    # the margins follow the basis's residuals: roundoff passes, an error of
    # 1e-6, far beyond what they cover, is refused
    Z, I = op.kernel
    wiggle = np.cos(np.arange(Z.size)).reshape(Z.shape)
    for size, passes in ((1e-15, True), (1e-6, False)):
        op.__dict__["kernel"] = (np.linalg.qr(Z + size * wiggle)[0], I)
        assert op.pencil(-1.0).tail(0.0) == passes


def test_kernel_certificate_refuses_a_count_over_k():
    # H0 = -K0_JJ has 99 non-positive pivots against k = 3 kernel vectors on 5x5
    # problem 2: the first factorization's count ends the certificate
    op = _StabilityOperator(ProblemConfig(problem=2, n=5))
    assert len(op.kernel[1]) == 3
    assert op.kernel_certified(-op.K0, op.pencil(-1.0).K2, 0.0, 0) is False


def _kernel_before(op):
    """ker S as found before its dimension was counted: two block inverse iteration sweeps
    on S + eps*I from 16 columns, doubling the block until a Ritz value is >= eps."""
    S, eps, b = op.csr(op.S), 1e-12 * np.abs(op.S).max(), 16
    solve = op.factor(op.S + eps * op.space.condensation.eye)[0].solve
    while b < S.shape[0]:
        Y = np.cos(np.outer(np.arange(1.0, S.shape[0] + 1), np.arange(1.0, b + 1)))
        for _ in range(2):
            Y = np.linalg.qr(np.hstack([solve(Y[:, j:j + 8]) for j in range(0, b, 8)]))[0]
        theta, V = np.linalg.eigh(Y.T @ (S @ Y))
        if (k := int(np.searchsorted(theta, eps))) < b:
            return Y @ V[:, :k] if k and theta[k] >= 1e3 * eps else None
        b *= 2
    return None


@pytest.mark.parametrize("d,k,found", [((0.0, 0.0, 1.0, 2.0, 3.0), 2, True),
                                         ((0.0, 0.0, 1e-10, 2.0, 3.0), 2, False),
                                         ((0.0, 0.0, 1.0, 2.0, 3.0), 1, False)])
def test_kernel_basis_needs_a_gap(d, k, found):
    # on a diagonal A >= 0 with eps = 1e-12: the basis of the two zeros, and None when
    # the next eigenvalue 1e-10 lies below 1e3*eps or the count k misses a zero
    d = np.array(d)
    Z = analysis._kernel_basis(sp.diags(d), lambda Y: Y / (d - 1e-12)[:, None], k, 1e-12)
    assert (Z is not None) == found
    if found:
        assert Z.shape == (5, 2) and np.allclose(Z[2:], 0.0, atol=1e-12)
        assert np.allclose(Z.T @ Z, np.eye(2))


@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9, 17, 33])
def test_kernel_dimension_is_counted(monkeypatch, n, problem):
    # dim ker S is the non-positive count of the condensed LDL^T of S - eps*I: n - 2 on
    # problem 2 (the dense null space's on 5 and 9 nodes), none on problem 1.  Its two
    # sweeps solve k + 1 columns each, 8 at a time (32 on 33x33, where doubling from 16
    # solved 16 + 32), and span what the doubling search found
    real, columns = solvers.ldlt_factor, []

    def factor(A):
        lu = real(A)

        def solve(x):
            columns.append(x.shape[1:])
            return lu.solve(x)
        return types.SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=lu.U, solve=solve)

    op = _StabilityOperator(ProblemConfig(problem=problem, n=n))
    eps = 1e-12 * np.abs(op.S).max()
    k = op.factor(op.S - eps * op.space.condensation.eye)[1]
    assert k == (n - 2 if problem == 2 else 0)
    if n <= 9:
        assert sla.null_space(op.csr(op.S).toarray()).shape[1] == k
    monkeypatch.setattr(solvers, "ldlt_factor", factor)
    kernel, sweeps = op.kernel, list(columns)
    before = _kernel_before(op)
    if problem == 1:
        assert kernel is None and before is None and sweeps == []
        return
    Z, I = kernel
    assert len(I) == len(set(I)) == Z.shape[1] == k
    assert n != 5 or list(I) == [4, 2, 0]  # of tied leverage scores, the lowest row
    assert max(sweeps) <= (8,) and sum(c for c, in sweeps) == 2 * (k + 1)
    assert n < 33 or (k + 1, sum(c for c, in columns[len(sweeps):])) == (32, 2 * (16 + 32))
    cosines = np.linalg.svd(Z.T @ before, compute_uv=False)
    assert before.shape == Z.shape and cosines.min() >= 1.0 - 1e-12


def test_crossing_factors_its_block_once(monkeypatch):
    # the end test's condensed factorization of A(gamma_M + BISECT_TOL) is the
    # one smallest_eigenvalue takes at sigma = 0: the search ends with one
    # factorization of that block, not two
    real, factored = solvers.ldlt_factor, []
    monkeypatch.setattr(solvers, "ldlt_factor",
                        lambda A: factored.append(A.toarray()) or real(A))
    op = _StabilityOperator(ProblemConfig(problem=1, n=9))
    limit, trace = _trace_of(op.cfg, 1.0)
    assert trace[-1].load == pytest.approx(14.697, abs=1e-3)
    schur = op.space.condense(_data(op, trace[-1].load)).schur.toarray()
    assert np.array_equal(factored[-1], schur)
    assert not np.array_equal(factored[-2], schur)


def test_verdicts_build_no_full_block(monkeypatch):
    # a verdict takes lambda_min from block data on its bubble-condensed
    # factorization, and a critical-load search takes every test and its Lanczos
    # proposals' solves on the same: each factorization is the free vertex block's
    real, shapes = solvers.ldlt_factor, []
    monkeypatch.setattr(solvers, "ldlt_factor",
                        lambda A: shapes.append(A.shape) or real(A))
    runs = [(ProblemConfig(problem=problem, n=9, gamma_tilde=gt),
             lambda cfg, stable=stable: is_stable(cfg)[1] == stable)
            for problem, gt, stable in ((2, 3.0, True), (1, 15.0, False))]
    runs += [(ProblemConfig(problem=problem, n=9, **weights),
              lambda cfg: find_stability_limits(cfg).gamma_M < math.inf)
             for problem in (1, 2) for weights in ({}, {"m1": 0.0, "m2": 0.0})]
    for cfg, check in runs:
        assert check(cfg)
        space = _StabilityOperator(cfg).space
        nvf = space.condensation.vertex.shape[0]
        assert nvf < len(space.free_dofs) and set(shapes) == {(nvf, nvf)}
        shapes.clear()


def test_stable_set_is_not_an_interval():
    # 9x9 problem 2 is unstable past its critical load and stable again at
    # large loads, where m2*gt^2*S dominates; the first crossing is reported
    cfg = ProblemConfig(problem=2, n=9)
    op = _StabilityOperator(cfg)
    for gt, stable in ((10.0, False), (1e2, False), (1e3, False),
                       (1e4, True), (1e5, True), (1e6, True)):
        assert (solvers.factor_with_inertia(op.csr(_data(op, gt)))[1] == 0) == stable
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


@pytest.mark.parametrize("n", [9, 17])
def test_ray_proof_settles_unbounded_direction(monkeypatch, n):
    # problem 1's A'(0) = m1*S + mu*R is positive definite under negative
    # loads, which proves A > 0 on the whole ray from one factorization
    calls = _proposals(monkeypatch)
    limit, trace = _trace_of(ProblemConfig(problem=1, n=n), -1.0)
    assert limit == -math.inf
    assert trace == [CertifiedStep(-0.0, -math.inf)]
    assert math.copysign(1.0, trace[0].lo) == -1.0
    assert calls == []


def test_tail_steps_skip_lanczos(monkeypatch, factor_budget):
    # problem 2's A' fails the ray test, but on 5...17 nodes the kernel
    # certificate proves the negative direction up to the cap at gt = 0:
    # one step, with no tangent test and no Lanczos solve: the search's own one
    # factorization is the ray test of A'(0)
    calls, tests = _proposals(monkeypatch), []
    for n in (5, 9, 17):
        cfg = ProblemConfig(problem=2, n=n)
        limit, trace = _trace_of(cfg, -1.0, tests, [])
        assert limit == -math.inf
        assert trace == [CertifiedStep(-0.0, -analysis.GAMMA_CAP)]
        Kd = _StabilityOperator(cfg).pencil(-1.0).Kd
        assert len(tests) == 1 and np.array_equal(tests.pop(), Kd)
    assert calls == []


def test_linear_block_grows_no_step(monkeypatch):
    # with m2 = 0 the block is its own tangent, so the Lanczos step aims at
    # its singular point: the ray test at gt = 0, three steps that factor A(a)
    # and the tangent each, and the end test, which lambda_min reuses
    real, calls = analysis.factor_with_inertia, []
    monkeypatch.setattr(analysis, "factor_with_inertia",
                        lambda A: calls.append(None) or real(A))
    limit, trace = _trace_of(ProblemConfig(problem=1, n=9), 1.0)
    ends = (0.0, 14.672504707734744, 14.68717591699358, 14.687190585373212)
    assert limit == pytest.approx(ends[-1], rel=1e-12)
    steps, (crossing,) = trace[:-1], trace[-1:]
    assert [s.lo for s in steps] == pytest.approx(ends[:-1], rel=1e-12)
    assert [s.hi for s in steps] == pytest.approx(ends[1:], rel=1e-12)
    assert isinstance(crossing, Crossing)
    assert crossing.load == pytest.approx(14.69719058537317, rel=1e-12)
    assert crossing.lam == pytest.approx(-0.015688121196289023, rel=1e-6)
    assert len(calls) == 8


def test_edge_mu_pins_the_missing_stop_test_floor():
    # the Lanczos stop test tol*|theta| has no floor (ARPACK's is tol*max(eps^(2/3),
    # |theta|)), so the first proposal cannot stop where the top Ritz value is about 0:
    # at mu = 1e-4 it runs out of steps.  A floor waits for ROADMAP item 6, which bounds
    # the rounding of the assembled pencil; once it lands this test flips on purpose
    with pytest.raises(ArithmeticError, match="Lanczos took over 99 steps"):
        find_stability_limits(ProblemConfig(problem=2, n=5, mu=1e-4))
    report = find_stability_limits(ProblemConfig(problem=2, n=5, mu=1e-3))
    assert (report.gamma_m, report.gamma_M) == (-math.inf, math.inf)


def test_overflowing_block_raises_in_process():
    # m2*gt^2 overflows at gt = 1e300, so the block data hold inf and NaN: condensing
    # them raises before any factorization, in this process as in the CLI's
    with pytest.raises(ArithmeticError, match="non-finite entries"):
        is_stable(ProblemConfig(problem=2, n=5, gamma_tilde=1e300))


def test_unconfirmed_crossing_raises(monkeypatch):
    monkeypatch.setattr(analysis, "smallest_eigenvalue", lambda A, shifted=None: 1.0)
    with pytest.raises(ArithmeticError, match=r"counts 1 non-positive eigenvalues but "
                                              r"lambda_min = 1\.000000e\+00"):
        find_stability_limits(ProblemConfig(problem=1, n=9))



def test_singular_schur_complement_proves_nothing(monkeypatch):
    # factor_with_inertia proves nothing on an exactly singular Schur complement: then
    # so does the condensed factor, a verdict on it raises on its count, and a search
    # whose every factorization proves nothing raises at its first test
    cfg, real = ProblemConfig(problem=2, n=5, gamma_tilde=1.0), analysis.factor_with_inertia
    op = _StabilityOperator(cfg)

    def singular_first():  # the first factorization proves nothing, the rest are real
        first = iter([(None, None)])
        monkeypatch.setattr(analysis, "factor_with_inertia",
                            lambda A: next(first, 0) or real(A))

    singular_first()
    assert op.factor(_data(op, 1.0)) == (None, None)
    singular_first()
    with pytest.raises(ArithmeticError, match="counts None non-positive eigenvalues"):
        is_stable(cfg)
    monkeypatch.setattr(analysis, "factor_with_inertia", lambda A: (None, None))
    with pytest.raises(ArithmeticError, match="not positive definite at gamma_tilde = 0.0 "):
        find_stability_limits(cfg)


@pytest.mark.parametrize("problem,gt,m0", [(1, 14.0, False), (1, 15.0, False),
                                           (2, 3.0, False), (1, 2.0, True)])
def test_verdicts_raise_on_a_wrong_signed_lambda_min(monkeypatch, problem, gt, m0):
    # the LDL^T count decides is_stable's and run_convergence's verdicts; a lambda_min
    # of the other sign raises, and the message carries it
    cfg = ProblemConfig(problem=problem, n=9, gamma_tilde=gt,
                        **({"m1": 0.0, "m2": 0.0} if m0 else {}))
    lam, stable = is_stable(cfg)
    wrong = -lam
    monkeypatch.setattr(analysis, "smallest_eigenvalue", lambda A, shifted=None: wrong)
    message = ("counts " + ("0" if stable else "[1-9][0-9]*") + " non-positive eigenvalues "
               + re.escape(f"but lambda_min = {wrong:.6e}"))
    for study in (lambda: is_stable(cfg), lambda: run_convergence(cfg, [9])):
        with pytest.raises(ArithmeticError, match=message):
            study()


def test_nan_step_raises(monkeypatch, factor_budget):
    monkeypatch.setattr(analysis, "largest_ritz_value", lambda *a: np.nan)
    tol = re.escape(f"bisect_tol = {analysis.BISECT_TOL:g}")
    with pytest.raises(ArithmeticError, match=r"gamma_tilde = 0\.0 .*" + tol):
        find_stability_limits(ProblemConfig(problem=1, n=9))


def test_step_below_resolution_raises(monkeypatch, factor_budget):
    # the first proposal steps to gt = 1, well inside the stable range
    # (gamma_M = 14.69); every later one is a step of 1e-30, which 1.0 + t
    # rounds away
    thetas = iter([0.999])
    monkeypatch.setattr(analysis, "largest_ritz_value", lambda *a: next(thetas, 1e30))
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
    complement and a generalized eigh, skipping eigenvalues below 1e-10 times
    the largest as kernel values."""
    B = assemble_coupling(space)
    Mp = assemble_pressure_mass(space)
    lu = spla.splu(assemble_h1_gram(space).tocsc())
    schur = B @ lu.solve(B.toarray().T)
    w = sla.eigh(0.5 * (schur + schur.T), Mp.toarray(), eigvals_only=True)
    n_kernel = int(np.sum(w < 1e-10 * max(w[-1], 1e-300)))
    if n_kernel >= len(w):
        return 0.0
    return math.sqrt(max(w[n_kernel], 0.0))


@pytest.mark.parametrize("bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 5, 9, 17, pytest.param(33, marks=pytest.mark.slow)])
def test_infsup_matches_dense_oracle(n, problem, bubbles):
    # the kernel-heavy smallest meshes too: without bubbles, every pressure is a kernel
    # mode on 2x2 problem 1, and five of nine are on 3x3 problem 1, each counted on
    # B B^T - eps*I and deflated before the one Lanczos run
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
    # n_p = 4 and 9: on 2x2 the kernel block spans the whole pressure space, on 3x3
    # eight of its nine dimensions
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
    # ARPACK's estimate, within 2e-15 of this one
    assert control == pytest.approx(0.0075508636483091, rel=1e-10)


@pytest.mark.slow
def test_infsup_129():
    # the estimates of block inverse iteration on the saddle factor: MINI's, with no
    # kernel, is the same bit for bit, and P1/P1's, its four kernel modes counted on
    # B B^T, within 2.1e-15
    mesh = build_structured_mesh(129)
    mini = estimate_inf_sup(MixedSpace(mesh, problem=1))
    control = estimate_inf_sup(MixedSpace(mesh, problem=1, include_bubbles=False))
    assert mini == pytest.approx(0.3129571937957331, rel=1e-10)
    assert control == pytest.approx(0.0038656188879100787, rel=1e-10)


# solve calls of estimate_inf_sup on 5, 9, 17, 33 and 65 nodes when ARPACK ran it, each
# run that found only kernel modes followed by one for twice as many from a fresh start;
# the P1/P1 control takes at most 12 (10, 10, 11, 11, 12 on problem 1; 8, 9, 9, 9, 9 on
# problem 2)
INFSUP_SOLVES_BEFORE = {(1, True): (21, 21, 21, 21, 21), (1, False): (63, 69, 69, 82, 42),
                        (2, True): (21, 39, 57, 92, 182), (2, False): (42, 42, 42, 42, 42)}


@pytest.mark.parametrize("bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9, 17, 33, pytest.param(65, marks=pytest.mark.slow)])
def test_infsup_solve_counts(monkeypatch, n, problem, bubbles):
    # one Lanczos run on the saddle factor, ker B^T, counted and found on B B^T - eps*I,
    # deflated from its solve and start
    real, solves, lanczos, runs = analysis.ldlt_factor, [], analysis.largest_ritz_value, []

    def factor(A):
        lu = real(A)
        return types.SimpleNamespace(solve=lambda x: solves.append(x) or lu.solve(x))

    monkeypatch.setattr(analysis, "ldlt_factor", factor)
    monkeypatch.setattr(analysis, "largest_ritz_value",
                        lambda *args: runs.append(args) or lanczos(*args))
    estimate_inf_sup(MixedSpace(build_structured_mesh(n), problem=problem,
                                include_bubbles=bubbles))
    assert len(runs) == 1
    assert len(solves) <= INFSUP_SOLVES_BEFORE[problem, bubbles][(5, 9, 17, 33, 65).index(n)]
    assert len(solves) <= 12 or bubbles


# dim ker B^T by (problem, bubbles, n), or by (problem, bubbles) on the other meshes:
# without free displacements (2x2 problem 1) every pressure is in it
KERNEL_DIMS = {(1, True, 2): 1, (1, False, 2): 4, (1, False, 3): 5, (1, False): 4,
               (2, False): 2}


@pytest.mark.parametrize("bubbles", [True, False])
@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_infsup_counts_the_kernel(monkeypatch, n, problem, bubbles):
    # dim ker B^T is the non-positive count of the LDL^T of B B^T - eps*I, as dim ker S
    # of the stability block is that of S - eps*I: the dense null space's dimension
    real, counts = analysis.factor_with_inertia, []
    monkeypatch.setattr(analysis, "factor_with_inertia",
                        lambda A: counts.append((f := real(A))[1]) or f)
    space = MixedSpace(build_structured_mesh(n), problem=problem, include_bubbles=bubbles)
    estimate_inf_sup(space)
    k = KERNEL_DIMS.get((problem, bubbles, n), KERNEL_DIMS.get((problem, bubbles), 0))
    assert counts == [k] == [sla.null_space(assemble_coupling(space).toarray().T).shape[1]]



def test_infsup_refuses_an_unresolved_kernel(monkeypatch):
    # a count without a basis, the gap above it unconfirmed, proves nothing: it raises
    monkeypatch.setattr(analysis, "_kernel_basis", lambda *args: None)
    space = MixedSpace(build_structured_mesh(5), problem=1, include_bubbles=False)
    with pytest.raises(ArithmeticError, match="no basis of ker B"):
        estimate_inf_sup(space)

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


@pytest.mark.parametrize("problem,load", [(1, 7.125), (2, 3.23)])
def test_saddles_factor_the_condensed_system(monkeypatch, problem, load):
    # the MINI inf-sup counts ker B^T on the n_p x n_p matrix B B^T - eps*I, then it and a
    # convergence row each factor their saddle with the bubbles eliminated, free vertex
    # dofs plus pressures, and lambda_min at sigma = 0 the free vertex block: no
    # factorization is larger
    real, shapes = solvers.ldlt_factor, []
    recording = lambda A: shapes.append(A.shape) or real(A)  # noqa: E731
    monkeypatch.setattr(solvers, "ldlt_factor", recording)
    monkeypatch.setattr(analysis, "ldlt_factor", recording)
    space = MixedSpace(build_structured_mesh(9), problem=problem)
    nvf = {1: 112, 2: 135}[problem]
    rows = nvf + space.n_p
    estimate_inf_sup(space)
    assert shapes == [(space.n_p, space.n_p), (rows, rows)]
    run_convergence(ProblemConfig(problem=problem, gamma_tilde=load), [9])
    assert shapes[2:] == [(nvf, nvf), (rows, rows)]


@pytest.mark.slow
@pytest.mark.parametrize("problem", [1, 2])
def test_convergence_33_65(monkeypatch, problem):
    # the condensed saddle, its bubbles recovered, solves the full 65x65 system
    real, solved = spaces.Condensed.solve, []
    monkeypatch.setattr(spaces.Condensed, "solve",
                        lambda *args: solved.append(real(*args)) or solved[-1])
    cfg = ProblemConfig(problem=problem, n=65, gamma_tilde=2.9)
    assert run_convergence(cfg, [33, 65]).rows[1].order >= 1.9
    op = _StabilityOperator(cfg)
    A, B = op.csr(_data(op, 2.9)), assemble_coupling(op.space)
    F = forms.assemble_load(op.space, analysis.manufactured_load)
    p, u = solved[-1][:op.space.n_p], solved[-1][op.space.n_p:]
    residual = np.hypot(np.linalg.norm(A @ u + B.T @ p - F), np.linalg.norm(B @ u))
    assert residual <= 1e-10 * np.linalg.norm(F)


def _bubble_solve_before(Binv, C, G, cols, inner, x):
    """Condensed.solve as it was, with its bincount index built for vectors too."""
    nr, m = len(x) - 2 * len(Binv), x.shape[1:]
    dot = np.matmul if m else (lambda A, b: np.einsum("eij,ej->ei", A, b))
    y = dot(Binv, x[nr:].reshape(-1, 2, *m))
    w = dot(C.transpose(0, 2, 1), y).reshape(*cols.shape, -1)
    k = w.shape[2]
    z = np.concatenate([x[:nr], np.zeros((1, *m))]) - np.bincount(
        (cols[..., None] * k + np.arange(k)).ravel(), w.ravel(),
        (nr + 1) * k).reshape(nr + 1, *m)
    z[:nr], z[nr] = inner(z[:nr]), 0.0
    return np.concatenate([z[:nr], (y - dot(G, z[cols])).reshape(-1, *m)])


@pytest.mark.parametrize("problem", [1, 2])
@pytest.mark.parametrize("n", [5, 9])
def test_bubble_solve_bit_identical(problem, n):
    # the block's solve, as in a factorization, and the saddle's, as in run_convergence
    op, rng = _StabilityOperator(ProblemConfig(problem=problem, n=n)), np.random.default_rng(n)
    space, n_p = op.space, op.space.n_p
    block = space.condense(_data(op, 2.0))
    saddle = space.condense(_data(op, 2.0), (assemble_coupling(space), 0.0))
    # the saddle numbers its pressures first, so a fixed vertex's row stays last
    cols = space.condensation.cols
    assert np.array_equal(block.cols, cols)
    assert np.array_equal(saddle.cols, np.hstack([cols + n_p, space.mesh.triangles]))
    for c, inner, N in (
            (block, analysis.factor_with_inertia(block.schur)[0].solve, op.plan.shape[0]),
            (saddle, lambda z: np.cos(z), op.plan.shape[0] + n_p)):
        for x in [rng.standard_normal(N) for _ in range(3)] + [
                rng.standard_normal((N, k)) for k in (1, 8, 2, 8)]:
            assert (c.solve(inner, x).tobytes()
                    == _bubble_solve_before(c.Binv, c.C, c.G, c.cols, inner, x).tobytes())


def test_convergence_refuses_unstable():
    # the refusal carries lambda_min, the verdict's own
    cfg = ProblemConfig(problem=1, m1=0.0, m2=0.0, gamma_tilde=7.125)
    lam, stable = is_stable(replace(cfg, n=5))
    assert not stable and lam < 0.0
    refusal = "not positive definite.*" + re.escape(f"(lambda_min = {lam:.6e})")
    with pytest.raises(ValueError, match=refusal):
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
            A = op.csr(_data(op, gt))
            ref = cfg.mu * E2 - cfg.mu * gt * R + M * S
            assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()


def test_operator_matrix_affine_pieces():
    cfg = ProblemConfig(problem=2, n=5, gamma_tilde=1.5)
    op = _StabilityOperator(cfg)
    E2, R = forms.elastic_parts(op.space)
    S = forms.assemble_divdiv(op.space)
    for gt in (1.5, -1.5, 0.0):
        A = op.csr(_data(op, gt))
        M = 320.0 * abs(gt) + 1.36 * gt ** 2
        ref = cfg.mu * E2 - cfg.mu * gt * R + M * S
        assert abs(A - ref.tocsr()).max() <= 1e-12 * abs(A).max()
        # the derivative along |gt|: a one-sided difference exact on quadratics
        sign, s = math.copysign(1.0, gt), abs(gt)
        pencil = op.pencil(sign)
        fd = (4.0 * op.csr(pencil.at(s + 1.0)) - 3.0 * op.csr(pencil.at(s))
              - op.csr(pencil.at(s + 2.0))) / 2.0
        dA = op.csr(pencil.slope(s))
        assert abs(fd - dA).max() <= 1e-8 * abs(dA).max()
