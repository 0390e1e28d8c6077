"""Eigen-solvers and saddle-point solves against dense oracles."""

import math
import types

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from stabmix import (MixedSpace, NonSymmetricMatrixError, ProblemConfig,
                     SaddleSystem, SingularSaddleError, assemble_coupling,
                     assemble_divdiv, assemble_elastic, assemble_load,
                     build_structured_mesh, estimate_inf_sup,
                     find_stability_limits, is_stable, manufactured_load,
                     run_convergence, smallest_eigenvalue, solve_saddle)
from stabmix import solvers, spaces
from stabmix.analysis import _StabilityOperator


def random_spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    return scale * (Q @ Q.T + n * np.eye(n))


def test_trivial_eigenvalues():
    assert smallest_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)
    assert smallest_eigenvalue(np.diag([3.0, -2.0, 5.0])) == pytest.approx(-2.0, abs=1e-12)


def test_rejects_nonsymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NonSymmetricMatrixError):
        smallest_eigenvalue(A)
    with pytest.raises(NonSymmetricMatrixError):
        smallest_eigenvalue(np.ones((2, 3)))
    # tiny asymmetry within tolerance is symmetrized away
    B = np.eye(3)
    B[0, 1] = 1e-14
    assert smallest_eigenvalue(B) == pytest.approx(1.0, abs=1e-10)


def test_one_by_one():
    assert smallest_eigenvalue([[-3.5]]) == -3.5


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite(bad):
    A = np.eye(6)
    A[2, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        smallest_eigenvalue(A)
    with pytest.raises(ValueError, match="non-finite"):
        smallest_eigenvalue(sp.csr_matrix(A))


def test_elastic_block_positive_and_matches_dense_oracle():
    space = MixedSpace(build_structured_mesh(3), problem=1)
    A = assemble_elastic(space, mu=40.0, gamma=0.0)
    lam = smallest_eigenvalue(A)
    assert lam > 0.0
    dense = sla.eigvalsh(A.toarray())
    assert lam == pytest.approx(dense[0], rel=1e-8)


@pytest.mark.parametrize("shift,expect_sign", [(0.0, 1), (None, -1)])
def test_iterative_path_matches_dense(shift, expect_sign):
    # dense LAPACK is the oracle
    space = MixedSpace(build_structured_mesh(5), problem=1)
    A = assemble_elastic(space, mu=40.0, gamma=0.0).toarray()
    if shift is None:
        w = sla.eigvalsh(A)
        A = A - (w[0] + 0.25 * (w[1] - w[0])) * np.eye(A.shape[0])
    lam_dense = sla.eigvalsh(A)[0]
    lam = smallest_eigenvalue(A)
    assert np.sign(lam) == expect_sign
    assert lam == pytest.approx(lam_dense, rel=1e-8)


def test_iterative_path_deep_indefinite():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
    w = np.linspace(1.0, 50.0, 80)
    w[0] = -37.5
    w[1] = -2.0
    A = (Q * w) @ Q.T
    lam = smallest_eigenvalue(A)
    assert lam == pytest.approx(-37.5, rel=1e-8)


def test_all_negative_spectrum():
    # the shift has to travel far below zero, and the search must stop
    A = -1e6 * np.diag(np.arange(1.0, 41.0))
    assert smallest_eigenvalue(A) == pytest.approx(-4e7, rel=1e-8)
    assert smallest_eigenvalue(sp.csr_matrix(A)) == pytest.approx(-4e7, rel=1e-8)


def _data(op, gt):
    """Block data of op at the signed load gt, from the pencil of its direction."""
    return op.pencil(math.copysign(1.0, gt)).at(abs(gt))


# problem, n, gt, classical, the sign of lambda_min, whether some bubble block B_e is
# indefinite
BLOCK_ROWS = [
    (1, 9, 14.6, False, 1, False), (1, 9, 14.7, False, -1, False),  # gamma_M = 14.68
    (1, 9, 2.0, True, -1, True),                                    # classical, past ~1.5
    (2, 17, 3.3, False, 1, False), (2, 17, 3.4, False, -1, False),  # gamma_M = 3.37
    (1, 5, 7.0, False, 1, False), (1, 5, 2.0, True, -1, True),      # 5x5 gamma_M = +inf
    (2, 5, 7.2, False, 1, False), (2, 5, 7.3, False, -1, False),    # gamma_M = 7.22
    (2, 9, 3.85, False, 1, False), (2, 9, 3.9, False, -1, False),   # gamma_M = 3.86
    (2, 5, 2.0, True, -1, True),
    # four indefinite B_e, a positive definite Schur complement
    (1, 5, 1.3, True, -1, True),
    # classical negative loads straddling gamma_m = -12.39 and -5.19: every B_e definite
    (1, 9, -12.3, True, 1, False), (1, 9, -12.5, True, -1, False),
    (2, 9, -5.1, True, 1, False), (2, 9, -5.3, True, -1, False),
]


# each row's id names its first five fields
@pytest.mark.parametrize("problem,n,gt,classical,expect_sign,indefinite_b", BLOCK_ROWS,
                         ids=["-".join(map(str, row[:5])) for row in BLOCK_ROWS])
def test_assembled_blocks_across_critical_load(problem, n, gt, classical,
                                               expect_sign, indefinite_b):
    # the sparse path on the summed block and the bubble-condensed one on its
    # data agree with LAPACK.  Past the classical limit some bubble blocks B_e
    # are indefinite, and their inertia sends the shift search below zero
    weights = dict(m1=0.0, m2=0.0) if classical else {}
    op = _StabilityOperator(ProblemConfig(problem=problem, n=n, **weights))
    data = _data(op, gt)
    A = op.csr(data)
    lam_dense = sla.eigvalsh(A.toarray())[0]
    lam, (lam_condensed, stable) = smallest_eigenvalue(A), op.verdict(data, op.factor(data))
    assert np.sign(lam) == np.sign(lam_condensed) == np.sign(lam_dense) == expect_sign
    assert stable == (expect_sign > 0)
    assert lam == pytest.approx(lam_dense, rel=1e-8)
    assert lam_condensed == pytest.approx(lam_dense, rel=1e-8)
    assert (op.space.condense(data).below > 0) == indefinite_b


@pytest.mark.parametrize("A", [[[2.0, 1.0], [1.0, 3.0]], [[1.0, 2.0], [2.0, 1.0]],
                               [[-1.0, 0.5], [0.5, -2.0]],
                               [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
                               [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -5.0]]])
def test_small_inputs_cap_the_basis(A):
    # Lanczos breaks down, beta = 0 up to roundoff, by step n = 2 or 3 at the latest,
    # which ends the run on the exact eigenvalue
    assert smallest_eigenvalue(A) == pytest.approx(sla.eigvalsh(A)[0], rel=1e-12)


def test_shift_walk_refuses_a_nan_bound():
    # non-finite data: no factorization proves anything and the Gershgorin bound is NaN,
    # which ends the walk at once instead of sending the shift down forever
    shifts = []

    def shifted(sigma):
        if len(shifts) > 50:
            pytest.fail("the shift walk does not end")
        return shifts.append(sigma) or (None, None)

    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, np.nan]]))
    with pytest.raises(ArithmeticError, match="Gershgorin bound nan"):
        smallest_eigenvalue(A, shifted)
    assert shifts == [0.0]


def test_ritz_value_from_a_given_start():
    # from start = (z, M z) M is never applied, as in the inf-sup run, which starts from
    # z = (S - sigma M_p)^-1 g, M z = g; the seeded start is the default's, bit for bit
    rng, n = np.random.default_rng(3), 12
    Q = rng.standard_normal((n, n))
    K, M = Q + Q.T, Q @ Q.T + n * np.eye(n)
    solve = lambda r: np.linalg.solve(M, r)  # noqa: E731
    g = rng.standard_normal(n)
    theta = solvers.largest_ritz_value(K, None, solve, 1e-12, (solve(g), g))
    assert theta == pytest.approx(sla.eigh(K, M, eigvals_only=True)[-1], rel=1e-12)
    z = np.random.default_rng(0).standard_normal(n)
    assert (solvers.largest_ritz_value(K, M, solve, 1e-8)
            == solvers.largest_ritz_value(K, None, solve, 1e-8, (z, M @ z)))


def test_ritz_value_raises_after_n_steps():
    # one stopping rule for every run: ARPACK's residual test, or ArithmeticError after
    # n steps, n the length of the start vector; with tol = 0 only a breakdown stops it
    rng, n = np.random.default_rng(5), 20
    Q, R = rng.standard_normal((2, n, n))
    K, M = Q + Q.T, R @ R.T + n * np.eye(n)
    solves = []

    def solve(r):
        solves.append(None)
        return np.linalg.solve(M, r)

    with pytest.raises(ArithmeticError, match="Lanczos took over 20 steps"):
        solvers.largest_ritz_value(K, M, solve, 0.0)
    assert len(solves) == n
    # a start on an eigenvector breaks down at once, beta = 0, on its exact eigenvalue
    d = np.arange(1.0, n + 1.0) / 3.0
    e = np.eye(n)[7]
    assert solvers.largest_ritz_value(np.diag(d), None, lambda r: r, 0.0, (e, e)) == d[7]


@pytest.mark.parametrize("problem,gt", [(1, 15.0), (2, 4.0)])  # 9x9 gamma_M 14.68, 3.86
def test_unstable_verdict_factors_once(monkeypatch, problem, gt):
    # one negative LDL^T pivot at sigma = 0 leaves lambda_min as the only
    # eigenvalue below the shift, so no shift search follows
    real, calls = solvers.ldlt_factor, []
    monkeypatch.setattr(solvers, "ldlt_factor", lambda A: calls.append(A) or real(A))
    cfg = ProblemConfig(problem=problem, n=9, gamma_tilde=gt)
    lam, stable = is_stable(cfg)
    # of the vertex Schur complement, the MINI bubbles condensed out
    assert not stable and [A.shape for A in calls] == [({1: 112, 2: 135}[problem],) * 2]
    op = _StabilityOperator(cfg)
    lam_dense = sla.eigvalsh(op.csr(_data(op, gt)).toarray())
    assert lam_dense[0] < 0.0 < lam_dense[1]
    assert lam == pytest.approx(lam_dense[0], rel=1e-10)


# solves of one 33x33 verdict at the midpoints of the benchmark's verdict bands, when
# ARPACK ran about sigma on 6 Lanczos vectors from a start vector of ones
VERDICT_SOLVES_BEFORE = {(1, 6.75): 7, (1, 7.65): 7, (1, -250.0): 10, (2, 3.05): 7,
                         (2, 3.45): 7}


@pytest.mark.parametrize("problem,gt", list(VERDICT_SOLVES_BEFORE))
def test_verdict_solve_counts(monkeypatch, problem, gt):
    # one factorization at sigma = 0 decides and serves lambda_min's Lanczos run
    real, factored, solves = solvers.ldlt_factor, [], []

    def factor(A):
        lu = real(A)
        factored.append(A.shape)
        return types.SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=lu.U,
                                     solve=lambda x: solves.append(1) or lu.solve(x))

    monkeypatch.setattr(solvers, "ldlt_factor", factor)
    lam, stable = is_stable(ProblemConfig(problem=problem, n=33, gamma_tilde=gt))
    assert stable == (lam > 0.0) == (gt in (6.75, -250.0, 3.05))
    assert len(factored) == 1 and len(solves) <= VERDICT_SOLVES_BEFORE[problem, gt]


@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=0, max_value=10_000))
def test_congruence_preserves_sign(seed):
    rng = np.random.default_rng(seed)
    n = 12
    S = random_spd(n, seed) - (seed % 3) * n * 1.5 * np.eye(n)
    C = rng.standard_normal((n, n)) + n * np.eye(n)
    lam = smallest_eigenvalue(S)
    lam_c = smallest_eigenvalue(C.T @ S @ C)
    assert np.sign(lam) == np.sign(lam_c)


def test_solve_saddle_zero_rhs():
    A = sp.identity(6, format="csr")
    B = sp.csr_matrix(np.array([[1.0, 0, 0, 0, 0, 0], [0, 1.0, 0, 0, 0, 0]]))
    u, p = solve_saddle(SaddleSystem(A, B, np.zeros(6), np.zeros(2)))
    assert np.allclose(u, 0.0) and np.allclose(p, 0.0)


def test_solve_saddle_residual_random_system():
    rng = np.random.default_rng(12)
    A = sp.csr_matrix(random_spd(30, 21))
    B = sp.csr_matrix(rng.standard_normal((8, 30)))
    rhs_u = rng.standard_normal(30)
    rhs_p = rng.standard_normal(8)
    u, p = solve_saddle(SaddleSystem(A, B, rhs_u, rhs_p))
    resid_u = A @ u + B.T @ p - rhs_u
    resid_p = B @ u - rhs_p
    resid = np.sqrt(np.linalg.norm(resid_u) ** 2 + np.linalg.norm(resid_p) ** 2)
    scale = np.sqrt(np.linalg.norm(rhs_u) ** 2 + np.linalg.norm(rhs_p) ** 2)
    assert resid <= 1e-10 * scale


@pytest.mark.parametrize("problem,n,gt,variant", [
    (1, 9, 7.125, False), (1, 17, 7.125, False),   # convergence saddles
    (2, 9, 3.23, False), (2, 17, 3.23, False),
    (1, 9, 2.0, True),                               # indefinite A
] + [(problem, n, gt, "condensed") for problem, load in ((1, 7.125), (2, 3.23))
     for n in (5, 9) for gt in (load, 0.5)])
def test_solve_saddle_matches_default_lu(monkeypatch, problem, n, gt, variant):
    # SuperLU with its default COLAMD order and partial pivoting is the oracle.
    # variant: the stabilized (False) or classical (True) saddle through
    # solve_saddle, or run_convergence's, the MINI bubbles eliminated element by
    # element and recovered after its solve ("condensed")
    weights = dict(m1=0.0, m2=0.0) if variant is True else {}
    op = _StabilityOperator(ProblemConfig(problem=problem, n=n, **weights))
    A, B = op.csr(_data(op, gt)), assemble_coupling(op.space)
    rhs_u = assemble_load(op.space, manufactured_load)
    n_p = op.space.n_p
    if variant == "condensed":
        real, solved = spaces.Condensed.solve, []
        monkeypatch.setattr(spaces.Condensed, "solve",
                            lambda *args: solved.append(real(*args)) or solved[-1])
        run_convergence(ProblemConfig(problem=problem, gamma_tilde=gt), [n])
        p, u = solved[-1][:n_p], solved[-1][n_p:]
    else:
        u, p = solve_saddle(SaddleSystem(A, B, rhs_u, np.zeros(n_p)))
    K = sp.bmat([[A, B.T], [B, None]], format="csc")
    ref = spla.splu(K).solve(np.concatenate([rhs_u, np.zeros(n_p)]))
    x = np.concatenate([u, p])
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_shift_isolates_lambda_min_from_a_cluster(monkeypatch):
    # 9x9 problem 1 with M = 0 at gt = 2: 64 eigenvalues lie between the shifts
    # -535.5 (none below) and -53.5, and the next above lambda_min = -358.875 are
    # -358.845 and -358.833.  The bisection between those shifts takes one with
    # lambda_min alone below it, about which Lanczos needs few solves
    real_shift, real_factor, shifts, solves = (solvers._shift_below_spectrum,
                                               solvers.ldlt_factor, [], [])

    def factor(A):
        lu = real_factor(A)
        return types.SimpleNamespace(perm_r=lu.perm_r, perm_c=lu.perm_c, U=lu.U,
                                     solve=lambda x: solves.append(1) or lu.solve(x))

    monkeypatch.setattr(solvers, "ldlt_factor", factor)
    monkeypatch.setattr(solvers, "_shift_below_spectrum",
                        lambda *args: shifts.append(real_shift(*args)) or shifts[-1])
    cfg = ProblemConfig(problem=1, n=9, m1=0.0, m2=0.0, gamma_tilde=2.0)
    lam, stable = is_stable(cfg)
    op = _StabilityOperator(cfg)
    w = sla.eigvalsh(op.csr(_data(op, 2.0)).toarray())
    assert not stable and lam == pytest.approx(w[0], rel=1e-10)
    assert lam == pytest.approx(-358.8746779575307, rel=1e-10)
    (sigma, _, below), = shifts
    assert below == 1 and w[0] < sigma <= w[1]
    assert len(solves) <= 21


def test_every_factorization_uses_the_ldlt_order(monkeypatch):
    real, orders = spla.splu, []

    def recording(A, **options):
        orders.append(options.get("permc_spec"))
        return real(A, **options)

    monkeypatch.setattr(solvers.spla, "splu", recording)
    for study in (
            lambda: run_convergence(ProblemConfig(problem=1, gamma_tilde=7.125), [5]),
            lambda: estimate_inf_sup(MixedSpace(build_structured_mesh(5), problem=1)),
            lambda: find_stability_limits(ProblemConfig(problem=2, n=5))):
        before = len(orders)
        study()
        assert len(orders) > before
    assert set(orders) == {"MMD_AT_PLUS_A"}


def test_solve_saddle_singular_named():
    A = sp.csr_matrix((4, 4))  # zero block: singular with zero B
    B = sp.csr_matrix((2, 4))
    with pytest.raises(SingularSaddleError, match="saddle system"):
        solve_saddle(SaddleSystem(A, B, np.ones(4), np.zeros(2)))


def test_lambda_min_nondecreasing_in_stabilization():
    space = MixedSpace(build_structured_mesh(5), problem=1)
    cfg = ProblemConfig(problem=1, n=5)
    A = assemble_elastic(space, mu=cfg.mu, gamma=cfg.mu * 2.0)
    S = assemble_divdiv(space)
    lams = [smallest_eigenvalue((A + M * S).tocsr()) for M in (0.0, 160.0, 640.0)]
    assert lams[0] <= lams[1] + 1e-10 <= lams[2] + 2e-10


def test_count_refused_on_a_non_symmetric_permutation():
    # a zero diagonal makes SuperLU pivot off it: perm_r [0 1] against perm_c [1 0], so
    # U's diagonal is no LDL^T's D and its signs count nothing
    lu, count = solvers.factor_with_inertia(sp.csc_matrix([[0.0, 1.0], [1.0, 0.0]]))
    assert not np.array_equal(lu.perm_r, lu.perm_c) and count is None


def test_solve_saddle_refuses_mismatched_blocks():
    A, B = sp.identity(4, format="csr"), sp.csr_matrix(np.eye(2, 4))
    with pytest.raises(ValueError, match=r"coupling block shape \(2, 3\) does not match 4"):
        solve_saddle(SaddleSystem(A, B[:, :3], np.ones(4), np.zeros(2)))
    with pytest.raises(ValueError, match="right-hand side length does not match"):
        solve_saddle(SaddleSystem(A, B, np.ones(4), np.zeros(3)))


@pytest.mark.parametrize("solution,message", [
    (lambda x: np.full_like(x, np.nan), "solve produced non-finite values"),
    (lambda x: x + 1e-6, r"block residual .* exceeds 1e-10")])
def test_solve_saddle_refuses_a_bad_solution(monkeypatch, solution, message):
    # a factorization whose solve returns NaN, or a solution 1e-6 off, is refused
    real = solvers.ldlt_factor

    def spoiled(K):
        lu = real(K)
        return types.SimpleNamespace(solve=lambda b: solution(lu.solve(b)))

    monkeypatch.setattr(solvers, "ldlt_factor", spoiled)
    A, B = sp.csr_matrix(random_spd(6, 3)), sp.csr_matrix(np.eye(2, 6))
    with pytest.raises(SingularSaddleError, match=message):
        solve_saddle(SaddleSystem(A, B, np.ones(6), np.ones(2)))
