import ctypes
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sps
from scipy.io import mmread

from epsstokes import sparse as sp
from epsstokes.drivers import (Discretization, ProblemInput, solve_es, solve_pp,
                               solve_stokes)
from epsstokes.mesh import build_structured_mesh
from epsstokes.sparse import SolverError, solve
from epsstokes.verification import get_case
from helpers import (apply_dirichlet, div_coupling, numpy_blas_threads,
                     velocity_boundary, velocity_load, vector_block, vector_stiffness)


def _random_pair(rng, shape=(5, 5), density=0.4):
    dense = rng.standard_normal(shape) * (rng.random(shape) < density)
    mask = dense != 0.0
    rows, cols = np.nonzero(mask)
    return sps.csr_matrix((dense[mask], (rows, cols)), shape), dense


def _solve_factored(a, b, **kwargs):
    """solve with the factor of a itself, in a's own labels, as the
    preconditioner."""
    def precond():
        factor = sp.Factor(a, np.arange(a.shape[0]))
        return sp.Preconditioner("factor", factor.solve, (factor,))
    return solve(a, b, precond=precond, **kwargs)


def test_solve_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(6)
    x, report = _solve_factored(sps.identity(6, format="csr"), b)
    assert np.array_equal(x, b)
    assert report.rel_residual <= 1e-10


def test_solve_two_by_two():
    a = sps.csr_matrix(([2.0, 1.0, 1.0, 2.0], ([0, 0, 1, 1], [0, 1, 0, 1])), (2, 2))
    x, report = _solve_factored(a, np.array([3.0, 3.0]))
    assert np.abs(x - 1.0).max() <= 1e-12
    assert report.rel_residual <= 1e-10


def test_solve_matches_dense_lu_on_stokes_system():
    # assembled Stokes saddle system on the n=2 mesh vs a dense-LU oracle
    mesh = build_structured_mesh(2)
    disc = Discretization(mesh)
    m, div = sps.csr_matrix(disc.mean_p[None, :]), div_coupling(disc)
    system = sps.bmat([[vector_stiffness(disc), -div.T, None],
                       [-div, None, m.T],
                       [None, m, None]], format="csr")
    case = get_case("ms1")
    rhs = np.zeros(system.shape[0])
    rhs[:disc.nu] = velocity_load(disc, case.body_force)
    mat, rhs = apply_dirichlet(system, rhs, *velocity_boundary(disc, case.u_bc()))

    x, report = _solve_factored(mat, rhs)
    x_dense = np.linalg.solve(mat.toarray(), rhs)
    assert np.abs(x - x_dense).max() <= 1e-10
    assert report.rel_residual <= 1e-10


def _saddle(seed=0, nv=5, n_p=3):
    """A random SaddleSystem whose mask fixes the last pressure dof, and its
    monolithic matrix, built by sps.bmat with D, div with that row zeroed,
    and -D^T as the gradient block."""
    rng = np.random.default_rng(seed)
    blocks = [sps.random(r, c, density=0.5, format="csr", random_state=rng)
              for r, c in ((nv, nv), (n_p, 2 * nv), (n_p, n_p))]
    blocks[0] = (blocks[0] + sps.identity(nv, format="csr") * nv).tocsr()
    blocks[2] = (blocks[2] + sps.identity(n_p, format="csr")).tocsr()
    free = np.ones(n_p)
    free[-1] = 0.0
    d = (sps.diags(free) @ blocks[1]).tocsr()
    d.eliminate_zeros()
    whole = sps.bmat([[vector_block(blocks[0]), -d.T], [d, blocks[2]]], format="csr")
    return sp.SaddleSystem(*blocks, free), whole


def test_saddle_system_is_its_assembled_matrix():
    # assembled() is the monolithic matrix, canonical, entry for entry, with
    # the masked row of div dropped from D and -D^T; the blockwise product
    # agrees with it to round-off, and nnz counts the three stored blocks:
    # A once, and div, masked row included, but not its negated transpose
    system, whole = _saddle()
    got = system.assembled()
    whole.sort_indices()
    assert got.has_canonical_format and got.shape == system.shape == whole.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(whole, name)), name
    x = np.random.default_rng(1).standard_normal(whole.shape[0])
    assert np.abs(system @ x - whole @ x).max() <= 1e-14 * np.abs(whole @ x).max()
    masked_row = system.div[-1].nnz
    assert masked_row > 0
    assert len(system.blocks) == 3
    assert (system.nnz == len(system.data)
            == whole.nnz - system.velocity.nnz - system.div.nnz + 2 * masked_row)
    assert len(system.indices) == system.nnz
    assert len(system.indptr) == sum(m.shape[0] + 1 for m in system.blocks)


def test_solve_takes_a_saddle_system_as_an_operator(tmp_path):
    # the residual is checked block by block, a non-finite block is refused,
    # also where the mask zeroes it, and a dump writes assembled()
    system, whole = _saddle()
    b = np.arange(1.0, whole.shape[0] + 1)
    direct = sp.Factor(whole, np.arange(whole.shape[0]))
    pre = lambda: sp.Preconditioner("whole", direct.solve, (direct,))
    with sp.dump_matrices(str(tmp_path / "m_")):
        x, report = solve(system, b, precond=pre)
    assert report.rel_residual == sp.product_residual(system @ x, b) <= 1e-12
    assert np.abs(mmread(str(tmp_path / "m_000.mtx")) - whole).max() == 0.0
    masked_row = sps.diags(1.0 - system.free) @ system.div
    for div in (system.div * np.inf, system.div + masked_row * np.inf):
        with pytest.raises(SolverError, match="not finite"):
            solve(system._replace(div=div.tocsr()), b, precond=pre)


def test_ops_against_dense_oracle():
    rng = np.random.default_rng(42)
    a, da = _random_pair(rng)
    x = rng.standard_normal(5)
    assert np.abs(a @ x - da @ x).max() <= 1e-14


def test_solve_rejects_structurally_singular():
    a = sps.csr_matrix(([1.0, 0.0], ([0, 1], [0, 1])), (2, 2))
    with pytest.raises(SolverError):
        _solve_factored(a, np.ones(2))


def test_solve_rejects_singular_factorization():
    # rank-deficient but structurally full pattern
    a = sps.csr_matrix(([1.0, 1.0, 1.0, 1.0], ([0, 0, 1, 1], [0, 1, 0, 1])), (2, 2))
    with pytest.raises(SolverError):
        _solve_factored(a, np.array([1.0, 2.0]))


def test_conditioning_robustness_gate():
    # the coupled system at both epsilon extremes meets 1e-10 on n=16
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    case = get_case("ms1-mismatch")
    for eps in (1e-6, 1e6):
        inp = ProblemInput(mesh=mesh, body_force=case.body_force,
                           u_bc=case.u_bc(), p_bc=case.p_bc(), epsilon=eps)
        res = solve_es(inp, disc)
        assert res.report.rel_residual <= 1e-10, eps


def test_matrix_market_dump_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    a, da = _random_pair(rng)
    with sp.dump_matrices(str(tmp_path / "mat")):
        sp.dump_solved(a)
    back = mmread(str(tmp_path / "mat000.mtx")).toarray()
    assert np.abs(back - da).max() <= 1e-14


def test_debug_dump_hook(tmp_path):
    prefix = str(tmp_path / "sys_")
    with sp.dump_matrices(prefix):
        _solve_factored(sps.identity(3, format="csr"), np.ones(3))
        _solve_factored(sps.identity(3, format="csr"), np.ones(3))
    assert (tmp_path / "sys_000.mtx").exists()
    assert (tmp_path / "sys_001.mtx").exists()


def test_dump_sink_ends_with_its_block(tmp_path):
    with sp.dump_matrices(str(tmp_path / "a_")):
        pass
    _solve_factored(sps.identity(3, format="csr"), np.ones(3))
    with pytest.raises(SolverError):
        with sp.dump_matrices(str(tmp_path / "b_")):
            _solve_factored(sps.csr_matrix((2, 2)), np.ones(2))
    _solve_factored(sps.identity(3, format="csr"), np.ones(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b_000.mtx"]


def test_report_fields():
    x, report = _solve_factored(sps.identity(3, format="csr"), np.zeros(3))
    assert np.array_equal(x, np.zeros(3))
    assert report.method == "factor"
    assert report.ordering == sp.ORDERING
    assert report.wall_time >= 0.0
    assert report.iterations == 0      # the factor of a meets TOL by itself
    assert report.residual_history == ()
    assert report.lu_nnz == 6          # unit-diagonal L and diagonal U
    assert report.fill == 2.0
    assert 0.0 <= report.factor_time <= report.wall_time


def _laplace_1d(n, diag=2.0):
    return sps.diags([-np.ones(n - 1), np.full(n, diag), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")


@pytest.mark.parametrize("n, steps", [(250, 250), (300, 301), (400, 401)])
def test_cg_step_cap_lets_tridiag_take_all_its_steps(n, steps):
    # unpreconditioned CG on tridiag(-1, 2, -1) with a standard-normal
    # right-hand side takes about n steps in floating point, one more past
    # n = 300, and still meets TOL: the cap must stay above 401, which also
    # keeps it above the 368 steps PP alone needs at aspect 0.02, n = 64
    a = _laplace_1d(n)
    b = np.random.default_rng(0).standard_normal(n)
    log = sp.KrylovLog()
    x = sp.cg(lambda v: a @ v, lambda r: r, b, sp.AIM * sp.TOL * np.linalg.norm(b), log)
    assert len(log.estimates) == steps
    assert np.linalg.norm(b - a @ x) <= sp.TOL * np.linalg.norm(b)


def _krylov(a, inner, factors):
    """A preconditioner for a that runs sp.cg itself, preconditioned by
    inner, aiming at AIM * TOL ||r||, with a log."""
    def precond():
        log = sp.KrylovLog()
        aim = sp.AIM * sp.TOL
        return sp.Preconditioner(
            "cg[near]", lambda r: sp.cg(a.dot, inner, r, aim * sp.norm(r), log),
            factors, log)
    return precond


def test_cg_with_kept_inexact_factor():
    # preconditioned by the factor of a nearby matrix, built before the call:
    # the Laplacian and its nearby factor are SPD, the preconditioner's CG
    # iterates, the report takes one residual per step from its log, and the
    # factor costs this solve no factor time
    a = _laplace_1d(60)
    b = np.random.default_rng(3).standard_normal(60)
    near = sp.Factor(_laplace_1d(60, diag=2.2), np.arange(60))
    x, report = solve(a, b, precond=_krylov(a, near.solve, (near,)))
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)
    assert report.rel_residual <= 1e-10
    assert report.method == "cg[near]"
    assert 2 <= report.iterations == len(report.residual_history) <= 40
    assert report.residual_history[-1] < 1e-3 * report.residual_history[0]
    assert report.factor_time == 0.0
    assert report.lu_nnz == near.nnz and report.fill == near.nnz / near.matrix_nnz
    low, high = report.ritz
    assert 0.0 < low <= high <= 1.0 + 1e-12      # near's A is larger than a's


def test_kept_inexact_factor_without_krylov_log_fails():
    # x = M b is all a solve does: a factor of another matrix misses TOL,
    # and no Krylov solve runs around it
    a = _laplace_1d(60)
    b = np.random.default_rng(3).standard_normal(60)
    near = sp.Factor(_laplace_1d(60, diag=2.2), np.arange(60))
    with pytest.raises(SolverError, match="did not reach") as failure:
        solve(a, b, precond=lambda: sp.Preconditioner("near", near.solve, (near,)))
    want = np.linalg.norm(b - a @ near.solve(b)) / np.linalg.norm(b)
    assert failure.value.residual == pytest.approx(want, rel=1e-12)
    assert failure.value.residual > 1e-2


def test_cg_with_jacobi_reaches_its_aim_one_estimate_per_step():
    # a 1D Laplacian with a varying diagonal, preconditioned by its diagonal
    n = 200
    rng = np.random.default_rng(21)
    a = _laplace_1d(n, 2.0) + sps.diags(rng.uniform(0.0, 1.0, n))
    b = rng.standard_normal(n)
    aim = 1e-12 * np.linalg.norm(b)
    log = sp.KrylovLog()
    x = sp.cg(a.dot, lambda r: r / a.diagonal(), b, aim, log)
    assert 2 <= len(log.estimates) < n
    assert log.estimates[-1] <= aim < min(log.estimates[:-1])
    assert log.lanczos.shape == (len(log.estimates),) * 2
    # the estimates are the recurrence's residuals, which track the true one
    assert np.linalg.norm(b - a @ x) <= 10 * aim
    ref = sps.linalg.spsolve(a.tocsc(), b)
    assert np.abs(x - ref).max() <= 1e-10 * np.abs(ref).max()


def test_cg_of_zero_right_hand_side_takes_no_step():
    log = sp.KrylovLog()
    x = sp.cg(lambda v: 2.0 * v, lambda r: r, np.zeros(5), 1e-14, log)
    assert np.array_equal(x, np.zeros(5))
    assert log.estimates == [] and log.ritz() == ()


_INDEFINITE = np.array([1.0, 1.0, 1.0, -4.0])


@pytest.mark.parametrize("op, precond, which", [
    (lambda v: _INDEFINITE * v, lambda r: r, "operator"),
    (lambda v: 2.0 * v, lambda r: -r, "preconditioner"),
    (lambda v: 2.0 * v, lambda r: np.full_like(r, np.nan), "preconditioner"),
], ids=["indefinite operator", "negative preconditioner", "nan preconditioner"])
def test_cg_refuses_a_pair_that_is_not_positive_definite(op, precond, which):
    # diag(1, 1, 1, -4) on a vector of ones gives p^T A p < 0 at the first
    # step, and a preconditioner that negates gives r^T z < 0, one that
    # returns NaN an r^T z that is not positive: no x is returned
    with pytest.raises(SolverError, match=f"{which} is not positive definite"):
        sp.cg(op, precond, np.ones(4), 1e-14, sp.KrylovLog())


def test_cg_ritz_values_lie_within_the_extreme_eigenvalues():
    # the Lanczos matrix of CG with a Jacobi preconditioner on an SPD matrix:
    # its Ritz values lie between the extreme eigenvalues of D^-1 A, and
    # close in on them as the solve converges
    n = 30
    rng = np.random.default_rng(22)
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    dense = (q * np.geomspace(1.0, 100.0, n)) @ q.T
    d = np.diag(dense)
    eig = np.linalg.eigvalsh(dense / np.sqrt(np.outer(d, d)))
    b = rng.standard_normal(n)
    ritz = []
    for aim in (1e-1, 1e-13):
        log = sp.KrylovLog()
        sp.cg(lambda v: dense @ v, lambda r: r / d, b, aim * np.linalg.norm(b), log)
        low, high = log.ritz()
        assert eig[0] * (1 - 1e-10) <= low <= high <= eig[-1] * (1 + 1e-10)
        ritz.append((len(log.estimates), low, high))
    (few, *_), (many, low, high) = ritz
    assert few < many
    assert np.allclose((low, high), (eig[0], eig[-1]), rtol=1e-8)


def _soft_mode(n=30, soft=1e-2, seed=23):
    """An SPD matrix with one soft mode, eigenvalue soft along w =
    (1, ..., 1, 0), its other eigenvalues spread over [1, 100]; and w."""
    w = np.ones(n)
    w[-1] = 0.0
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(np.column_stack([w, rng.standard_normal((n, n - 1))]))[0]
    return (q * np.append(soft, np.geomspace(1.0, 100.0, n - 1))) @ q.T, w


def test_cg_deflating_the_soft_mode_lifts_the_smallest_ritz_value():
    # the coarse vector spans the soft mode: deflated, CG solves the same
    # system in fewer steps, and its Ritz values lie within the spectrum
    # left, [1, 100], where plain CG finds the soft eigenvalue
    dense, w = _soft_mode()
    b = np.random.default_rng(24).standard_normal(len(w))
    aim = 1e-12 * np.linalg.norm(b)
    ref = np.linalg.solve(dense, b)
    runs = []
    for coarse in (None, w):
        log = sp.KrylovLog()
        x = sp.cg(lambda v: dense @ v, lambda r: r, b, aim, log, coarse)
        assert log.estimates[-1] <= aim
        assert np.linalg.norm(b - dense @ x) <= 10 * aim
        assert np.abs(x - ref).max() <= 1e-8 * np.abs(ref).max()
        runs.append((len(log.estimates), log.ritz()))
    (plain_steps, plain_ritz), (steps, (low, high)) = runs
    assert steps < plain_steps
    assert plain_ritz[0] == pytest.approx(1e-2, rel=1e-6)
    assert low >= 1.0 - 1e-8 and high <= 100.0 * (1 + 1e-10)


def test_cg_with_a_coarse_vector_returns_zero_for_a_zero_right_hand_side():
    # no step and no product: not even op(w)
    calls = []

    def op(v):
        calls.append(v)
        return 2.0 * v

    log = sp.KrylovLog()
    x = sp.cg(op, lambda r: r, np.zeros(5), 1e-14, log, np.ones(5))
    assert np.array_equal(x, np.zeros(5)) and not np.signbit(x).any()
    assert calls == [] and log.estimates == [] and log.ritz() == ()


def test_cg_with_an_all_zero_coarse_vector_runs_plain_cg():
    # no free dof to deflate: the same products, steps and bits as no w
    dense, w = _soft_mode()
    b = np.random.default_rng(25).standard_normal(len(w))
    runs = []
    for coarse in (None, np.zeros_like(w)):
        calls, log = [], sp.KrylovLog()

        def op(v):
            calls.append(v.copy())
            return dense @ v

        x = sp.cg(op, lambda r: r, b, 1e-10 * np.linalg.norm(b), log, coarse)
        runs.append((x, calls, log))
    (x0, calls0, log0), (x1, calls1, log1) = runs
    assert np.array_equal(x0, x1) and log0.estimates == log1.estimates
    assert np.array_equal(log0.lanczos, log1.lanczos)
    assert len(calls0) == len(calls1)
    assert all(np.array_equal(a, c) for a, c in zip(calls0, calls1))


@pytest.mark.parametrize("op", [
    lambda v: -v,
    lambda v: 0.0 * v,
    lambda v: np.full_like(v, np.nan),
    lambda v: np.full_like(v, np.inf),
    lambda v: np.full_like(v, 1e308),
], ids=["negative", "zero", "nan", "inf", "overflowing"])
def test_cg_refuses_a_coarse_vector_without_positive_finite_energy(op):
    # E = w^T op(w) negative, zero, nan, inf (0 * inf in the product) or
    # overflowing: SolverError before any step, and no floating-point
    # warning on the way (errstate raise turns one into an exception)
    w = np.ones(4)
    w[-1] = 0.0
    log = sp.KrylovLog()
    with np.errstate(all="raise"), pytest.raises(SolverError, match="coarse vector"):
        sp.cg(op, lambda r: r, np.ones(4), 1e-14, log, w)
    assert log.estimates == []


def test_norm_keeps_finite_bits_and_survives_overflow():
    v = np.random.default_rng(13).standard_normal(50)
    assert sp.norm(v) == float(np.linalg.norm(v))
    assert sp.norm(1e200 * v) == pytest.approx(1e200 * np.linalg.norm(v), rel=1e-14)
    assert sp.norm(np.full(4, 1e308)) == np.inf           # 2e308 is not a double
    assert sp.norm(np.array([1.0, np.inf])) == np.inf
    assert np.isnan(sp.norm(np.array([1.0, np.nan])))


def test_residual_fails_closed_when_a_norm_is_not_finite():
    a = sps.identity(2, format="csr")
    b = np.array([1e200, -1e200])           # its squares overflow
    assert sp.product_residual(a @ (0.5 * b), b) == pytest.approx(0.5, rel=1e-15)
    assert sp.product_residual(np.zeros(2), np.array([1.0, np.inf])) == np.inf
    assert sp.product_residual(np.array([np.nan, 0.0]), np.ones(2)) == np.inf
    for b, mat in ((np.array([1.0, np.inf]), a),
                   (np.ones(2), sps.diags([1.0, np.inf], format="csr"))):
        with pytest.raises(SolverError, match="not finite"):
            _solve_factored(mat, b)


def test_report_from_factors_counts_time_of_new_factors_only():
    # nnz counts every factor given; factor time only those finished at or
    # after since
    kept = sp.Factor(_laplace_1d(30), np.arange(30))
    since = time.perf_counter()
    made = sp.Factor(_laplace_1d(50), np.arange(50))
    assert kept.finished < since <= made.finished
    report = sp.SolverReport.from_factors("cg[both]", 1e-12, [0.5, 1e-3, 1e-9],
                                          2.5, (kept, made), since)
    assert report.method == "cg[both]" and report.rel_residual == 1e-12
    assert report.wall_time == 2.5
    assert report.lu_nnz == kept.nnz + made.nnz
    assert report.matrix_nnz == kept.matrix_nnz + made.matrix_nnz
    assert report.fill == report.lu_nnz / report.matrix_nnz
    assert report.ordering == sp.ORDERING
    assert report.iterations == len(report.residual_history) == 3
    assert report.residual_history == (0.5, 1e-3, 1e-9)
    assert report.factor_time == made.factor_time > 0.0


def test_factor_less_preconditioner_reports_zero_fill():
    a = sps.diags([2.0, 3.0, 4.0], format="csr")
    jacobi = sp.Preconditioner("jacobi", lambda r: r / a.diagonal(), ())
    x, report = solve(a, np.ones(3), precond=lambda: jacobi)
    assert np.abs(a @ x - 1.0).max() <= 1e-12
    assert report.lu_nnz == 0 and report.fill == 0.0
    assert report.factor_time == 0.0


def test_factor_solves_several_right_hand_sides():
    a = _laplace_1d(20)
    rhs = np.random.default_rng(4).standard_normal((20, 2))
    both = sp.Factor(a, np.arange(20)).solve(rhs)
    assert both.shape == (20, 2)
    assert np.abs(a @ both - rhs).max() <= 1e-12


def test_factor_of_non_canonical_matrix_matches_canonical_form():
    # each diagonal stored as two halves, and every row's entries reversed
    canonical, _ = _labelled_system(30, 5, True)
    n = canonical.shape[0]
    rows, cols, vals = [], [], []
    for i in range(n):
        row = canonical.getrow(i)
        for j, v in reversed(list(zip(row.indices, row.data))):
            halves = 2 if j == i else 1
            rows += [i] * halves
            cols += [j] * halves
            vals += [v / halves] * halves
    indptr = np.searchsorted(rows, np.arange(n + 1))
    messy = sps.csr_matrix((np.array(vals), np.array(cols), indptr), shape=(n, n))
    assert not messy.has_sorted_indices and messy.nnz == canonical.nnz + n
    want = sp.Factor(canonical, np.arange(n))
    got = sp.Factor(messy, np.arange(n))
    assert got.nnz == want.nnz
    rhs = np.random.default_rng(6).standard_normal((n, 2))
    ref = want.solve(rhs)
    assert np.abs(got.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("columns", [None, 2])
def test_factor_solve_is_the_fancy_index_expression(columns):
    # bit for bit what out[perm] = lu.solve(r[perm]) gives
    a, _ = _labelled_system(40, 8, False)
    rng = np.random.default_rng(9)
    factor = sp.Factor(a, rng.permutation(40))
    shape = (40,) if columns is None else (40, columns)
    r = rng.standard_normal(shape)
    want = np.empty_like(r)
    want[factor.perm] = factor.lu.solve(r[factor.perm])
    got = factor.solve(r)
    assert got.shape == shape and np.array_equal(got, want)
    assert np.array_equal(factor.perm[factor.iperm], np.arange(40))


def _labelled_system(n, seed, symmetric_pattern):
    """A diagonally dominant sparse matrix under a random symmetric
    relabelling, with a few off-diagonal entries of 1e-16 of their row's
    largest entry, which Factor orders and factors like any other."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.15
    if symmetric_pattern:
        mask |= mask.T
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    diagonal = np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, n)
    np.fill_diagonal(dense, rng.choice([-1.0, 1.0], n) * diagonal)
    tiny = rng.integers(0, n, (n, 2))
    tiny = tiny[tiny[:, 0] != tiny[:, 1]]
    dense[tiny[:, 0], tiny[:, 1]] = 1e-16 * diagonal[tiny[:, 0]]
    label = rng.permutation(n)
    dense = dense[label][:, label]
    return sps.csr_matrix(dense), dense


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
       symmetric_pattern=st.booleans())
def test_factor_solve_on_random_labelling_matches_dense(n, seed, symmetric_pattern):
    a, dense = _labelled_system(n, seed, symmetric_pattern)
    rng = np.random.default_rng(seed + 1)
    factor = sp.Factor(a, rng.permutation(n))
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x = factor.solve(rhs)
        ref = np.linalg.solve(dense, rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    b = rng.standard_normal(n)
    x, report = _solve_factored(a, b)
    assert report.rel_residual <= 1e-10
    assert np.linalg.norm(b - dense @ x) <= 1e-10 * np.linalg.norm(b)
    assert report.ordering == sp.ORDERING


_BLAS = numpy_blas_threads()
needs_openblas = pytest.mark.skipif(_BLAS is None,
                                    reason="numpy's BLAS is not OpenBLAS")


@pytest.fixture
def two_blas_threads():
    """numpy's BLAS set to two threads; the count before is restored after."""
    get, set_ = _BLAS
    before = get()
    set_(2)
    yield get
    set_(before)


def _counting(factor=None):
    """A preconditioner that records numpy's BLAS thread count per apply."""
    seen = []

    def apply(r):
        seen.append(_BLAS[0]())
        return r.copy() if factor is None else factor.solve(r)

    factors = () if factor is None else (factor,)
    return seen, lambda: sp.Preconditioner("counting", apply, factors)


@needs_openblas
def test_solve_runs_on_one_blas_thread(two_blas_threads):
    # every apply of the inner preconditioner of a Krylov solve that the
    # preconditioner runs
    a = _laplace_1d(60)
    seen, counting = _counting(sp.Factor(_laplace_1d(60, diag=2.2), np.arange(60)))
    inner = counting()
    solve(a, np.ones(60), precond=_krylov(a, inner.apply, inner.factors))
    assert len(seen) >= 2 and set(seen) == {1}
    assert two_blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("failure", ["unreachable tol", "zero row"])
def test_blas_threads_restored_after_solver_error(two_blas_threads, failure):
    if failure == "zero row":
        with pytest.raises(SolverError, match="zero"):
            _solve_factored(sps.diags([1.0, 0.0, 1.0], format="csr"), np.ones(3))
    else:
        # x = b, the identity preconditioner's answer, misses TOL on a
        # long 1D Laplacian
        a = _laplace_1d(2000)
        seen, precond = _counting()
        with pytest.raises(SolverError, match="did not reach"):
            solve(a, np.ones(2000), precond=precond)
        assert set(seen) == {1}
    assert two_blas_threads() == 2


def _record_blas_threads(monkeypatch, module, names):
    """numpy's BLAS thread count at each call of the named functions."""
    seen = []

    def recording(real):
        def wrapper(*args, **kwargs):
            seen.append(_BLAS[0]())
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return seen


@needs_openblas
def test_assembly_in_drivers_runs_on_one_blas_thread(two_blas_threads, monkeypatch):
    # the per-cell matmuls of assembly and loads, outside sparse.solve
    from epsstokes import fem
    seen = _record_blas_threads(monkeypatch, fem, (
        "assemble_stiffness", "assemble_div_coupling", "assemble_load",
        "assemble_body_force_loads", "assemble_field_grad_load"))
    mesh = build_structured_mesh(4)
    case = get_case("ms1")
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=case.body_force, u_bc=case.u_bc(),
                       p_bc=case.p_bc(), epsilon=1.0)
    for driver in (solve_pp, solve_stokes, solve_es):
        driver(inp, disc)
    # K, Kp, B, the body force's two loads in one pass, PP's field load
    assert len(seen) == 5 and set(seen) == {1}
    assert two_blas_threads() == 2


def _record_kernel_threads(monkeypatch):
    """numpy's BLAS thread count inside every call of fem's shape-function
    tables, which the field kernels eval_at_quad and eval_grad_at_quad (and
    the assemblers) call once each; and the number of kernel calls."""
    from epsstokes import fem
    seen = _record_blas_threads(monkeypatch, fem, ("shape_values", "shape_gradients"))
    kernels = _record_blas_threads(monkeypatch, fem, ("eval_at_quad",
                                                      "eval_grad_at_quad"))
    return seen, kernels


@needs_openblas
def test_sweep_error_rows_run_on_one_blas_thread(two_blas_threads, monkeypatch):
    # an ES row's gaps are seven Gram forms (velocity L2 and seminorm against
    # S and PP, the pressure quotient norm against S, pressure L2 and
    # seminorm against PP); div_l2 still reaches the quadrature kernels
    from epsstokes import harness, verification as ver
    seen, kernels = _record_kernel_threads(monkeypatch)
    forms = _record_blas_threads(monkeypatch, ver, ("_quadratic_form",))
    table, _ = harness.run_sweep_eps(harness.RunConfig(case="ms1-mismatch", n=4,
                                                       eps_list=(1.0,)))
    assert len(table.rows) == 1 and len(forms) == 7 and len(kernels) >= 1
    assert set(seen) == {1} and set(forms) == {1}
    assert two_blas_threads() == 2


@needs_openblas
def test_norms_called_directly_run_on_one_blas_thread(two_blas_threads, monkeypatch,
                                                      tmp_path):
    # a norm or an export called outside any driver or sweep, as a script
    # measuring a solution calls them
    from epsstokes import harness, verification as ver
    case = get_case("ms1")
    mesh = build_structured_mesh(4)
    res = solve_pp(ProblemInput(mesh=mesh, body_force=case.body_force,
                                u_bc=case.u_bc(), p_bc=case.p_bc()))
    seen, kernels = _record_kernel_threads(monkeypatch)
    assert two_blas_threads() == 2
    ver.error_h1(res.u, case.u_exact, case.grad_u_exact)
    ver.quotient_norm_l2(res.p, case.p_exact)
    ver.div_l2(res.u)
    harness.export_vtk(res, tmp_path / "pp.vtk")
    assert len(kernels) == 5 and len(seen) == 5 and set(seen) == {1}
    assert two_blas_threads() == 2


def test_solve_without_blas_thread_control(monkeypatch):
    a = _laplace_1d(60)
    b = np.random.default_rng(5).standard_normal(60)
    near = sp.Factor(_laplace_1d(60, diag=2.2), np.arange(60))
    precond = _krylov(a, near.solve, (near,))
    x, report = solve(a, b, precond=precond)
    assert report.iterations >= 2
    monkeypatch.setattr(sp, "_blas_thread_functions", lambda: None)
    x_none, report_none = solve(a, b, precond=precond)
    assert np.array_equal(x_none, x)
    assert report_none.iterations == report.iterations


# Run in a fresh interpreter: the thread counts of the process after numpy,
# after scipy's SuperLU, after epsstokes and after an S/PP/ES sweep, and
# scipy's dgemm against numpy's product once its pool is wanted again.
_FRESH_THREADS = r"""
import json, os, sys
sys.path.insert(0, sys.argv[1])

def threads():
    return len(os.listdir("/proc/self/task"))

import numpy as np
n0 = threads()
import scipy.sparse.linalg
n1 = threads()
import epsstokes
from epsstokes import harness, sparse
n_import = threads()
harness.run_sweep_eps(harness.RunConfig(case="ms1-mismatch", n=4,
                                        eps_list=(1e-6, 1.0, 1e6)))
n_sweep = threads()
from scipy.linalg.blas import dgemm
a = np.random.default_rng(0).standard_normal((600, 600))
product = a @ a
gemm_error = np.linalg.norm(dgemm(1.0, a, a) - product) / np.linalg.norm(product)
print(json.dumps(dict(n0=n0, n1=n1, n_import=n_import, n_sweep=n_sweep,
                      gemm_error=float(gemm_error),
                      symbol=sparse._scipy_blas_shutdown() is not None)))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
def test_import_stops_scipy_blas_pool():
    # scipy's OpenBLAS starts its worker threads when scipy is loaded, and
    # they busy-wait before they sleep; importing epsstokes stops them, and
    # nothing the package runs afterwards brings them back
    src = str(Path(sp.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", _FRESH_THREADS, src],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.splitlines()[-1])
    if counts["n1"] == counts["n0"]:
        pytest.skip("scipy's BLAS started no thread pool")
    if not counts["symbol"]:
        pytest.skip("scipy's BLAS exports no blas_thread_shutdown_")
    assert counts["n_import"] == counts["n0"]
    assert counts["n_sweep"] <= counts["n0"]
    assert counts["gemm_error"] <= 1e-12


def test_solve_without_scipy_blas_shutdown(monkeypatch):
    # MKL, Accelerate or an OpenBLAS without the symbol: the lookup finds
    # nothing, the stop calls nothing, and solves are unchanged
    from scipy.sparse.linalg._dsolve import _superlu
    a = _laplace_1d(60)
    b = np.random.default_rng(7).standard_normal(60)
    x, _ = _solve_factored(a, b)
    opened = []
    with monkeypatch.context() as m:
        m.setattr(ctypes, "CDLL", lambda path: opened.append(path) or object())
        assert sp._scipy_blas_shutdown() is None
    assert opened == [_superlu.__file__]
    lookups = []

    def lookup():
        lookups.append(1)
        return None

    monkeypatch.setattr(sp, "_scipy_blas_shutdown", lookup)
    sp._stop_scipy_blas_pool()       # calling the None it got would raise
    assert lookups == [1]
    x_none, _ = _solve_factored(a, b)
    assert np.array_equal(x_none, x)


def test_solve_releases_free_heap_before_and_after_factoring(monkeypatch):
    a = _laplace_1d(60)
    b = np.random.default_rng(6).standard_normal(60)
    x, _ = _solve_factored(a, b)
    pads = []
    monkeypatch.setattr(sp, "_malloc_trim", lambda: pads.append)
    x_counted, _ = _solve_factored(a, b)
    assert pads == [0, 0]            # on entry, and after the factorization
    monkeypatch.setattr(sp, "_malloc_trim", lambda: None)
    x_none, _ = _solve_factored(a, b)
    assert np.array_equal(x_counted, x) and np.array_equal(x_none, x)
