import time

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
from helpers import (apply_dirichlet, numpy_blas_threads, velocity_boundary,
                     velocity_load, vector_stiffness)


def _random_pair(rng, shape=(5, 5), density=0.4):
    dense = rng.standard_normal(shape) * (rng.random(shape) < density)
    mask = dense != 0.0
    rows, cols = np.nonzero(mask)
    return sps.csr_matrix((dense[mask], (rows, cols)), shape), dense


def test_solve_identity():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(6)
    x, report = solve(sps.identity(6, format="csr"), b)
    assert np.array_equal(x, b)
    assert report.rel_residual <= 1e-10


def test_solve_two_by_two():
    a = sps.csr_matrix(([2.0, 1.0, 1.0, 2.0], ([0, 0, 1, 1], [0, 1, 0, 1])), (2, 2))
    x, report = solve(a, np.array([3.0, 3.0]))
    assert np.abs(x - 1.0).max() <= 1e-12
    assert report.rel_residual <= 1e-10


def test_solve_matches_dense_lu_on_stokes_system():
    # assembled Stokes saddle system on the n=2 mesh vs a dense-LU oracle
    mesh = build_structured_mesh(2)
    disc = Discretization(mesh)
    m = sps.csr_matrix(disc.mean_p[None, :])
    system = sps.bmat([[vector_stiffness(disc), -disc.div.T, None],
                       [-disc.div, None, m.T],
                       [None, m, None]], format="csr")
    case = get_case("ms1")
    rhs = np.zeros(system.shape[0])
    rhs[:disc.nu] = velocity_load(disc, case.body_force)
    mat, rhs = apply_dirichlet(system, rhs, *velocity_boundary(disc, case.u_bc()))

    x, report = solve(mat, rhs)
    x_dense = np.linalg.solve(mat.toarray(), rhs)
    assert np.abs(x - x_dense).max() <= 1e-10
    assert report.rel_residual <= 1e-10


def test_ops_against_dense_oracle():
    rng = np.random.default_rng(42)
    a, da = _random_pair(rng)
    x = rng.standard_normal(5)
    assert np.abs(a @ x - da @ x).max() <= 1e-14


def test_solve_rejects_structurally_singular():
    a = sps.csr_matrix(([1.0, 0.0], ([0, 1], [0, 1])), (2, 2))
    with pytest.raises(SolverError):
        solve(a, np.ones(2))


def test_solve_rejects_singular_factorization():
    # rank-deficient but structurally full pattern
    a = sps.csr_matrix(([1.0, 1.0, 1.0, 1.0], ([0, 0, 1, 1], [0, 1, 0, 1])), (2, 2))
    with pytest.raises(SolverError):
        solve(a, np.array([1.0, 2.0]))


def test_solve_rejects_too_tight_tolerance():
    with pytest.raises(ValueError, match="floor"):
        solve(sps.identity(2, format="csr"), np.ones(2), tol=1e-15)
    with pytest.raises(ValueError, match="floor"):
        solve(sps.identity(2, format="csr"), np.ones(2), tol=np.nan)


def test_conditioning_robustness_gate():
    # the coupled system at both epsilon extremes meets 1e-10 on n=16
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    case = get_case("ms1-mismatch")
    for eps in (1e-6, 1e6):
        inp = ProblemInput(mesh=mesh, body_force=case.body_force,
                           u_bc=case.u_bc(), p_bc=case.p_bc(), epsilon=eps)
        res = solve_es(inp, disc, tol=1e-10)
        assert res.report.rel_residual <= 1e-10, eps


def test_matrix_market_dump_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    a, da = _random_pair(rng)
    path = tmp_path / "mat.mtx"
    sp.dump_matrix_market(a, path)
    back = mmread(str(path)).toarray()
    assert np.abs(back - da).max() <= 1e-14


def test_debug_dump_hook(tmp_path):
    prefix = str(tmp_path / "sys_")
    with sp.dump_matrices(prefix):
        solve(sps.identity(3, format="csr"), np.ones(3))
        solve(sps.identity(3, format="csr"), np.ones(3))
    assert (tmp_path / "sys_000.mtx").exists()
    assert (tmp_path / "sys_001.mtx").exists()


def test_dump_sink_ends_with_its_block(tmp_path):
    with sp.dump_matrices(str(tmp_path / "a_")):
        pass
    solve(sps.identity(3, format="csr"), np.ones(3))
    with pytest.raises(SolverError):
        with sp.dump_matrices(str(tmp_path / "b_")):
            solve(sps.csr_matrix((2, 2)), np.ones(2))
    solve(sps.identity(3, format="csr"), np.ones(3))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b_000.mtx"]


def test_report_fields():
    x, report = solve(sps.identity(3, format="csr"), np.zeros(3))
    assert np.array_equal(x, np.zeros(3))
    assert report.method.startswith("gmres[sparse_lu")
    assert report.ordering.lower() in report.method
    assert report.wall_time >= 0.0
    assert report.iterations == 0      # the factor of a meets tol by itself
    assert report.residual_history == ()
    assert report.lu_nnz == 6          # unit-diagonal L and diagonal U
    assert report.fill == 2.0
    assert 0.0 <= report.factor_time <= report.wall_time


def _laplace_1d(n, diag=2.0):
    return sps.diags([-np.ones(n - 1), np.full(n, diag), -np.ones(n - 1)],
                     [-1, 0, 1], format="csr")


def test_gmres_with_kept_inexact_factor():
    # preconditioned by the factor of a nearby matrix, built before the call:
    # GMRES iterates, records one residual per iteration, and the factor
    # costs this solve no factor time
    a = _laplace_1d(60)
    b = np.random.default_rng(3).standard_normal(60)
    near = sp.Factor(_laplace_1d(60, diag=2.2))
    x, report = solve(a, b, precond=lambda: sp.Preconditioner(
        "near", near.solve, (near,)))
    assert np.linalg.norm(b - a @ x) <= 1e-10 * np.linalg.norm(b)
    assert report.rel_residual <= 1e-10
    assert report.method == "gmres[near]"
    assert 2 <= report.iterations == len(report.residual_history) <= 40
    assert report.residual_history[-1] < 1e-3 * report.residual_history[0]
    assert report.factor_time == 0.0
    assert report.lu_nnz == near.nnz and report.fill == near.nnz / near.matrix_nnz


def test_gmres_matches_dense_solve_across_restarts(monkeypatch):
    # a nonsymmetric system, preconditioned on the right by its diagonal;
    # with four vectors per cycle GMRES restarts from the explicit residual
    monkeypatch.setattr(sp, "_RESTART", 4)
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((30, 30)) + np.diag(rng.uniform(15.0, 25.0, 30))
    assert np.abs(dense - dense.T).max() > 1.0
    b = rng.standard_normal(30)
    aim = 1e-13 * np.linalg.norm(b)
    log = sp.KrylovLog()
    x = sp.gmres(lambda v: dense @ v, lambda r: r / np.diag(dense), b, aim, log)
    ref = np.linalg.solve(dense, b)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    assert len(log.estimates) > 4 and log.estimates[-1] <= aim < log.estimates[-2]
    assert log.hessenberg.shape[0] <= 4
    assert np.linalg.norm(b - dense @ x) <= 10 * aim


def test_gmres_of_zero_right_hand_side_takes_no_step():
    log = sp.KrylovLog()
    x = sp.gmres(lambda v: 2.0 * v, lambda r: r, np.zeros(5), 1e-14, log)
    assert np.array_equal(x, np.zeros(5))
    assert log.estimates == [] and log.ritz() == ()


def test_gmres_on_identity_is_exact_in_one_step():
    # the first Arnoldi vector spans an invariant subspace: happy breakdown
    b = np.random.default_rng(12).standard_normal(7)
    log = sp.KrylovLog()
    x = sp.gmres(lambda v: v.copy(), lambda r: r, b, 0.0, log)
    assert np.abs(x - b).max() <= 4e-16 * np.abs(b).max()
    assert len(log.estimates) == 1 and log.estimates[0] <= 1e-15 * np.linalg.norm(b)
    assert log.ritz() == (1.0, 1.0)


def test_gmres_ritz_values_of_a_full_cycle_are_the_eigenvalues():
    # five steps span the whole space of diag(1..5), so the Ritz values of
    # the last (only) cycle are its eigenvalues
    diag = np.arange(1.0, 6.0)
    log = sp.KrylovLog()
    sp.gmres(lambda v: diag * v, lambda r: r, np.ones(5), 1e-14, log)
    assert len(log.estimates) == 5
    assert np.allclose(log.ritz(), (1.0, 5.0), rtol=1e-12)


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
    assert sp.rel_residual(a, 0.5 * b, b) == pytest.approx(0.5, rel=1e-15)
    assert sp.rel_residual(a, np.zeros(2), np.array([1.0, np.inf])) == np.inf
    assert sp.rel_residual(a, np.array([np.nan, 0.0]), np.ones(2)) == np.inf
    for b, mat in ((np.array([1.0, np.inf]), a),
                   (np.ones(2), sps.diags([1.0, np.inf], format="csr"))):
        with pytest.raises(SolverError, match="not finite"):
            solve(mat, b)


def test_report_from_factors_counts_time_of_new_factors_only():
    # nnz counts every factor given; factor time only those finished at or
    # after since
    kept = sp.Factor(_laplace_1d(30))
    since = time.perf_counter()
    made = sp.Factor(_laplace_1d(50))
    assert kept.finished < since <= made.finished
    report = sp.SolverReport.from_factors("gmres[both]", 1e-12, [0.5, 1e-3, 1e-9],
                                          2.5, (kept, made), since)
    assert report.method == "gmres[both]" and report.rel_residual == 1e-12
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
    both = sp.Factor(a).solve(rhs)
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
    want, got = sp.Factor(canonical), sp.Factor(messy)
    assert np.array_equal(got.perm, want.perm)
    assert got.nnz == want.nnz
    rhs = np.random.default_rng(6).standard_normal((n, 2))
    ref = want.solve(rhs)
    assert np.abs(got.solve(rhs) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("columns", [None, 2])
def test_factor_solve_is_the_fancy_index_expression(columns):
    # bit for bit what out[perm] = lu.solve(d * r[perm]) gives
    a, _ = _labelled_system(40, 8, False)
    factor = sp.Factor(a)
    shape = (40,) if columns is None else (40, columns)
    r = np.random.default_rng(9).standard_normal(shape)
    d = factor.scale_p if columns is None else factor.scale_p[:, None]
    want = np.empty_like(r)
    want[factor.perm] = factor.lu.solve(d * r[factor.perm])
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
    factor = sp.Factor(a)
    for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x = factor.solve(rhs)
        ref = np.linalg.solve(dense, rhs)
        assert x.shape == rhs.shape
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    b = rng.standard_normal(n)
    x, report = solve(a, b)
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
    a = _laplace_1d(60)
    seen, precond = _counting(sp.Factor(_laplace_1d(60, diag=2.2)))
    solve(a, np.ones(60), precond=precond)
    assert len(seen) >= 2 and set(seen) == {1}
    assert two_blas_threads() == 2


@needs_openblas
@pytest.mark.parametrize("failure", ["unreachable tol", "zero row"])
def test_blas_threads_restored_after_solver_error(two_blas_threads, failure):
    if failure == "zero row":
        with pytest.raises(SolverError, match="zero"):
            solve(sps.diags([1.0, 0.0, 1.0], format="csr"), np.ones(3))
    else:
        # unpreconditioned restarted GMRES cannot reach 1e-14 on a long
        # 1D Laplacian in ten cycles
        a = _laplace_1d(2000)
        seen, precond = _counting()
        with pytest.raises(SolverError, match="did not reach"):
            solve(a, np.ones(2000), tol=1e-14, precond=precond)
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
        "assemble_grad_load", "assemble_field_grad_load"))
    mesh = build_structured_mesh(4)
    case = get_case("ms1")
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=case.body_force, u_bc=case.u_bc(),
                       p_bc=case.p_bc(), epsilon=1.0)
    for driver in (solve_pp, solve_stokes, solve_es):
        driver(inp, disc)
    assert len(seen) == 6 and set(seen) == {1}
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
    near = sp.Factor(_laplace_1d(60, diag=2.2))

    def precond():
        return sp.Preconditioner("near", near.solve, (near,))

    x, report = solve(a, b, precond=precond)
    monkeypatch.setattr(sp, "_blas_thread_functions", lambda: None)
    x_none, report_none = solve(a, b, precond=precond)
    assert np.array_equal(x_none, x)
    assert report_none.iterations == report.iterations


def test_solve_releases_free_heap_before_and_after_factoring(monkeypatch):
    a = _laplace_1d(60)
    b = np.random.default_rng(6).standard_normal(60)
    x, _ = solve(a, b)
    pads = []
    monkeypatch.setattr(sp, "_malloc_trim", lambda: pads.append)
    x_counted, _ = solve(a, b)
    assert pads == [0, 0]            # on entry, and after the factorization
    monkeypatch.setattr(sp, "_malloc_trim", lambda: None)
    x_none, _ = solve(a, b)
    assert np.array_equal(x_counted, x) and np.array_equal(x_none, x)
