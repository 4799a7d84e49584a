import numpy as np
import pytest
from scipy import sparse as sps
from scipy.io import mmread

from epsstokes import sparse as sp
from epsstokes.drivers import Discretization, ProblemInput, solve_es
from epsstokes.mesh import build_structured_mesh
from epsstokes.sparse import SolverError, solve
from epsstokes.verification import get_case


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
    from epsstokes import fem

    mesh = build_structured_mesh(2)
    disc = Discretization(mesh)
    m = sps.csr_matrix(disc.mean_p[None, :])
    system = sps.bmat([[disc.stiff_u, -disc.div.T, None],
                       [-disc.div, None, m.T],
                       [None, m, None]], format="csr")
    case = get_case("ms1")
    rhs = np.zeros(system.shape[0])
    rhs[:disc.nu] = fem.assemble_load(disc.vspace, case.body_force, disc.quad)
    bdofs, bvals = fem.interpolate_boundary(disc.vspace, case.u_bc())
    mat, rhs = fem.apply_dirichlet(system, rhs, bdofs, bvals)

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
    sp.configure_debug_dump(prefix)
    try:
        solve(sps.identity(3, format="csr"), np.ones(3))
        solve(sps.identity(3, format="csr"), np.ones(3))
    finally:
        sp.configure_debug_dump(None)
    assert (tmp_path / "sys_000.mtx").exists()
    assert (tmp_path / "sys_001.mtx").exists()


def test_report_fields():
    x, report = solve(sps.identity(3, format="csr"), np.zeros(3))
    assert np.array_equal(x, np.zeros(3))
    assert report.method.startswith("sparse_lu")
    assert report.wall_time >= 0.0
    assert report.iterations >= 0
