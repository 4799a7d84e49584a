import gc
import weakref

import numpy as np
import pytest

from scipy import sparse as sps

from epsstokes import drivers, fem, sparse
from epsstokes.drivers import (Discretization, IncompatibleDataError,
                               ProblemInput, check_compatibility, solve_es,
                               solve_es_sweep, solve_pp, solve_problem,
                               solve_stokes)
from epsstokes.harness import DEFAULT_EPS_GRID, RunConfig, run_sweep_eps
from epsstokes.mesh import build_structured_mesh
from epsstokes.fem import Field
from epsstokes.verification import (diff_field, div_l2, error_h1,
                                    gauss_formula_residual, quotient_norm_l2,
                                    seminorm_h1, get_case)
from helpers import (apply_dirichlet, grad_coupling_direct, linear_x_minus_half,
                     loaded_parallelogram_mesh, monolithic_reference,
                     reference_system, stokes_lagrange_reference, unit_x,
                     zero_scalar, zero_vec)

DRIVERS = {"S": solve_stokes, "PP": solve_pp, "ES": solve_es}
FACTORS = ("velocity_factor", "pressure_factor", "mass_factor")
SYSTEMS = ("stokes_system", "pressure_system", "velocity_system",
           "_coupled_unit")


def _inp(mesh, case, eps=None):
    return ProblemInput(mesh=mesh, body_force=case.body_force,
                        u_bc=case.u_bc(), p_bc=case.p_bc(), epsilon=eps)


def _outward_normal_data(x, y):
    nx = np.where(np.isclose(x, 1.0), 1.0, np.where(np.isclose(x, 0.0), -1.0, 0.0))
    ny = np.where(np.isclose(y, 1.0), 1.0, np.where(np.isclose(y, 0.0), -1.0, 0.0))
    return np.stack([nx, ny], axis=-1)


def test_compatibility_zero_and_translation():
    mesh = build_structured_mesh(4)
    base = dict(mesh=mesh, body_force=zero_vec, p_bc=zero_scalar)
    assert check_compatibility(ProblemInput(u_bc=zero_vec, **base)) == 0.0
    flux = check_compatibility(ProblemInput(u_bc=unit_x, **base))
    assert abs(flux) <= 1e-13


def test_compatibility_rejects_net_outflow():
    mesh = build_structured_mesh(4)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec,
                       u_bc=_outward_normal_data, p_bc=zero_scalar)
    assert abs(check_compatibility(inp) - 4.0) <= 1e-12
    with pytest.raises(IncompatibleDataError) as err:
        solve_stokes(inp)
    assert abs(err.value.flux - 4.0) <= 1e-12


def test_zero_data_gives_zero_solutions():
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=zero_vec,
                       p_bc=zero_scalar, epsilon=1.0)
    for res in (solve_stokes(inp, disc), solve_pp(inp, disc), solve_es(inp, disc)):
        assert np.abs(res.u.coefficients).max() <= 1e-10
        assert np.abs(res.p.coefficients).max() <= 1e-10


def test_gradient_forcing_identity_all_drivers():
    # F = grad(q) with q = x - 1/2: velocity vanishes, pressure equals q
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                       p_bc=linear_x_minus_half, epsilon=1.0)
    q_nodes = linear_x_minus_half(disc.pspace.node_coords[:, 0],
                                  disc.pspace.node_coords[:, 1])
    for res in (solve_stokes(inp, disc), solve_pp(inp, disc), solve_es(inp, disc)):
        assert np.abs(res.u.coefficients).max() <= 1e-9, res.problem
        assert np.abs(res.p.coefficients - q_nodes).max() <= 1e-9, res.problem


def test_es_gradient_forcing_across_epsilons():
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    q_nodes = linear_x_minus_half(disc.pspace.node_coords[:, 0],
                                  disc.pspace.node_coords[:, 1])
    for eps in (1e-3, 1.0, 1e3):
        inp = ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                           p_bc=linear_x_minus_half, epsilon=eps)
        res = solve_es(inp, disc)
        assert np.abs(res.u.coefficients).max() <= 1e-9
        assert np.abs(res.p.coefficients - q_nodes).max() <= 1e-9


def test_es_rejects_bad_epsilon():
    mesh = build_structured_mesh(2)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=zero_vec,
                       p_bc=zero_scalar, epsilon=-1.0)
    with pytest.raises(ValueError, match="epsilon"):
        solve_es(inp)
    inp.epsilon = None
    with pytest.raises(ValueError, match="epsilon"):
        solve_es(inp)
    with pytest.raises(ValueError, match="epsilon"):
        solve_es_sweep(inp, [1.0, np.inf])


def test_stokes_pressure_mean_is_zero():
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    res = solve_stokes(_inp(mesh, get_case("ms1")), disc)
    assert abs(float(disc.mean_p @ res.p.coefficients)) <= 1e-10


def test_stokes_self_convergence():
    case = get_case("ms1")
    errs = {}
    for n in (16, 32):
        mesh = build_structured_mesh(n)
        res = solve_stokes(_inp(mesh, case), Discretization(mesh))
        errs[n] = error_h1(res.u, case.u_exact, case.grad_u_exact)
    assert errs[16] / errs[32] >= 3.5


def test_pp_exact_linear_pressure():
    # F = (1,0) = grad(x), p_b = x, u_b = 0: discrete solution is exact
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                       p_bc=lambda x, y: x)
    res = solve_pp(inp, disc)
    assert np.abs(res.u.coefficients).max() <= 1e-10
    assert np.abs(res.p.coefficients - disc.pspace.node_coords[:, 0]).max() <= 1e-10


def test_pp_requires_pressure_data():
    mesh = build_structured_mesh(2)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=zero_vec)
    with pytest.raises(ValueError, match="pressure boundary data"):
        solve_pp(inp)


def test_pp_matches_stokes_error_with_compatible_trace():
    case = get_case("ms1")
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    s = solve_stokes(_inp(mesh, case), disc)
    pp = solve_pp(_inp(mesh, case), disc)
    err_s = error_h1(s.u, case.u_exact, case.grad_u_exact)
    err_pp = error_h1(pp.u, case.u_exact, case.grad_u_exact)
    assert 0.5 <= err_pp / err_s <= 2.0


def test_es_decay_toward_pp():
    # consecutive decades shrink the ES-to-PP velocity gap by >= 1/0.15
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(32)
    disc = Discretization(mesh)
    pp = solve_pp(_inp(mesh, case), disc)
    e10 = solve_es(_inp(mesh, case, eps=10.0), disc)
    e100 = solve_es(_inp(mesh, case, eps=100.0), disc)
    gap10 = error_h1(diff_field(e10.u, pp.u), None, None)
    gap100 = error_h1(diff_field(e100.u, pp.u), None, None)
    assert gap100 / gap10 <= 0.15


def test_divergence_decay_non_increasing():
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    divs = [div_l2(solve_es(_inp(mesh, case, eps=eps), disc).u)
            for eps in (1e2, 1.0, 1e-2)]
    for a, b in zip(divs, divs[1:]):
        assert b <= 1.05 * a


def test_compatible_trace_coincidence_small_mesh():
    case = get_case("ms1")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    s = solve_stokes(_inp(mesh, case), disc)
    floor = error_h1(s.u, case.u_exact, case.grad_u_exact)
    for eps in (1e-3, 1.0, 1e3):
        res = solve_es(_inp(mesh, case, eps=eps), disc)
        assert error_h1(diff_field(res.u, s.u), None, None) <= 2.0 * floor


def test_projection_inequality_small_mesh():
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    s = solve_stokes(_inp(mesh, case), disc)
    pp = solve_pp(_inp(mesh, case), disc)
    for eps in (1e-2, 1.0, 1e2):
        res = solve_es(_inp(mesh, case, eps=eps), disc)
        lhs = seminorm_h1(diff_field(res.p, pp.p))
        rhs = seminorm_h1(diff_field(res.p, s.p))
        assert lhs <= rhs * 1.05 + 1e-9


def test_boundary_values_exact():
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    from epsstokes.fem import interpolate_boundary
    u_dofs, u_vals = interpolate_boundary(disc.vspace, case.u_bc())
    p_dofs, p_vals = interpolate_boundary(disc.pspace, case.p_bc())
    res = solve_es(_inp(mesh, case, eps=0.5), disc)
    assert np.array_equal(res.u.coefficients[u_dofs], u_vals)
    assert np.array_equal(res.p.coefficients[p_dofs], p_vals)
    pp = solve_pp(_inp(mesh, case), disc)
    assert np.array_equal(pp.p.coefficients[p_dofs], p_vals)
    s = solve_stokes(_inp(mesh, case), disc)
    assert np.array_equal(s.u.coefficients[u_dofs], u_vals)


def test_es_solutions_identical_for_both_gradient_couplings():
    # transpose-form and direct-quadrature pressure-gradient blocks give the
    # same discrete solution
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc_t = Discretization(mesh)
    disc_d = Discretization(mesh)
    disc_d.grad = grad_coupling_direct(disc_d.vspace, disc_d.pspace)
    for eps in (1e-2, 1.0, 1e2):
        rt = solve_es(_inp(mesh, case, eps=eps), disc_t)
        rd = solve_es(_inp(mesh, case, eps=eps), disc_d)
        assert np.abs(rt.u.coefficients - rd.u.coefficients).max() <= 1e-11
        assert np.abs(rt.p.coefficients - rd.p.coefficients).max() <= 1e-11


def test_gradient_forcing_on_loaded_parallelogram_mesh(tmp_path):
    # end-to-end on a sheared, file-loaded mesh: (u, p) = (0, x) solves the
    # coupled problem exactly for gradient forcing with matching trace data
    mesh = loaded_parallelogram_mesh(tmp_path)
    assert abs(mesh.area() - 1.0) <= 1e-12   # shear preserves area
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                       p_bc=lambda x, y: x, epsilon=3.0)
    res = solve_es(inp, disc)
    assert np.abs(res.u.coefficients).max() <= 1e-9
    assert np.abs(res.p.coefficients - disc.pspace.node_coords[:, 0]).max() <= 1e-9


def test_stokes_pinned_gauge_matches_lagrange_multiplier(tmp_path):
    # pinning one pressure dof and shifting to zero mean reproduces the
    # solution of the system bordered by the mean-value multiplier
    case = get_case("ms1")
    square = build_structured_mesh(8)
    sheared = loaded_parallelogram_mesh(tmp_path)
    inputs = [_inp(square, case),
              ProblemInput(mesh=sheared, body_force=case.body_force,
                           u_bc=zero_vec)]
    for inp in inputs:
        disc = Discretization(inp.mesh)
        res = solve_stokes(inp, disc)
        u_ref, p_ref = stokes_lagrange_reference(inp, disc)
        for got, ref in ((res.u.coefficients, u_ref), (res.p.coefficients, p_ref)):
            assert np.linalg.norm(ref) > 0.0
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


def test_factor_fill_at_n32():
    # the symmetric ordering keeps every factor near 5x its matrix (a
    # column-only ordering gives about 9x), and the block preconditioners keep
    # GMRES short over the whole epsilon range
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(32)
    disc = Discretization(mesh)
    stokes = solve_stokes(_inp(mesh, case), disc).report
    assert stokes.fill <= 6.0
    assert 1 <= stokes.iterations == len(stokes.residual_history) <= 45
    assert solve_pp(_inp(mesh, case), disc).report.fill <= 6.0
    for eps, most in ((1e-6, 30), (1.0, 10), (1e6, 5)):
        report = solve_es(_inp(mesh, case, eps=eps), disc).report
        assert report.fill <= 6.0
        assert report.iterations <= most, eps
    # the velocity factor is one scalar P2 matrix shared by both components
    assert disc.velocity_factor.lu.shape[0] == disc.nu // 2


def test_fill_is_lu_nnz_over_the_factored_matrices(monkeypatch):
    # every report counts each distinct factor it applied once, so PP and
    # the 1/eps series, which apply the same Kp and A, report one fill
    made = []

    class Recorded(sparse.Factor):
        def __init__(self, a):
            super().__init__(a)
            made.append(self)

    monkeypatch.setattr(drivers, "Factor", Recorded)
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    vel, kp = disc.velocity_factor, disc.pressure_factor
    es = solve_es(_inp(mesh, case, eps=1.0), disc).report
    runs = [(solve_stokes(_inp(mesh, case), disc).report, (vel, disc.mass_factor)),
            (solve_pp(_inp(mesh, case), disc).report, (kp, vel)),
            (es, (vel, made[2])),
            (next(iter(solve_es_sweep(_inp(mesh, case), [1e6], disc))).report,
             (kp, vel))]
    assert es.method.startswith("gmres[") and runs[3][0].method == "series[Kp, A]"
    for report, factors in runs:
        assert report.lu_nnz == sum(f.nnz for f in factors)
        assert report.matrix_nnz == sum(f.matrix_nnz for f in factors)
        assert report.fill == report.lu_nnz / report.matrix_nnz
    assert runs[1][0].fill == runs[3][0].fill


def test_stokes_factor_size_at_n32():
    # the factors of A and -Mp under the structure-based ordering; the
    # minimum-degree ordering of the FE labels stored 238,542
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(32)
    report = solve_stokes(_inp(mesh, case), Discretization(mesh)).report
    assert report.lu_nnz <= 180_000


def test_velocity_factor_size_at_n96():
    # on the structured n = 96 mesh the minimum-degree ordering of the FE
    # labels, round-off entries included, stored 5,448,838 entries for A
    disc = Discretization(build_structured_mesh(96))
    assert disc.velocity_factor.nnz <= 2.5e6


@pytest.mark.parametrize("problem", ["S", "ES"])
def test_block_lower_matches_sliced_block(problem):
    # the masked divergence applies the lower-left block of the solved
    # matrix exactly as the block sliced out of it would
    disc = Discretization(build_structured_mesh(8))
    nu = disc.nu
    if problem == "S":
        system, sign, schur = disc.stokes_system, -1.0, disc.mass_factor
    else:
        eps = 1e-3
        system, sign = disc.coupled_system(eps), 1.0
        schur = sparse.Factor(fem.eliminate(eps * disc.stiff_p + disc.mass_p,
                                            disc.pspace.boundary_nodes))
    pre = drivers._block_lower(disc, system, sign, problem, schur)
    lower = system.matrix[nu:, :nu]
    r = np.random.default_rng(5).standard_normal(system.matrix.shape[0])
    z = disc.velocity_factor.solve(r[:nu].reshape(-1, 2)).ravel()
    sliced = np.concatenate([z, schur.solve(r[nu:] - lower @ z)])
    assert np.abs(pre.apply(r) - sliced).max() <= 1e-15 * np.abs(sliced).max()


@pytest.mark.parametrize("problem", ["S", "PP", "ES"])
def test_drivers_match_monolithic_reference(problem, tmp_path):
    # GMRES on the shared factors reproduces spsolve on each assembled system
    case = get_case("ms1-mismatch")
    square = build_structured_mesh(8)
    sheared = loaded_parallelogram_mesh(tmp_path)
    inputs = [_inp(square, case),
              ProblemInput(mesh=sheared, body_force=case.body_force,
                           u_bc=zero_vec, p_bc=case.p_bc())]
    for base in inputs:
        disc = Discretization(base.mesh)
        for eps in ((1e-6, 1.0, 1e6) if problem == "ES" else (None,)):
            inp = ProblemInput(mesh=base.mesh, body_force=base.body_force,
                               u_bc=base.u_bc, p_bc=base.p_bc, epsilon=eps)
            res = DRIVERS[problem](inp, disc)
            u_ref, p_ref = monolithic_reference(problem, inp, disc)
            for got, ref in ((res.u.coefficients, u_ref), (res.p.coefficients, p_ref)):
                assert np.linalg.norm(ref) > 0.0
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), eps


def _record_solves(monkeypatch):
    """(matrix, rhs) of every system the drivers hand to sparse.solve."""
    seen = []
    real = drivers.solve

    def recording(a, b, *args, **kwargs):
        seen.append((a, np.array(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(drivers, "solve", recording)
    return seen


def _reference_solves(problem, inp, disc, p):
    """(eliminated matrix, rhs) of each system a driver hands to sparse.solve.

    PP's velocity stage is the eliminated vector system restricted to one
    interleaved component at a time."""
    if problem != "PP":
        return [apply_dirichlet(*reference_system(problem, inp, disc))]
    vec, vec_rhs = apply_dirichlet(*reference_system("PP-u", inp, disc, p))
    return ([apply_dirichlet(*reference_system("PP-p", inp, disc))]
            + [(vec[c::2, c::2].tocsr(), vec_rhs[c::2]) for c in (0, 1)])


@pytest.mark.parametrize("problem, eps", [("S", None), ("PP", None)]
                         + [("ES", eps) for eps in (1e-6, 0.37, 1.0, 1e6)])
def test_solved_systems_match_reference_elimination(problem, eps, tmp_path,
                                                    monkeypatch):
    # the systems eliminated once per mesh (ES: scaled from eps = 1) are the
    # whole assembled systems eliminated per call, entry for entry; PP hands
    # over Kp, then the scalar velocity system once per component
    seen = _record_solves(monkeypatch)
    case = get_case("ms1-mismatch")
    square = build_structured_mesh(8)
    sheared = loaded_parallelogram_mesh(tmp_path)
    # a constant velocity trace has no net flux through the parallelogram
    for mesh, u_bc in ((square, case.u_bc()), (sheared, unit_x)):
        disc = Discretization(mesh)
        data = dict(mesh=mesh, body_force=case.body_force, u_bc=u_bc,
                    p_bc=case.p_bc())
        # a first solve at another eps fills the caches the checked one reuses
        solve_problem(problem, ProblemInput(epsilon=1e3, **data), disc)
        seen.clear()
        inp = ProblemInput(epsilon=eps, **data)
        res = solve_problem(problem, inp, disc)
        refs = _reference_solves(problem, inp, disc, res.p.coefficients)
        assert len(seen) == len(refs) == (3 if problem == "PP" else 1)
        for (mat, rhs), (ref, ref_rhs) in zip(seen, refs):
            assert mat.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mat, name), getattr(ref, name)), name
            assert np.array_equal(rhs, ref_rhs)


def test_pp_report_is_worst_of_its_three_solves(monkeypatch):
    reports = []
    real = drivers.solve

    def recording(*args, **kwargs):
        x, report = real(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(drivers, "solve", recording)
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    res = solve_pp(_inp(mesh, get_case("ms1-mismatch")), disc)
    assert len(reports) == 3              # Kp, then A for each component
    assert res.report.rel_residual == max(r.rel_residual for r in reports)
    assert res.report.method == "gmres[Kp]; gmres[A]"
    # A is factored in the first component's solve and counted once
    assert res.report.lu_nnz == disc.pressure_factor.nnz + disc.velocity_factor.nnz
    assert res.report.factor_time == sum(r.factor_time for r in reports)
    assert reports[2].factor_time == 0.0

    # a component whose right-hand side is all zero meets the gate exactly
    reports.clear()
    flow = solve_pp(ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=unit_x,
                                 p_bc=zero_scalar), disc)
    assert reports[2].rel_residual == 0.0
    assert not np.any(flow.u.coefficients[:, 1])
    assert np.allclose(flow.u.coefficients[:, 0], 1.0, rtol=0.0, atol=1e-12)
    assert flow.report.rel_residual <= 1e-10


@pytest.mark.parametrize("name", ["S", "PP", "ES"])
def test_solve_problem_matches_driver(name, monkeypatch):
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    inp = _inp(mesh, get_case("ms1-mismatch"), eps=0.37)
    driver, calls = DRIVERS[name], []
    monkeypatch.setattr(drivers, driver.__name__,
                        lambda *args: calls.append(args) or driver(*args))
    got = solve_problem(name, inp, disc)
    assert len(calls) == 1                # the driver is looked up per call
    ref = driver(inp, disc)
    assert (got.problem, got.epsilon) == (ref.problem, ref.epsilon)
    assert np.array_equal(got.u.coefficients, ref.u.coefficients)
    assert np.array_equal(got.p.coefficients, ref.p.coefficients)


def test_solve_problem_rejects_unknown_name():
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match="unknown problem 'SP'"):
        solve_problem("SP", _inp(mesh, get_case("ms1")))


def _count_factorizations(monkeypatch):
    """Sizes of the matrices factored from now on, in order."""
    sizes = []
    real = sparse.splu

    def counting(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(sparse, "splu", counting)
    return sizes


def test_discretization_builds_no_factor(monkeypatch):
    sizes = _count_factorizations(monkeypatch)
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    assert sizes == []
    assert not set(FACTORS + SYSTEMS + ("mass_p",)) & set(vars(disc))
    solve_pp(_inp(mesh, get_case("ms1")), disc)
    assert sizes == [disc.np_, disc.nu // 2]          # Kp, then A
    assert set(FACTORS) & set(vars(disc)) == {"pressure_factor", "velocity_factor"}


def test_discretization_builds_one_space_per_field(monkeypatch):
    # the P2 velocity space serves both components and K; P1 the pressure
    from epsstokes import fem
    built = []
    real = fem.Space.__init__

    def counting(self, mesh, degree):
        built.append(degree)
        real(self, mesh, degree)

    monkeypatch.setattr(fem.Space, "__init__", counting)
    disc = Discretization(build_structured_mesh(4))
    assert built == [2, 1]
    assert disc.nu == 2 * disc.vspace.ndofs
    assert disc.stiff_u.shape == (disc.vspace.ndofs, disc.vspace.ndofs)


def test_sweep_factors_velocity_block_once(monkeypatch):
    sizes = _count_factorizations(monkeypatch)
    assembled = []
    real_bmat = sps.bmat

    def counting_bmat(*args, **kwargs):
        assembled.append(args)
        return real_bmat(*args, **kwargs)

    monkeypatch.setattr(sps, "bmat", counting_bmat)
    table, reports = run_sweep_eps(RunConfig(case="ms1-mismatch", n=8))
    assert len(assembled) <= 2            # one Stokes, one ES system
    n_velocity = 17 * 17                  # scalar P2 nodes at n = 8
    assert len(table.rows) == 13 and len(reports) == 15
    assert sizes.count(n_velocity) == 1
    # besides A: Mp for Stokes, Kp for PP and one eps*Kp + Mp per epsilon that
    # GMRES solves, 1e-6 ... 1e-2; the 1/eps series solves 0.1 ... 1e6 on the
    # factors A and Kp
    methods = [r.method for r in reports[2:]]
    assert all(m.startswith("gmres") for m in methods[:5])
    assert methods[5:] == ["series[Kp, A]"] * 8
    assert sizes.count(9 * 9) == 7 and len(sizes) == 8
    assert reports[0].factor_time > 0.0   # Stokes builds A inside its solve


def _count_calls(monkeypatch, module, names):
    """Names of the given module functions called from now on, in order."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_velocity_mass_is_built_for_the_first_row_only(monkeypatch):
    # M2 is no part of any solve: the sweep's first error row builds it
    from epsstokes import harness
    degrees, at_row = [], []
    real_mass, real_row = fem.assemble_mass, harness._error_row

    def counting_mass(space):
        degrees.append(space.degree)
        return real_mass(space)

    def counting_row(*args):
        at_row.append(degrees.count(2))
        return real_row(*args)

    monkeypatch.setattr(fem, "assemble_mass", counting_mass)
    monkeypatch.setattr(harness, "_error_row", counting_row)
    table, _ = run_sweep_eps(RunConfig(case="ms1-mismatch", n=8))
    assert len(table.rows) == 13
    assert at_row == [0] + [1] * 12 and degrees.count(2) == 1


def test_sweep_builds_no_es_system_for_its_rhs_norms(monkeypatch):
    # every eps's ||b|| comes from two right-hand sides built once; an ES
    # system is built only to check a series sum or for a GMRES solve
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    pp = solve_pp(_inp(mesh, case), disc)
    calls = _count_calls(monkeypatch, Discretization, ("coupled_system",))
    sweep = solve_es_sweep(_inp(mesh, case), DEFAULT_EPS_GRID, disc, pp=pp)
    assert calls == []
    assert len(list(sweep)) == 13 and len(calls) == 13


def test_discretization_assembles_div_coupling_once(monkeypatch):
    from epsstokes import fem
    calls = _count_calls(monkeypatch, fem, ["assemble_div_coupling"])
    mesh = build_structured_mesh(4)
    case = get_case("ms1-mismatch")
    disc = Discretization(mesh)
    solve_pp(_inp(mesh, case), disc)
    assert calls == []                    # PP alone needs no coupling
    solve_stokes(_inp(mesh, case), disc)
    assert len(calls) == 1                # B, on first use by S
    solve_es(_inp(mesh, case, eps=1.0), disc)
    assert len(calls) == 1                # G reuses B for its transpose form
    reference = fem.assemble_grad_coupling(disc.vspace, disc.pspace)
    assert len(calls) == 2                # without div, G assembles its own B
    assert abs(disc.grad - reference).max() == 0.0


def test_pp_builds_no_vector_block(monkeypatch):
    from epsstokes import fem
    kron = _count_calls(monkeypatch, sps, ["kron"])
    couplings = _count_calls(monkeypatch, fem, ["assemble_div_coupling",
                                                "assemble_grad_coupling"])
    mesh = build_structured_mesh(8)
    case = get_case("ms1-mismatch")
    disc = Discretization(mesh)
    solve_pp(_inp(mesh, case), disc)
    assert kron == [] and couplings == []
    assert disc.velocity_factor.lu.shape[0] == disc.nu // 2
    # S and ES each form kron(K, I2) once, to build their system
    solve_stokes(_inp(mesh, case), disc)
    for eps in (1e-3, 1e3):
        solve_es(_inp(mesh, case, eps=eps), disc)
    assert len(kron) == 2
    assert couplings == ["assemble_div_coupling", "assemble_grad_coupling"]


def test_loads_assembled_once_per_body_force(monkeypatch):
    from epsstokes import fem
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("assemble_load", "assemble_grad_load"):
        monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    case = get_case("ms1-mismatch")
    solve_stokes(_inp(mesh, case), disc)
    solve_pp(_inp(mesh, case), disc)
    for eps in (1e-3, 1e3):
        solve_es(_inp(mesh, case, eps=eps), disc)
    assert sorted(calls) == ["assemble_grad_load", "assemble_load"]
    assert not disc.velocity_load(case.body_force).flags.writeable
    solve_es(ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                          p_bc=linear_x_minus_half, epsilon=1.0), disc)
    assert len(calls) == 4                # a new body force is assembled


def test_discretization_with_factors_is_freed():
    # factors, load vectors and results hold no reference cycle, so a
    # dead Discretization's factors go as soon as its last reference does
    mesh = build_structured_mesh(3)
    disc = Discretization(mesh)
    inp = _inp(mesh, get_case("ms1"), eps=1.0)
    results = [solve(inp, disc) for solve in DRIVERS.values()]
    assert set(FACTORS) <= set(vars(disc))
    ref = weakref.ref(disc)
    del disc
    assert ref() is None
    assert results[0].report.iterations >= 1


def test_gauge_invariance_of_stokes_vs_pp_pressure():
    # compatible data: [p] agrees across problems at the discretization floor
    case = get_case("ms1")
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    s = solve_stokes(_inp(mesh, case), disc)
    pp = solve_pp(_inp(mesh, case), disc)
    gap = quotient_norm_l2(diff_field(pp.p, s.p), None)
    floor = quotient_norm_l2(s.p, case.p_exact)
    assert gap <= 2.0 * floor


def test_dead_mesh_is_freed():
    # derived mesh data lives on the mesh, so nothing keeps a dead mesh alive
    mesh = build_structured_mesh(3)
    disc = Discretization(mesh)
    case = get_case("ms1")
    u = Field(disc.vspace, np.zeros((disc.vspace.ndofs, 2)))
    w = Field(disc.pspace, np.ones(disc.np_))
    error_h1(u, case.u_exact, case.grad_u_exact)
    gauss_formula_residual(u, w)
    ref = weakref.ref(mesh)
    del mesh, disc, u, w
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# the 1/eps series of solve_es_sweep

SERIES = "series[Kp, A]"
LARGE_EPS = tuple(10.0 ** k for k in range(-1, 7))


def _relative(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def test_series_matches_gmres_for_large_eps():
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(16)
    disc = Discretization(mesh)
    results = list(solve_es_sweep(_inp(mesh, case), LARGE_EPS, disc))
    assert [r.epsilon for r in results] == list(LARGE_EPS)
    for res in results:
        assert res.report.method == SERIES and res.problem == "ES"
        assert res.report.iterations == len(res.report.residual_history) >= 2
        assert res.report.rel_residual <= 1e-14
        ref = solve_es(_inp(mesh, case, eps=res.epsilon), disc)
        for got, want in ((res.u, ref.u), (res.p, ref.p)):
            assert _relative(got.coefficients, want.coefficients) <= 1e-12, res.epsilon
    terms = [r.report.iterations for r in results]
    assert terms == sorted(terms, reverse=True)    # fewer terms as eps grows


def test_series_first_term_is_pp():
    # at eps = 1e15 the PP solution alone meets the series' aim
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    (res,) = solve_es_sweep(_inp(mesh, case), [1e15], disc)
    pp = solve_pp(_inp(mesh, case), disc)
    assert res.report.method == SERIES and res.report.iterations == 1
    for got, want in ((res.u, pp.u), (res.p, pp.p)):
        assert _relative(got.coefficients, want.coefficients) <= 1e-14


def test_series_falls_back_to_gmres_below_its_radius(monkeypatch):
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    calls = []
    real = drivers.solve_es

    def counted(inp, disc, tol):
        calls.append(inp.epsilon)
        return real(inp, disc, tol)

    monkeypatch.setattr(drivers, "solve_es", counted)
    sweep = solve_es_sweep(_inp(mesh, case, eps=5.0), [1e-3, 10.0], disc)
    assert 0.005 < sweep.term_ratio < 0.05
    small, large = sweep
    assert calls == [1e-3]                        # inp.epsilon is not read
    assert small.report.method.startswith("gmres[") and small.epsilon == 1e-3
    assert small.report.rel_residual <= 1e-10
    assert large.report.method == SERIES and large.epsilon == 10.0


@pytest.mark.parametrize("n", [4, 8])
def test_series_term_ratio_is_the_spectral_radius(n):
    # ES(eps) on its free pressure rows divided by eps is M + N/eps, N the
    # divergence block; the terms shrink by the spectral radius of M^-1 N
    from scipy.linalg import eigvals
    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    unit = disc._coupled_unit[0]
    free_p = np.zeros(unit.matrix.shape[0], dtype=bool)
    free_p[disc.nu:] = True
    free_p[unit.fixed] = False
    dense = unit.matrix.toarray()
    split = np.zeros_like(dense)
    split[np.ix_(free_p, np.arange(disc.nu))] = dense[free_p, :disc.nu]
    lam = np.abs(eigvals(split, dense - split))
    radius = lam[np.isfinite(lam)].max()
    sweep = solve_es_sweep(_inp(mesh, get_case("ms1-mismatch")),
                           DEFAULT_EPS_GRID, disc)
    assert sweep.term_ratio == pytest.approx(radius, rel=1e-4)


def test_series_solves_zero_data_with_term_ratio_0():
    # every term of zero data is zero, so the ratio of the last two is 0
    mesh = build_structured_mesh(4)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=zero_vec,
                       p_bc=zero_scalar)
    sweep = solve_es_sweep(inp, [1.0, 1e-3])
    assert sweep.r_norms == [0.0, 0.0] and sweep.term_ratio == 0.0
    for res in sweep:
        assert res.report.method == SERIES
        assert not res.u.coefficients.any() and not res.p.coefficients.any()


def test_series_term_budget_sends_slow_eps_to_gmres(monkeypatch):
    # eps = 0.1 needs about a dozen terms; with a budget of three it goes to
    # GMRES, while eps = 1e6 still takes two
    monkeypatch.setattr(drivers, "SERIES_TERMS", 3)
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    slow, fast = solve_es_sweep(_inp(mesh, case), [0.1, 1e6], disc)
    assert slow.report.method.startswith("gmres[")
    assert fast.report.method == SERIES and fast.report.iterations == 2


def test_series_residual_is_the_es_residual():
    # the reported residual is ||b - ES(eps) x|| / ||b|| of the returned
    # fields, with the ES system and right-hand side eliminated independently
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    for res in solve_es_sweep(_inp(mesh, case), (0.1, 3.0, 1e4), disc):
        assert res.report.method == SERIES
        mat, rhs = apply_dirichlet(*reference_system(
            "ES", _inp(mesh, case, eps=res.epsilon), disc))
        x = np.concatenate([res.u.coefficients.ravel(), res.p.coefficients])
        want = np.linalg.norm(rhs - mat @ x) / np.linalg.norm(rhs)
        assert res.report.rel_residual == want
        bounds = res.report.residual_history
        assert bounds[-1] <= 1e-4 * sparse.DEFAULT_TOL < bounds[-2]


def test_series_gap_to_pp_converges_monotonically():
    # eps * |u_ES - u_PP|_H1 tends to its limit from below; a GMRES solve
    # carries round-off of about 4e-6 relative at eps = 1e6, which dips it
    table, reports = run_sweep_eps(RunConfig(case="ms1-mismatch", n=40,
                                             eps_list=(1e3, 1e4, 1e5, 1e6)))
    assert [r.method for r in reports[2:]] == [SERIES] * 4
    scaled = [row.eps * row.err_u_H1_vs_PP for row in table.rows]
    assert all(b > a for a, b in zip(scaled, scaled[1:])), scaled


@pytest.mark.parametrize("n, eps_list, kp_solves, iterations", [
    (40, DEFAULT_EPS_GRID, 12, [22, 22, 20, 16, 11, 13, 6, 5, 4, 3, 3, 2, 2]),
    (16, DEFAULT_EPS_GRID, 13, [18, 18, 17, 15, 11, 14, 7, 5, 4, 3, 3, 2, 2]),
    (16, (0.05,), 4, [8]),
])
def test_series_term_count_and_iterations(n, eps_list, kp_solves, iterations):
    # the series makes one Kp solve per term after x_0, up to the term at
    # which its last eps left it; each eps reports its series terms or its
    # GMRES iterations
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    pp = solve_pp(_inp(mesh, case), disc)
    factor, calls = disc.pressure_factor, []
    real = factor.solve

    def counted(r):
        calls.append(len(r))
        return real(r)

    factor.solve = counted
    results = list(solve_es_sweep(_inp(mesh, case), eps_list, disc, pp=pp))
    assert len(calls) == kp_solves
    assert [r.report.iterations for r in results] == iterations
