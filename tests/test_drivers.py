import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import sparse as sps

from epsstokes import drivers, fem, sparse
from epsstokes.drivers import (Discretization, IncompatibleDataError,
                               ProblemInput, check_compatibility, solve_es,
                               solve_es_sweep, solve_pp, solve_problem,
                               solve_stokes)
from epsstokes.harness import DEFAULT_EPS_GRID, RunConfig, run_sweep_eps
from epsstokes.mesh import build_structured_mesh
from epsstokes.fem import Field
from epsstokes.verification import (diff_field, div_l2, error_gap, error_h1,
                                    gauss_formula_residual, quotient_norm_l2,
                                    get_case)
from helpers import (affine_jittered_mesh, apply_dirichlet, div_coupling,
                     eliminate_by_products, linear_x_minus_half,
                     loaded_parallelogram_mesh, monolithic_reference, reference_system,
                     stokes_lagrange_reference, unit_x, vector_block, zero_scalar,
                     zero_vec)

DRIVERS = {"S": solve_stokes, "PP": solve_pp, "ES": solve_es}
FACTORS = ("velocity_factor", "pressure_factor")
SADDLE_SYSTEMS = ("stokes_system", "_coupled_parts")


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


@pytest.mark.parametrize("run", [solve_stokes, solve_pp, solve_es,
                                 lambda inp, disc: solve_es_sweep(inp, [1.0], disc)],
                         ids=["S", "PP", "ES", "sweep"])
def test_drivers_refuse_a_discretization_of_another_mesh(run):
    # the fields would live on disc's mesh while the flux check ran on
    # inp.mesh; an equal mesh built twice is another mesh too
    mesh = build_structured_mesh(4)
    inp = _inp(mesh, get_case("ms1-mismatch"), eps=1.0)
    for other in (build_structured_mesh(8), build_structured_mesh(4)):
        with pytest.raises(ValueError, match="another mesh"):
            run(inp, Discretization(other))
    run(inp, Discretization(mesh))


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
        lhs = error_gap(diff_field(res.p, pp.p), None, None).seminorm
        rhs = error_gap(diff_field(res.p, s.p), None, None).seminorm
        assert lhs <= rhs * 1.05 + 1e-9


def test_boundary_values_exact():
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    from epsstokes.fem import interpolate_boundary
    u_dofs, p_dofs = disc.vspace.boundary_nodes, disc.pspace.boundary_nodes
    u_vals = interpolate_boundary(disc.vspace, case.u_bc())
    p_vals = interpolate_boundary(disc.pspace, case.p_bc())
    res = solve_es(_inp(mesh, case, eps=0.5), disc)
    assert np.array_equal(res.u.coefficients[u_dofs], u_vals)
    assert np.array_equal(res.p.coefficients[p_dofs], p_vals)
    pp = solve_pp(_inp(mesh, case), disc)
    assert np.array_equal(pp.p.coefficients[p_dofs], p_vals)
    s = solve_stokes(_inp(mesh, case), disc)
    assert np.array_equal(s.u.coefficients[u_dofs], u_vals)


def test_gradient_forcing_on_loaded_parallelogram_mesh(tmp_path):
    # end-to-end on a sheared, file-loaded mesh: (u, p) = (0, x) solves the
    # coupled problem exactly for gradient forcing with matching trace data
    mesh = loaded_parallelogram_mesh(tmp_path)
    assert abs(mesh.geometry[1].sum() / 2 - 1.0) <= 1e-12   # shear preserves area
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
    # the Schur CG short over the whole epsilon range
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
    # the 1/eps series, which apply the same Kp and A, report one fill;
    # Stokes factors no Schur preconditioner and counts A's factor alone
    made = []

    class Recorded(sparse.Factor):
        def __init__(self, a, perm=None):
            super().__init__(a, perm)
            made.append(self)

    monkeypatch.setattr(drivers, "Factor", Recorded)
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    vel, kp = disc.velocity_factor, disc.pressure_factor
    es = solve_es(_inp(mesh, case, eps=1.0), disc).report
    runs = [(solve_stokes(_inp(mesh, case), disc).report, (vel,)),
            (solve_pp(_inp(mesh, case), disc).report, (kp, vel)),
            (es, (vel, made[2])),
            (next(iter(solve_es_sweep(_inp(mesh, case), [1e6], disc))).report,
             (kp, vel))]
    assert es.method.startswith("cg[") and runs[3][0].method == "series[Kp, A]"
    assert len(made) == 3 and runs[0][0].method == "cg[schur(A, cheb8(Mp))]"
    for report, factors in runs:
        assert report.lu_nnz == sum(f.nnz for f in factors)
        assert report.matrix_nnz == sum(f.matrix_nnz for f in factors)
        assert report.fill == report.lu_nnz / report.matrix_nnz
    assert runs[1][0].fill == runs[3][0].fill


def test_pp_after_stokes_counts_the_factor_time_of_kp_only():
    # Stokes has already made A on this Discretization, so PP applies A but
    # spends no time factoring it
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    solve_stokes(_inp(mesh, case), disc)
    vel = disc.velocity_factor
    report = solve_pp(_inp(mesh, case), disc).report
    kp = disc.pressure_factor
    assert disc.velocity_factor is vel
    assert report.lu_nnz == kp.nnz + vel.nnz
    assert report.matrix_nnz == kp.matrix_nnz + vel.matrix_nnz
    assert report.factor_time == kp.factor_time > 0.0


def test_stokes_factor_size_at_n32():
    # the factors of A and -Mp under the structure-based ordering; the
    # minimum-degree ordering of the FE labels stored 238,542
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(32)
    report = solve_stokes(_inp(mesh, case), Discretization(mesh)).report
    assert report.lu_nnz <= 180_000


def test_velocity_factor_size_at_n96():
    # on the structured n = 96 mesh the minimum-degree ordering of the FE
    # labels stored 5,448,838 entries for A, and the cell-graph order
    # 1,751,182
    disc = Discretization(build_structured_mesh(96))
    assert disc.velocity_factor.nnz <= 2.5e6


def test_velocity_factor_on_a_jittered_mesh_is_ordered_by_its_cells():
    # A's stored pattern lacks the pairs whose entries are exactly 0: RCM on
    # it stored 656,600 entries here, and 575,060 when assembly still
    # stored round-off there; RCM on the cell graph stores 517,828
    disc = Discretization(affine_jittered_mesh(48, 1))
    assert np.array_equal(disc.velocity_factor.perm, fem.cell_order(disc.vspace))
    assert disc.velocity_factor.nnz <= 575_060


@pytest.mark.parametrize("problem, eps",
                         [("S", None), ("ES", 1e-3), ("ES", 0.0), ("ES", 5e-324)],
                         ids=["S", "ES", "ES-eps0", "ES-subnormal"])
def test_schur_reduction_reads_its_blocks_off_the_solved_matrix(problem, eps, monkeypatch):
    # the Schur preconditioner inverts the solved pressure block C plus Mp
    # with the fixed pressure dofs eliminated: Mp with the gauge dof
    # eliminated for Stokes, eps*Kp + Mp for ES and Mp at eps = 0.  Where C
    # stores only the fixed dofs' unit rows, as for Stokes and ES at eps = 0,
    # it takes Chebyshev steps on that matrix and factors nothing; otherwise
    # it factors it, also where its free entries are subnormal (eps =
    # 5e-324).  Its name follows the branch, not the problem, so ES(0)
    # reports cheb8(Mp) as S does.  The velocity is A^-1 (r_u + D^T p) with D
    # the solved system's own block, and the pressure meets the aim in the
    # residual of the solved system, whose lower blocks are D and C
    factored, stepped = [], []

    class Recorded(sparse.Factor):
        def __init__(self, a, perm=None):
            factored.append(a)
            super().__init__(a, perm)

    def chebyshev(a):
        stepped.append(a)
        return real_chebyshev(a)

    disc = Discretization(build_structured_mesh(8))
    nu, vel, mp = disc.nu, disc.velocity_factor, disc.mass_p
    pbnd = disc.pspace.boundary_nodes
    real_chebyshev = drivers._chebyshev
    monkeypatch.setattr(drivers, "Factor", Recorded)
    monkeypatch.setattr(drivers, "_chebyshev", chebyshev)
    if problem == "S":
        system = disc.stokes_system
        want = eliminate_by_products(mp, [drivers.GAUGE_DOF])
    else:
        system = disc.coupled_system(eps)
        kp = fem.assemble_stiffness(disc.pspace)
        want = eliminate_by_products(eps * kp + mp if eps else mp, pbnd)
    pre = drivers._schur_reduction(disc, system)
    if eps:
        (schur_matrix,) = factored
        assert stepped == [] and len(pre.factors) == 2
        assert pre.name == "cg[schur(A, eps*Kp + Mp)]"
    else:
        (schur_matrix,) = stepped
        assert factored == [] and len(pre.factors) == 1
        assert pre.name == "cg[schur(A, cheb8(Mp))]"
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(schur_matrix, name), getattr(want, name)), name
    assert pre.factors[0] is vel
    r = np.random.default_rng(5).standard_normal(system.matrix.shape[0])
    x = pre.apply(r)
    p = x[nu:]
    u = vel.solve((r[:nu] + system.matrix.dt(p)).reshape(-1, 2)).ravel()
    assert np.array_equal(x[:nu], u)
    aim = sparse.AIM * sparse.TOL * np.linalg.norm(r)
    assert 1 <= len(pre.log.estimates) and pre.log.estimates[-1] <= aim
    assert np.linalg.norm(r - system.matrix @ x) <= 10 * aim
    assert np.linalg.norm(r - system.matrix.assembled() @ x) <= 10 * aim


@pytest.mark.parametrize("mesh", [build_structured_mesh(8), affine_jittered_mesh(6, 3)],
                         ids=["structured", "jittered"])
def test_stokes_system_is_the_transpose_form_with_pressure_rows_negated(mesh):
    # Stokes is ES's saddle form at eps = 0, [[K, -D^T], [D, 0]]: the form
    # [[K, -B^T], [-B, 0]], eliminated, with its free pressure rows negated.
    # It stores three blocks: the scalar K eliminated, shared with PP's
    # velocity system, B masked at the velocity boundary, whose gauge row
    # its mask zeroes, and the gauge's unit pressure block
    disc = Discretization(mesh)
    system = disc.stokes_system
    div = div_coupling(disc)
    transpose_form = eliminate_by_products(
        sps.bmat([[vector_block(fem.assemble_stiffness(disc.vspace)), -div.T],
                  [-div, None]], format="csr"), system.fixed)
    sign = np.ones(transpose_form.shape[0])
    sign[disc.nu:] = -1.0
    sign[disc.nu + drivers.GAUGE_DOF] = 1.0            # the gauge's unit row
    want = (sps.diags(sign) @ transpose_form).tocsr()
    want.sort_indices()
    got = system.matrix.assembled()
    assert got.has_canonical_format
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert system.matrix.velocity is disc.velocity_system.matrix
    pressure = system.matrix.pressure.tocoo()
    assert pressure.row.tolist() == pressure.col.tolist() == [drivers.GAUGE_DOF]
    assert pressure.data.tolist() == [1.0]
    assert np.flatnonzero(system.matrix.free == 0.0).tolist() == [drivers.GAUGE_DOF]
    gauge_row = system.matrix.div[drivers.GAUGE_DOF].nnz
    assert gauge_row > 0
    # A once, div with the gauge row it stores, and C; assembled holds A
    # twice and the masked D twice, as D and -D^T
    assert system.matrix.nnz == (got.nnz - disc.velocity_system.matrix.nnz
                                 - system.matrix.div.nnz + 2 * gauge_row)


@pytest.mark.parametrize("mesh", [build_structured_mesh(8), affine_jittered_mesh(6, 3)],
                         ids=["structured", "jittered"])
def test_coupled_system_is_es0_plus_eps_times_its_kp_part(mesh):
    # ES(0) and its Kp part have one shape and store disjoint entries and no
    # explicit zero, and the Kp part has nothing in a fixed row or column, so
    # each sum is exact; ES(eps) is ES(0)'s blocks with only the pressure
    # block and the lift summed, and assembled it is the whole sum
    disc = Discretization(mesh)
    base, kp = disc._coupled_parts
    nu = disc.nu
    fixed_p = base.fixed[base.fixed >= nu] - nu
    assert np.array_equal(kp.fixed, base.fixed)
    for part in (*base.matrix.blocks, base.lift, kp.matrix, kp.lift):
        assert part.has_canonical_format and part.data.all()
    assert kp.matrix.shape == (disc.np_, disc.np_)
    rows, cols = kp.matrix.nonzero()
    assert not np.isin(rows, fixed_p).any() and not np.isin(cols, fixed_p).any()
    # the Kp part's lift has ES's shape and entries in its pressure rows only
    assert kp.lift.shape == base.lift.shape
    assert kp.lift.indptr[nu] == 0
    for a, b in ((base.matrix.pressure, kp.matrix), (base.lift, kp.lift)):
        assert (abs(a).multiply(abs(b))).nnz == 0
    block = base.matrix.pressure.tocoo()          # ES(0): only the fixed unit rows
    assert np.array_equal(block.row, block.col) and (block.data == 1.0).all()
    assert np.array_equal(block.row, fixed_p)
    whole_kp = sps.block_diag([sps.csr_matrix((nu, nu)), kp.matrix], format="csr")
    for eps in (0.0, 1e-6, 0.37, 1e6):
        system = disc.coupled_system(eps)
        for got, want in zip(system.matrix.blocks, base.matrix._replace(
                pressure=base.matrix.pressure + eps * kp.matrix).blocks):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert system.matrix.free is base.matrix.free
        want = base.lift + eps * kp.lift
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(system.lift, name), getattr(want, name)), name
        want = base.matrix.assembled() + eps * whole_kp
        got = system.matrix.assembled()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (eps, name)
    zero = disc.coupled_system(0.0)
    for a, b in ((zero.matrix.pressure, base.matrix.pressure), (zero.lift, base.lift)):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_returned_coupled_system_leaves_the_cache_unchanged():
    # a returned system owns its pressure block, lift and fixed dofs: editing
    # one in place, as scipy's own eliminate_zeros does, reaches neither the
    # cache nor a later system.  Its A and D are ES(0)'s own blocks, kept
    # read-only, so no edit reaches the cache through them either
    disc = Discretization(build_structured_mesh(8))
    want = disc.coupled_system(1.0)
    zero = disc.coupled_system(0.0)
    zero.matrix.pressure.eliminate_zeros()
    zero.matrix.pressure.data[:] = 0.0
    zero.lift.data[:] = 0.0
    zero.fixed[:] = 0
    for block in zero.matrix[:2]:
        with pytest.raises(ValueError, match="read-only"):
            block.data[:] = 0.0
        with pytest.raises(ValueError):
            block.eliminate_zeros()
    with pytest.raises(ValueError, match="read-only"):
        zero.matrix.free[:] = 1.0
    got = disc.coupled_system(1.0)
    for a, b in zip(_arrays(got), _arrays(want)):
        assert np.array_equal(a, b)
    assert np.array_equal(got.matrix.assembled().toarray(),
                          want.matrix.assembled().toarray())
    assert disc.coupled_system(0.0).matrix.pressure.data.all()     # no explicit zero
    base = disc._coupled_parts[0].matrix
    assert all(a is b for a, b in zip(got.matrix[:2], base[:2]))
    assert got.matrix.free is base.free
    cached = [a for part in disc._coupled_parts for a in _arrays(part)]
    for eps in (0.0, 1.0):
        system = disc.coupled_system(eps)
        for a in _arrays(system._replace(matrix=system.matrix.pressure)):
            assert not any(np.shares_memory(a, c) for c in cached)


@pytest.mark.parametrize("eps", [1e-6, 1.0, 1e6, 1e308])
def test_coupled_right_hand_side_is_the_whole_lift_sum(eps):
    # coupled_system's right-hand side is bit for bit that of the whole
    # lifts summed, ES(0)'s plus eps times the Kp part's, also at an eps
    # whose scaling overflows
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    base, kp = disc._coupled_parts
    inp = _inp(mesh, get_case("ms1-mismatch"), eps=eps)
    values = drivers._coupled_values(disc, inp)
    load = drivers._coupled_load(disc, inp, eps)
    with np.errstate(over="ignore"):
        whole = base.lift + eps * kp.lift
    system = disc.coupled_system(eps)
    got = drivers._lifted(system.lift, system.fixed, load, values)
    assert got.tobytes() == drivers._lifted(whole, base.fixed, load, values).tobytes()
    assert np.isfinite(got).all() == (eps < 1e300)


@pytest.mark.parametrize("mesh", [build_structured_mesh(8), affine_jittered_mesh(6, 3)],
                         ids=["structured", "jittered"])
def test_stokes_and_es0_share_one_masked_divergence(mesh):
    # S and ES(0) hold one read-only div, B with its velocity boundary
    # columns masked, and the Discretization keeps no B.  Each system masks
    # its own fixed pressure dofs, so its assembled D is B masked at those
    # rows and columns, and its gradient block -D^T, entry for entry
    disc = Discretization(mesh)
    systems = (disc.stokes_system, disc._coupled_parts[0])
    div = systems[0].matrix.div
    assert systems[1].matrix.div is div
    with pytest.raises(ValueError, match="read-only"):
        div.data[:] = 0.0
    assert "div" not in vars(disc)
    b, nu = div_coupling(disc), disc.nu
    fixed_u = fem.vector_dofs(disc.vspace.boundary_nodes)
    for system in systems:
        want = fem.masked(b, system.fixed[system.fixed >= nu] - nu, fixed_u)
        want_t = (-want).T.tocsr()
        want_t.sort_indices()
        got = system.matrix.assembled()
        for block, ref in ((got[nu:, :nu], want), (got[:nu, nu:], want_t)):
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, name), getattr(ref, name)), name


def _arrays(system):
    """Every array of an Eliminated: of each block of a SaddleSystem."""
    matrices = (*system.matrix.blocks, system.lift) if isinstance(
        system.matrix, sparse.SaddleSystem) else system[:2]
    return [getattr(m, name) for m in matrices
            for name in ("indptr", "indices", "data")] + [system.fixed]


@pytest.mark.parametrize("problem", ["S", "PP", "ES"])
def test_drivers_match_monolithic_reference(problem, tmp_path):
    # the solves on the shared factors reproduce spsolve on each assembled
    # system, from the Stokes limit of ES to its PP limit.  The reference
    # assembles G by direct quadrature of grad(psi) . phi, where the drivers
    # apply -D^T: the two differ only in the fixed velocity boundary rows and
    # by round-off, and give the same discrete solution, on the square mesh
    # to 1e-11 in every coefficient
    case = get_case("ms1-mismatch")
    square = build_structured_mesh(8)
    sheared = loaded_parallelogram_mesh(tmp_path)
    inputs = [_inp(square, case),
              ProblemInput(mesh=sheared, body_force=case.body_force,
                           u_bc=zero_vec, p_bc=case.p_bc())]
    eps_list = (1e-30, 1e-6, 1e-2, 0.37, 1.0, 1e2, 1e6) if problem == "ES" else (None,)
    for base in inputs:
        disc = Discretization(base.mesh)
        for eps in eps_list:
            inp = ProblemInput(mesh=base.mesh, body_force=base.body_force,
                               u_bc=base.u_bc, p_bc=base.p_bc, epsilon=eps)
            res = DRIVERS[problem](inp, disc)
            u_ref, p_ref = monolithic_reference(problem, inp, disc)
            for got, ref in ((res.u.coefficients, u_ref), (res.p.coefficients, p_ref)):
                assert np.linalg.norm(ref) > 0.0
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref), eps
                if base.mesh is square:
                    assert np.abs(got - ref).max() <= 1e-11, eps


def test_schur_complements_of_s_and_es_are_symmetric(monkeypatch):
    # CG on C + D A^-1 D^T is sound only for a symmetric operator and
    # preconditioner: the gradient block is -D^T by construction and C is
    # symmetric, so the Schur operator the reduction hands to cg is
    # symmetric up to A's round-off, and so is Stokes' preconditioner, a
    # polynomial in diag(Mp)^-1 Mp times diag(Mp)^-1.  Every matrix factored
    # is exactly symmetric with a positive diagonal, which is why Factor
    # takes it as given, with no scaling
    ops, preconds, factored = [], [], []
    real = drivers.cg

    def recording(op, precond, *args):
        ops.append(op)
        preconds.append(precond)
        return real(op, precond, *args)

    class Recorded(sparse.Factor):
        def __init__(self, a, perm=None):
            factored.append(a)
            super().__init__(a, perm)

    monkeypatch.setattr(drivers, "cg", recording)
    monkeypatch.setattr(drivers, "Factor", Recorded)
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    solve_stokes(_inp(mesh, case), disc)
    solve_es(_inp(mesh, case, eps=1e-3), disc)
    solve_pp(_inp(mesh, case), disc)
    # A, 1e-3 Kp + Mp with the boundary eliminated, and Kp: Stokes
    # factors no Mp
    assert len(factored) == 3
    assert factored[0] is disc.velocity_system.matrix
    assert factored[2] is disc.pressure_system.matrix
    for m in factored:
        assert abs(m - m.T).max() == 0.0
        assert np.all(m.diagonal() > 0.0)
    systems = (disc.stokes_system, disc.coupled_system(1e-3))
    assert len(ops) == len(systems)
    rng = np.random.default_rng(8)
    for system, op in zip(systems, ops):
        m = system.matrix
        assert abs(m.pressure - m.pressure.T).max() == 0.0
        q1, q2 = rng.standard_normal((2, disc.np_))
        s1, s2 = op(q1), op(q2)
        scale = np.linalg.norm(q1) * np.linalg.norm(s2)
        assert abs(q1 @ s2 - q2 @ s1) <= 1e-12 * scale
    # Stokes' preconditioner, its Chebyshev steps on Mp, likewise
    cheb = preconds[0]
    q1, q2 = rng.standard_normal((2, disc.np_))
    z1, z2 = cheb(q1), cheb(q2)
    assert abs(q1 @ z2 - q2 @ z1) <= 1e-14 * np.linalg.norm(q1) * np.linalg.norm(z2)


def test_reports_carry_the_ritz_values_of_the_pressure_space_gmres():
    # S and ES are preconditioned Schur complements with real spectra in
    # (0, 1]; for ES at large eps their Ritz values close in on 1.  PP after
    # S applies A's factor and the series takes no Krylov step: neither
    # reports Ritz values
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    reports = [solve_stokes(_inp(mesh, case), disc).report]
    reports += [solve_es(_inp(mesh, case, eps=eps), disc).report for eps in (1e-6, 1e6)]
    for report in reports:
        low, high = report.ritz
        assert 0.0 < low <= high <= 1.0 + 1e-10, report.method
    assert reports[2].ritz[0] > 0.99
    assert solve_pp(_inp(mesh, case), disc).report.ritz == ()
    (series,) = solve_es_sweep(_inp(mesh, case), [1e6], disc)
    assert series.report.method == SERIES and series.report.ritz == ()


@pytest.mark.parametrize("n", [8, 16, 32])
def test_stokes_smallest_ritz_value_is_the_inf_sup_constant_squared(n):
    # the Schur CG deflates the near-constant pressure that only the pinned
    # gauge dof holds, whose eigenvalue shrinks like h^2 (5.4e-4 at n = 8,
    # 3.4e-5 at n = 32 without it): the smallest Ritz value left is beta_h^2,
    # about 0.133 on the unit square at every n.  Preconditioned by Mp^-1,
    # the Ritz values lie in (0, 1]; by 8 Chebyshev steps P on Mp instead,
    # the eigenvalues of P Mp are at most 1 + 1/T_8(5/3) = 1 + 2/(3^8 + 3^-8)
    # (drivers._chebyshev), so those of P S are too, as S <= Mp
    mesh = build_structured_mesh(n)
    report = solve_stokes(_inp(mesh, get_case("ms1-mismatch"))).report
    low, high = report.ritz
    assert 0.1 <= low <= high <= 1.0 + 2.0 / (3.0 ** 8 + 3.0 ** -8)


def _jacobi_spectrum(m):
    """The eigenvalues of diag(m)^-1 m, by the similar diag^-1/2 m diag^-1/2."""
    d = 1.0 / np.sqrt(m.diagonal())
    return np.linalg.eigvalsh(d[:, None] * m * d[None, :])


@pytest.mark.parametrize("mesh", [build_structured_mesh(8), affine_jittered_mesh(8, 1),
                                  affine_jittered_mesh(8, 0, ((1.0, 0.0), (0.0, 0.02)))],
                         ids=["structured", "jittered", "aspect-0.02"])
def test_chebyshev_steps_on_mp_are_symmetric_and_near_its_inverse(mesh):
    # the eigenvalues of diag(Mp)^-1 Mp lie in [1/2, 2] on P1 triangles of
    # any shape (Wathen 1987), both ends reached up to round-off here (2 is
    # the constant's), and eliminating the gauge
    # dof keeps them there.  8 Chebyshev steps P on that interval leave P Mp
    # the eigenvalues 1 - T_8((5/4 - lam) / (3/4)) / T_8(5/3), lam those of
    # diag(Mp)^-1 Mp, so within 1/T_8(5/3) = 2/(3^8 + 3^-8) of 1
    disc = Discretization(mesh)
    mass = fem.eliminate(disc.mass_p, [drivers.GAUGE_DOF]).toarray()
    for m in (disc.mass_p.toarray(), mass):
        lam = _jacobi_spectrum(m)
        assert 0.5 - 1e-12 <= lam[0] and lam[-1] <= 2.0 + 1e-12
    cheb = drivers._chebyshev(sps.csr_matrix(mass))
    p = np.column_stack([cheb(e) for e in np.eye(disc.np_)])
    assert abs(p - p.T).max() <= 1e-14 * abs(p).max()
    mu = np.linalg.eigvals(p @ mass)
    assert abs(mu.imag).max() <= 1e-12
    mu = np.sort(mu.real)
    t8 = np.polynomial.Chebyshev.basis(8)
    bound = 1.0 / t8(5.0 / 3.0)
    assert bound == pytest.approx(2.0 / (3.0 ** 8 + 3.0 ** -8), rel=1e-14)
    want = np.sort(1.0 - bound * t8((1.25 - _jacobi_spectrum(mass)) / 0.75))
    assert abs(mu - want).max() <= 1e-12
    # the ends are reached where lam is 1/2 or 2
    assert 1.0 - bound - 1e-12 <= mu[0] and mu[-1] <= 1.0 + bound + 1e-12


@settings(max_examples=30, deadline=None)
@given(exponent=st.floats(-320.0, 308.0))
def test_es_at_any_eps_meets_tol_or_fails_closed(exponent):
    # down to subnormal eps and up to where eps * Kp overflows, solve_es and
    # the sweep either meet TOL with a finite residual or raise; never a
    # residual over an overflowed ||b|| and never a floating-point warning
    eps = 10.0 ** exponent
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    inp = _inp(mesh, case, eps=eps)
    for run in (lambda: solve_es(inp, disc),
                lambda: next(iter(solve_es_sweep(inp, [eps], disc)))):
        try:
            res = run()
        except (sparse.SolverError, ValueError):
            continue
        assert 0.0 <= res.report.rel_residual <= sparse.TOL, eps
        assert np.all(np.isfinite(res.u.coefficients)), eps
        assert np.all(np.isfinite(res.p.coefficients)), eps


def _record_solves(monkeypatch):
    """(matrix, rhs) of every system the drivers hand to sparse.solve."""
    seen = []
    real = drivers.solve

    def recording(a, b, *args, **kwargs):
        seen.append((a, np.array(b)))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(drivers, "solve", recording)
    return seen


def _record_reports(monkeypatch):
    """The report of every sparse.solve call of the drivers that returns."""
    reports = []
    real = drivers.solve

    def recording(*args, **kwargs):
        x, report = real(*args, **kwargs)
        reports.append(report)
        return x, report

    monkeypatch.setattr(drivers, "solve", recording)
    return reports


def _reference_solves(problem, inp, disc, p):
    """(eliminated matrix, rhs) of each system a driver hands to sparse.solve.

    S and ES take the drivers' gradient block -B^T, so that the comparison
    is entry for entry.  PP's velocity stage is the eliminated vector system
    restricted to one interleaved component at a time."""
    if problem != "PP":
        return [apply_dirichlet(*reference_system(problem, inp, disc,
                                                  grad=-div_coupling(disc).T))]
    vec, vec_rhs = apply_dirichlet(*reference_system("PP-u", inp, disc, p))
    return ([apply_dirichlet(*reference_system("PP-p", inp, disc))]
            + [(vec[c::2, c::2].tocsr(), vec_rhs[c::2]) for c in (0, 1)])


@pytest.mark.parametrize("problem, eps", [("S", None), ("PP", None)]
                         + [("ES", eps) for eps in (1e-6, 0.37, 1.0, 1e6)])
def test_solved_systems_match_reference_elimination(problem, eps, tmp_path,
                                                    monkeypatch):
    # the systems eliminated once per mesh (ES: ES(0) + eps * Kp part) are the
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
            if problem != "PP":           # S and ES are solved as their blocks
                mat = mat.assembled()
            assert mat.shape == ref.shape
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(mat, name), getattr(ref, name)), name
            assert np.array_equal(rhs, ref_rhs)


def test_pp_report_is_worst_of_its_three_solves(monkeypatch):
    reports = _record_reports(monkeypatch)
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    res = solve_pp(_inp(mesh, get_case("ms1-mismatch")), disc)
    assert len(reports) == 3              # Kp, then A for each component
    assert res.report.rel_residual == max(r.rel_residual for r in reports)
    assert res.report.method == "Kp; cg[two_level(A, Kp)]"
    # the extreme Ritz values of the two velocity solves' CG
    assert reports[0].ritz == () and reports[1].ritz and reports[2].ritz
    assert res.report.ritz == (min(reports[1].ritz[0], reports[2].ritz[0]),
                               max(reports[1].ritz[1], reports[2].ritz[1]))
    # PP alone factors Kp only, in its first solve, and counts it once
    assert "velocity_factor" not in vars(disc)
    assert res.report.lu_nnz == disc.pressure_factor.nnz
    assert res.report.factor_time == sum(r.factor_time for r in reports)
    assert reports[1].factor_time == reports[2].factor_time == 0.0

    # a component whose right-hand side is all zero meets the gate exactly
    reports.clear()
    flow = solve_pp(ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=unit_x,
                                 p_bc=zero_scalar), disc)
    assert reports[2].rel_residual == 0.0
    assert not np.any(flow.u.coefficients[:, 1])
    assert np.allclose(flow.u.coefficients[:, 0], 1.0, rtol=0.0, atol=1e-12)
    assert flow.report.rel_residual <= 1e-10


def test_pp_after_stokes_applies_the_factor_of_a():
    # S has factored A, so each PP velocity solve is that factor's direct
    # solve, bit for bit, with no CG step
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    solve_stokes(_inp(mesh, case), disc)
    res = solve_pp(_inp(mesh, case), disc)
    assert res.report.iterations == 0 and res.report.ritz == ()
    assert res.report.method == "Kp; A"
    assert res.report.lu_nnz == disc.pressure_factor.nnz + disc.velocity_factor.nnz
    system = disc.velocity_system
    f = disc.loads(case.body_force)[0] - fem.assemble_field_grad_load(disc.vspace, res.p)
    u_vals = fem.interpolate_boundary(disc.vspace, case.u_bc())
    for c in (0, 1):
        want = disc.velocity_factor.solve(
            drivers._lifted(system.lift, system.fixed, f[:, c], u_vals[:, c]))
        want[system.fixed] = u_vals[:, c]
        assert np.array_equal(res.u.coefficients[:, c], want)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_pp_alone_converges_in_steps_independent_of_h(n):
    # CG with the two-level cycle took 34 steps per PP (17 per component) on
    # structured meshes n = 8 to 128; the bound is the same at every n
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(n)
    alone = solve_pp(_inp(mesh, case), Discretization(mesh))
    assert 1 <= alone.report.iterations <= 40
    assert alone.report.rel_residual <= 1e-10
    disc = Discretization(mesh)
    solve_stokes(_inp(mesh, case), disc)
    after = solve_pp(_inp(mesh, case), disc)
    assert np.array_equal(alone.p.coefficients, after.p.coefficients)
    ref = after.u.coefficients
    assert np.linalg.norm(alone.u.coefficients - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", ["structured", "jittered"])
def test_pp_alone_takes_few_cg_steps_per_component(kind, n, monkeypatch):
    # 17 steps per component on structured meshes, 19 to 22 on jittered
    # ones (affine_jittered_mesh seeds 0 to 4); an SPD two-level cycle
    # times A has its spectrum, and so its Ritz values, in (0, 1]
    reports = _record_reports(monkeypatch)
    mesh = build_structured_mesh(n) if kind == "structured" else affine_jittered_mesh(n, 1)
    res = solve_pp(_inp(mesh, get_case("ms1-mismatch")), Discretization(mesh))
    assert [r.method for r in reports[1:]] == ["cg[two_level(A, Kp)]"] * 2
    for report in reports[1:]:
        assert 1 <= report.iterations <= 22
        assert report.rel_residual <= 1e-10
    low, high = res.report.ritz
    assert 0.0 < low <= high <= 1.0


def test_pp_alone_on_stretched_cells_takes_more_than_60_cg_steps(monkeypatch):
    # at aspect 0.02 the two-level cycle is slow (127 and 132 steps per
    # component) yet still meets TOL, so cg's step cap must stay above 60
    reports = _record_reports(monkeypatch)
    mesh = affine_jittered_mesh(16, 0, ((1.0, 0.0), (0.0, 0.02)))
    solve_pp(_inp(mesh, get_case("ms1-mismatch")), Discretization(mesh))
    assert [r.method for r in reports[1:]] == ["cg[two_level(A, Kp)]"] * 2
    for report in reports[1:]:
        assert report.iterations > 60 and report.rel_residual <= sparse.TOL


@pytest.mark.parametrize("linear", [((1.0, 2.0), (0.0, 1.0)), ((1.0, 0.0), (0.0, 0.1))],
                         ids=["shear 2", "aspect 0.1"])
def test_jacobi_weight_keeps_the_two_level_cycle_spd(linear):
    # the cycle's error operator is (I - S A) Pi (I - S A), so the cycle is
    # SPD while JACOBI_WEIGHT times the largest eigenvalue of D^-1 A is
    # below 2: it reads 1.90 and 1.66 on these meshes, 1.59 unmapped
    from scipy.sparse.linalg import eigsh
    a = Discretization(affine_jittered_mesh(16, 0, linear)).velocity_system.matrix
    scale = sps.diags(1.0 / np.sqrt(a.diagonal()))
    (top,) = eigsh(scale @ a @ scale, k=1, which="LA", return_eigenvectors=False)
    assert drivers.JACOBI_WEIGHT * top < 2.0


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
    # construction builds the two scalar systems PP solves, and nothing else
    assert not set(FACTORS + SADDLE_SYSTEMS + ("mass_p",)) & set(vars(disc))
    for system in (disc.velocity_system, disc.pressure_system):
        assert isinstance(system.matrix, sps.csr_matrix)
    solve_pp(_inp(mesh, get_case("ms1")), disc)
    assert sizes == [disc.np_]            # Kp, also the velocity cycle's coarse solve
    assert set(FACTORS) & set(vars(disc)) == {"pressure_factor"}


def test_discretization_keeps_no_raw_stiffness():
    # K and Kp live on only as their eliminated systems, which the gap
    # norms and ES's Kp part read
    disc = Discretization(build_structured_mesh(4))
    assert not hasattr(disc, "stiff_u") and not hasattr(disc, "stiff_p")


@pytest.mark.parametrize("loaded", [False, True], ids=["structured", "loaded"])
def test_index_arrays_are_int32_and_the_geometry_is_two_arrays(loaded, tmp_path):
    # every per-mesh index array is held as int32, and the mesh keeps only
    # the inverse Jacobian and the determinant of each cell
    mesh = loaded_parallelogram_mesh(tmp_path) if loaded else build_structured_mesh(4)
    disc = Discretization(mesh)
    vel, pre = disc.velocity_factor, disc.pressure_factor
    arrays = {"triangles": mesh.triangles, **mesh.edges._asdict(),
              "boundary_edge_ids": mesh.boundary_edge_ids,
              "P2 cells": disc.vspace.cells, "P2 boundary_nodes": disc.vspace.boundary_nodes,
              "P2 boundary_edge_nodes": disc.vspace.boundary_edge_nodes,
              "A perm": vel.perm, "A iperm": vel.iperm,
              "Kp perm": pre.perm, "Kp iperm": pre.iperm}
    for name, array in arrays.items():
        assert array.dtype == np.int32, name
    assert np.array_equal(vel.perm[vel.iperm], np.arange(len(vel.perm)))
    inv, det = mesh.geometry
    assert inv.shape == (mesh.num_triangles, 2, 2) and det.shape == (mesh.num_triangles,)


def test_discretization_releases_free_heap_after_assembly(monkeypatch):
    # the assembly temporaries are freed into the C heap, which otherwise
    # keeps their pages resident
    pads = []
    monkeypatch.setattr(sparse, "_malloc_trim", lambda: pads.append)
    Discretization(build_structured_mesh(4))
    assert pads == [0]


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
    assert disc.velocity_system.matrix.shape == (disc.vspace.ndofs, disc.vspace.ndofs)


def test_sweep_factors_velocity_block_once(monkeypatch):
    sizes = _count_factorizations(monkeypatch)
    # S and ES stay blocks: no monolithic matrix and no kron(K, I2)
    assembled = _count_calls(monkeypatch, sps, ["bmat", "kron", "block_diag"])
    table, reports = run_sweep_eps(RunConfig(case="ms1-mismatch", n=8))
    assert assembled == []
    n_velocity = 17 * 17                  # scalar P2 nodes at n = 8
    assert len(table.rows) == 13 and len(reports) == 15
    assert sizes.count(n_velocity) == 1
    # besides A: Kp for PP and one eps*Kp + Mp per epsilon that the Schur CG
    # solves, 1e-6 ... 1e-2; Stokes factors no Mp, and the 1/eps series
    # solves 0.1 ... 1e6 on the factors A and Kp
    assert reports[0].method == "cg[schur(A, cheb8(Mp))]"
    methods = [r.method for r in reports[2:]]
    assert all(m.startswith("cg[") for m in methods[:5])
    assert methods[5:] == ["series[Kp, A]"] * 8
    assert sizes.count(9 * 9) == 6 and len(sizes) == 7
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


def test_cell_orders_are_computed_once_per_discretization(monkeypatch):
    # the Schur factor of every S and Schur-CG ES solve reuses the P1 labels
    # that Kp's factor was ordered by, and A keeps the P2 labels
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(6)
    disc = Discretization(mesh)
    degrees = []
    real = fem.cell_order
    monkeypatch.setattr(fem, "cell_order",
                        lambda space: degrees.append(space.degree) or real(space))
    solve_pp(_inp(mesh, case), disc)
    solve_stokes(_inp(mesh, case), disc)
    for eps in (1e-4, 1e-2, 1.0):
        solve_es(_inp(mesh, case, eps), disc)
    sweep = solve_es_sweep(_inp(mesh, case), DEFAULT_EPS_GRID, disc)
    assert len(list(sweep)) == 13
    assert sorted(degrees) == [1, 2]
    assert np.array_equal(disc.pressure_order, real(disc.pspace))
    assert np.array_equal(disc.velocity_factor.perm, real(disc.vspace))


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
    # every eps's ||b|| comes from two right-hand sides built once, so the
    # sweep builds no ES system up front.  Each eps is then solved through the
    # one ES path, which builds its ES(eps) with coupled_system: one system per
    # eps solved, the 8 series sums and the 5 Schur CG solves below the
    # series' reach alike, since no sum misses the gate
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    pp = solve_pp(_inp(mesh, case), disc)
    calls = _count_calls(monkeypatch, Discretization, ("coupled_system",))
    schur = _count_calls(monkeypatch, drivers, ("_schur_reduction",))
    sweep = solve_es_sweep(_inp(mesh, case), DEFAULT_EPS_GRID, disc, pp=pp)
    assert calls == [] and schur == []
    assert len(list(sweep)) == 13 and len(calls) == 13 and len(schur) == 5


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
    assert len(calls) == 1                # ES reuses B; -B^T is its gradient
    assert "grad" not in dir(disc)        # and no G is built or kept


def test_pp_builds_no_vector_block(monkeypatch):
    from epsstokes import fem
    kron = _count_calls(monkeypatch, sps, ["kron"])
    couplings = _count_calls(monkeypatch, fem, ["assemble_div_coupling"])
    mesh = build_structured_mesh(8)
    case = get_case("ms1-mismatch")
    disc = Discretization(mesh)
    solve_pp(_inp(mesh, case), disc)
    assert kron == [] and couplings == []
    assert disc.velocity_factor.lu.shape[0] == disc.nu // 2
    # S and ES apply the scalar K to each component: no kron(K, I2) either
    solve_stokes(_inp(mesh, case), disc)
    for eps in (1e-3, 1e3):
        solve_es(_inp(mesh, case, eps=eps), disc)
    assert kron == []
    # B once per mesh, and no G: the saddle systems apply -B^T
    assert couplings == ["assemble_div_coupling"]


def test_package_builds_no_monolithic_matrix():
    # S and ES stay blocks in every code path, verify's battery included: no
    # module of the package calls scipy.sparse's bmat, kron, block_diag or
    # stacks, and a dump assembles by sparse.placed
    import ast
    from pathlib import Path
    import epsstokes
    banned = {"bmat", "kron", "block_diag", "hstack", "vstack"}
    found = []
    for path in Path(epsstokes.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in banned
                    and ast.unparse(node.value) != "np"):      # np.hstack is fine
                found.append((path.name, node.lineno, ast.unparse(node)))
            elif isinstance(node, ast.ImportFrom) and "sparse" in (node.module or ""):
                found += [(path.name, node.lineno, a.name) for a in node.names
                          if a.name in banned]
    assert found == []


def test_loads_assembled_once_per_body_force(monkeypatch):
    from epsstokes import fem
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    # one pass builds both loads of a body force, on its first use
    for name in ("assemble_body_force_loads", "assemble_load"):
        monkeypatch.setattr(fem, name, counted(name, getattr(fem, name)))
    mesh = build_structured_mesh(4)
    disc = Discretization(mesh)
    case = get_case("ms1-mismatch")
    solve_stokes(_inp(mesh, case), disc)
    solve_pp(_inp(mesh, case), disc)
    for eps in (1e-3, 1e3):
        solve_es(_inp(mesh, case, eps=eps), disc)
    assert calls == ["assemble_body_force_loads"]
    velocity, pressure = disc.loads(case.body_force)
    assert not velocity.flags.writeable and not pressure.flags.writeable
    solve_es(ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                          p_bc=linear_x_minus_half, epsilon=1.0), disc)
    assert calls == ["assemble_body_force_loads"] * 2    # a new body force


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


def test_series_falls_back_to_schur_cg_below_its_radius(monkeypatch):
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    calls = []
    real = drivers.solve_es

    def counted(inp, disc):
        calls.append(inp.epsilon)
        return real(inp, disc)

    monkeypatch.setattr(drivers, "solve_es", counted)
    sweep = solve_es_sweep(_inp(mesh, case, eps=5.0), [1e-3, 10.0], disc)
    assert 0.005 < sweep.term_ratio < 0.05
    small, large = sweep
    assert calls == [1e-3]                        # inp.epsilon is not read
    assert small.report.method.startswith("cg[") and small.epsilon == 1e-3
    assert small.report.rel_residual <= 1e-10
    assert large.report.method == SERIES and large.epsilon == 10.0


def test_series_leaves_tiny_eps_to_schur_cg_without_overflow():
    # the series diverges below its term ratio; 1/eps^k would overflow at
    # these eps, so they leave it before a term is added and the Schur CG
    # solves them
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(4)
    results = list(solve_es_sweep(_inp(mesh, case), [1e-310, 1e-30, 1.0]))
    assert [r.epsilon for r in results] == [1e-310, 1e-30, 1.0]
    for res in results[:2]:
        assert res.report.method.startswith("cg[")
        assert res.report.rel_residual <= sparse.TOL
    assert results[2].report.method == SERIES


@pytest.mark.parametrize("n", [4, 8])
def test_series_term_ratio_is_the_spectral_radius(n):
    # ES(eps) on its free pressure rows divided by eps is M + N/eps, N the
    # divergence block; the terms shrink by the spectral radius of M^-1 N
    from scipy.linalg import eigvals
    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    system = disc.coupled_system(1.0)
    free_p = np.zeros(system.matrix.shape[0], dtype=bool)
    free_p[disc.nu:] = True
    free_p[system.fixed] = False
    dense = system.matrix.assembled().toarray()             # ES(1)
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


def test_series_term_budget_sends_slow_eps_to_schur_cg(monkeypatch):
    # eps = 0.1 needs about a dozen terms; with a budget of three it goes to
    # the Schur CG, while eps = 1e6 still takes two
    monkeypatch.setattr(drivers, "SERIES_TERMS", 3)
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    slow, fast = solve_es_sweep(_inp(mesh, case), [0.1, 1e6], disc)
    assert slow.report.method.startswith("cg[")
    assert fast.report.method == SERIES and fast.report.iterations == 2


def test_series_residual_is_the_es_residual(monkeypatch):
    # the reported residual is ||b - ES(eps) x|| / ||b|| of the returned
    # fields, bit for bit that of the block system and right-hand side that
    # solve_es hands to sparse.solve.  Against the ES system and right-hand
    # side eliminated independently, as one CSR matrix, it agrees to
    # round-off only, as that product sums each row's blocks in one pass:
    # 7.0539e-15 where the blocks give 7.0545e-15 at eps = 0.1, and at most
    # 3.4e-17 apart at these eps
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    seen = _record_solves(monkeypatch)
    for res in solve_es_sweep(_inp(mesh, case), (0.1, 3.0, 1e4), disc):
        assert res.report.method == SERIES
        x = np.concatenate([res.u.coefficients.ravel(), res.p.coefficients])
        seen.clear()
        solve_es(_inp(mesh, case, eps=res.epsilon), disc)
        ((system, rhs),) = seen
        assert res.report.rel_residual == sparse.product_residual(system @ x, rhs)
        mat, ref_rhs = apply_dirichlet(*reference_system(
            "ES", _inp(mesh, case, eps=res.epsilon), disc, grad=-div_coupling(disc).T))
        want = np.linalg.norm(ref_rhs - mat @ x) / np.linalg.norm(ref_rhs)
        assert abs(res.report.rel_residual - want) <= 1e-16
        bounds = res.report.residual_history
        assert bounds[-1] <= 1e-4 * sparse.TOL < bounds[-2]


def test_each_series_solution_is_one_solve_of_the_es_system(monkeypatch):
    # every eps the sweep yields is one sparse.solve call on the system and
    # right-hand side solve_es hands over, and its report is that call's;
    # the first series report also holds the terms every eps shares, here
    # the factors of Kp and A, which the sweep made
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc = Discretization(mesh)
    sweep = solve_es_sweep(_inp(mesh, case), (1e-3, 0.1, 1e4), disc)
    seen = _record_solves(monkeypatch)
    reports = _record_reports(monkeypatch)
    results = list(sweep)
    assert [r.report.method for r in results] == [
        "cg[schur(A, eps*Kp + Mp)]", SERIES, SERIES]
    assert len(seen) == len(reports) == 3
    first = results[1].report
    assert first.wall_time == pytest.approx(reports[1].wall_time + sweep.elapsed)
    assert first.factor_time == pytest.approx(
        disc.pressure_factor.factor_time + disc.velocity_factor.factor_time)
    assert first.factor_time > 0.0 and reports[1].factor_time == 0.0
    assert replace(first, wall_time=reports[1].wall_time, factor_time=0.0) == reports[1]
    assert results[0].report == reports[0] and results[2].report == reports[2]
    for res, (system, rhs) in zip(results[1:], seen[1:]):
        calls = len(seen)
        solve_es(_inp(mesh, case, eps=res.epsilon), disc)
        ((want, want_rhs),) = seen[calls:]
        assert np.array_equal(rhs, want_rhs)
        got, want = system.assembled(), want.assembled()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_series_sum_that_misses_the_gate_goes_to_schur_cg(tmp_path):
    # a sum that fails sparse.solve's gate sends its eps to solve_es.  Inside
    # dump_matrices each solve call writes its system, the failed one
    # included, and the shared terms' time moves to the next series report
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    sweep = solve_es_sweep(_inp(mesh, case), (10.0, 1e3))
    sweep.series[10.0][0][:] += 1.0           # off by 1 on every free dof
    with sparse.dump_matrices(str(tmp_path / "m_")):
        missed, kept = sweep
    assert missed.report.method == "cg[schur(A, eps*Kp + Mp)]"
    assert missed.report.rel_residual <= sparse.TOL
    assert kept.report.method == SERIES
    assert kept.report.wall_time > sweep.elapsed
    assert kept.report.factor_time > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"m_{k:03d}.mtx" for k in range(3)]


def test_series_gap_to_pp_converges_monotonically():
    # eps * |u_ES - u_PP|_H1 tends to its limit from below; a Schur CG solve
    # carries round-off of about 4e-7 relative at eps = 1e6, which dips it
    table, reports = run_sweep_eps(RunConfig(case="ms1-mismatch", n=40,
                                             eps_list=(1e3, 1e4, 1e5, 1e6)))
    assert [r.method for r in reports[2:]] == [SERIES] * 4
    scaled = [row.eps * row.err_u_H1_vs_PP for row in table.rows]
    assert all(b > a for a, b in zip(scaled, scaled[1:])), scaled


@pytest.mark.parametrize("n, eps_list, kp_solves, iterations", [
    (40, DEFAULT_EPS_GRID, 12, [16, 16, 15, 13, 10, 13, 6, 5, 4, 3, 3, 2, 2]),
    (16, DEFAULT_EPS_GRID, 13, [14, 14, 14, 12, 10, 14, 7, 5, 4, 3, 3, 2, 2]),
    (16, (0.05,), 4, [8]),
])
def test_series_term_count_and_iterations(n, eps_list, kp_solves, iterations):
    # the series makes one Kp solve per term after x_0, up to the term at
    # which its last eps left it; each eps reports its series terms or its
    # Schur CG iterations
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
