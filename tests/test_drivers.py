import gc
import weakref

import numpy as np
import pytest

from epsstokes.drivers import (Discretization, IncompatibleDataError,
                               ProblemInput, check_compatibility, solve_es,
                               solve_pp, solve_stokes)
from epsstokes.mesh import build_structured_mesh
from epsstokes.fem import Field
from epsstokes.verification import (diff_field, div_l2, error_h1,
                                    gauss_formula_residual, quotient_norm_l2,
                                    seminorm_h1, get_case)
from helpers import linear_x_minus_half, unit_x, zero_scalar, zero_vec


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
    from epsstokes import fem
    case = get_case("ms1-mismatch")
    mesh = build_structured_mesh(8)
    disc_t = Discretization(mesh)
    disc_d = Discretization(mesh)
    disc_d.grad = fem.assemble_grad_coupling(disc_d.vspace, disc_d.pspace,
                                             form="direct", quad=disc_d.quad)
    for eps in (1e-2, 1.0, 1e2):
        rt = solve_es(_inp(mesh, case, eps=eps), disc_t)
        rd = solve_es(_inp(mesh, case, eps=eps), disc_d)
        assert np.abs(rt.u.coefficients - rd.u.coefficients).max() <= 1e-11
        assert np.abs(rt.p.coefficients - rd.p.coefficients).max() <= 1e-11


def test_gradient_forcing_on_loaded_parallelogram_mesh(tmp_path):
    # end-to-end on a sheared, file-loaded mesh: (u, p) = (0, x) solves the
    # coupled problem exactly for gradient forcing with matching trace data
    from epsstokes.mesh import load_mesh

    n = 3
    square = build_structured_mesh(n)
    sheared = square.vertices @ np.array([[1.0, 0.0], [0.4, 1.0]])
    lines = ["mesh2d v1", f"vertices {square.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in sheared]
    lines += [f"triangles {square.num_triangles}"]
    lines += [f"{a} {b} {c}" for a, b, c in square.triangles]
    lines += [f"boundary {square.num_boundary_edges}"]
    lines += [f"{i} {j} {m}" for i, j, m in square.boundary_edges]
    path = tmp_path / "shear.mesh"
    path.write_text("\n".join(lines) + "\n")

    mesh = load_mesh(path)
    assert abs(mesh.area() - 1.0) <= 1e-12   # shear preserves area
    disc = Discretization(mesh)
    inp = ProblemInput(mesh=mesh, body_force=unit_x, u_bc=zero_vec,
                       p_bc=lambda x, y: x, epsilon=3.0)
    res = solve_es(inp, disc)
    assert np.abs(res.u.coefficients).max() <= 1e-9
    assert np.abs(res.p.coefficients - disc.pspace.node_coords[:, 0]).max() <= 1e-9


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
    u = Field(disc.vspace, np.zeros(disc.nu))
    w = Field(disc.pspace, np.ones(disc.np_))
    error_h1(u, case.u_exact, case.grad_u_exact)
    gauss_formula_residual(u, w)
    ref = weakref.ref(mesh)
    del mesh, disc, u, w
    gc.collect()
    assert ref() is None
