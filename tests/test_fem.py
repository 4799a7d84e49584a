import math

import numpy as np
import pytest
from scipy import sparse as sps

from epsstokes import fem
from epsstokes.fem import (Field, Space, apply_dirichlet, assemble_div_coupling,
                           assemble_grad_coupling, assemble_grad_load,
                           assemble_load, assemble_stiffness,
                           interpolate_boundary, triangle_rule_d5)
from epsstokes.mesh import build_structured_mesh
from epsstokes.verification import gauss_formula_residual
from helpers import ref_triangle_mesh

# local P1 stiffness on the reference triangle, by symbolic integration
P1_STIFFNESS = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])

# local P2-velocity/P1-pressure divergence block on the reference triangle,
# by symbolic integration; column 2a+c is velocity node a, component c
DIV_BLOCK = np.array([
    [-1, -1, 0, 0, 0, 0, 1, -1, 1, 1, -1, 1],
    [0, 0, 1, 0, 0, 0, -1, -2, 1, 2, -1, 0],
    [0, 0, 0, 0, 0, 1, 0, -1, 2, 1, -2, -1],
]) / 6.0


def monomial_integral_ref(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_quadrature_rule_d5_exact_through_degree_5():
    rule = triangle_rule_d5()
    assert abs(rule.weights.sum() - 0.5) <= 1e-15
    pts = rule.ref_points()
    for a in range(6):
        for b in range(6 - a):
            approx = float(np.sum(rule.weights * pts[:, 0] ** a * pts[:, 1] ** b))
            assert abs(approx - monomial_integral_ref(a, b)) <= 1e-14, (a, b)


def test_quadrature_barycentric_consistent():
    rule = triangle_rule_d5()
    assert np.abs(rule.points.sum(axis=1) - 1.0).max() <= 1e-15


def test_edge_gauss_rule_exact_through_degree_5():
    for k in range(6):
        approx = float(np.sum(fem._EDGE_W * fem._EDGE_T ** k))
        assert abs(approx - 1.0 / (k + 1)) <= 1e-15, k


def test_p1_local_stiffness_matches_symbolic_oracle():
    space = Space(ref_triangle_mesh(), degree=1)
    a = assemble_stiffness(space).toarray()
    assert np.abs(a - P1_STIFFNESS).max() <= 1e-12


def test_stiffness_kernel_contains_constants():
    for degree in (1, 2):
        space = Space(build_structured_mesh(3), degree=degree)
        a = assemble_stiffness(space)
        assert np.abs(a @ np.ones(space.ndofs)).max() <= 1e-12
    vspace = Space(build_structured_mesh(3), degree=2, components=2)
    a = assemble_stiffness(vspace)
    for comp in (0, 1):
        ones = np.zeros(vspace.ndofs)
        ones[comp::2] = 1.0
        assert np.abs(a @ ones).max() <= 1e-12


def test_stiffness_symmetry_exact():
    for degree, comps in ((1, 1), (2, 1), (2, 2)):
        space = Space(build_structured_mesh(4), degree=degree, components=comps)
        a = assemble_stiffness(space)
        assert abs(a - a.T).max() == 0.0


def _dense_p1_stiffness_oracle(mesh):
    # independent direct assembly: per-triangle B-matrix, dense accumulation
    n = mesh.num_vertices
    a = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
        det = np.linalg.det(jac)
        grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = grads_ref @ np.linalg.inv(jac)
        local = 0.5 * det * grads @ grads.T
        for i in range(3):
            for j in range(3):
                a[tri[i], tri[j]] += local[i, j]
    return a


def test_p1_stiffness_five_point_stencil_on_n2():
    mesh = build_structured_mesh(2)
    a = assemble_stiffness(Space(mesh, degree=1)).toarray()
    oracle = _dense_p1_stiffness_oracle(mesh)
    assert np.abs(a - oracle).max() <= 1e-13
    center = np.where((mesh.vertices == [0.5, 0.5]).all(axis=1))[0][0]
    assert abs(a[center, center] - 4.0) <= 1e-13


def test_div_coupling_constant_field():
    mesh = build_structured_mesh(3)
    vspace = Space(mesh, degree=2, components=2)
    pspace = Space(mesh, degree=1)
    b = assemble_div_coupling(vspace, pspace)
    const = np.zeros(vspace.ndofs)
    const[0::2] = 1.0
    assert np.abs(b @ const).max() <= 1e-13


def test_div_coupling_partition_of_unity():
    mesh = build_structured_mesh(3)
    vspace = Space(mesh, degree=2, components=2)
    pspace = Space(mesh, degree=1)
    b = assemble_div_coupling(vspace, pspace)
    # u = (x, 0): entries sum to the integral of div u = 1
    coeffs = np.zeros(vspace.ndofs)
    coeffs[0::2] = vspace.node_coords[:, 0]
    assert abs((b @ coeffs).sum() - 1.0) <= 1e-12


def test_div_coupling_local_block_matches_symbolic_oracle():
    mesh = ref_triangle_mesh()
    b = assemble_div_coupling(Space(mesh, degree=2, components=2),
                              Space(mesh, degree=1)).toarray()
    assert np.abs(b - DIV_BLOCK).max() <= 1e-14


def test_load_zero_and_partition_of_unity():
    space = Space(build_structured_mesh(3), degree=1)
    zero = assemble_load(space, lambda x, y: np.zeros_like(x))
    assert np.abs(zero).max() == 0.0
    ones = assemble_load(space, lambda x, y: np.ones_like(x))
    assert abs(ones.sum() - 1.0) <= 1e-12


def test_load_linear_on_reference_triangle():
    space = Space(ref_triangle_mesh(), degree=1)
    vec = assemble_load(space, lambda x, y: x)
    assert np.abs(vec - np.array([1, 2, 1]) / 24.0).max() <= 1e-14


def test_grad_load_zero():
    space = Space(build_structured_mesh(3), degree=1)
    from helpers import zero_vec
    assert np.abs(assemble_grad_load(space, zero_vec)).max() == 0.0


def test_grad_load_gradient_of_coordinate():
    # F = grad(x): action equals the stiffness row action on the x-coefficients
    mesh = build_structured_mesh(4)
    space = Space(mesh, degree=1)
    vec = assemble_grad_load(
        space, lambda x, y: np.stack([np.ones_like(x), np.zeros_like(y)], axis=-1))
    stiff_action = assemble_stiffness(space) @ space.node_coords[:, 0]
    assert np.abs(vec - stiff_action).max() <= 1e-12


def test_grad_load_symbolic_oracle_on_reference_triangle():
    space = Space(ref_triangle_mesh(), degree=1)
    vec = assemble_grad_load(space, lambda x, y: np.stack([y, x], axis=-1))
    assert np.abs(vec - np.array([-1 / 3, 1 / 6, 1 / 6])).max() <= 1e-14


def test_load_quadrature_degree_precondition():
    space = Space(build_structured_mesh(2), degree=2)
    weak_rule = fem.QuadratureRule(points=np.array([[1 / 3, 1 / 3, 1 / 3]]),
                                   weights=np.array([0.5]), degree=1)
    with pytest.raises(ValueError, match="too low"):
        assemble_load(space, lambda x, y: x, weak_rule)


def test_interpolate_boundary_scalar():
    mesh = build_structured_mesh(2)
    space = Space(mesh, degree=1)
    dofs, vals = interpolate_boundary(space, lambda x, y: np.zeros_like(x))
    assert np.abs(vals).max() == 0.0
    assert np.array_equal(dofs, space.boundary_dofs)
    dofs, vals = interpolate_boundary(space, lambda x, y: x)
    corner = np.where((space.node_coords == [1.0, 1.0]).all(axis=1))[0][0]
    assert vals[np.where(dofs == corner)[0][0]] == 1.0


def test_interpolate_boundary_marker_restriction():
    # bottom-edge data on the n=4 P2 space: midpoint dof at (1/8, 0)
    mesh = build_structured_mesh(4)
    space = Space(mesh, degree=2)
    dofs, vals = interpolate_boundary(space, lambda x, y: np.sin(np.pi * x),
                                      marker=1)
    coords = space.node_coords[dofs]
    assert np.all(coords[:, 1] == 0.0)
    k = np.where(coords[:, 0] == 0.125)[0][0]
    assert abs(vals[k] - np.sin(np.pi / 8)) <= 1e-15


def test_interpolate_boundary_vector():
    mesh = build_structured_mesh(2)
    vspace = Space(mesh, degree=2, components=2)
    dofs, vals = interpolate_boundary(vspace, lambda x, y: np.stack([x, -y], axis=-1))
    coords = vspace.dof_coords[dofs]
    expected = np.where(dofs % 2 == 0, coords[:, 0], -coords[:, 1])
    assert np.abs(vals - expected).max() == 0.0


def test_apply_dirichlet_no_dofs_is_identity_operation():
    a = sps.csr_matrix(([2.0, 1.0, 2.0], ([0, 0, 1], [0, 1, 1])), (2, 2))
    b = np.array([3.0, 3.0])
    a2, b2 = apply_dirichlet(a, b, np.array([], dtype=int), np.array([]))
    assert np.allclose(a2.toarray(), a.toarray())
    assert np.array_equal(b2, b)


def test_apply_dirichlet_all_dofs_gives_identity_system():
    a = sps.csr_matrix(([2.0, 1.0, 1.0, 2.0], ([0, 0, 1, 1], [0, 1, 0, 1])), (2, 2))
    b = np.zeros(2)
    a2, b2 = apply_dirichlet(a, b, np.array([0, 1]), np.array([5.0, -1.0]))
    assert np.allclose(a2.toarray(), np.eye(2))
    assert np.array_equal(b2, [5.0, -1.0])


def test_apply_dirichlet_three_point_laplace():
    rows = [0, 0, 1, 1, 1, 2, 2]
    cols = [0, 1, 0, 1, 2, 1, 2]
    vals = [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0]
    a = sps.csr_matrix((vals, (rows, cols)), (3, 3))
    a2, b2 = apply_dirichlet(a, np.zeros(3), np.array([0, 2]), np.array([0.0, 1.0]))
    x = np.linalg.solve(a2.toarray(), b2)
    assert abs(x[1] - 0.5) <= 1e-14
    assert x[0] == 0.0 and x[2] == 1.0
    # symmetric elimination keeps the matrix symmetric
    assert np.abs(a2.toarray() - a2.toarray().T).max() == 0.0


def test_grad_coupling_forms_agree_on_interior_dofs():
    mesh = build_structured_mesh(4)
    vspace = Space(mesh, degree=2, components=2)
    pspace = Space(mesh, degree=1)
    g_t = assemble_grad_coupling(vspace, pspace, form="transpose").toarray()
    g_d = assemble_grad_coupling(vspace, pspace, form="direct").toarray()
    interior = np.setdiff1d(np.arange(vspace.ndofs), vspace.boundary_dofs)
    assert np.abs(g_t[interior] - g_d[interior]).max() <= 1e-12
    # the boundary correction makes the two forms agree everywhere
    assert np.abs(g_t - g_d).max() <= 1e-12


def test_grad_coupling_transpose_identity_against_div():
    # p^T G^T u = -p^T B u for interior-supported u and p
    mesh = build_structured_mesh(4)
    vspace = Space(mesh, degree=2, components=2)
    pspace = Space(mesh, degree=1)
    g = assemble_grad_coupling(vspace, pspace).toarray()
    b = assemble_div_coupling(vspace, pspace).toarray()
    rng = np.random.default_rng(7)
    u = rng.standard_normal(vspace.ndofs)
    p = rng.standard_normal(pspace.ndofs)
    u[vspace.boundary_dofs] = 0.0
    p[pspace.boundary_dofs] = 0.0
    assert abs(u @ (g @ p) + p @ (b @ u)) <= 1e-12


def test_discrete_gauss_formula_random_fields():
    mesh = build_structured_mesh(8)
    vspace = Space(mesh, degree=2, components=2)
    rng = np.random.default_rng(3)
    for degree in (1, 2):
        wspace = Space(mesh, degree=degree)
        for _ in range(5):
            u = Field(vspace, rng.standard_normal(vspace.ndofs))
            w = Field(wspace, rng.standard_normal(wspace.ndofs))
            assert abs(gauss_formula_residual(u, w)) <= 1e-10


def test_galerkin_exactness():
    # stiffness action on an interpolated polynomial equals the load of its
    # exact negative Laplacian, on interior test functions
    mesh = build_structured_mesh(4)
    for degree, poly, neg_lap in (
            (1, lambda x, y: 2 * x - 3 * y + 1, lambda x, y: np.zeros_like(x)),
            (2, lambda x, y: x * x + 3 * x * y - 2 * y * y + x,
             lambda x, y: 2.0 * np.ones_like(x))):
        space = Space(mesh, degree=degree)
        coeffs = poly(space.node_coords[:, 0], space.node_coords[:, 1])
        lhs = assemble_stiffness(space) @ coeffs
        rhs = assemble_load(space, neg_lap)
        interior = np.setdiff1d(np.arange(space.ndofs), space.boundary_dofs)
        assert np.abs(lhs[interior] - rhs[interior]).max() <= 1e-10


def test_space_dof_counts_and_boundary_dofs():
    mesh = build_structured_mesh(3)
    p1 = Space(mesh, degree=1)
    assert p1.ndofs == 16
    p2 = Space(mesh, degree=2)
    n_edges = 3 * 3 * 3 + 2 * 3   # 3n^2 + 2n interior grid edges plus diagonals
    assert p2.ndofs == 16 + n_edges
    v2 = Space(mesh, degree=2, components=2)
    assert v2.ndofs == 2 * p2.ndofs
    # boundary dofs lie on the boundary
    for space in (p1, p2):
        coords = space.node_coords[space.boundary_dofs]
        on_edge = ((coords == 0.0) | (coords == 1.0)).any(axis=1)
        assert on_edge.all()
    assert len(p2.boundary_dofs) == 4 * 3 * 2   # vertices + midpoints


def test_eval_on_boundary_matches_callable():
    mesh = build_structured_mesh(3)
    space = Space(mesh, degree=2)
    coeffs = (space.node_coords[:, 0] ** 2 - space.node_coords[:, 1]
              + space.node_coords[:, 0] * space.node_coords[:, 1])
    f = Field(space, coeffs)
    xs, ys, _, _ = fem.boundary_quadrature(mesh)
    vals = fem.eval_on_boundary(f, xs, ys)
    assert np.abs(vals - (xs ** 2 - ys + xs * ys)).max() <= 1e-13


def test_field_length_check():
    space = Space(build_structured_mesh(2), degree=1)
    with pytest.raises(ValueError):
        Field(space, np.zeros(space.ndofs + 1))
