import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse as sps

import helpers
from epsstokes import fem
from epsstokes.fem import (Field, Space, assemble_div_coupling,
                           assemble_field_grad_load, assemble_grad_coupling,
                           assemble_grad_load, assemble_load,
                           assemble_stiffness, interpolate_boundary,
                           triangle_rule_d5, vector_block, vector_dofs)
from epsstokes.mesh import Mesh, build_structured_mesh
from epsstokes.verification import gauss_formula_residual
from helpers import apply_dirichlet, loaded_parallelogram_mesh, ref_triangle_mesh

# local P1 stiffness on the reference triangle, by symbolic integration
P1_STIFFNESS = np.array([[1.0, -0.5, -0.5],
                         [-0.5, 0.5, 0.0],
                         [-0.5, 0.0, 0.5]])

# local P2 stiffness on the reference triangle, by symbolic integration; node
# order: vertices 0, 1, 2, then midpoints of edges 01, 12, 02
P2_STIFFNESS = np.array([
    [6, 1, 1, -4, 0, -4],
    [1, 3, 0, -4, 0, 0],
    [1, 0, 3, 0, 0, -4],
    [-4, -4, 0, 16, -8, 0],
    [0, 0, 0, -8, 16, -8],
    [-4, 0, -4, 0, -8, 16],
]) / 6.0
# (vertex, midpoint of the opposite edge): zero on every triangle, since
# grad(lambda_k (2 lambda_k - 1)) . grad(4 lambda_i lambda_j) integrates to 0
VERTEX_OPPOSITE_MIDPOINT = ((0, 4), (1, 5), (2, 3))

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


def test_p2_local_stiffness_matches_symbolic_oracle():
    a = assemble_stiffness(Space(ref_triangle_mesh(), degree=2)).toarray()
    assert np.abs(a - P2_STIFFNESS).max() <= 1e-14
    # on a sheared, scaled triangle the vertex/opposite-midpoint entries
    # still vanish to round-off
    ref = ref_triangle_mesh()
    mapped = Mesh(ref.vertices @ np.array([[2.0, 0.0], [0.7, 0.5]]),
                  ref.triangles, ref.boundary_edges)
    a = assemble_stiffness(Space(mapped, degree=2)).toarray()
    for i, j in VERTEX_OPPOSITE_MIDPOINT:
        assert P2_STIFFNESS[i, j] == 0.0
        assert abs(a[i, j]) <= 1e-15 * np.abs(a).max()


def test_stiffness_kernel_contains_constants():
    for degree in (1, 2):
        space = Space(build_structured_mesh(3), degree=degree)
        a = assemble_stiffness(space)
        assert np.abs(a @ np.ones(space.ndofs)).max() <= 1e-12
    # the vector block on (x, y) rows raveled: constants per component
    vspace = Space(build_structured_mesh(3), degree=2)
    a = vector_block(assemble_stiffness(vspace))
    for comp in (0, 1):
        ones = np.zeros((vspace.ndofs, 2))
        ones[:, comp] = 1.0
        assert np.abs(a @ ones.ravel()).max() <= 1e-12


def test_stiffness_symmetry_exact():
    for degree in (1, 2):
        a = assemble_stiffness(Space(build_structured_mesh(4), degree=degree))
        assert abs(a - a.T).max() == 0.0
        a = vector_block(a)
        assert abs(a - a.T).max() == 0.0


def test_stiffness_and_mass_symmetric_exactly_on_jittered_mesh():
    mesh = helpers.affine_jittered_mesh(8, 3)
    for degree in (1, 2):
        space = Space(mesh, degree=degree)
        for a in (assemble_stiffness(space), fem.assemble_mass(space)):
            assert abs(a - a.T).max() == 0.0


# Polynomials in (x, y) on the reference triangle as {(a, b): coefficient}
# of x^a y^b, integrated exactly in fractions.

def _poly_add(*polys):
    out = {}
    for p in polys:
        for k, c in p.items():
            out[k] = out.get(k, 0) + c
    return out


def _poly_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f
    return out


def _poly_diff(p, axis):
    out = {}
    for (a, b), c in p.items():
        power = (a, b)[axis]
        if power:
            out[(a - 1, b) if axis == 0 else (a, b - 1)] = c * power
    return out


def _poly_integral(p):
    return sum((Fraction(c * math.factorial(a) * math.factorial(b),
                         math.factorial(a + b + 2)) for (a, b), c in p.items()),
               Fraction(0))


def _symbolic_basis(degree):
    lam = [{(0, 0): 1, (1, 0): -1, (0, 1): -1}, {(1, 0): 1}, {(0, 1): 1}]
    if degree == 1:
        return lam
    vertices = [_poly_mul(l, _poly_add({k: 2 * c for k, c in l.items()}, {(0, 0): -1}))
                for l in lam]
    edges = [_poly_mul({(0, 0): 4}, _poly_mul(lam[i], lam[j]))
             for i, j in ((0, 1), (1, 2), (0, 2))]
    return vertices + edges


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_tensor_is_exact(degree):
    phi = _symbolic_basis(degree)
    want = [[[[float(_poly_integral(_poly_mul(_poly_diff(pi, a), _poly_diff(pj, b))))
               for pj in phi] for pi in phi] for b in (0, 1)] for a in (0, 1)]
    assert np.array_equal(fem.stiffness_tensor(degree), np.array(want))


@pytest.mark.parametrize("val_degree, grad_degree", [(1, 2), (2, 1)])
def test_value_gradient_tensor_is_exact(val_degree, grad_degree):
    phi, chi = _symbolic_basis(val_degree), _symbolic_basis(grad_degree)
    want = [[[float(_poly_integral(_poly_mul(pj, _poly_diff(ca, k)))) for ca in chi]
             for pj in phi] for k in (0, 1)]
    assert np.array_equal(fem.value_gradient_tensor(val_degree, grad_degree),
                          np.array(want))


def _storage_meshes():
    return [build_structured_mesh(8)] + [helpers.affine_jittered_mesh(8, seed)
                                         for seed in (0, 1)]


@pytest.mark.parametrize("mesh", _storage_meshes(),
                         ids=["structured", "jittered-0", "jittered-1"])
def test_assembly_stores_no_entry_at_or_below_the_drop_rule(mesh):
    # an entry at or below DROP of its row's or its column's largest is
    # round-off of an exact zero, and is not stored
    vspace, pspace = Space(mesh, degree=2), Space(mesh, degree=1)
    for a in (assemble_stiffness(pspace), assemble_stiffness(vspace),
              fem.assemble_mass(pspace), fem.assemble_mass(vspace),
              assemble_div_coupling(vspace, pspace)):
        coo = a.tocoo()
        row_max = abs(a).max(axis=1).toarray().ravel()
        col_max = abs(a).max(axis=0).toarray().ravel()
        limit = fem.DROP * np.maximum(row_max[coo.row], col_max[coo.col])
        assert np.all(np.abs(coo.data) > limit)


@pytest.mark.parametrize("mesh", _storage_meshes(),
                         ids=["structured", "jittered-0", "jittered-1"])
def test_p2_stiffness_stores_no_vertex_opposite_midpoint_pair(mesh):
    space = Space(mesh, degree=2)
    pattern = assemble_stiffness(space)
    pattern.data[:] = 1.0
    for i, j in VERTEX_OPPOSITE_MIDPOINT:
        assert pattern[space.cells[:, i], space.cells[:, j]].sum() == 0.0


def test_cell_order_is_rcm_of_the_cell_graph():
    # every two nodes of a cell are joined, whatever their entry in a matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee
    for degree in (1, 2):
        space = Space(helpers.affine_jittered_mesh(4, 2), degree=degree)
        graph = np.zeros((space.ndofs, space.ndofs))
        for cell in space.cells:
            graph[np.ix_(cell, cell)] = 1.0
        want = reverse_cuthill_mckee(sps.csr_matrix(graph), symmetric_mode=True)
        assert np.array_equal(fem.cell_order(space), want)


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
    vspace = Space(mesh, degree=2)
    pspace = Space(mesh, degree=1)
    b = assemble_div_coupling(vspace, pspace)
    const = np.zeros((vspace.ndofs, 2))
    const[:, 0] = 1.0
    assert np.abs(b @ const.ravel()).max() <= 1e-13


def test_div_coupling_partition_of_unity():
    mesh = build_structured_mesh(3)
    vspace = Space(mesh, degree=2)
    pspace = Space(mesh, degree=1)
    b = assemble_div_coupling(vspace, pspace)
    # u = (x, 0): entries sum to the integral of div u = 1
    coeffs = np.zeros((vspace.ndofs, 2))
    coeffs[:, 0] = vspace.node_coords[:, 0]
    assert abs((b @ coeffs.ravel()).sum() - 1.0) <= 1e-12


def test_div_coupling_local_block_matches_symbolic_oracle():
    mesh = ref_triangle_mesh()
    b = assemble_div_coupling(Space(mesh, degree=2),
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


def test_interpolate_boundary_scalar():
    mesh = build_structured_mesh(2)
    space = Space(mesh, degree=1)
    nodes, vals = interpolate_boundary(space, lambda x, y: np.zeros_like(x))
    assert np.abs(vals).max() == 0.0
    assert np.array_equal(nodes, space.boundary_nodes)
    nodes, vals = interpolate_boundary(space, lambda x, y: x)
    corner = np.where((space.node_coords == [1.0, 1.0]).all(axis=1))[0][0]
    assert vals[np.where(nodes == corner)[0][0]] == 1.0


def test_interpolate_boundary_vector():
    mesh = build_structured_mesh(2)
    vspace = Space(mesh, degree=2)
    nodes, vals = interpolate_boundary(vspace, lambda x, y: np.stack([x, -y], axis=-1))
    assert np.array_equal(nodes, vspace.boundary_nodes)
    coords = vspace.node_coords[nodes]
    assert vals.shape == (len(nodes), 2)
    assert np.abs(vals - coords * [1.0, -1.0]).max() == 0.0


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
    vspace = Space(mesh, degree=2)
    pspace = Space(mesh, degree=1)
    g_t = assemble_grad_coupling(vspace, pspace).toarray()
    g_d = helpers.grad_coupling_direct(vspace, pspace).toarray()
    interior = np.setdiff1d(np.arange(2 * vspace.ndofs),
                            vector_dofs(vspace.boundary_nodes))
    assert np.abs(g_t[interior] - g_d[interior]).max() <= 1e-12
    # the boundary correction makes the two forms agree everywhere
    assert np.abs(g_t - g_d).max() <= 1e-12


def test_grad_coupling_transpose_identity_against_div():
    # p^T G^T u = -p^T B u for interior-supported u and p
    mesh = build_structured_mesh(4)
    vspace = Space(mesh, degree=2)
    pspace = Space(mesh, degree=1)
    g = assemble_grad_coupling(vspace, pspace).toarray()
    b = assemble_div_coupling(vspace, pspace).toarray()
    rng = np.random.default_rng(7)
    u = rng.standard_normal((vspace.ndofs, 2))
    p = rng.standard_normal(pspace.ndofs)
    u[vspace.boundary_nodes] = 0.0
    p[pspace.boundary_nodes] = 0.0
    u = u.ravel()
    assert abs(u @ (g @ p) + p @ (b @ u)) <= 1e-12


def test_discrete_gauss_formula_random_fields():
    mesh = build_structured_mesh(8)
    vspace = Space(mesh, degree=2)
    rng = np.random.default_rng(3)
    for degree in (1, 2):
        wspace = Space(mesh, degree=degree)
        for _ in range(5):
            u = Field(vspace, rng.standard_normal((vspace.ndofs, 2)))
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
        interior = np.setdiff1d(np.arange(space.ndofs), space.boundary_nodes)
        assert np.abs(lhs[interior] - rhs[interior]).max() <= 1e-10


def test_space_dof_counts_and_boundary_dofs():
    mesh = build_structured_mesh(3)
    p1 = Space(mesh, degree=1)
    assert p1.ndofs == 16
    p2 = Space(mesh, degree=2)
    n_edges = 3 * 3 * 3 + 2 * 3   # 3n^2 + 2n interior grid edges plus diagonals
    assert p2.ndofs == 16 + n_edges
    # a vector field's (x, y) rows number 2 * ndofs dofs without gaps
    assert np.array_equal(vector_dofs(np.arange(p2.ndofs)), np.arange(2 * p2.ndofs))
    # boundary nodes lie on the boundary
    for space in (p1, p2):
        coords = space.node_coords[space.boundary_nodes]
        on_edge = ((coords == 0.0) | (coords == 1.0)).any(axis=1)
        assert on_edge.all()
    assert len(p2.boundary_nodes) == 4 * 3 * 2   # vertices + midpoints


def test_vector_dofs_interleave_components():
    assert np.array_equal(vector_dofs([3, 5]), [6, 7, 10, 11])
    # (M, a) cell nodes give (M, 2a): column 2i+c is component c of node i
    assert np.array_equal(vector_dofs(np.array([[0, 2], [4, 1]])),
                          [[0, 1, 4, 5], [8, 9, 2, 3]])
    # raveling (x, y) rows by row puts coefficient [k, c] at dof 2k+c
    rows = np.arange(12.0).reshape(6, 2)
    nodes = np.array([4, 1, 5])
    assert np.array_equal(rows.ravel()[vector_dofs(nodes)], rows[nodes].ravel())


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
    assert Field(space, np.zeros((space.ndofs, 2))).coefficients.shape == (9, 2)
    for shape in ((space.ndofs, 3), (2 * space.ndofs,), (space.ndofs, 2, 1)):
        with pytest.raises(ValueError):
            Field(space, np.zeros(shape))


def test_vector_field_kernels_match_components():
    # a vector field evaluates, differentiates, loads and restricts to the
    # boundary as its two scalar components do, bit for bit
    mesh = helpers.affine_jittered_mesh(3, 11)
    quad = triangle_rule_d5()
    vspace = Space(mesh, degree=2)
    rng = np.random.default_rng(5)
    u = Field(vspace, rng.standard_normal((vspace.ndofs, 2)))
    parts = [Field(vspace, u.coefficients[:, c].copy()) for c in (0, 1)]
    values = fem.eval_at_quad(u, quad)
    grads = fem.eval_grad_at_quad(u, quad)
    xs, ys, _, _ = fem.boundary_quadrature(mesh)
    trace = fem.eval_on_boundary(u, xs, ys)
    for c, part in enumerate(parts):
        assert np.array_equal(values[..., c], fem.eval_at_quad(part, quad))
        assert np.array_equal(grads[..., c, :], fem.eval_grad_at_quad(part, quad))
        assert np.abs(trace[..., c] - fem.eval_on_boundary(part, xs, ys)).max() <= 1e-15

    def force(x, y):
        return np.stack([np.sin(3 * x) + y, x * y - np.cos(y)], axis=-1)

    load = assemble_load(vspace, force)
    assert load.shape == (vspace.ndofs, 2)
    for c in (0, 1):
        scalar = assemble_load(vspace, lambda x, y, c=c: force(x, y)[..., c])
        assert np.array_equal(load[:, c], scalar)
    with pytest.raises(ValueError, match="shape"):
        assemble_load(vspace, lambda x, y: np.zeros(np.shape(x) + (3,)))


def test_loads_match_row_scatter_bit_for_bit(monkeypatch):
    # every load scatters its per-cell entries one component at a time; the
    # sums are those of np.add.at on the (n,) or (n, 2) array, bit for bit
    mesh = helpers.affine_jittered_mesh(6, 3)
    vspace, pspace = Space(mesh, degree=2), Space(mesh, degree=1)
    rng = np.random.default_rng(11)
    p = Field(pspace, rng.standard_normal(pspace.ndofs))

    def force(x, y):
        return np.stack([np.sin(3 * x) + y, x * y - np.cos(y)], axis=-1)

    def loads():
        return [assemble_load(vspace, force), assemble_grad_load(pspace, force),
                assemble_field_grad_load(vspace, p),
                assemble_load(pspace, lambda x, y: force(x, y)[..., 0])]

    def row_scatter(space, local):
        out = np.zeros((space.ndofs,) + local.shape[2:])
        np.add.at(out, space.cells.ravel(), local.reshape((-1,) + local.shape[2:]))
        return out

    got = loads()
    monkeypatch.setattr(fem, "_add_cells", row_scatter)
    for new, ref in zip(got, loads()):
        assert new.shape == ref.shape and np.array_equal(new, ref)
    assert [a.ndim for a in got] == [2, 1, 2, 1]


def _assert_matches(new, oracle):
    """Entries agree to 1e-14 of the oracle's largest; a stored entry
    missing from the other pattern counts with its full value."""
    diff = abs(new - oracle).max()
    assert diff <= 1e-14 * abs(oracle).max(), diff


def _assert_kernels_match_einsum_oracle(mesh, seed=0):
    quad = triangle_rule_d5()
    vspace, pspace = Space(mesh, 2), Space(mesh, 1)
    for space in (pspace, vspace):
        _assert_matches(assemble_stiffness(space),
                        helpers.stiffness_einsum(space, quad))
    _assert_matches(assemble_div_coupling(vspace, pspace),
                    helpers.div_coupling_einsum(vspace, pspace, quad))
    _assert_matches(assemble_grad_coupling(vspace, pspace),
                    helpers.grad_coupling_einsum(vspace, pspace, "transpose", quad))
    _assert_matches(helpers.grad_coupling_direct(vspace, pspace),
                    helpers.grad_coupling_einsum(vspace, pspace, "direct", quad))

    def force(x, y):
        return np.stack([np.sin(3 * x) + y, x * y - np.cos(y)], axis=-1)

    _assert_matches(assemble_grad_load(pspace, force),
                    helpers.grad_load_einsum(pspace, force, quad))
    p = Field(pspace, np.random.default_rng(seed).standard_normal(pspace.ndofs))
    _assert_matches(assemble_field_grad_load(vspace, p),
                    helpers.field_grad_load_einsum(vspace, p, quad))
    for new, oracle in zip(fem.quad_points_physical(mesh, quad),
                           helpers.quad_points_einsum(mesh, quad)):
        _assert_matches(new, oracle)


_SCALE = st.floats(0.05, 20.0)
_LINEAR_MAPS = st.one_of(
    st.floats(-2.0, 2.0).map(lambda s: [[1.0, s], [0.0, 1.0]]),       # shear
    st.tuples(_SCALE, _SCALE).map(lambda s: [[s[0], 0.0], [0.0, s[1]]]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       linear=_LINEAR_MAPS, offset=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
def test_reference_tensor_kernels_match_einsum_oracle(n, seed, linear, offset):
    mesh = helpers.affine_jittered_mesh(n, seed, linear, offset)
    _assert_kernels_match_einsum_oracle(mesh, seed)


def test_reference_tensor_kernels_match_einsum_oracle_on_loaded_mesh(tmp_path):
    _assert_kernels_match_einsum_oracle(loaded_parallelogram_mesh(tmp_path))


@pytest.mark.parametrize("mesh", [build_structured_mesh(8),
                                  helpers.affine_jittered_mesh(8, 5)],
                         ids=["structured", "jittered"])
def test_prolongation_is_an_exact_galerkin_coarse_space(mesh):
    p2, p1 = Space(mesh, degree=2), Space(mesh, degree=1)
    prol = fem.prolongation(p2, p1)
    # P1 is a subspace of P2: linear functions keep their values
    (x, y), (xv, yv) = p2.node_coords.T, p1.node_coords.T
    assert np.allclose(prol @ (2 * xv - 3 * yv + 1), 2 * x - 3 * y + 1,
                       rtol=0.0, atol=1e-14)
    # with the fixed vertices' columns zeroed, P^T A P is the eliminated Kp
    # on the free vertices
    free = np.setdiff1d(np.arange(p1.ndofs), p1.boundary_nodes)
    a = fem.eliminate(fem.assemble_stiffness(p2), p2.boundary_nodes)
    kp = fem.eliminate(fem.assemble_stiffness(p1), p1.boundary_nodes)
    coarse = (prol[:, free].T @ a @ prol[:, free]).toarray()
    want = kp[free][:, free].toarray()
    assert np.linalg.norm(coarse - want) <= 1e-14 * np.linalg.norm(want)


def test_prolongation_rejects_other_spaces():
    mesh = build_structured_mesh(2)
    with pytest.raises(ValueError, match="P1 into P2"):
        fem.prolongation(Space(mesh, degree=1), Space(mesh, degree=2))
    with pytest.raises(ValueError, match="P1 into P2"):
        fem.prolongation(Space(mesh, degree=2),
                         Space(build_structured_mesh(2), degree=1))
