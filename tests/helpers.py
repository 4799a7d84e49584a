"""Shared callables and small meshes used across the test modules."""

import ctypes

import numpy as np
from scipy import sparse as sps
from scipy.sparse.linalg import spsolve

from epsstokes import fem
from epsstokes.fem import Field
from epsstokes.mesh import Mesh, build_structured_mesh, load_mesh


def zero_scalar(x, y):
    return np.zeros(np.broadcast(x, y).shape)


def zero_vec(x, y):
    return np.zeros(np.broadcast(x, y).shape + (2,))


def unit_x(x, y):
    return np.stack([np.ones_like(x), np.zeros_like(y)], axis=-1)


def linear_x_minus_half(x, y):
    return x - 0.5


def ref_triangle_mesh() -> Mesh:
    """Single reference triangle (0,0), (1,0), (0,1)."""
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1, 1], [1, 2, 2], [2, 0, 4]]),
    )


def affine_jittered_mesh(n, seed, linear=((1.0, 0.0), (0.0, 1.0)),
                         offset=(0.0, 0.0)):
    """Structured mesh with jittered interior vertices, mapped by x -> A x + b."""
    m = build_structured_mesh(n)
    rng = np.random.default_rng(seed)
    vertices = m.vertices.copy()
    interior = ~np.isin(np.arange(m.num_vertices), m.boundary_edges[:, :2])
    vertices[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2)) / n
    vertices = vertices @ np.asarray(linear).T + np.asarray(offset)
    return Mesh(vertices, m.triangles, m.boundary_edges)


def structured_mesh_loop(n):
    """(vertices, triangles, boundary_edges) of build_structured_mesh(n), by
    the per-cell and per-edge loops its array construction replaced."""
    side = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(side, side)
    vertices = np.column_stack((xg.ravel(), yg.ravel()))

    def vid(i, j):
        return j * (n + 1) + i

    triangles = np.empty((2 * n * n, 3), dtype=np.int32)      # Mesh's index type
    k = 0
    for j in range(n):
        for i in range(n):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            triangles[k] = (v00, v10, v11)      # below the SW-NE diagonal
            triangles[k + 1] = (v00, v11, v01)  # above it
            k += 2

    edges = []
    for i in range(n):                           # bottom, left to right
        edges.append((vid(i, 0), vid(i + 1, 0), 1))
    for j in range(n):                           # right, upward
        edges.append((vid(n, j), vid(n, j + 1), 2))
    for i in range(n, 0, -1):                    # top, right to left
        edges.append((vid(i, n), vid(i - 1, n), 3))
    for j in range(n, 0, -1):                    # left, downward
        edges.append((vid(0, j), vid(0, j - 1), 4))
    return vertices, triangles, np.asarray(edges, dtype=np.int64)


def zero_field(space) -> Field:
    return Field(space, np.zeros(space.ndofs))


def dense_from(mat):
    """Dense array from a scipy sparse matrix (small testing systems only)."""
    return mat.toarray()


# Loop references for the vectorized edge table (mesh.edge_table): the
# per-triangle dict loops it replaced, kept for the tests to compare against.

def edge_numbering_loop(mesh):
    """Edges numbered in first-seen order over local edges (0,1), (1,2), (0,2).

    Returns (edge_index, tri_edges, counts): edge_index maps a sorted vertex
    pair to its id, tri_edges is (M, 3) and counts[id] is the number of
    triangles sharing the edge.
    """
    edge_index = {}
    counts = []
    tri_edges = np.empty((mesh.num_triangles, 3), dtype=np.int64)
    for t, (a, b, c) in enumerate(mesh.triangles):
        for k, (u, v) in enumerate(((a, b), (b, c), (a, c))):
            key = (min(u, v), max(u, v))
            idx = edge_index.get(key)
            if idx is None:
                idx = len(edge_index)
                edge_index[key] = idx
                counts.append(0)
            counts[idx] += 1
            tri_edges[t, k] = idx
    return edge_index, tri_edges, np.array(counts, dtype=np.int64)


def boundary_owner_loop(mesh) -> np.ndarray:
    """Index of the unique triangle owning each boundary edge."""
    owner = {}
    for t, (a, b, c) in enumerate(mesh.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            owner[(min(u, v), max(u, v))] = t
    return np.array([owner[(min(i, j), max(i, j))]
                     for i, j, _ in mesh.boundary_edges], dtype=np.int64)


def p2_boundary_nodes_loop(mesh, edge_index) -> np.ndarray:
    """Sorted P2 nodes on the boundary: vertices, then edge midpoints."""
    nv = mesh.num_vertices
    bnodes = set(np.unique(mesh.boundary_edges[:, :2]).tolist())
    for i, j, _ in mesh.boundary_edges:
        bnodes.add(nv + edge_index[(min(i, j), max(i, j))])
    return np.array(sorted(bnodes), dtype=np.int64)


# Per-quadrature-point einsum kernels: the assembly that fem replaced with
# reference tensors, kept for the tests to compare against.

def physical_gradients_einsum(space, quad):
    """(M, Q, nloc, 2) physical gradients of the scalar shape functions."""
    inv, _ = space.mesh.geometry
    dref = fem.shape_gradients(space.degree, quad.ref_points())
    return np.einsum("mkd,qik->mqid", inv, dref)


def quad_points_einsum(mesh, quad):
    # each cell's own Jacobian, its columns p1 - p0 and p2 - p0, from the
    # vertices: the mesh keeps only its inverse
    p = mesh.vertices[mesh.triangles]
    jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
    x0 = p[:, 0]
    pts = np.einsum("mdk,qk->mqd", jac, quad.ref_points()) + x0[:, None, :]
    return pts[..., 0], pts[..., 1]


# The ms1 closed forms as each component's own expression, stacked by
# np.stack: the oracle of verification's one-pass forms, which must equal
# them bit for bit.


def _bump_stack(t):
    return t * t * (1.0 - t) * (1.0 - t)


def _bump1_stack(t):
    return 2.0 * t - 6.0 * t * t + 4.0 * t ** 3


def _bump2_stack(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def _bump3_stack(t):
    return 24.0 * t - 12.0


def ms1_u_stack(x, y):
    return np.stack([_bump_stack(x) * _bump1_stack(y),
                     -_bump1_stack(x) * _bump_stack(y)], axis=-1)


def ms1_grad_u_stack(x, y):
    row1 = np.stack([_bump1_stack(x) * _bump1_stack(y),
                     _bump_stack(x) * _bump2_stack(y)], axis=-1)
    row2 = np.stack([-_bump2_stack(x) * _bump_stack(y),
                     -_bump1_stack(x) * _bump1_stack(y)], axis=-1)
    return np.stack([row1, row2], axis=-2)


def ms1_p_stack(x, y):
    return x ** 3 + y ** 3 - 0.5


def ms1_grad_p_stack(x, y):
    return np.stack([3.0 * x * x, 3.0 * y * y], axis=-1)


def ms1_force_stack(x, y):
    f1 = (-_bump2_stack(x) * _bump1_stack(y) - _bump_stack(x) * _bump3_stack(y)
          + 3.0 * x * x)
    f2 = (_bump3_stack(x) * _bump_stack(y) + _bump1_stack(x) * _bump2_stack(y)
          + 3.0 * y * y)
    return np.stack([f1, f2], axis=-1)


def ms1_p_bc_stack(delta):
    if delta == 0.0:
        return ms1_p_stack
    return lambda x, y: (ms1_p_stack(x, y)
                         + delta * (np.cos(np.pi * x) * np.cos(np.pi * y)))


def stiffness_einsum(space, quad):
    _, det = space.mesh.geometry
    grads = physical_gradients_einsum(space, quad)
    local = np.einsum("q,m,mqid,mqjd->mij", quad.weights, det, grads, grads)
    out = fem._scatter(space.cells, lambda cells: local[cells], (space.ndofs, space.ndofs))
    return (0.5 * (out + out.T)).tocsr()


def stiffness_matmul_symmetrized(space):
    """The stiffness by the earlier local kernel: the metric |J| J^-1 J^-T by
    a batched 2x2 matmul, its four entries against the full (2, 2, nloc,
    nloc) tensor, then each cell's block made symmetric as (x + x^T) / 2."""
    inv, det = space.mesh.geometry
    nloc = space.nloc
    ref = fem.stiffness_tensor(space.degree).reshape(4, nloc * nloc)

    def local(cells):
        geo = det[cells, None, None] * (inv[cells] @ inv[cells].transpose(0, 2, 1))
        out = (geo.reshape(-1, 4) @ ref).reshape(-1, nloc, nloc)
        out += out.transpose(0, 2, 1)
        out *= 0.5
        return out

    return fem._scatter(space.cells, local, (space.ndofs, space.ndofs))


def div_coupling_einsum(vspace, pspace, quad):
    _, det = vspace.mesh.geometry
    gu = physical_gradients_einsum(vspace, quad)
    pv = fem.shape_values(pspace.degree, quad.ref_points())
    local = np.einsum("q,m,qj,mqac->mjac", quad.weights, det, pv, gu)
    m, nlp, nlu, _ = local.shape
    local = local.reshape(m, nlp, 2 * nlu)
    return fem._scatter((pspace.cells, fem.vector_dofs(vspace.cells)),
                        lambda cells: local[cells], (pspace.ndofs, 2 * vspace.ndofs))


def grad_coupling_einsum(vspace, pspace, quad):
    _, det = vspace.mesh.geometry
    gp = physical_gradients_einsum(pspace, quad)
    uv = fem.shape_values(vspace.degree, quad.ref_points())
    local = np.einsum("q,m,mqjc,qa->majc", quad.weights, det, gp, uv)
    m, nlu, nlp, _ = local.shape
    local = local.transpose(0, 1, 3, 2).reshape(m, 2 * nlu, nlp)
    return fem._scatter((fem.vector_dofs(vspace.cells), pspace.cells),
                        lambda cells: local[cells], (2 * vspace.ndofs, pspace.ndofs))


def grad_coupling_direct(vspace, pspace):
    """G[udof, q] = integral of grad(psi_q) . phi_udof by quadrature of the
    reference tensor.  Off the velocity boundary rows it is -B^T, which the
    drivers apply in its place."""
    local = fem._value_gradient_local(vspace, pspace)(slice(None))
    m, _, nlu, nlp = local.shape
    local = local.transpose(0, 2, 1, 3).reshape(m, 2 * nlu, nlp)   # row 2a+c
    return fem._scatter((fem.vector_dofs(vspace.cells), pspace.cells),
                        lambda cells: local[cells], (2 * vspace.ndofs, pspace.ndofs))


def grad_load_einsum(pspace, F, quad):
    xs, ys = quad_points_einsum(pspace.mesh, quad)
    w = fem.quad_weights_physical(pspace.mesh, quad)
    grads = physical_gradients_einsum(pspace, quad)
    local = np.einsum("mq,mqc,mqic->mi", w, F(xs, ys), grads)
    out = np.zeros(pspace.ndofs)
    np.add.at(out, pspace.cells.ravel(), local.ravel())
    return out


def field_grad_load_einsum(vspace, p_field, quad):
    w = fem.quad_weights_physical(vspace.mesh, quad)
    gp = np.einsum("mi,mqid->mqd", p_field.coefficients[p_field.space.cells],
                   physical_gradients_einsum(p_field.space, quad))
    vals = fem.shape_values(vspace.degree, quad.ref_points())
    local = np.einsum("mq,mqc,qi->mic", w, gp, vals)
    out = np.zeros((vspace.ndofs, 2))
    np.add.at(out, vspace.cells.ravel(), local.reshape(-1, 2))
    return out


def loaded_parallelogram_mesh(tmp_path):
    """The n=3 unit-square mesh sheared by 0.4, written and read back."""
    square = build_structured_mesh(3)
    sheared = square.vertices @ np.array([[1.0, 0.0], [0.4, 1.0]])
    lines = ["mesh2d v1", f"vertices {square.num_vertices}"]
    lines += [f"{float(x)!r} {float(y)!r}" for x, y in sheared]
    lines += [f"triangles {square.num_triangles}"]
    lines += [f"{a} {b} {c}" for a, b, c in square.triangles]
    lines += [f"boundary {len(square.boundary_edges)}"]
    lines += [f"{i} {j} {m}" for i, j, m in square.boundary_edges]
    path = tmp_path / "shear.mesh"
    path.write_text("\n".join(lines) + "\n")
    return load_mesh(path)


def apply_dirichlet(a, b, bdofs, bvals):
    """Reference symmetric elimination of Dirichlet dofs from a full system.

    Moves the known columns to the right-hand side, zeroes the rows and
    columns, places 1 on the diagonal and the prescribed value in b, so the
    solved system reproduces the boundary values exactly.  Returns a new
    matrix, or a itself when there are no Dirichlet dofs.
    """
    bdofs = np.asarray(bdofs, dtype=np.int64)
    bvals = np.asarray(bvals, dtype=float)
    rhs = np.array(b, dtype=float, copy=True)
    if not bdofs.size:
        return a, rhs
    lift = np.zeros(a.shape[0])
    lift[bdofs] = bvals
    rhs -= a @ lift
    rhs[bdofs] = bvals
    return eliminate_by_products(a, bdofs), rhs


def eliminate_by_products(a, bdofs):
    """a with the rows and columns of bdofs zeroed and 1 on their diagonal,
    by the two diagonal products sel @ a @ sel that fem.eliminate's masking
    rule replaced: the reference for it."""
    return masked_by_products(a, bdofs, bdofs, unit=bdofs)


def masked_by_products(a, rows, cols, unit=()):
    """fem.masked by sparse products with 0/1 diagonals: a's entries in
    rows or cols zeroed, stored zeros dropped, and 1 added on the diagonal
    at unit."""
    keep_row, keep_col = np.ones(a.shape[0]), np.ones(a.shape[1])
    keep_row[rows] = 0.0
    keep_col[cols] = 0.0
    ones = np.zeros(min(a.shape))
    ones[np.asarray(unit, dtype=np.int64)] = 1.0
    mat = (sps.diags(keep_row) @ a @ sps.diags(keep_col)
           + sps.diags(ones, shape=a.shape)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def vector_block(scalar):
    """kron(scalar, I2): a scalar operator on each component of the
    interleaved vector dofs (fem.vector_dofs)."""
    return sps.kron(scalar, sps.identity(2), format="csr")


def div_coupling(disc):
    """B, the P2-P1 divergence coupling of disc's spaces, assembled afresh:
    a Discretization keeps only B masked at the velocity boundary and B's
    columns there."""
    return fem.assemble_div_coupling(disc.vspace, disc.pspace)


def vector_stiffness(disc):
    """kron(K, I2) on disc's interleaved velocity dofs, assembled afresh:
    a Discretization keeps only the scalar K."""
    return vector_block(fem.assemble_stiffness(disc.vspace))


def assemble_load(space, f):
    """Load vector with entries integral of f . phi_i by quadrature: the
    reference for fem.assemble_body_force_loads, which builds the P2 one.

    f maps coordinate arrays (x, y) to scalar values, giving (ndofs,), or to
    vectors with a trailing axis of length 2, giving one (x, y) row per node.
    f is called once per block of cells.
    """
    (load,) = fem._force_loads(f, [(space, fem._value_entries(space))])
    return load


def velocity_load(disc, body_force):
    """The velocity load vector in the interleaved layout of the systems."""
    return assemble_load(disc.vspace, body_force).ravel()


def velocity_boundary(disc, u_bc):
    """(dofs, values) of the velocity boundary data in the interleaved layout."""
    vals = fem.interpolate_boundary(disc.vspace, u_bc)
    return fem.vector_dofs(disc.vspace.boundary_nodes), vals.ravel()


def stokes_lagrange_reference(inp, disc):
    """Stokes (u, p) coefficients with the zero-mean gauge as a multiplier.

    Builds the saddle system bordered by the dense mean-value row and column,
    [[A, -D^T, 0], [-D, 0, m^T], [0, m, 0]], and solves it with spsolve: the
    reference for the pinned-dof gauge in drivers.solve_stokes.
    """
    nu, npp = disc.nu, disc.np_
    m, div = sps.csr_matrix(disc.mean_p[None, :]), div_coupling(disc)
    system = sps.bmat([[vector_stiffness(disc), -div.T, None],
                       [-div, None, m.T],
                       [None, m, None]], format="csr")
    rhs = np.zeros(nu + npp + 1)
    rhs[:nu] = velocity_load(disc, inp.body_force)
    x = _spsolve_dirichlet(system, rhs, *velocity_boundary(disc, inp.u_bc))
    return x[:nu].reshape(-1, 2), x[nu:nu + npp]


def reference_system(stage, inp, disc, p=None, grad=None):
    """(system, rhs, fixed dofs, values) of one system a driver solves.

    The whole system assembled with sps.bmat, before any elimination: with
    apply_dirichlet it is the reference for the eliminated systems that
    drivers.Discretization keeps.  stage is S, ES, PP-p (the pressure
    Poisson stage) or PP-u (the velocity stage, driven by the pressure
    coefficients p).  S is [[K, G], [D, 0]], ES's saddle form at eps = 0.
    grad is their G: by default grad_coupling_direct, independent of the
    -D^T that the drivers apply.  A test that compares eliminated entries
    bit for bit passes -div_coupling(disc).T, which differs from it by round-off off
    the velocity boundary rows.
    """
    nu = disc.nu
    if grad is None and stage in ("S", "ES"):
        grad = grad_coupling_direct(disc.vspace, disc.pspace)
    f = velocity_load(disc, inp.body_force)
    u_bdofs, u_bvals = velocity_boundary(disc, inp.u_bc)
    if stage == "S":
        system = sps.bmat([[vector_stiffness(disc), grad],
                           [div_coupling(disc), None]], format="csr")
        system.sum_duplicates()
        return (system, np.concatenate([f, np.zeros(disc.np_)]),
                np.append(u_bdofs, nu), np.append(u_bvals, 0.0))
    if stage == "PP-u":
        f = f - fem.assemble_field_grad_load(disc.vspace,
                                             Field(disc.pspace, p)).ravel()
        return vector_stiffness(disc), f, u_bdofs, u_bvals
    g = fem.assemble_body_force_loads(disc.vspace, disc.pspace, inp.body_force)[1]
    p_bdofs = disc.pspace.boundary_nodes
    p_bvals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    if stage == "PP-p":
        return fem.assemble_stiffness(disc.pspace), g, p_bdofs, p_bvals
    eps = inp.epsilon
    system = sps.bmat([[vector_stiffness(disc), grad],
                       [div_coupling(disc), eps * fem.assemble_stiffness(disc.pspace)]],
                      format="csr")
    system.sum_duplicates()
    return (system, np.concatenate([f, eps * g]),
            np.concatenate([u_bdofs, p_bdofs + nu]), np.concatenate([u_bvals, p_bvals]))


def monolithic_reference(problem, inp, disc):
    """(u, p) coefficients of a driver's assembled system, solved by spsolve.

    The reference for the preconditioned Schur CG path in drivers: the same
    systems, Dirichlet elimination and Stokes gauge (first pressure dof
    pinned, then shifted to zero mean), each factored whole.  u has one
    (x, y) row per node, like the drivers' velocity.
    """
    if problem == "PP":
        p = _spsolve_dirichlet(*reference_system("PP-p", inp, disc))
        u = _spsolve_dirichlet(*reference_system("PP-u", inp, disc, p))
        return u.reshape(-1, 2), p
    x = _spsolve_dirichlet(*reference_system(problem, inp, disc))
    u, p = x[:disc.nu].reshape(-1, 2), x[disc.nu:]
    if problem == "S":
        p = p - (disc.mean_p @ p) / disc.mean_p.sum()
    return u, p


def _spsolve_dirichlet(a, b, bdofs, bvals):
    mat, rhs = apply_dirichlet(a.tocsr(), b, bdofs, bvals)
    x = spsolve(mat.tocsc(), rhs)
    x[bdofs] = bvals
    return x


def export_vtk_loop(result, path):
    """The line-by-line VTK writer that harness.export_vtk replaced."""
    mesh = result.u.space.mesh
    nv = mesh.num_vertices
    nt = mesh.num_triangles

    ux, uy = result.u.coefficients[:nv].T
    pressure = result.p.coefficients[:nv]

    corner_rule = fem.QuadratureRule(
        points=np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
        weights=np.full(3, 1.0 / 6.0), degree=1)
    div_corner = fem.eval_div_at_quad(result.u, corner_rule)     # (M, 3)
    div_sum = np.zeros(nv)
    div_cnt = np.zeros(nv)
    np.add.at(div_sum, mesh.triangles.ravel(), div_corner.ravel())
    np.add.at(div_cnt, mesh.triangles.ravel(), 1.0)
    div_avg = div_sum / np.maximum(div_cnt, 1.0)

    lines = [
        "# vtk DataFile Version 3.0",
        f"epsstokes {result.problem} solution",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {nv} double",
    ]
    lines += [f"{x:.12e} {y:.12e} 0.0" for x, y in mesh.vertices]
    lines.append(f"CELLS {nt} {4 * nt}")
    lines += [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
    lines.append(f"CELL_TYPES {nt}")
    lines += ["5"] * nt
    lines.append(f"POINT_DATA {nv}")
    lines.append("VECTORS velocity double")
    lines += [f"{a:.12e} {b:.12e} 0.0" for a, b in zip(ux, uy)]
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [f"{v:.12e}" for v in pressure]
    lines.append("SCALARS div_velocity double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [f"{v:.12e}" for v in div_avg]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def numpy_blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None.

    A probe for the tests, looked up by ctypes apart from the solver's own.
    """
    core = np._core if hasattr(np, "_core") else np.core
    lib = ctypes.CDLL(core._multiarray_umath.__file__)
    for stem in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads"):
        if hasattr(lib, stem.format("set")):
            get, set_ = getattr(lib, stem.format("get")), getattr(lib, stem.format("set"))
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None
