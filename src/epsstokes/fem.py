"""Continuous P1/P2 finite elements on triangles: spaces, quadrature, assembly.

Provides the bilinear and linear forms used by the three flow problems:
stiffness, velocity-pressure divergence and gradient coupling, body-force and
gradient-type load vectors, nodal boundary interpolation and symmetric
elimination of fixed dofs.  All volume integration uses a degree-5 triangle
rule; boundary integration uses 3-point Gauss per edge (degree 5).

Spaces are scalar.  A vector field, such as a velocity, has one (x, y)
coefficient row per node; raveled, the rows are the interleaved dofs of the
assembled systems, which vector_dofs alone forms.  The field kernels
eval_at_quad and eval_grad_at_quad, which every error norm goes through, run
numpy's BLAS on one thread, like the solves (sparse.one_blas_thread).

Matrices are assembled from reference tensors (Kirby, Knepley, Logg & Scott,
"Optimizing the evaluation of finite element matrices", SISC 2005).  On an
affine triangle every local matrix is a small per-cell geometric factor,
built from the Jacobian, contracted with a tensor that is integrated once on
the reference triangle; each form is then one (M, 4) or (M, 2, 2) matmul
over the mesh instead of a sum over quadrature points per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sps

from .mesh import Mesh
from .sparse import one_blas_thread

_SQRT15 = np.sqrt(15.0)


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference triangle (0,0),(1,0),(0,1).

    points  : (Q, 3) barycentric coordinates
    weights : (Q,) weights summing to the reference area 1/2
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int

    def ref_points(self) -> np.ndarray:
        """Points as (Q, 2) reference coordinates (xi, eta)."""
        return self.points[:, 1:3].copy()


def triangle_rule_d5() -> QuadratureRule:
    """Symmetric 7-point rule, exact for bivariate polynomials up to degree 5."""
    a = (6.0 - _SQRT15) / 21.0
    b = (6.0 + _SQRT15) / 21.0
    wa = (155.0 - _SQRT15) / 1200.0
    wb = (155.0 + _SQRT15) / 1200.0
    third = 1.0 / 3.0
    pts = np.array([
        (third, third, third),
        (1 - 2 * a, a, a), (a, 1 - 2 * a, a), (a, a, 1 - 2 * a),
        (1 - 2 * b, b, b), (b, 1 - 2 * b, b), (b, b, 1 - 2 * b),
    ])
    w = np.array([9.0 / 40.0, wa, wa, wa, wb, wb, wb]) * 0.5
    return QuadratureRule(pts, w, degree=5)


# 3-point Gauss-Legendre on [0, 1]: exact through degree 5, matching the
# volume rule.
_EDGE_T = np.array([0.5 - np.sqrt(15.0) / 10.0, 0.5, 0.5 + np.sqrt(15.0) / 10.0])
_EDGE_W = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def shape_values(degree: int, ref_pts: np.ndarray) -> np.ndarray:
    """Nodal shape functions at reference points; returns (Q, nloc)."""
    xi, eta = ref_pts[..., 0], ref_pts[..., 1]
    l0 = 1.0 - xi - eta
    if degree == 1:
        return np.stack([l0, xi, eta], axis=-1)
    if degree == 2:
        return np.stack([
            l0 * (2 * l0 - 1), xi * (2 * xi - 1), eta * (2 * eta - 1),
            4 * l0 * xi, 4 * xi * eta, 4 * l0 * eta,
        ], axis=-1)
    raise ValueError(f"unsupported degree {degree}")


def shape_gradients(degree: int, ref_pts: np.ndarray) -> np.ndarray:
    """Reference gradients of the shape functions; returns (Q, nloc, 2)."""
    xi, eta = ref_pts[..., 0], ref_pts[..., 1]
    l0 = 1.0 - xi - eta
    zero = np.zeros_like(xi)
    if degree == 1:
        one = np.ones_like(xi)
        g = [(-one, -one), (one, zero), (zero, one)]
    elif degree == 2:
        g = [
            (1 - 4 * l0, 1 - 4 * l0),
            (4 * xi - 1, zero),
            (zero, 4 * eta - 1),
            (4 * (l0 - xi), -4 * xi),
            (4 * eta, 4 * xi),
            (-4 * eta, 4 * (l0 - eta)),
        ]
    else:
        raise ValueError(f"unsupported degree {degree}")
    return np.stack([np.stack(pair, axis=-1) for pair in g], axis=-2)


class Space:
    """Continuous piecewise-polynomial scalar space on a mesh.

    degree 1 puts one node per vertex; degree 2 adds one per edge; ndofs
    counts the nodes.  boundary_nodes are exactly the nodes that lie on a
    boundary edge.  Row k of boundary_edge_nodes holds the nodes on boundary
    edge k: its endpoints, then for degree 2 its midpoint node.
    """

    def __init__(self, mesh: Mesh, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"unsupported degree {degree}")
        self.mesh = mesh
        self.degree = degree

        nv = mesh.num_vertices
        ends = mesh.boundary_edges[:, :2]
        if degree == 1:
            self.cells = mesh.triangles
            self.node_coords = mesh.vertices
            self.boundary_edge_nodes = ends
        else:
            edges = mesh.edges
            self.cells = np.hstack([mesh.triangles, edges.tri_edges + nv])
            a, b = edges.vertices.T
            self.node_coords = np.concatenate(
                [mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
            self.boundary_edge_nodes = np.column_stack(
                [ends, nv + mesh.boundary_edge_ids])
        self.ndofs = len(self.node_coords)
        self.boundary_nodes = np.unique(self.boundary_edge_nodes)
        # immutable after construction; safe to share across threads
        for arr in (self.cells, self.node_coords, self.boundary_edge_nodes,
                    self.boundary_nodes):
            arr.setflags(write=False)

    @property
    def nloc(self) -> int:
        return 3 if self.degree == 1 else 6


def prolongation(vspace: Space, pspace: Space) -> sps.csr_matrix:
    """The (vspace.ndofs, pspace.ndofs) matrix taking the node values of a
    P1 function to its node values in the P2 space on the same mesh: each
    vertex keeps its value and each edge midpoint takes the mean of its
    endpoints'.  Exact, as P1 is a subspace of P2."""
    if vspace.mesh is not pspace.mesh or (vspace.degree, pspace.degree) != (2, 1):
        raise ValueError("prolongation maps P1 into P2 on the same mesh")
    nv = pspace.ndofs
    mids = nv + np.arange(vspace.ndofs - nv)
    rows = np.concatenate([np.arange(nv), mids, mids])
    cols = np.concatenate([np.arange(nv), *vspace.mesh.edges.vertices.T])
    vals = np.concatenate([np.ones(nv), np.full(2 * len(mids), 0.5)])
    return sps.csr_matrix((vals, (rows, cols)), shape=(vspace.ndofs, nv))


def vector_dofs(nodes) -> np.ndarray:
    """Interleaved dofs of vector coefficients at nodes: node k carries 2k (x)
    and 2k+1 (y).  An (..., a) array of nodes gives (..., 2a), column 2i+c
    for component c of node i."""
    nodes = np.asarray(nodes)
    return (2 * nodes[..., None] + np.arange(2)).reshape(*nodes.shape[:-1], -1)


@dataclass
class Field:
    """Finite-element function on a scalar space: one coefficient per node,
    or, for a vector field, one (x, y) row per node."""

    space: Space
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        n = self.space.ndofs
        if self.coefficients.shape not in ((n,), (n, 2)):
            raise ValueError(f"expected shape ({n},) or ({n}, 2) coefficients, "
                             f"got {self.coefficients.shape}")


# ---------------------------------------------------------------------------
# quadrature-point geometry and field evaluation


def quad_points_physical(mesh: Mesh, quad: QuadratureRule):
    """Physical coordinates of the rule's points on every triangle: (M, Q) x/y."""
    jac, _, _ = mesh.geometry
    x0 = mesh.vertices[mesh.triangles[:, 0]]
    pts = quad.ref_points() @ jac.transpose(0, 2, 1) + x0[:, None, :]
    return pts[..., 0], pts[..., 1]


def quad_weights_physical(mesh: Mesh, quad: QuadratureRule) -> np.ndarray:
    """Quadrature weights scaled by the Jacobian determinant: (M, Q)."""
    _, _, det = mesh.geometry
    return quad.weights[None, :] * det[:, None]


@one_blas_thread()
def eval_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Field values at quadrature points: (M, Q) scalar or (M, Q, 2) vector."""
    sp = field.space
    vals = shape_values(sp.degree, quad.ref_points())          # (Q, nloc)
    local = field.coefficients[sp.cells]             # (M, nloc) or (M, nloc, 2)
    return local @ vals.T if local.ndim == 2 else vals @ local


@one_blas_thread()
def eval_grad_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Gradients at quadrature points.

    Scalar fields give (M, Q, 2); vector fields give (M, Q, 2, 2) with entry
    [..., i, d] = d(u_i)/d(x_d).  The cell coefficients meet the reference
    shape gradients first, then each cell's inverse Jacobian maps the result.
    """
    sp = field.space
    _, inv, _ = sp.mesh.geometry
    dref = shape_gradients(sp.degree, quad.ref_points())       # (Q, nloc, 2)
    m, q = sp.cells.shape[0], dref.shape[0]
    table = dref.transpose(1, 0, 2).reshape(sp.nloc, 2 * q)
    local = field.coefficients[sp.cells]             # (M, nloc) or (M, nloc, 2)
    if local.ndim == 2:
        return (local @ table).reshape(m, q, 2) @ inv
    ref = (local.transpose(0, 2, 1) @ table).reshape(m, 2 * q, 2)
    return (ref @ inv).reshape(m, 2, q, 2).transpose(0, 2, 1, 3)


def eval_div_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Divergence of a vector field at quadrature points: (M, Q)."""
    g = eval_grad_at_quad(field, quad)
    return g[..., 0, 0] + g[..., 1, 1]


# ---------------------------------------------------------------------------
# global assembly


def _scatter(dofs: np.ndarray, local: np.ndarray, shape) -> sps.csr_matrix:
    """Accumulate (M, a, b) local blocks into a global CSR matrix; dofs is
    one (M, a) index array for both sides, or a (rows, cols) pair."""
    rows_dofs, cols_dofs = dofs if isinstance(dofs, tuple) else (dofs, dofs)
    m, a = rows_dofs.shape
    b = cols_dofs.shape[1]
    rows = np.repeat(rows_dofs, b, axis=1).ravel()
    cols = np.tile(cols_dofs, (1, a)).ravel()
    mat = sps.coo_matrix((local.reshape(m * a * b), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def assemble_stiffness(space: Space) -> sps.csr_matrix:
    """Gradient-gradient form: entries integral of grad(phi_i) . grad(phi_j).

    Symmetric positive semidefinite; constants span the kernel before
    boundary conditions are applied.
    """
    quad = triangle_rule_d5()
    _, inv, det = space.mesh.geometry
    dref = shape_gradients(space.degree, quad.ref_points())      # (Q, nloc, 2)
    # ref[a, b, i, j] = sum_q w_q d_a(phi_i) d_b(phi_j)
    ref = np.einsum("q,qia,qjb->abij", quad.weights, dref, dref)
    geo = det[:, None, None] * (inv @ inv.transpose(0, 2, 1))    # |J| J^-1 J^-T
    nloc = space.nloc
    local = (geo.reshape(-1, 4) @ ref.reshape(4, nloc * nloc)).reshape(-1, nloc, nloc)
    out = _scatter(space.cells, local, (space.ndofs, space.ndofs))
    # exact symmetry independent of accumulation order
    return (0.5 * (out + out.T)).tocsr()


def vector_block(scalar: sps.csr_matrix) -> sps.csr_matrix:
    """A scalar operator applied to each component of vector dofs laid out
    as vector_dofs numbers them: kron(scalar, I2)."""
    return sps.kron(scalar, sps.identity(2), format="csr")


def assemble_mass(space: Space) -> sps.csr_matrix:
    """Mass matrix: entries integral of phi_i * phi_j.

    Symmetric positive definite.
    """
    quad = triangle_rule_d5()
    _, _, det = space.mesh.geometry
    vals = shape_values(space.degree, quad.ref_points())
    local = det[:, None, None] * ((quad.weights * vals.T) @ vals)
    out = _scatter(space.cells, local, (space.ndofs, space.ndofs))
    return (0.5 * (out + out.T)).tocsr()


def assemble_mass_against_one(space: Space) -> np.ndarray:
    """Vector of integrals of each basis function."""
    quad = triangle_rule_d5()
    _, _, det = space.mesh.geometry
    vals = shape_values(space.degree, quad.ref_points())
    return _add_cells(space, np.outer(det, quad.weights @ vals))


def _value_gradient_local(val_space: Space, grad_space: Space) -> np.ndarray:
    """(M, 2, nv, ng) integrals of phi_j * d(chi_a)/dx_c over each triangle,
    indexed [m, c, j, a], for the values phi of val_space and the
    gradients chi of grad_space."""
    quad = triangle_rule_d5()
    _, inv, det = val_space.mesh.geometry
    pts = quad.ref_points()
    vals = shape_values(val_space.degree, pts)                  # (Q, nv)
    dref = shape_gradients(grad_space.degree, pts)             # (Q, ng, 2)
    # ref[k, j, a] = sum_q w_q phi_j d_k(chi_a)
    ref = np.einsum("q,qj,qak->kja", quad.weights, vals, dref)
    geo = det[:, None, None] * inv.transpose(0, 2, 1)           # |J| J^-T
    nv, ng = vals.shape[1], dref.shape[1]
    return (geo @ ref.reshape(2, nv * ng)).reshape(-1, 2, nv, ng)


def assemble_div_coupling(vspace: Space, pspace: Space) -> sps.csr_matrix:
    """Matrix B with B[q, udof] = integral of div(phi_udof) * psi_q, for the
    vector dofs of vspace (vector_dofs)."""
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    local = _value_gradient_local(pspace, vspace)
    m, _, nlp, nlu = local.shape
    local = local.transpose(0, 2, 3, 1).reshape(m, nlp, 2 * nlu)   # col 2a+c
    return _scatter((pspace.cells, vector_dofs(vspace.cells)), local,
                    (pspace.ndofs, 2 * vspace.ndofs))


def assemble_grad_coupling(vspace: Space, pspace: Space,
                           div: sps.csr_matrix | None = None) -> sps.csr_matrix:
    """Matrix G with G[udof, q] = integral of grad(psi_q) . phi_udof.

    Built as -B^T from the divergence coupling plus the boundary term of the
    integration-by-parts identity, so the discrete identity
    p^T G^T u = -p^T B u holds exactly on interior dofs.  div, if given, is
    that B already assembled on these spaces.
    """
    b = assemble_div_coupling(vspace, pspace) if div is None else div
    out = (_boundary_pressure_flux(vspace, pspace) - b.T).tocsr()
    out.eliminate_zeros()
    return out


def _boundary_pressure_flux(vspace: Space, pspace: Space) -> sps.csr_matrix:
    """Boundary matrix C[udof, q] = integral over Gamma of psi_q (phi_udof . nu)."""
    mesh = vspace.mesh
    # 1D traces along each edge, parametrised by t in [0,1] from i to j.
    t = _EDGE_T
    traces = {1: np.stack([1 - t, t], axis=1),
              2: np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1)}
    edge_block = np.einsum("q,qa,qb->ab", _EDGE_W, traces[vspace.degree],
                           traces[pspace.degree])
    block = mesh.boundary_edge_lengths()[:, None, None] * edge_block   # (B, a, b)
    # Triplets in the order (edge, velocity node a, component c, pressure node b).
    vals = mesh.edge_normals[:, None, :, None] * block[:, :, None, :]
    rows = vector_dofs(vspace.boundary_edge_nodes[:, :, None])[..., None]
    cols = pspace.boundary_edge_nodes[:, None, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    mat = sps.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(2 * vspace.ndofs, pspace.ndofs)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def assemble_load(space: Space, f) -> np.ndarray:
    """Load vector with entries integral of f . phi_i by quadrature.

    f maps coordinate arrays (x, y) to scalar values, giving (ndofs,), or to
    vectors with a trailing axis of length 2, giving one (x, y) row per node.
    """
    quad = triangle_rule_d5()
    xs, ys = quad_points_physical(space.mesh, quad)
    w = quad_weights_physical(space.mesh, quad)
    vals = shape_values(space.degree, quad.ref_points())
    fv = np.asarray(f(xs, ys), dtype=float)
    if fv.ndim == xs.ndim:
        return _add_cells(space, (w * fv) @ vals)
    if fv.shape != xs.shape + (2,):
        raise ValueError("vector load callable must return shape (..., 2)")
    return _add_cells(space, vals.T @ (w[..., None] * fv))     # (M, nloc, 2)


def _add_cells(space: Space, local: np.ndarray) -> np.ndarray:
    """Sum (M, nloc) or (M, nloc, 2) per-cell entries into one per node.

    Each component is scattered on its own, as 1-D np.add.at runs several
    times faster than on (n, 2) rows; each sum adds in the same order, so
    the result is the same bit for bit.
    """
    nodes = space.cells.ravel()
    flat = local.reshape(len(nodes), -1)         # one column per component
    out = np.zeros((space.ndofs, flat.shape[1]))
    for c in range(flat.shape[1]):
        np.add.at(out[:, c], nodes, flat[:, c])
    return out.reshape((space.ndofs,) + local.shape[2:])


def assemble_grad_load(pspace: Space, F) -> np.ndarray:
    """Load vector with entries integral of F . grad(psi_q).

    The weighted F values meet each cell's inverse Jacobian first, then the
    reference shape gradients: the adjoint of eval_grad_at_quad.
    """
    quad = triangle_rule_d5()
    xs, ys = quad_points_physical(pspace.mesh, quad)
    w = quad_weights_physical(pspace.mesh, quad)
    fv = np.asarray(F(xs, ys), dtype=float)
    if fv.shape != xs.shape + (2,):
        raise ValueError("gradient load expects a vector-valued callable")
    _, inv, _ = pspace.mesh.geometry
    ref = (w[..., None] * fv) @ inv.transpose(0, 2, 1)          # (M, Q, 2)
    dref = shape_gradients(pspace.degree, quad.ref_points())   # (Q, nloc, 2)
    table = dref.transpose(0, 2, 1).reshape(-1, pspace.nloc)    # row 2q+k
    return _add_cells(pspace, ref.reshape(len(ref), -1) @ table)


def assemble_field_grad_load(vspace: Space, p_field: Field) -> np.ndarray:
    """Entries integral of grad(p_h) . phi_i, one (x, y) row per node of
    vspace, with grad(p_h) taken directly from the coefficients at
    quadrature points (no re-projection)."""
    quad = triangle_rule_d5()
    w = quad_weights_physical(vspace.mesh, quad)
    gp = eval_grad_at_quad(p_field, quad)                      # (M,Q,2)
    vals = shape_values(vspace.degree, quad.ref_points())
    return _add_cells(vspace, vals.T @ (w[..., None] * gp))    # (M, nloc, 2)


def interpolate_boundary(space: Space, g):
    """Nodal interpolation of boundary data.

    Returns (nodes, values): the boundary nodes and the interpolated values.
    Scalar g maps (x, y) arrays to values, one per node; vector g returns
    (..., 2), one (x, y) row per node.
    """
    nodes = space.boundary_nodes
    coords = space.node_coords[nodes]
    gv = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    shape = (len(nodes), 2) if gv.ndim == 2 else (len(nodes),)
    return nodes.copy(), np.broadcast_to(gv, shape).copy()


def eliminate(a: sps.csr_matrix, bdofs) -> sps.csr_matrix:
    """a with the rows and columns of bdofs zeroed and 1 on their diagonal."""
    keep = np.ones(a.shape[0])
    keep[bdofs] = 0.0
    sel = sps.diags(keep)
    mat = (sel @ a @ sel + sps.diags(1.0 - keep)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


# ---------------------------------------------------------------------------
# boundary-edge quadrature


def boundary_quadrature(mesh: Mesh):
    """Edge quadrature data: x, y, scaled weights (B, q) and normals (B, 2)."""
    vi = mesh.vertices[mesh.boundary_edges[:, 0]]
    vj = mesh.vertices[mesh.boundary_edges[:, 1]]
    t = _EDGE_T[None, :, None]
    pts = vi[:, None, :] * (1 - t) + vj[:, None, :] * t
    w = mesh.boundary_edge_lengths()[:, None] * _EDGE_W[None, :]
    return pts[..., 0], pts[..., 1], w, mesh.edge_normals


def eval_on_boundary(field: Field, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate a field at points lying on boundary edges.

    xs, ys have shape (B, q) as produced by boundary_quadrature; the owning
    triangle of each edge supplies the reference coordinates.
    """
    sp = field.space
    mesh = sp.mesh
    owner = mesh.edges.owner[mesh.boundary_edge_ids]
    _, inv, _ = mesh.geometry
    x0 = mesh.vertices[mesh.triangles[owner, 0]]
    rel = np.stack([xs - x0[:, None, 0], ys - x0[:, None, 1]], axis=-1)
    ref = np.einsum("bdk,bqk->bqd", inv[owner], rel)
    vals = shape_values(sp.degree, ref.reshape(-1, 2)).reshape(
        ref.shape[0], ref.shape[1], sp.nloc)
    local = field.coefficients[sp.cells[owner]]     # (B, nloc) or (B, nloc, 2)
    return np.einsum("bi...,bqi->bq...", local, vals)
