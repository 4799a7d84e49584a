"""Continuous P1/P2 finite elements on triangles: spaces, quadrature, assembly.

Provides the bilinear and linear forms used by the three flow problems:
scalar/vector stiffness, velocity-pressure divergence and gradient coupling,
body-force and gradient-type load vectors, nodal boundary interpolation and
symmetric Dirichlet elimination.  All volume integration uses a degree-5
triangle rule; boundary integration uses 3-point Gauss per edge (degree 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sps

from .mesh import Mesh

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
    """Continuous piecewise-polynomial space on a mesh.

    degree 1 puts one node per vertex; degree 2 adds one per edge.  Vector
    spaces (components=2) interleave components: node k carries dofs
    2k (x) and 2k+1 (y).  boundary_dofs are exactly the dofs whose support
    point lies on a boundary edge.  Row k of boundary_edge_nodes holds the
    scalar nodes on boundary edge k: its endpoints, then for degree 2 its
    midpoint node.
    """

    def __init__(self, mesh: Mesh, degree: int, components: int = 1):
        if degree not in (1, 2):
            raise ValueError(f"unsupported degree {degree}")
        if components not in (1, 2):
            raise ValueError(f"unsupported component count {components}")
        self.mesh = mesh
        self.degree = degree
        self.components = components

        nv = mesh.num_vertices
        ends = mesh.boundary_edges[:, :2]
        if degree == 1:
            self.num_nodes = nv
            self.cells = mesh.triangles
            self.node_coords = mesh.vertices
            self.boundary_edge_nodes = ends
        else:
            edges = mesh.edges
            self.num_nodes = nv + len(edges.vertices)
            self.cells = np.hstack([mesh.triangles, edges.tri_edges + nv])
            a, b = edges.vertices.T
            self.node_coords = np.concatenate(
                [mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])
            self.boundary_edge_nodes = np.column_stack(
                [ends, nv + mesh.boundary_edge_ids])
        self.boundary_nodes = boundary_nodes = np.unique(self.boundary_edge_nodes)
        self.ndofs = self.num_nodes * components
        if components == 1:
            self.dof_coords = self.node_coords
            self.boundary_dofs = boundary_nodes.astype(np.int64)
        else:
            self.dof_coords = np.repeat(self.node_coords, 2, axis=0)
            self.boundary_dofs = np.sort(
                np.concatenate([2 * boundary_nodes, 2 * boundary_nodes + 1]))
        # immutable after construction; safe to share across threads
        for arr in (self.cells, self.node_coords, self.dof_coords,
                    self.boundary_edge_nodes, self.boundary_nodes,
                    self.boundary_dofs):
            arr.setflags(write=False)

    @property
    def nloc(self) -> int:
        return 3 if self.degree == 1 else 6

    def cell_dofs(self) -> np.ndarray:
        """Per-triangle global dof indices, (M, nloc*components)."""
        if self.components == 1:
            return self.cells
        out = np.empty((self.cells.shape[0], 2 * self.nloc), dtype=np.int64)
        out[:, 0::2] = 2 * self.cells
        out[:, 1::2] = 2 * self.cells + 1
        return out


@dataclass
class Field:
    """Finite-element function: a space plus one coefficient per dof."""

    space: Space
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.ndofs,):
            raise ValueError(
                f"expected {self.space.ndofs} coefficients, "
                f"got {self.coefficients.shape}")


def zero_field(space: Space) -> Field:
    return Field(space, np.zeros(space.ndofs))


# ---------------------------------------------------------------------------
# quadrature-point geometry and field evaluation


def quad_points_physical(mesh: Mesh, quad: QuadratureRule):
    """Physical coordinates of the rule's points on every triangle: (M, Q) x/y."""
    jac, _, _, _ = mesh.geometry
    ref = quad.ref_points()
    x0 = mesh.vertices[mesh.triangles[:, 0]]
    pts = np.einsum("mdk,qk->mqd", jac, ref) + x0[:, None, :]
    return pts[..., 0], pts[..., 1]


def quad_weights_physical(mesh: Mesh, quad: QuadratureRule) -> np.ndarray:
    """Quadrature weights scaled by the Jacobian determinant: (M, Q)."""
    _, _, _, det = mesh.geometry
    return quad.weights[None, :] * det[:, None]


def _physical_gradients(space: Space, quad: QuadratureRule) -> np.ndarray:
    """(M, Q, nloc, 2) gradients of the scalar shape functions."""
    _, _, inv_t, _ = space.mesh.geometry
    dref = shape_gradients(space.degree, quad.ref_points())
    return np.einsum("mdk,qik->mqid", inv_t, dref)


def eval_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Field values at quadrature points: (M, Q) scalar or (M, Q, 2) vector."""
    sp = field.space
    vals = shape_values(sp.degree, quad.ref_points())          # (Q, nloc)
    if sp.components == 1:
        local = field.coefficients[sp.cells]                   # (M, nloc)
        return np.einsum("mi,qi->mq", local, vals)
    cx = field.coefficients[0::2][sp.cells]
    cy = field.coefficients[1::2][sp.cells]
    return np.stack([np.einsum("mi,qi->mq", cx, vals),
                     np.einsum("mi,qi->mq", cy, vals)], axis=-1)


def eval_grad_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Gradients at quadrature points.

    Scalar fields give (M, Q, 2); vector fields give (M, Q, 2, 2) with entry
    [..., i, d] = d(u_i)/d(x_d).
    """
    sp = field.space
    grads = _physical_gradients(sp, quad)                      # (M, Q, nloc, 2)
    if sp.components == 1:
        local = field.coefficients[sp.cells]
        return np.einsum("mi,mqid->mqd", local, grads)
    cx = field.coefficients[0::2][sp.cells]
    cy = field.coefficients[1::2][sp.cells]
    return np.stack([np.einsum("mi,mqid->mqd", cx, grads),
                     np.einsum("mi,mqid->mqd", cy, grads)], axis=-2)


def eval_div_at_quad(field: Field, quad: QuadratureRule) -> np.ndarray:
    """Divergence of a vector field at quadrature points: (M, Q)."""
    g = eval_grad_at_quad(field, quad)
    return g[..., 0, 0] + g[..., 1, 1]


# ---------------------------------------------------------------------------
# global assembly


def _scatter(cell_dofs: np.ndarray, local: np.ndarray, shape) -> sps.csr_matrix:
    """Accumulate (M, a, b) local blocks into a global CSR matrix."""
    rows_dofs, cols_dofs = cell_dofs if isinstance(cell_dofs, tuple) else (cell_dofs, cell_dofs)
    m, a = rows_dofs.shape
    b = cols_dofs.shape[1]
    rows = np.repeat(rows_dofs, b, axis=1).ravel()
    cols = np.tile(cols_dofs, (1, a)).ravel()
    mat = sps.coo_matrix((local.reshape(m * a * b), (rows, cols)), shape=shape).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def assemble_stiffness(space: Space, quad: QuadratureRule | None = None) -> sps.csr_matrix:
    """Gradient-gradient form; for vector spaces the full grad(u):grad(v).

    Symmetric positive semidefinite; constants (per component) span the
    kernel before boundary conditions are applied.
    """
    quad = quad or triangle_rule_d5()
    _, _, _, det = space.mesh.geometry
    grads = _physical_gradients(space, quad)
    local = np.einsum("q,m,mqid,mqjd->mij", quad.weights, det, grads, grads)
    if space.components == 2:
        m, nloc, _ = local.shape
        big = np.zeros((m, 2 * nloc, 2 * nloc))
        big[:, 0::2, 0::2] = local
        big[:, 1::2, 1::2] = local
        local = big
    dofs = space.cell_dofs()
    out = _scatter(dofs, local, (space.ndofs, space.ndofs))
    # exact symmetry independent of accumulation order
    return (0.5 * (out + out.T)).tocsr()


def assemble_mass_against_one(space: Space, quad: QuadratureRule | None = None) -> np.ndarray:
    """Vector of integrals of each basis function (scalar spaces)."""
    if space.components != 1:
        raise ValueError("mean vector is defined for scalar spaces")
    quad = quad or triangle_rule_d5()
    _, _, _, det = space.mesh.geometry
    vals = shape_values(space.degree, quad.ref_points())
    local = np.einsum("q,m,qi->mi", quad.weights, det, vals)
    out = np.zeros(space.ndofs)
    np.add.at(out, space.cells.ravel(), local.ravel())
    return out


def assemble_div_coupling(vspace: Space, pspace: Space,
                          quad: QuadratureRule | None = None) -> sps.csr_matrix:
    """Matrix B with B[q, udof] = integral of div(phi_udof) * psi_q."""
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    quad = quad or triangle_rule_d5()
    _, _, _, det = vspace.mesh.geometry
    gu = _physical_gradients(vspace, quad)                      # (M,Q,nu,2)
    pv = shape_values(pspace.degree, quad.ref_points())         # (Q,np)
    local = np.einsum("q,m,qj,mqac->mjac", quad.weights, det, pv, gu)
    m, nlp, nlu, _ = local.shape
    local = local.reshape(m, nlp, 2 * nlu)                      # col 2a+c
    return _scatter((pspace.cells, vspace.cell_dofs()), local,
                    (pspace.ndofs, vspace.ndofs))


def assemble_grad_coupling(vspace: Space, pspace: Space, form: str = "transpose",
                           quad: QuadratureRule | None = None) -> sps.csr_matrix:
    """Matrix G with G[udof, q] = integral of grad(psi_q) . phi_udof.

    form="transpose" (default) builds -B^T from the divergence coupling and
    adds the boundary term of the integration-by-parts identity, so the
    discrete identity p^T G^T u = -p^T B u holds exactly on interior dofs.
    form="direct" integrates grad(psi_q).phi_udof by quadrature.
    """
    if form == "direct":
        quad = quad or triangle_rule_d5()
        _, _, _, det = vspace.mesh.geometry
        gp = _physical_gradients(pspace, quad)                  # (M,Q,np,2)
        uv = shape_values(vspace.degree, quad.ref_points())     # (Q,nu)
        local = np.einsum("q,m,mqjc,qa->majc", quad.weights, det, gp, uv)
        m, nlu, nlp, _ = local.shape
        local = local.transpose(0, 1, 3, 2).reshape(m, 2 * nlu, nlp)
        return _scatter((vspace.cell_dofs(), pspace.cells), local,
                        (vspace.ndofs, pspace.ndofs))
    if form != "transpose":
        raise ValueError(f"unknown form {form!r}")

    b = assemble_div_coupling(vspace, pspace, quad)
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
    u_nodes = vspace.boundary_edge_nodes[:, :, None, None]
    rows = 2 * u_nodes + np.arange(2)[None, None, :, None]
    cols = pspace.boundary_edge_nodes[:, None, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    mat = sps.coo_matrix((vals.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(vspace.ndofs, pspace.ndofs)).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return mat


def assemble_load(space: Space, f, quad: QuadratureRule | None = None) -> np.ndarray:
    """Load vector with entries integral of f . phi_i by quadrature.

    f maps coordinate arrays (x, y) to values; vector spaces expect an
    extra trailing axis of length 2.
    """
    quad = quad or triangle_rule_d5()
    _require_load_quad(space, quad)
    xs, ys = quad_points_physical(space.mesh, quad)
    w = quad_weights_physical(space.mesh, quad)
    vals = shape_values(space.degree, quad.ref_points())
    fv = np.asarray(f(xs, ys), dtype=float)
    out = np.zeros(space.ndofs)
    if space.components == 1:
        fv = np.broadcast_to(fv, xs.shape)
        local = np.einsum("mq,mq,qi->mi", w, fv, vals)
        np.add.at(out, space.cells.ravel(), local.ravel())
    else:
        if fv.shape != xs.shape + (2,):
            raise ValueError("vector load callable must return shape (..., 2)")
        local = np.einsum("mq,mqc,qi->mic", w, fv, vals)
        dofs = space.cell_dofs().reshape(space.cells.shape[0], space.nloc, 2)
        np.add.at(out, dofs.ravel(), local.ravel())
    return out


def assemble_grad_load(pspace: Space, F, quad: QuadratureRule | None = None) -> np.ndarray:
    """Load vector with entries integral of F . grad(psi_q)."""
    quad = quad or triangle_rule_d5()
    _require_load_quad(pspace, quad)
    xs, ys = quad_points_physical(pspace.mesh, quad)
    w = quad_weights_physical(pspace.mesh, quad)
    grads = _physical_gradients(pspace, quad)
    fv = np.asarray(F(xs, ys), dtype=float)
    if fv.shape != xs.shape + (2,):
        raise ValueError("gradient load expects a vector-valued callable")
    local = np.einsum("mq,mqc,mqic->mi", w, fv, grads)
    out = np.zeros(pspace.ndofs)
    np.add.at(out, pspace.cells.ravel(), local.ravel())
    return out


def assemble_field_grad_load(vspace: Space, p_field: Field,
                             quad: QuadratureRule | None = None) -> np.ndarray:
    """Entries integral of grad(p_h) . phi_i, with grad(p_h) taken directly
    from the coefficients at quadrature points (no re-projection)."""
    quad = quad or triangle_rule_d5()
    w = quad_weights_physical(vspace.mesh, quad)
    gp = eval_grad_at_quad(p_field, quad)                      # (M,Q,2)
    vals = shape_values(vspace.degree, quad.ref_points())
    local = np.einsum("mq,mqc,qi->mic", w, gp, vals)
    out = np.zeros(vspace.ndofs)
    dofs = vspace.cell_dofs().reshape(vspace.cells.shape[0], vspace.nloc, 2)
    np.add.at(out, dofs.ravel(), local.ravel())
    return out


def _require_load_quad(space: Space, quad: QuadratureRule):
    if quad.degree < space.degree + 2:
        raise ValueError(
            f"quadrature degree {quad.degree} too low for degree-{space.degree} loads")


def interpolate_boundary(space: Space, g, marker: int | None = None):
    """Nodal interpolation of boundary data.

    Returns (dofs, values): the boundary dof indices (restricted to edges
    with the given marker if one is passed) and the interpolated values.
    Scalar g maps (x, y) arrays to values; vector g returns (..., 2).
    """
    if marker is None:
        nodes = space.boundary_nodes
    else:
        nodes = np.unique(
            space.boundary_edge_nodes[space.mesh.boundary_edges[:, 2] == marker])
    coords = space.node_coords[nodes]
    gv = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    if space.components == 1:
        if gv.shape != (len(nodes),):
            gv = np.broadcast_to(gv, (len(nodes),)).copy()
        return nodes.copy(), gv
    if gv.shape != (len(nodes), 2):
        raise ValueError("vector boundary data must return shape (..., 2)")
    dofs = np.empty(2 * len(nodes), dtype=np.int64)
    dofs[0::2] = 2 * nodes
    dofs[1::2] = 2 * nodes + 1
    return dofs, gv.ravel()


def apply_dirichlet(a: sps.csr_matrix, b: np.ndarray, bdofs, bvals):
    """Symmetric elimination of Dirichlet dofs.

    Moves the known columns to the right-hand side, zeroes the rows and
    columns, places 1 on the diagonal and the prescribed value in b, so the
    solved system reproduces the boundary values exactly.  Returns a new
    matrix, or a itself when there are no Dirichlet dofs.
    """
    bdofs = np.asarray(bdofs, dtype=np.int64)
    bvals = np.asarray(bvals, dtype=float)
    n = a.shape[0]
    mat = a
    rhs = np.array(b, dtype=float, copy=True)
    if bdofs.size:
        lift = np.zeros(n)
        lift[bdofs] = bvals
        rhs -= mat @ lift
        keep = np.ones(n)
        keep[bdofs] = 0.0
        sel = sps.diags(keep)
        mat = (sel @ mat @ sel + sps.diags(1.0 - keep)).tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        rhs *= keep
        rhs[bdofs] = bvals
    return mat, rhs


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
    _, inv, _, _ = mesh.geometry
    x0 = mesh.vertices[mesh.triangles[owner, 0]]
    rel = np.stack([xs - x0[:, None, 0], ys - x0[:, None, 1]], axis=-1)
    ref = np.einsum("bdk,bqk->bqd", inv[owner], rel)
    vals = shape_values(sp.degree, ref.reshape(-1, 2)).reshape(
        ref.shape[0], ref.shape[1], sp.nloc)
    cells = sp.cells[owner]                                     # (B, nloc)
    if sp.components == 1:
        local = field.coefficients[cells]
        return np.einsum("bi,bqi->bq", local, vals)
    cx = field.coefficients[0::2][cells]
    cy = field.coefficients[1::2][cells]
    return np.stack([np.einsum("bi,bqi->bq", cx, vals),
                     np.einsum("bi,bqi->bq", cy, vals)], axis=-1)
