"""Continuous P1/P2 finite elements on triangles: spaces, quadrature, assembly.

Provides the bilinear and linear forms used by the three flow problems:
stiffness, velocity-pressure divergence coupling (its negated transpose is
the gradient coupling on the dofs the saddle systems solve), body-force and
gradient-type load vectors, nodal boundary interpolation and symmetric
elimination of fixed dofs.  All volume integration uses a degree-5 triangle
rule; boundary integration uses 3-point Gauss per edge (degree 5).

Spaces are scalar.  A vector field, such as a velocity, has one (x, y)
coefficient row per node; raveled, the rows are the interleaved dofs of the
assembled systems, which vector_dofs alone forms.  The field kernels
eval_at_quad and eval_grad_at_quad, which every error norm goes through, run
numpy's BLAS on one thread, like the solves (sparse.one_blas_thread).

Every per-cell kernel works through the mesh a block of at most BLOCK
consecutive cells at a time (cell_blocks): assembly, loads, quadrature
points and field evaluation take a slice of cells, and the callers sum
block by block.  A kernel's temporaries are then those of one block, so
they do not grow with the mesh and stay in cache.  The load vectors go
through one block loop (_force_loads), which evaluates a callable once per
block for every load it builds: assemble_body_force_loads builds the P2
load and the P1 gradient load of one body force in one pass.

Matrices are assembled from reference tensors (Kirby, Knepley, Logg & Scott,
"Optimizing the evaluation of finite element matrices", SISC 2005).  On an
affine triangle every local matrix is a small per-cell geometric factor,
built from the Jacobian, contracted with a tensor that is integrated once on
the reference triangle; each form is then one (B, 3) or (B, 2, 2) matmul per
block of B cells instead of a sum over quadrature points per cell.  The
reference tensors are integrals of polynomials and are stored exactly
(_exact), so an integral that is 0, such as that of a P2 vertex against the
midpoint of the opposite edge, adds exact zeros.  _scatter sums each block's
local matrices into a sparse matrix, adds the blocks' matrices in a balanced
tree, and stores only the entries above DROP times the larger of their
row's and their column's largest: the entries it leaves out are the
round-off of cancellations between cells, as on structured meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy import sparse as sps
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .mesh import Mesh, int32_indices
from .sparse import one_blas_thread

_SQRT15 = np.sqrt(15.0)
# An assembled entry at or below DROP times the largest entry of its row or
# of its column is the round-off of an exact zero, and is not stored.
DROP = 1e-13
# Over the reference triangle x^a y^b integrates to a! b! / (a + b + 2)!, so
# a polynomial with integer coefficients and degree at most 4 integrates to
# a multiple of 1/360.  Every reference tensor here is such an integral.
_TENSOR_GRID = 360.0
# Cells per block of every per-cell kernel.  On a jittered n = 128 mesh
# (32,768 cells, 2 vCPUs) blocks of 8192 cells kept every assembly at or
# below its time in one block, where blocks of 4096 made the P1 matrices
# slower; either bounds mesh-pp's peak RSS alike.  Meshes up to n = 64
# (8192 cells) take one block.
BLOCK = 8192


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
_EDGE_T.setflags(write=False)
_EDGE_W.setflags(write=False)


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
    edge k: its endpoints, then for degree 2 its midpoint node.  cells,
    boundary_nodes and boundary_edge_nodes are int32, as the mesh's indices
    are; a degree 2 space with more nodes than int32 can number is refused.
    """

    def __init__(self, mesh: Mesh, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"unsupported degree {degree}")
        self.mesh = mesh
        self.degree = degree

        nv = mesh.num_vertices
        ends = int32_indices(mesh.boundary_edges[:, :2], "boundary edge")
        if degree == 1:
            self.cells = mesh.triangles
            self.node_coords = mesh.vertices
            self.boundary_edge_nodes = ends
        else:
            edges = mesh.edges
            if nv + len(edges.vertices) - 1 > np.iinfo(np.int32).max:
                raise ValueError(f"{nv} vertices and {len(edges.vertices)} edges "
                                 "are more P2 nodes than int32 can number")
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
    twice = np.multiply(nodes[..., None], 2, dtype=np.int64)    # int32 would wrap
    return (twice + np.arange(2)).reshape(*nodes.shape[:-1], -1)


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
# cell blocks, quadrature-point geometry and field evaluation
#
# The kernels below take cells, a slice of the mesh's cells (all by
# default), and return one row per cell of the slice: (B, Q) for B cells.


def cell_blocks(num_cells: int) -> Iterator[slice]:
    """Consecutive slices of at most BLOCK cells that cover num_cells."""
    size = BLOCK
    return (slice(start, min(start + size, num_cells))
            for start in range(0, num_cells, size))


def quad_points_physical(mesh: Mesh, quad: QuadratureRule, cells=slice(None)):
    """Physical coordinates of the rule's points on the cells: (B, Q) x/y,
    each point its barycentric combination of the triangle's vertices, and
    each array C-contiguous: one plain product per coordinate."""
    corners = np.take(mesh.vertices, mesh.triangles[cells], axis=0)   # (B, 3, 2)
    return corners[..., 0] @ quad.points.T, corners[..., 1] @ quad.points.T


def quad_weights_physical(mesh: Mesh, quad: QuadratureRule,
                          cells=slice(None)) -> np.ndarray:
    """Quadrature weights scaled by the Jacobian determinant: (B, Q)."""
    _, det = mesh.geometry
    return quad.weights[None, :] * det[cells, None]


@one_blas_thread()
def eval_at_quad(field: Field, quad: QuadratureRule, cells=slice(None)) -> np.ndarray:
    """Field values at quadrature points: (B, Q) scalar or (B, Q, 2) vector."""
    sp = field.space
    vals = shape_values(sp.degree, quad.ref_points())          # (Q, nloc)
    local = np.take(field.coefficients, sp.cells[cells], axis=0)  # (B, nloc[, 2])
    return local @ vals.T if local.ndim == 2 else vals @ local


@one_blas_thread()
def eval_grad_at_quad(field: Field, quad: QuadratureRule,
                      cells=slice(None)) -> np.ndarray:
    """Gradients at quadrature points.

    Scalar fields give (B, Q, 2); vector fields give (B, Q, 2, 2) with entry
    [..., i, d] = d(u_i)/d(x_d).  The cell coefficients meet the reference
    shape gradients first, then each cell's inverse Jacobian maps the result.
    """
    sp = field.space
    inv, _ = sp.mesh.geometry
    inv = inv[cells]
    dref = shape_gradients(sp.degree, quad.ref_points())       # (Q, nloc, 2)
    m, q = inv.shape[0], dref.shape[0]
    table = dref.transpose(1, 0, 2).reshape(sp.nloc, 2 * q)
    local = np.take(field.coefficients, sp.cells[cells], axis=0)  # (B, nloc[, 2])
    if local.ndim == 2:
        return (local @ table).reshape(m, q, 2) @ inv
    ref = (local.transpose(0, 2, 1) @ table).reshape(m, 2 * q, 2)
    return (ref @ inv).reshape(m, 2, q, 2).transpose(0, 2, 1, 3)


def eval_div_at_quad(field: Field, quad: QuadratureRule,
                     cells=slice(None)) -> np.ndarray:
    """Divergence of a vector field at quadrature points: (B, Q)."""
    g = eval_grad_at_quad(field, quad, cells)
    return g[..., 0, 0] + g[..., 1, 1]


# ---------------------------------------------------------------------------
# global assembly


def _exact(tensor: np.ndarray) -> np.ndarray:
    """A reference tensor computed by quadrature, rounded to its exact
    value: the multiple of 1/_TENSOR_GRID nearest each entry."""
    return np.round(tensor * _TENSOR_GRID) / _TENSOR_GRID


def stiffness_tensor(degree: int) -> np.ndarray:
    """(2, 2, nloc, nloc) exact reference tensor R[a, b, i, j], the
    integral of d_a(phi_i) d_b(phi_j) over the reference triangle."""
    quad = triangle_rule_d5()
    dref = shape_gradients(degree, quad.ref_points())          # (Q, nloc, 2)
    return _exact(np.einsum("q,qia,qjb->abij", quad.weights, dref, dref))


def value_gradient_tensor(val_degree: int, grad_degree: int) -> np.ndarray:
    """(2, nv, ng) exact reference tensor T[k, j, a], the integral of
    phi_j d_k(chi_a) over the reference triangle, for the values phi of the
    degree val_degree basis and the gradients chi of the grad_degree one."""
    quad = triangle_rule_d5()
    pts = quad.ref_points()
    vals = shape_values(val_degree, pts)                      # (Q, nv)
    dref = shape_gradients(grad_degree, pts)                  # (Q, ng, 2)
    return _exact(np.einsum("q,qj,qak->kja", quad.weights, vals, dref))


def _cell_pairs(rows_dofs: np.ndarray, cols_dofs: np.ndarray):
    """The int32 (rows, cols) of every (cell, a, b) entry, raveled, for the
    (B, a) row and (B, b) column dofs of a block of cells; a block that is
    int32 already is not copied."""
    shape = rows_dofs.shape + cols_dofs.shape[1:]
    rows = np.broadcast_to(rows_dofs.astype(np.int32, copy=False)[:, :, None], shape)
    cols = np.broadcast_to(cols_dofs.astype(np.int32, copy=False)[:, None, :], shape)
    return rows.ravel(), cols.ravel()


def _tree_sum(mats):
    """The sum of the matrices, added in a balanced binary tree as they
    arrive: the k-th matrix joins as many partial sums as k has trailing
    zero bits, so at most log2 of their number are held at once."""
    partial = []
    for k, mat in enumerate(mats, start=1):
        while k % 2 == 0:
            mat = partial.pop() + mat
            k //= 2
        partial.append(mat)
    total = partial.pop()
    while partial:
        total = partial.pop() + total
    return total


def _block_sum(dofs, local, shape) -> sps.csr_matrix:
    """Sum local blocks into a CSR matrix, one block of cells at a time.

    dofs is one (M, a) index array for both sides, or a (rows, cols) pair;
    local(cells) gives the (B, a, b) local matrices of a slice of cells.
    Each block becomes a CSR matrix, whose conversion from COO sums its
    duplicate entries, and the blocks' matrices are added by _tree_sum.
    """
    rows_dofs, cols_dofs = dofs if isinstance(dofs, tuple) else (dofs, dofs)
    return _tree_sum(sps.coo_matrix((local(cells).ravel(),
                                     _cell_pairs(rows_dofs[cells], cols_dofs[cells])),
                                    shape=shape).tocsr()
                     for cells in cell_blocks(len(rows_dofs)))


def cell_order(space: Space) -> np.ndarray:
    """Reverse Cuthill-McKee labels of the space's cell graph, which joins
    every two nodes that share a cell (Cuthill & McKee, 1969): the order the
    drivers give sparse.Factor for a matrix assembled on the space, whose
    stored pattern lacks the pairs with exactly 0 entries.  The graph is
    summed by blocks as assembly is, with boolean entries, which cannot
    cancel, and freed on return."""
    nloc = space.nloc
    graph = _block_sum(space.cells,
                       lambda cells: np.ones((cells.stop - cells.start, nloc, nloc), bool),
                       (space.ndofs, space.ndofs))
    return reverse_cuthill_mckee(graph, symmetric_mode=True)


def _scatter(dofs, local, shape) -> sps.csr_matrix:
    """Sum local blocks into a global CSR matrix by _block_sum: dofs is one
    (M, a) index array for both sides, or a (rows, cols) pair, and
    local(cells) gives the (B, a, b) local matrices of a slice of cells.

    An entry is stored only above DROP times the larger of its row's and its
    column's largest magnitude.  The rule is the same for a matrix and its
    transpose, so a symmetric sum stays exactly symmetric.  The index arrays
    are int32, and every array is as long as the entries stored.
    """
    mat = _block_sum(dofs, local, shape)
    mag = np.abs(mat.data)
    # An exact 0 is never stored, and only a nonzero entry at or below DROP
    # times the largest of all can fall under the rule, so the rule is
    # checked on those candidates alone: 10,140 of K's entries on the
    # structured n = 40 mesh, none at n = 64 or on the jittered meshes.
    small = np.flatnonzero((mag <= DROP * mag.max(initial=0.0)) & (mag > 0.0))
    if len(small):
        lengths = np.diff(mat.indptr)
        row_max, col_max = np.zeros(shape[0]), np.zeros(shape[1])
        row_max[lengths > 0] = np.maximum.reduceat(mag, mat.indptr[:-1][lengths > 0])
        np.maximum.at(col_max, mat.indices, mag)
        rows = np.searchsorted(mat.indptr, small, side="right") - 1
        limit = DROP * np.maximum(row_max[rows], col_max[mat.indices[small]])
        mat.data[small[mag[small] <= limit]] = 0.0
    del mag
    mat.eliminate_zeros()
    return mat.copy()     # the sums may leave views of longer arrays


def assemble_stiffness(space: Space) -> sps.csr_matrix:
    """Gradient-gradient form: entries integral of grad(phi_i) . grad(phi_j).

    Symmetric positive semidefinite; constants span the kernel before
    boundary conditions are applied.
    """
    inv, det = space.mesh.geometry
    nloc = space.nloc
    # The metric |J| J^-1 J^-T is symmetric, so it meets the tensor
    # symmetrized in (a, b): its entries 00, 01 and 11 meet R00, R01 + R10
    # and R11, at the distinct local pairs i <= j alone.  Each cell's block
    # is then its pairs mirrored, exactly symmetric; two nodes share at most
    # two cells, and two terms sum the same in either order, so the
    # assembled matrix is exactly symmetric too.
    tensor = stiffness_tensor(space.degree)
    rows, cols = np.triu_indices(nloc)
    ref = np.stack([tensor[0, 0], tensor[0, 1] + tensor[1, 0], tensor[1, 1]])[:, rows, cols]
    pair = np.empty((nloc, nloc), np.intp)
    pair[rows, cols] = pair[cols, rows] = np.arange(len(rows))
    mirror = pair.ravel()

    def local(cells):
        i00, i01, i10, i11 = (inv[cells, a, b] for a in (0, 1) for b in (0, 1))
        d = det[cells]
        geo = np.empty((len(d), 3))
        geo[:, 0] = d * (i00 * i00 + i01 * i01)
        geo[:, 1] = d * (i00 * i10 + i01 * i11)
        geo[:, 2] = d * (i10 * i10 + i11 * i11)
        return np.take(geo @ ref, mirror, axis=1).reshape(-1, nloc, nloc)

    return _scatter(space.cells, local, (space.ndofs, space.ndofs))


def assemble_mass(space: Space) -> sps.csr_matrix:
    """Mass matrix: entries integral of phi_i * phi_j.

    Symmetric positive definite.
    """
    quad = triangle_rule_d5()
    _, det = space.mesh.geometry
    vals = shape_values(space.degree, quad.ref_points())
    # the exact tensor is symmetric, and so is each cell's multiple of it
    ref = _exact((quad.weights * vals.T) @ vals)
    return _scatter(space.cells, lambda cells: det[cells, None, None] * ref,
                    (space.ndofs, space.ndofs))


def assemble_mass_against_one(space: Space) -> np.ndarray:
    """Vector of integrals of each basis function."""
    quad = triangle_rule_d5()
    _, det = space.mesh.geometry
    ref = quad.weights @ shape_values(space.degree, quad.ref_points())
    (out,) = _add_cells([space], lambda cells: [np.outer(det[cells], ref)])
    return out


def _value_gradient_local(val_space: Space, grad_space: Space):
    """local(cells): the (B, 2, nv, ng) integrals of phi_j * d(chi_a)/dx_c
    over each triangle of a slice of cells, indexed [m, c, j, a], for the
    values phi of val_space and the gradients chi of grad_space."""
    inv, det = val_space.mesh.geometry
    ref = value_gradient_tensor(val_space.degree, grad_space.degree)
    _, nv, ng = ref.shape
    ref = ref.reshape(2, nv * ng)

    def local(cells):
        geo = det[cells, None, None] * inv[cells].transpose(0, 2, 1)   # |J| J^-T
        return (geo @ ref).reshape(-1, 2, nv, ng)

    return local


def assemble_div_coupling(vspace: Space, pspace: Space) -> sps.csr_matrix:
    """Matrix B with B[q, udof] = integral of div(phi_udof) * psi_q, for the
    vector dofs of vspace (vector_dofs)."""
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    value_gradient = _value_gradient_local(pspace, vspace)

    def local(cells):
        out = value_gradient(cells)
        m, _, nlp, nlu = out.shape
        return out.transpose(0, 2, 3, 1).reshape(m, nlp, 2 * nlu)   # col 2a+c

    return _scatter((pspace.cells, vector_dofs(vspace.cells)), local,
                    (pspace.ndofs, 2 * vspace.ndofs))


def _add_cells(spaces, local) -> list[np.ndarray]:
    """Sum per-cell entries into one per node of each space, a block of
    cells at a time: local(cells) gives, for a slice of cells, one (B, nloc)
    or (B, nloc, 2) array of entries per space.  The spaces share a mesh.

    Each component is scattered on its own, as 1-D np.add.at runs several
    times faster than on (n, 2) rows; each sum adds in the same order, so
    the result is the same bit for bit.
    """
    outs = [None] * len(spaces)
    for cells in cell_blocks(len(spaces[0].cells)):
        for k, (space, part) in enumerate(zip(spaces, local(cells))):
            if outs[k] is None:
                outs[k] = np.zeros((space.ndofs,) + part.shape[2:])
            nodes = space.cells[cells].ravel()
            flat = part.reshape(len(nodes), -1)      # one column per component
            columns = outs[k].reshape(space.ndofs, -1)
            for c in range(flat.shape[1]):
                np.add.at(columns[:, c], nodes, flat[:, c])
    return outs


def _value_entries(space: Space):
    """entries(wf, cells): the integrals of the weighted values wf at the
    quadrature points of a slice of cells against the space's basis, (B, nloc)
    for scalar (B, Q) values and (B, nloc, 2) for vector (B, Q, 2) ones."""
    vals = shape_values(space.degree, triangle_rule_d5().ref_points())
    return lambda wf, cells: wf @ vals if wf.ndim == 2 else vals.T @ wf


def _gradient_entries(pspace: Space):
    """entries(wf, cells): the (B, nloc) integrals of the weighted vector
    values wf against the gradients of pspace's basis.  They meet each
    cell's inverse Jacobian first, then the reference shape gradients: the
    adjoint of eval_grad_at_quad."""
    inv, _ = pspace.mesh.geometry
    dref = shape_gradients(pspace.degree, triangle_rule_d5().ref_points())
    table = dref.transpose(0, 2, 1).reshape(-1, pspace.nloc)    # row 2q+k

    def entries(wf, cells):
        if wf.ndim != 3:
            raise ValueError("gradient load expects a vector-valued callable")
        ref = wf @ inv[cells].transpose(0, 2, 1)                # (B, Q, 2)
        return ref.reshape(len(ref), -1) @ table

    return entries


def _force_loads(f, terms) -> list[np.ndarray]:
    """The loads of the callable f against each (space, entries) of terms,
    whose spaces share a mesh, in one pass over the cell blocks: the
    quadrature points, their weights w and f's values there are computed
    once per block, and entries(w * f, cells) gives a space's per-cell
    entries.  f gives scalar (B, Q) or vector (B, Q, 2) values."""
    quad = triangle_rule_d5()
    mesh = terms[0][0].mesh

    def local(cells):
        xs, ys = quad_points_physical(mesh, quad, cells)
        w = quad_weights_physical(mesh, quad, cells)
        fv = np.asarray(f(xs, ys), dtype=float)
        if fv.ndim == xs.ndim:
            wf = w * fv
        elif fv.shape == xs.shape + (2,):
            wf = w[..., None] * fv
        else:
            raise ValueError("vector load callable must return shape (..., 2)")
        return [entries(wf, cells) for _, entries in terms]

    return _add_cells([space for space, _ in terms], local)


def assemble_load(space: Space, f) -> np.ndarray:
    """Load vector with entries integral of f . phi_i by quadrature.

    f maps coordinate arrays (x, y) to scalar values, giving (ndofs,), or to
    vectors with a trailing axis of length 2, giving one (x, y) row per node.
    f is called once per block of cells.
    """
    (load,) = _force_loads(f, [(space, _value_entries(space))])
    return load


def assemble_body_force_loads(vspace: Space, pspace: Space, f):
    """The loads of a body force f, mapping (x, y) to vectors (..., 2), of
    f . phi_i on vspace, one (x, y) row per node, and of f . grad(psi_q) on
    pspace, in one pass over the cell blocks that calls f once per block."""
    if vspace.mesh is not pspace.mesh:
        raise ValueError("velocity and pressure spaces must share a mesh")
    return tuple(_force_loads(f, [(vspace, _value_entries(vspace)),
                                  (pspace, _gradient_entries(pspace))]))


def assemble_field_grad_load(vspace: Space, p_field: Field) -> np.ndarray:
    """Entries integral of grad(p_h) . phi_i, one (x, y) row per node of
    vspace, with grad(p_h) taken directly from the coefficients at
    quadrature points (no re-projection)."""
    quad = triangle_rule_d5()
    entries = _value_entries(vspace)

    def local(cells):
        w = quad_weights_physical(vspace.mesh, quad, cells)
        gp = eval_grad_at_quad(p_field, quad, cells)            # (B, Q, 2)
        return [entries(w[..., None] * gp, cells)]              # (B, nloc, 2)

    (load,) = _add_cells([vspace], local)
    return load


def interpolate_boundary(space: Space, g) -> np.ndarray:
    """Nodal interpolation of boundary data, in the order of
    space.boundary_nodes: scalar g maps (x, y) arrays to values, one per
    node; vector g returns (..., 2), one (x, y) row per node."""
    nodes = space.boundary_nodes
    coords = space.node_coords[nodes]
    gv = np.asarray(g(coords[:, 0], coords[:, 1]), dtype=float)
    shape = (len(nodes), 2) if gv.ndim == 2 else (len(nodes),)
    return np.broadcast_to(gv, shape).copy()


def masked(a: sps.spmatrix, rows, cols, unit=()) -> sps.csr_matrix:
    """a without its stored entries in the rows `rows` or the columns
    `cols`, and without stored zeros, plus 1 on the diagonal at the dofs
    `unit`, which must be among both: canonical CSR, each kept value as it
    is.  The one rule by which the drivers fix dofs, square or not.

    The kept entries are copied in their order, and each unit row, empty
    after the masking, takes its one entry: no sort, and no transient
    larger than a few arrays of a's length.
    """
    a = a.tocsr()
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    keep_row, keep_col = np.ones(a.shape[0], bool), np.ones(a.shape[1], bool)
    keep_row[rows] = False
    keep_col[cols] = False
    keep = keep_col[a.indices]
    keep &= np.repeat(keep_row, np.diff(a.indptr))
    keep &= a.data != 0.0
    kept = np.zeros(len(keep) + 1, dtype=a.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    counts = kept[a.indptr[1:]] - kept[a.indptr[:-1]]
    del kept
    unit = np.asarray(unit, dtype=a.indices.dtype)
    counts[unit] += 1
    indptr = np.zeros(len(a.indptr), dtype=a.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    free = np.ones(indptr[-1], bool)
    free[indptr[unit]] = False
    indices = np.empty(indptr[-1], dtype=a.indices.dtype)
    data = np.empty(indptr[-1])
    indices[free] = a.indices[keep]
    data[free] = a.data[keep]
    indices[indptr[unit]] = unit
    data[indptr[unit]] = 1.0
    return sps.csr_matrix((data, indices, indptr), shape=a.shape)


def eliminate(a: sps.spmatrix, bdofs) -> sps.csr_matrix:
    """a with the rows and columns of bdofs zeroed and 1 on their diagonal."""
    return masked(a, bdofs, bdofs, unit=bdofs)


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
    inv, _ = mesh.geometry
    x0 = np.take(mesh.vertices, mesh.triangles[owner, 0], axis=0)
    rel = np.stack([xs - x0[:, None, 0], ys - x0[:, None, 1]], axis=-1)
    ref = np.einsum("bdk,bqk->bqd", inv[owner], rel)
    vals = shape_values(sp.degree, ref.reshape(-1, 2)).reshape(
        ref.shape[0], ref.shape[1], sp.nloc)
    local = np.take(field.coefficients, sp.cells[owner], axis=0)  # (B, nloc[, 2])
    return np.einsum("bi...,bqi->bq...", local, vals)
