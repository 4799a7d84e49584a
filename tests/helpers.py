"""Shared callables and small meshes used across the test modules."""

import numpy as np

from epsstokes.mesh import Mesh


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
    s = np.sqrt(0.5)
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1, 1], [1, 2, 2], [2, 0, 4]]),
        edge_normals=np.array([[0.0, -1.0], [s, s], [-1.0, 0.0]]),
    )


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
