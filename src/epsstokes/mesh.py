"""Conforming triangulations of polygons: construction, file import, validation.

A mesh stores straight-edged triangles with counterclockwise orientation,
boundary edges with integer markers, and unit outward normals per boundary
edge.  Meshes are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

# Edge markers assigned by build_structured_mesh.
BOTTOM, RIGHT, TOP, LEFT = 1, 2, 3, 4

_GEOM_TOL = 1e-12


class MeshError(ValueError):
    """Base class for mesh construction failures."""


class MeshFormatError(MeshError):
    """Mesh file could not be parsed; message carries the line number."""


class MeshTopologyError(MeshError):
    """Mesh violates a topological invariant; message names the simplex."""


class EdgeTable(NamedTuple):
    """Edges of a triangulation, numbered in first-seen order.

    Triangles are visited in order, each contributing its local edges
    (0,1), (1,2), (0,2) in that order; an edge's id is the rank of its first
    appearance.  The owner of an edge is the triangle where it first appears.

    vertices    : (E, 2) endpoints of each edge, smaller vertex first
    tri_edges   : (M, 3) ids of each triangle's local edges
    counts      : (E,) number of triangles sharing each edge
    owner       : (E,) owner triangle of each edge
    owner_local : (E,) local index of each edge in its owner (0, 1 or 2)
    """

    vertices: np.ndarray
    tri_edges: np.ndarray
    counts: np.ndarray
    owner: np.ndarray
    owner_local: np.ndarray

    def find(self, pairs) -> np.ndarray:
        """Edge id of each vertex pair, in either order; -1 if no triangle has it."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        both = np.concatenate([self.vertices, pairs])
        _, inverse = np.unique(_pair_keys(both), return_inverse=True)
        slot = np.full(len(both), -1, dtype=np.int64)
        slot[inverse[:len(self.vertices)]] = np.arange(len(self.vertices))
        return slot[inverse[len(self.vertices):]]


def edge_table(triangles) -> EdgeTable:
    """Enumerate the edges of (M, 3) triangles; see EdgeTable."""
    tris = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    pairs = np.sort(tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    _, first, inverse, counts = np.unique(
        _pair_keys(pairs), return_index=True, return_inverse=True, return_counts=True)
    # np.unique orders the edges by key; renumber them in first-seen order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    table = EdgeTable(vertices=pairs[first],
                      tri_edges=rank[inverse].reshape(-1, 3),
                      counts=counts[order], owner=first // 3,
                      owner_local=first % 3)
    for arr in table:
        arr.setflags(write=False)
    return table


def _pair_keys(pairs) -> np.ndarray:
    """One integer per (N, 2) row of sorted vertex pairs; equal rows only
    share a key."""
    pairs = pairs.astype(np.int64, copy=False)     # int32 products would wrap
    return pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1]


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of a polygon.

    vertices       : (K, 2) float array of coordinates
    triangles      : (M, 3) int array of vertex indices, counterclockwise
    boundary_edges : (B, 3) int array of rows (i, j, marker)
    edge_normals   : (B, 2) float array, unit outward normal per boundary edge

    Derived data is computed on first use and stored on the mesh itself, so
    it lives and dies with the mesh: ``edges`` (the EdgeTable of the
    triangles), ``boundary_edge_ids`` (the edge id of each boundary edge)
    and ``geometry`` (the affine map of each triangle).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    edge_normals: np.ndarray

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_edges", "edge_normals"):
            getattr(self, name).setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    def triangle_areas(self) -> np.ndarray:
        """Signed areas (positive for counterclockwise triangles)."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def area(self) -> float:
        return float(self.triangle_areas().sum())

    @cached_property
    def edges(self) -> EdgeTable:
        return edge_table(self.triangles)

    @cached_property
    def boundary_edge_ids(self) -> np.ndarray:
        """(B,) edge id of each boundary edge; -1 if no triangle has it."""
        ids = self.edges.find(self.boundary_edges[:, :2])
        ids.setflags(write=False)
        return ids

    @cached_property
    def geometry(self):
        """Affine map of each triangle from the reference triangle:
        (jac, inv, inv_t, det) of shapes (M,2,2), (M,2,2), (M,2,2), (M,)."""
        p = self.vertices[self.triangles]
        jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        inv_t = np.swapaxes(inv, 1, 2)
        for arr in (jac, inv, inv_t, det):
            arr.setflags(write=False)
        return jac, inv, inv_t, det

    def boundary_edge_lengths(self) -> np.ndarray:
        d = (self.vertices[self.boundary_edges[:, 1]]
             - self.vertices[self.boundary_edges[:, 0]])
        return np.hypot(d[:, 0], d[:, 1])


def _outward_normals(vertices, edges):
    # Edges are oriented with the domain on the left, so rotating the edge
    # direction by -90 degrees points outward.
    d = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    length = np.hypot(d[:, 0], d[:, 1])
    if np.any(length <= 0.0):
        k = int(np.argmin(length))
        raise MeshTopologyError(f"boundary edge {k} has zero length")
    return np.column_stack((d[:, 1], -d[:, 0])) / length[:, None]


def build_structured_mesh(n: int) -> Mesh:
    """Uniform n-by-n triangulation of the unit square.

    Each grid cell is split along its SW-NE diagonal, giving 2n^2 triangles,
    (n+1)^2 vertices and 4n boundary edges.  Boundary markers: 1=bottom,
    2=right, 3=top, 4=left.
    """
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")

    side = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(side, side)        # row-major: index j*(n+1)+i
    vertices = np.column_stack((xg.ravel(), yg.ravel()))

    def vid(i, j):
        return j * (n + 1) + i

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
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
        edges.append((vid(i, 0), vid(i + 1, 0), BOTTOM))
    for j in range(n):                           # right, upward
        edges.append((vid(n, j), vid(n, j + 1), RIGHT))
    for i in range(n, 0, -1):                    # top, right to left
        edges.append((vid(i, n), vid(i - 1, n), TOP))
    for j in range(n, 0, -1):                    # left, downward
        edges.append((vid(0, j), vid(0, j - 1), LEFT))
    boundary_edges = np.asarray(edges, dtype=np.int64)

    mesh = Mesh(vertices, triangles, boundary_edges,
                _outward_normals(vertices, boundary_edges))
    validate_mesh(mesh)
    return mesh


def load_mesh(path) -> Mesh:
    """Read a mesh from the ASCII format.

    Format: header line ``mesh2d v1``; ``vertices K`` followed by K lines
    ``x y``; ``triangles M`` followed by M lines ``i j k``; ``boundary B``
    followed by B lines ``i j marker``.  Indices are 0-based.  Boundary
    edges are reoriented to run with the domain on their left before
    normals are computed.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()

    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(lines):
            pos += 1
            stripped = lines[pos - 1].strip()
            if stripped:
                return pos, stripped
        raise MeshFormatError(f"line {len(lines) + 1}: unexpected end of file")

    lineno, header = next_line()
    if header != "mesh2d v1":
        raise MeshFormatError(f"line {lineno}: expected header 'mesh2d v1', got {header!r}")

    def read_section(keyword, width, dtype):
        lineno, head = next_line()
        parts = head.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFormatError(f"line {lineno}: expected '{keyword} <count>', got {head!r}")
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"line {lineno}: bad count {parts[1]!r}") from None
        rows = np.empty((count, width), dtype=dtype)
        for r in range(count):
            lineno, body = next_line()
            fields = body.split()
            if len(fields) != width:
                raise MeshFormatError(
                    f"line {lineno}: expected {width} fields, got {len(fields)}")
            try:
                rows[r] = [dtype(tok) for tok in fields]
            except ValueError:
                raise MeshFormatError(f"line {lineno}: bad value in {body!r}") from None
        return rows

    vertices = read_section("vertices", 2, float)
    triangles = read_section("triangles", 3, np.int64)
    boundary = read_section("boundary", 3, np.int64)

    nv = len(vertices)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        bad = int(np.argwhere((triangles < 0) | (triangles >= nv))[0][0])
        raise MeshTopologyError(f"triangle {bad} references a vertex out of range")
    if boundary.size and (boundary[:, :2].min() < 0 or boundary[:, :2].max() >= nv):
        bad = int(np.argwhere((boundary[:, :2] < 0) | (boundary[:, :2] >= nv))[0][0])
        raise MeshTopologyError(f"boundary edge {bad} references a vertex out of range")

    # Reorient each declared boundary edge to match the traversal of its
    # owning triangle (domain on the left).
    table = edge_table(triangles)
    ids = table.find(boundary[:, :2])
    if np.any(ids < 0):
        k = int(np.argmax(ids < 0))
        i, j, _ = boundary[k]
        raise MeshTopologyError(
            f"boundary edge {k} ({i},{j}) is not an edge of any triangle")
    # Counterclockwise, local edge k of a triangle runs from its vertex k
    # to its vertex (k + 1) % 3.
    single = table.counts[ids] == 1
    owner = triangles[table.owner[ids[single]]]
    local = table.owner_local[ids[single]]
    rows = np.arange(len(owner))
    oriented = boundary.copy()
    oriented[single, :2] = np.column_stack(
        (owner[rows, local], owner[rows, (local + 1) % 3]))

    mesh = Mesh(vertices, triangles, oriented, _outward_normals(vertices, oriented))
    validate_mesh(mesh)
    return mesh


def validate_mesh(mesh: Mesh) -> None:
    """Enforce all mesh invariants; raises MeshTopologyError on violation."""
    areas = mesh.triangle_areas()
    if np.any(areas <= 0.0):
        bad = int(np.argmin(areas))
        raise MeshTopologyError(
            f"triangle {bad} has non-positive area {areas[bad]:.3e} (not counterclockwise)")

    table = mesh.edges
    if table.counts.size and table.counts.max() > 2:
        e = int(np.argmax(table.counts))
        raise MeshTopologyError(
            f"edge {_pair(table.vertices[e])} is shared by more than 2 triangles")

    declared = np.sort(mesh.boundary_edges[:, :2], axis=1)
    _, first, inverse = np.unique(_pair_keys(declared), return_index=True,
                                  return_inverse=True)
    first = first[inverse]                        # first declaration of each edge
    repeated = first != np.arange(len(declared))
    if np.any(repeated):
        k = int(np.argmax(repeated))
        raise MeshTopologyError(f"boundary edge {k} duplicates edge {first[k]}")

    ids = mesh.boundary_edge_ids
    counts = np.append(table.counts, 0)[ids]      # id -1 reads the appended 0
    if np.any(counts != 1):
        k = int(np.argmax(counts != 1))
        raise MeshTopologyError(
            f"boundary edge {k} {_pair(declared[k])} is shared by {counts[k]} "
            "triangles (expected exactly 1)")
    undeclared = table.counts == 1
    undeclared[ids] = False
    if np.any(undeclared):
        e = int(np.argmax(undeclared))
        raise MeshTopologyError(
            f"edge {_pair(table.vertices[e])} lies on the boundary but is not "
            "declared as a boundary edge")

    # Boundary edges must form closed loops: as a directed graph every
    # touched vertex has in-degree 1 and out-degree 1.
    out_deg, in_deg = {}, {}
    for i, j, _ in mesh.boundary_edges:
        out_deg[i] = out_deg.get(i, 0) + 1
        in_deg[j] = in_deg.get(j, 0) + 1
    for v in set(out_deg) | set(in_deg):
        if out_deg.get(v, 0) != 1 or in_deg.get(v, 0) != 1:
            raise MeshTopologyError(
                f"boundary is not a closed loop at vertex {v} "
                f"(out {out_deg.get(v, 0)}, in {in_deg.get(v, 0)})")

    norms = np.hypot(mesh.edge_normals[:, 0], mesh.edge_normals[:, 1])
    if np.any(np.abs(norms - 1.0) > _GEOM_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise MeshTopologyError(f"normal of boundary edge {bad} is not unit length")

    # Shoelace area of the boundary loops must match the triangle total.
    vi = mesh.vertices[mesh.boundary_edges[:, 0]]
    vj = mesh.vertices[mesh.boundary_edges[:, 1]]
    loop_area = 0.5 * float(np.sum(vi[:, 0] * vj[:, 1] - vj[:, 0] * vi[:, 1]))
    total = float(areas.sum())
    if abs(loop_area - total) > _GEOM_TOL * max(1.0, abs(total)):
        raise MeshTopologyError(
            f"triangle areas sum to {total!r} but the boundary encloses {loop_area!r}")


def mesh_size(mesh: Mesh) -> float:
    """Longest triangle edge in the mesh."""
    ends = mesh.vertices[mesh.edges.vertices]
    d = ends[:, 1] - ends[:, 0]
    return float(np.hypot(d[:, 0], d[:, 1]).max(initial=0.0))


def _pair(p) -> tuple:
    """A vertex pair as plain ints, for messages."""
    return int(p[0]), int(p[1])
