"""Conforming triangulations of polygons: construction, file import, validation.

A mesh is three arrays: its vertices, its straight-edged triangles with
counterclockwise orientation, and its boundary edges with integer markers,
each running with the domain on its left.  Everything else, the outward
normals included, is derived from them.  Meshes are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, islice
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

    Every array is int32.
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
        slot = np.full(len(both), -1, dtype=np.int32)
        slot[inverse[:len(self.vertices)]] = np.arange(len(self.vertices))
        return slot[inverse[len(self.vertices):]]


def edge_table(triangles) -> EdgeTable:
    """Enumerate the edges of (M, 3) triangles; see EdgeTable.  Refuses
    triangles with more local edges than int32 can number."""
    tris = np.asarray(triangles).reshape(-1, 3)
    if 3 * len(tris) - 1 > np.iinfo(np.int32).max:
        raise MeshError(f"{len(tris)} triangles have more local edges than "
                        "int32 can number")
    tris = int32_indices(tris, "triangle")
    pairs = np.sort(tris[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
    _, first, inverse, counts = np.unique(
        _pair_keys(pairs), return_index=True, return_inverse=True, return_counts=True)
    # np.unique orders the edges by key; renumber them in first-seen order
    order = np.argsort(first)
    rank = np.empty(len(order), np.int32)
    rank[order] = np.arange(len(order))
    first = first[order].astype(np.int32)
    table = EdgeTable(vertices=pairs[first],
                      tri_edges=rank[inverse].reshape(-1, 3),
                      counts=counts[order].astype(np.int32), owner=first // 3,
                      owner_local=first % 3)
    for arr in table:
        arr.setflags(write=False)
    return table


def _pair_keys(pairs) -> np.ndarray:
    """One integer per (N, 2) row of sorted vertex pairs; equal rows only
    share a key."""
    pairs = pairs.astype(np.int64, copy=False)     # int32 products would wrap
    return pairs[:, 0] * (pairs.max(initial=0) + 1) + pairs[:, 1]


def int32_indices(indices, what: str) -> np.ndarray:
    """(M, k) vertex indices as int32, the same array if they are int32
    already.  A row with an index that int32 cannot hold is refused, naming
    it as `what` and its number, never wrapped."""
    indices = np.asarray(indices)
    info = np.iinfo(np.int32)
    if (not np.can_cast(indices.dtype, np.int32) and indices.size
            and (indices.min() < info.min or indices.max() > info.max)):
        k = int(np.argmax(((indices < info.min) | (indices > info.max)).any(axis=1)))
        raise MeshTopologyError(f"{what} {k} references a vertex index that "
                                f"int32 cannot hold: {indices[k].tolist()}")
    return indices.astype(np.int32, copy=False)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation of a polygon.

    vertices       : (K, 2) float array of coordinates
    triangles      : (M, 3) int32 array of vertex indices, counterclockwise;
                     other integer types are narrowed, and an index that
                     int32 cannot hold is refused
    boundary_edges : (B, 3) int array of rows (i, j, marker), each edge
                     running from i to j with the domain on its left; its
                     integer type is kept

    Derived data is computed on first use and stored on the mesh itself, so
    it lives and dies with the mesh: ``edge_normals`` (the unit outward
    normal of each boundary edge), ``edges`` (the int32 EdgeTable of the
    triangles), ``boundary_edge_ids`` (the int32 edge id of each boundary
    edge) and ``geometry`` (the affine map of each triangle: the inverse
    Jacobian and the determinant).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "triangles", int32_indices(self.triangles, "triangle"))
        for arr in (self.vertices, self.triangles, self.boundary_edges):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """(B, 2) unit outward normal of each boundary edge: its direction
        turned by -90 degrees, as the domain lies on its left."""
        d = (self.vertices[self.boundary_edges[:, 1]]
             - self.vertices[self.boundary_edges[:, 0]])
        length = np.hypot(d[:, 0], d[:, 1])
        if np.any(length <= 0.0):
            k = int(np.argmin(length))
            raise MeshTopologyError(f"boundary edge {k} has zero length")
        normals = np.column_stack((d[:, 1], -d[:, 0])) / length[:, None]
        normals.setflags(write=False)
        return normals

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
        """Affine map of each triangle from the reference triangle, whose
        Jacobian J has the columns p1 - p0 and p2 - p0: (inv, det), J^-1 and
        det J, of shapes (M,2,2) and (M,).  J itself is not kept.  Raises
        MeshTopologyError for a cell whose det is not positive and finite,
        or whose inverse is not finite, which no quadrature or inverse map
        can use: finite coordinates can give an inf or nan det, and a
        subnormal det an inf inverse, refused here, not warned of."""
        p = np.take(self.vertices, self.triangles, axis=0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            jac = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
            del p
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            # adj([[a, b], [c, d]]) = [[d, -b], [-c, a]], then over det in place
            inv = jac[:, ::-1, ::-1].transpose(0, 2, 1) * [[1.0, -1.0], [-1.0, 1.0]]
            del jac
            inv /= det[:, None, None]
        bad = ~(np.isfinite(det) & (det > 0.0) & np.isfinite(inv).all(axis=(1, 2)))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise MeshTopologyError(
                f"triangle {k} has affine map determinant {det[k]:.3e} "
                "(collapsed, clockwise, not finite or with no finite inverse)")
        for arr in (inv, det):
            arr.setflags(write=False)
        return inv, det

    def boundary_edge_lengths(self) -> np.ndarray:
        d = (self.vertices[self.boundary_edges[:, 1]]
             - self.vertices[self.boundary_edges[:, 0]])
        return np.hypot(d[:, 0], d[:, 1])


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

    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)     # vid[j, i]
    v00, v10, v01, v11 = vid[:-1, :-1], vid[:-1, 1:], vid[1:, :-1], vid[1:, 1:]
    # per cell: below the SW-NE diagonal, then above it
    triangles = np.stack((v00, v10, v11, v00, v11, v01), axis=-1).reshape(-1, 3)
    # counterclockwise from (0, 0): bottom, right, top, left
    loop = np.concatenate((vid[0, :-1], vid[:-1, -1], vid[-1, :0:-1], vid[:0:-1, 0]))
    boundary_edges = np.column_stack(
        (loop, np.roll(loop, -1), np.repeat([BOTTOM, RIGHT, TOP, LEFT], n)))

    mesh = Mesh(vertices, triangles, boundary_edges)
    validate_mesh(mesh)
    return mesh


def load_mesh(path) -> Mesh:
    """Read a mesh from the ASCII format.

    Format: header line ``mesh2d v1``; ``vertices K`` followed by K lines
    ``x y``; ``triangles M`` followed by M lines ``i j k``; ``boundary B``
    followed by B lines ``i j marker``.  Indices are 0-based.  Blank lines
    are skipped; any other text after the boundary section is refused.
    Boundary edges are reoriented to run with the domain on their left.

    Each section is read by np.loadtxt.  A section it refuses, or reads in
    another shape, is read again one line at a time to name the first bad
    line.  The file is read as the sections need it, so one section's
    lines at most are held at once.  Its lines are those of str.splitlines,
    and only an error message reads the whole file, to number its lines.
    """
    pos = 0                 # the non-blank lines taken so far

    def lineno(i):
        """File line number of the i-th non-blank line; only error messages
        need it."""
        return [k for k, line in enumerate(_lines(path), 1) if line.strip()][i]

    def take(count):
        nonlocal pos
        got = list(islice(texts, count))
        pos += len(got)
        if len(got) < count:
            raise MeshFormatError(f"line {len(_lines(path)) + 1}: unexpected end of file")
        return got

    def read_section(keyword, width, dtype):
        [head] = take(1)
        parts = head.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFormatError(f"line {lineno(pos - 1)}: expected "
                                  f"'{keyword} <count>', got {head!r}")
        try:
            count = int(parts[1])
        except ValueError:
            count = -1
        if count < 0:
            raise MeshFormatError(f"line {lineno(pos - 1)}: bad count {parts[1]!r}")
        first = pos
        body = take(count)
        try:
            return _loadtxt_rows(body, dtype, width)
        except ValueError:
            for k, line in enumerate(body):                 # find the bad line
                try:
                    _loadtxt_rows([line], dtype, width)
                except ValueError as err:
                    raise MeshFormatError(f"line {lineno(first + k)}: {err}") from None
            raise

    with open(path) as fh:
        texts = filter(None, map(str.strip, chain.from_iterable(_read_lines(fh))))
        [header] = take(1)
        if header != "mesh2d v1":
            raise MeshFormatError(f"line {lineno(pos - 1)}: expected header "
                                  f"'mesh2d v1', got {header!r}")
        vertices = read_section("vertices", 2, float)
        triangles = read_section("triangles", 3, np.int64)
        boundary = read_section("boundary", 3, np.int64)
        rest = next(texts, None)                # to the end, blank lines allowed
    if rest is not None:
        raise MeshFormatError(f"line {lineno(pos)}: unexpected text after the "
                              f"boundary section: {rest!r}")

    nv = len(vertices)
    if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
        bad = int(np.argwhere((triangles < 0) | (triangles >= nv))[0][0])
        raise MeshTopologyError(f"triangle {bad} references a vertex out of range")
    if boundary.size and (boundary[:, :2].min() < 0 or boundary[:, :2].max() >= nv):
        bad = int(np.argwhere((boundary[:, :2] < 0) | (boundary[:, :2] >= nv))[0][0])
        raise MeshTopologyError(f"boundary edge {bad} references a vertex out of range")
    triangles = int32_indices(triangles, "triangle")

    # Reorient each declared boundary edge to match the traversal of its
    # owning triangle (domain on the left).
    table = edge_table(triangles)
    ids = table.find(boundary[:, :2])
    if np.any(ids < 0):
        k = int(np.argmax(ids < 0))
        i, j, _ = boundary[k]
        raise MeshTopologyError(
            f"boundary edge {k} ({i},{j}) is not an edge of any triangle")
    single = table.counts[ids] == 1
    oriented = boundary.copy()
    oriented[single, :2] = _traversed(triangles, table, ids[single])

    mesh = Mesh(vertices, triangles, oriented)
    ids.setflags(write=False)
    vars(mesh).update(edges=table, boundary_edge_ids=ids)   # as cached values
    validate_mesh(mesh)
    return mesh


def _lines(path) -> list:
    """The lines of the file at path."""
    with open(path) as fh:
        return fh.read().splitlines()


def _read_lines(fh, size=1 << 16):
    """The lines of the text file fh, those of fh.read().splitlines(), in
    one list per read of size characters.  A file read as text has its
    carriage returns already turned into newlines, so the one line boundary
    of two characters never spans two reads.  A sentinel character after
    each read ends the last piece, the start of a line that the next read
    continues, or "" after a line boundary."""
    tail = ""
    for chunk in iter(partial(fh.read, size), ""):
        lines = (tail + chunk + ".").splitlines()
        tail = lines.pop()[:-1]
        yield lines
    if tail:
        yield [tail]


# Characters of a number that int() refuses and numpy's float parser reads:
# a point, an exponent, inf and nan.
_FLOAT_MARKS = ".eEiInN"


def _loadtxt_rows(lines: list, dtype, width: int) -> np.ndarray:
    """The (len(lines), width) rows of a section's lines by np.loadtxt.

    Raises ValueError where loadtxt refuses the lines or reads another
    shape, with a message that fits a single line, as load_mesh reads a
    refused section again line by line.  So does an integer section holding
    a character of a float: older numpy versions read 2.0 as the integer 2,
    with a DeprecationWarning (numpy 2.4 refuses it).
    """
    if not lines:                          # loadtxt warns on no lines
        return np.empty((0, width), dtype=dtype)
    try:
        if np.issubdtype(dtype, np.integer):
            text = "\n".join(lines)
            if any(mark in text for mark in _FLOAT_MARKS):
                raise ValueError
        rows = np.loadtxt(lines, dtype=dtype, ndmin=2, comments=None)
    except (ValueError, OverflowError):
        raise ValueError(f"bad value in {lines[0]!r}") from None
    if rows.shape != (len(lines), width):
        raise ValueError(f"expected {width} fields, got {rows.shape[1]}")
    return rows


def validate_mesh(mesh: Mesh) -> None:
    """Enforce all mesh invariants; raises MeshTopologyError on violation."""
    finite = np.isfinite(mesh.vertices).all(axis=1)
    if not finite.all():
        v = int(np.argmin(finite))
        raise MeshTopologyError(f"vertex {v} has a coordinate that is not finite: "
                                f"{tuple(mesh.vertices[v].tolist())}")
    _, det = mesh.geometry            # refuses clockwise and collapsed triangles

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
    backwards = np.any(mesh.boundary_edges[:, :2]
                       != _traversed(mesh.triangles, table, ids), axis=1)
    if np.any(backwards):
        k = int(np.argmax(backwards))
        raise MeshTopologyError(f"boundary edge {k} {_pair(mesh.boundary_edges[k])} "
                                "runs with the domain on its right")

    # Boundary edges must form closed loops: as a directed graph every
    # touched vertex has in-degree 1 and out-degree 1.
    out_deg = np.bincount(mesh.boundary_edges[:, 0], minlength=mesh.num_vertices)
    in_deg = np.bincount(mesh.boundary_edges[:, 1], minlength=mesh.num_vertices)
    off_loop = (out_deg != in_deg) | (out_deg > 1)
    if np.any(off_loop):
        v = int(np.argmax(off_loop))                 # the smallest such vertex
        raise MeshTopologyError(
            f"boundary is not a closed loop at vertex {v} "
            f"(out {out_deg[v]}, in {in_deg[v]})")

    # Shoelace area of the boundary loops must match the triangle total.
    vi = mesh.vertices[mesh.boundary_edges[:, 0]]
    vj = mesh.vertices[mesh.boundary_edges[:, 1]]
    loop_area = 0.5 * float(np.sum(vi[:, 0] * vj[:, 1] - vj[:, 0] * vi[:, 1]))
    total = 0.5 * float(det.sum())
    if abs(loop_area - total) > _GEOM_TOL * max(1.0, abs(total)):
        raise MeshTopologyError(
            f"triangle areas sum to {total!r} but the boundary encloses {loop_area!r}")

    unused = np.ones(mesh.num_vertices, dtype=bool)
    unused[mesh.triangles] = False
    if np.any(unused):
        v = int(np.argmax(unused))
        raise MeshTopologyError(f"vertex {v} is not a vertex of any triangle")


def _traversed(triangles, table: EdgeTable, ids) -> np.ndarray:
    """(len(ids), 2) ends of edges ids in the direction their owner
    triangles traverse them, which keeps the triangle on the left:
    counterclockwise, local edge k runs from vertex k to vertex (k + 1) % 3."""
    local = table.owner_local[ids, None] + np.array([0, 1])
    return triangles[table.owner[ids, None], local % 3]


def _pair(p) -> tuple:
    """A vertex pair as plain ints, for messages."""
    return int(p[0]), int(p[1])
