import dataclasses
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsstokes import mesh as mesh_module
from epsstokes.fem import Space, vector_dofs
from epsstokes.mesh import (Mesh, MeshError, MeshFormatError, MeshTopologyError,
                            build_structured_mesh, load_mesh, validate_mesh)
from helpers import (affine_jittered_mesh, boundary_owner_loop,
                     edge_numbering_loop, loaded_parallelogram_mesh,
                     p2_boundary_nodes_loop, structured_mesh_loop)


def test_structured_counts_small():
    m1 = build_structured_mesh(1)
    assert (m1.num_triangles, m1.num_vertices, len(m1.boundary_edges)) == (2, 4, 4)
    m2 = build_structured_mesh(2)
    assert (m2.num_triangles, m2.num_vertices, len(m2.boundary_edges)) == (8, 9, 8)


def test_structured_counts_n4_and_area():
    m = build_structured_mesh(4)
    assert m.num_triangles == 32
    assert m.num_vertices == 25
    assert len(m.boundary_edges) == 16
    # shoelace oracle for the total area
    p = m.vertices[m.triangles]
    shoelace = 0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert abs(shoelace.sum() - 1.0) <= 1e-12
    assert abs(m.geometry[1].sum() / 2 - 1.0) <= 1e-12


def test_structured_counts_formula_up_to_128():
    for n in range(1, 129):
        m = build_structured_mesh(n)
        assert m.num_triangles == 2 * n * n
        assert m.num_vertices == (n + 1) * (n + 1)
        assert len(m.boundary_edges) == 4 * n


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


def test_boundary_normals_close_up():
    # discrete divergence theorem on a constant field
    for n in (1, 3, 8):
        m = build_structured_mesh(n)
        total = (m.boundary_edge_lengths()[:, None] * m.edge_normals).sum(axis=0)
        assert np.abs(total).max() <= 1e-12
        assert np.abs(np.hypot(*m.edge_normals.T) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_structured_mesh_matches_loop_reference(n):
    m = build_structured_mesh(n)
    for got, want in zip((m.vertices, m.triangles, m.boundary_edges),
                         structured_mesh_loop(n)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mesh_is_its_three_arrays():
    assert [f.name for f in dataclasses.fields(Mesh)] == [
        "vertices", "triangles", "boundary_edges"]
    m = build_structured_mesh(2)
    with pytest.raises(ValueError):
        m.edge_normals[0, 0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.edge_normals = None


def test_load_mesh_builds_one_edge_table(tmp_path, monkeypatch):
    # load_mesh orients the boundary with the edge table that the mesh, its
    # validation and its P2 space then share
    loaded_parallelogram_mesh(tmp_path)          # writes shear.mesh
    calls = []
    real = mesh_module.edge_table

    def counted(triangles):
        calls.append(len(triangles))
        return real(triangles)

    monkeypatch.setattr(mesh_module, "edge_table", counted)
    mesh = load_mesh(tmp_path / "shear.mesh")
    Space(mesh, 2)
    validate_mesh(mesh)
    assert calls == [mesh.num_triangles]


def _assert_normals_point_out(mesh):
    normals = mesh.edge_normals
    assert np.abs(np.hypot(*normals.T) - 1.0).max() <= 1e-12
    total = (mesh.boundary_edge_lengths()[:, None] * normals).sum(axis=0)
    assert np.abs(total).max() <= 1e-12
    ends = mesh.vertices[mesh.boundary_edges[:, :2]]
    owner = mesh.triangles[mesh.edges.owner[mesh.boundary_edge_ids]]
    away = ends.mean(axis=1) - mesh.vertices[owner].mean(axis=1)
    assert np.all(np.einsum("bc,bc->b", normals, away) > 0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
       angle=st.floats(0.0, 2 * np.pi), scale=st.tuples(st.floats(0.2, 5.0),
                                                       st.floats(0.2, 5.0)),
       shear=st.floats(-2.0, 2.0))
def test_derived_normals_point_out(n, seed, angle, scale, shear):
    c, s = np.cos(angle), np.sin(angle)
    linear = np.array([[c, -s], [s, c]]) @ np.array([[scale[0], shear], [0.0, scale[1]]])
    jittered = affine_jittered_mesh(n, seed, linear, offset=(3.0, -1.0))
    validate_mesh(jittered)
    _assert_normals_point_out(jittered)
    _assert_normals_point_out(_scrambled_structured_mesh(n, seed))


def _annulus_and_island(reverse):
    """The n = 3 unit-square mesh without its centre cell, and beside it a
    square island of that cell's size; reverse runs the hole's loop and the
    island's the wrong way, which leaves the shoelace area unchanged."""
    m = build_structured_mesh(3)
    island = build_structured_mesh(1)
    vertices = np.vstack([m.vertices, island.vertices / 3 + [2.0, 0.0]])
    triangles = np.vstack([np.delete(m.triangles, [8, 9], axis=0),
                           island.triangles + m.num_vertices])
    hole = np.array([[5, 9, 5], [9, 10, 5], [10, 6, 5], [6, 5, 5]])
    shore = island.boundary_edges + [m.num_vertices, m.num_vertices, 5]
    if reverse:
        hole, shore = hole[:, [1, 0, 2]], shore[:, [1, 0, 2]]
    return Mesh(vertices, triangles, np.vstack([m.boundary_edges, hole, shore]))


def test_reversed_boundary_rows_fail_validation():
    m = build_structured_mesh(3)
    one = m.boundary_edges.copy()
    one[4, :2] = one[4, 1::-1]
    validate_mesh(_annulus_and_island(reverse=False))
    for mesh, k in ((Mesh(m.vertices, m.triangles, m.boundary_edges[:, [1, 0, 2]]), 0),
                    (Mesh(m.vertices, m.triangles, one), 4),
                    (_annulus_and_island(reverse=True), 12)):
        with pytest.raises(MeshTopologyError,
                           match=rf"boundary edge {k} .* domain on its right"):
            validate_mesh(mesh)


def test_structured_markers():
    m = build_structured_mesh(2)
    mids = 0.5 * (m.vertices[m.boundary_edges[:, 0]]
                  + m.vertices[m.boundary_edges[:, 1]])
    for (mx, my), marker in zip(mids, m.boundary_edges[:, 2]):
        expected = {0.0: 4, 1.0: 2}.get(mx) if mx in (0.0, 1.0) else None
        if my == 0.0:
            expected = 1
        elif my == 1.0:
            expected = 3
        assert marker == expected


def test_mesh_is_immutable():
    m = build_structured_mesh(2)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0


def _structured_n1_text():
    return "\n".join([
        "mesh2d v1",
        "vertices 4",
        "0.0 0.0", "1.0 0.0", "0.0 1.0", "1.0 1.0",
        "triangles 2",
        "0 1 3", "0 3 2",
        "boundary 4",
        "0 1 1", "1 3 2", "3 2 3", "2 0 4",
        "",
    ])


def test_load_mesh_round_trip(tmp_path):
    path = tmp_path / "unit.mesh"
    path.write_text(_structured_n1_text())
    loaded = load_mesh(path)
    built = build_structured_mesh(1)
    # same geometry up to vertex numbering; this file uses the same numbering
    assert np.allclose(np.sort(loaded.vertices, axis=0),
                       np.sort(built.vertices, axis=0))
    assert loaded.num_triangles == built.num_triangles
    assert len(loaded.boundary_edges) == len(built.boundary_edges)
    assert abs(loaded.geometry[1].sum() / 2 - 1.0) <= 1e-12
    validate_mesh(loaded)


@pytest.mark.parametrize("tail, line", [
    ("vertices 3\n0 0\n1 1\nnot a number\n", "line 15: unexpected text after "
                                             "the boundary section: 'vertices 3'"),
    ("\n  \nnot a number", "line 17: unexpected text .*'not a number'"),
    ("\n  \n\n", None),
])
def test_load_mesh_refuses_text_after_the_boundary_section(tmp_path, tail, line):
    # blank lines may follow the last section; anything else is an error
    path = tmp_path / "tail.mesh"
    path.write_text(_structured_n1_text() + tail)
    if line is None:
        assert load_mesh(path).num_triangles == 2
    else:
        with pytest.raises(MeshFormatError, match=line):
            load_mesh(path)


def test_load_mesh_clockwise_triangle(tmp_path):
    path = tmp_path / "cw.mesh"
    path.write_text("\n".join([
        "mesh2d v1",
        "vertices 3",
        "0.0 0.0", "1.0 0.0", "0.0 1.0",
        "triangles 1",
        "0 2 1",
        "boundary 3",
        "0 1 1", "1 2 1", "2 0 1",
        "",
    ]))
    with pytest.raises(MeshTopologyError, match="triangle 0"):
        load_mesh(path)


def test_collapsed_affine_map_raises_before_dividing_by_det():
    # x -> [[0.5, 0.5], [0.5, 0.5]] x maps the square onto a line, so every
    # cell's det is 0: the geometry, and so a Discretization, refuse the mesh
    # instead of dividing by det (a RuntimeWarning, an error in the tests)
    from epsstokes.drivers import Discretization
    mesh = affine_jittered_mesh(2, 0, linear=((0.5, 0.5), (0.5, 0.5)))
    with pytest.raises(MeshTopologyError, match="triangle 0 has affine map"):
        mesh.geometry
    with pytest.raises(MeshTopologyError, match="determinant"):
        Discretization(mesh)


@pytest.mark.parametrize("vertices, det", [
    ([[0.0, 0.0], [1e160, 0.0], [0.0, 1e160]], "inf"),
    ([[-1e308, 0.0], [1e308, 0.0], [0.0, 0.0]], "nan"),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1e-310]], "1.000e-310"),
])
def test_validate_mesh_refuses_a_det_that_finite_coordinates_overflow(vertices, det):
    # det 1e320 overflows to inf, and an inf edge times 0 is nan: the overflow
    # used to warn (an error in the tests) before the refusal, and a check of
    # det > 0 alone accepts inf.  A subnormal det is positive and finite, but
    # its inverse map overflows: that used to warn, or validate as inf
    mesh = Mesh(np.array(vertices), np.array([[0, 1, 2]]),
                np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1]]))
    with pytest.raises(MeshTopologyError, match=f"triangle 0 has affine map determinant {det}"):
        validate_mesh(mesh)


def _three_triangle_strip(boundary_lines):
    # three CCW triangles on a 3x2 vertex strip; edge (1,3) is interior
    return "\n".join([
        "mesh2d v1",
        "vertices 5",
        "0.0 0.0", "1.0 0.0", "2.0 0.0", "0.0 1.0", "1.0 1.0",
        "triangles 3",
        "0 1 3", "1 4 3", "1 2 4",
        f"boundary {len(boundary_lines)}",
        *boundary_lines,
        "",
    ])


def test_load_mesh_dangling_boundary_edge(tmp_path):
    # declares the interior edge (1,3) as boundary: incidence count is 2
    path = tmp_path / "dangle.mesh"
    path.write_text(_three_triangle_strip(
        ["0 1 1", "1 2 1", "2 4 2", "4 3 3", "3 0 4", "1 3 1"]))
    with pytest.raises(MeshTopologyError, match=r"boundary edge 5 \(1, 3\) is shared by 2"):
        load_mesh(path)


def test_load_mesh_edge_of_no_triangle(tmp_path):
    path = tmp_path / "ghost.mesh"
    path.write_text(_three_triangle_strip(
        ["0 1 1", "1 2 1", "2 4 2", "4 3 3", "3 0 4", "0 4 1"]))
    with pytest.raises(MeshTopologyError, match="not an edge of any triangle"):
        load_mesh(path)


def test_load_mesh_missing_boundary_edge(tmp_path):
    path = tmp_path / "open.mesh"
    path.write_text(_three_triangle_strip(
        ["0 1 1", "1 2 1", "2 4 2", "4 3 3"]))
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_load_mesh_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mesh"
    path.write_text("mesh2d v1\nvertices 2\n0.0 0.0\n1.0 oops\n")
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(path)


@pytest.mark.parametrize("text, message", [
    ("mesh2d v2\nvertices 0\n", "line 1: expected header 'mesh2d v1', got 'mesh2d v2'"),
    ("\n\nmesh2d v1\n\nvertex 3\n", "line 5: expected 'vertices <count>', got 'vertex 3'"),
    ("mesh2d v1\nvertices 3 4\n", "line 2: expected 'vertices <count>', got 'vertices 3 4'"),
    ("mesh2d v1\nvertices 1\n0 0\nboundary 0\n",
     "line 4: expected 'triangles <count>', got 'boundary 0'"),
    ("", "line 1: unexpected end of file"),
    ("mesh2d v1\n", "line 2: unexpected end of file"),
    # the line after the file's last, blank lines counted
    ("mesh2d v1\nvertices 3\n0 0\n1 0\n\n\n", "line 7: unexpected end of file"),
    ("mesh2d v1\r\nvertices 1\r\n0 0\r\ntriangles 2\r\n0 0 0", "line 6: unexpected end of file"),
    ("mesh2d v1\nvertices 1\n0 0\ntriangles 0\nboundary 1\n",
     "line 6: unexpected end of file"),
])
def test_load_mesh_refuses_a_bad_header_or_an_early_end(tmp_path, text, message):
    path = tmp_path / "short.mesh"
    path.write_bytes(text.encode())
    with pytest.raises(MeshFormatError, match=f"^{re.escape(message)}$"):
        load_mesh(path)


@settings(max_examples=60, deadline=None)
@given(text=st.text(alphabet="ab \t\n\r\x0b\x0c\x1c\x85\u2028\u2029", max_size=40),
       size=st.integers(1, 6))
def test_read_lines_gives_the_lines_of_splitlines(text, size):
    # load_mesh reads a file in pieces; its lines and so the line numbers of
    # its errors are those of the whole text's str.splitlines
    def wrapper():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")

    pieces = list(mesh_module._read_lines(wrapper(), size))
    assert [line for piece in pieces for line in piece] == wrapper().read().splitlines()


def test_validate_mesh_refuses_triangles_that_cover_more_than_the_boundary():
    # three triangles folded into a fourth, each over one of its edges: every
    # triangle is counterclockwise and the boundary one closed loop, but the
    # triangles cover 0.8 where the loop encloses 0.2, running clockwise
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                         [0.5, 0.2], [0.4, 0.4], [0.2, 0.5]])
    triangles = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 4], [2, 0, 5]])
    boundary = np.array([[1, 3, 1], [3, 0, 1], [2, 4, 1], [4, 1, 1], [0, 5, 1], [5, 2, 1]])
    mesh = Mesh(vertices, triangles, boundary)
    with pytest.raises(MeshTopologyError, match=r"^triangle areas sum to 0\.79+\d but the "
                                                r"boundary encloses -0\.20+\d$"):
        validate_mesh(mesh)


@pytest.mark.parametrize("text, line", [
    ("mesh2d v1\nvertices -1\n", "line 2: bad count"),
    ("mesh2d v1\nvertices 1\n0 0\ntriangles 1\n0 0 99999999999999999999\n",
     "line 5: bad value"),
    ("\nmesh2d v1\n\nvertices 2\n0 0\n\n1 2 3\n", "line 7: expected 2 fields"),
    # every line one field too many: a shape np.loadtxt reads without error
    ("mesh2d v1\nvertices 2\n0 0 0\n1 1 1\n", "line 3: expected 2 fields"),
])
def test_load_mesh_format_errors_name_the_line(tmp_path, text, line):
    # blank lines count toward the line number
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=line):
        load_mesh(path)


@pytest.mark.parametrize("old, new, line", [
    ("0.0 0.0", "0_0.0 0.0", "line 3: bad value in '0_0.0 0.0'"),
    ("0 1 3", "0 1 0_3", "line 8: bad value in '0 1 0_3'"),
    # older numpy versions read 2.0 as the integer 2
    ("0 3 2", "0 3 2.0", "line 9: bad value in '0 3 2.0'"),
    # np.loadtxt splits fields at any Unicode space, U+2003 among them
    ("0.0 0.0", "0.0\u20030.0", None),
], ids=["float-underscore", "int-underscore", "int-point", "em-space"])
def test_load_mesh_reads_what_loadtxt_reads(tmp_path, old, new, line):
    # every section is read by np.loadtxt alone: what it refuses is an
    # error naming the line, and what it reads loads as usual
    path = tmp_path / "sections.mesh"
    path.write_text(_structured_n1_text())
    want = load_mesh(path)
    path.write_text(_structured_n1_text().replace(old, new, 1))
    if line is None:
        got = load_mesh(path)
        for a, b in ((got.vertices, want.vertices), (got.triangles, want.triangles),
                     (got.boundary_edges, want.boundary_edges)):
            assert np.array_equal(a, b)
    else:
        with pytest.raises(MeshFormatError, match=re.escape(line)):
            load_mesh(path)


@pytest.mark.parametrize("old, new, message", [
    ("1.0 1.0", "nan 1", r"vertex 3 has a coordinate that is not finite: \(nan, 1.0\)"),
    ("1.0 1.0", "1 -inf", r"vertex 3 has a coordinate that is not finite: \(1.0, -inf\)"),
    # a vertex no triangle uses leaves a zero row in every assembled system
    ("vertices 4\n0.0 0.0\n1.0 0.0\n0.0 1.0\n1.0 1.0",
     "vertices 5\n0.0 0.0\n1.0 0.0\n0.0 1.0\n1.0 1.0\n0.5 0.5",
     "vertex 4 is not a vertex of any triangle"),
], ids=["nan", "minus-inf", "unused"])
def test_load_mesh_refuses_a_vertex_the_solves_cannot_use(tmp_path, old, new, message):
    path = tmp_path / "vertex.mesh"
    path.write_text(_structured_n1_text().replace(old, new, 1))
    with pytest.raises(MeshTopologyError, match=message):
        load_mesh(path)


@pytest.mark.parametrize("old, new, message", [
    ("0 3 2", "0 3 4", "triangle 1 references a vertex out of range"),
    ("0 3 2", "0 -1 2", "triangle 1 references a vertex out of range"),
    # 2**31 is out of range before it is beyond int32, and is not wrapped
    ("0 3 2", "0 3 2147483648", "triangle 1 references a vertex out of range"),
    ("3 2 3", "3 4 3", "boundary edge 2 references a vertex out of range"),
    ("2 0 4", "-1 0 4", "boundary edge 3 references a vertex out of range"),
], ids=["triangle", "negative", "beyond-int32", "boundary", "boundary-negative"])
def test_load_mesh_refuses_an_index_out_of_range(tmp_path, old, new, message):
    path = tmp_path / "range.mesh"
    path.write_text(_structured_n1_text().replace(old, new, 1))
    with pytest.raises(MeshTopologyError, match=message):
        load_mesh(path)


@pytest.mark.parametrize("index", [2**31, -2**31 - 1])
def test_mesh_refuses_a_vertex_index_that_int32_cannot_hold(index):
    # int32 would wrap 2**31 to -2**31, and -2**31 - 1 to 2**31 - 1
    m = build_structured_mesh(1)
    triangles = m.triangles.astype(np.int64)
    triangles[1, 2] = index
    with pytest.raises(MeshTopologyError,
                       match=re.escape(f"triangle 1 references a vertex index that "
                                       f"int32 cannot hold: [0, 3, {index}]")):
        Mesh(m.vertices, triangles, m.boundary_edges)
    # the boundary edges keep their type, and a space narrows their ends
    boundary = m.boundary_edges.copy()
    boundary[2, 1] = index
    with pytest.raises(MeshTopologyError, match="boundary edge 2 references a vertex index"):
        Space(Mesh(m.vertices, m.triangles, boundary), 1)


def test_counts_that_int32_cannot_number_are_refused():
    # zero-stride arrays: nothing of their size is allocated
    triangles = np.broadcast_to(np.array([0, 1, 2], np.int32), (2**31 // 3 + 1, 3))
    with pytest.raises(MeshError, match="more local edges than int32 can number"):
        mesh_module.edge_table(triangles)
    # 2**31 vertices and 3 edges are more P2 nodes than int32 can number
    mesh = Mesh(np.broadcast_to(np.zeros(2), (2**31, 2)), np.array([[0, 1, 2]]),
                np.array([[0, 1, 1], [1, 2, 1], [2, 0, 1]]))
    with pytest.raises(ValueError, match="more P2 nodes than int32 can number"):
        Space(mesh, 2)


@pytest.mark.parametrize("row", [[1, 3, 2], [3, 1, 2]], ids=["same", "reversed"])
def test_validate_mesh_refuses_a_duplicate_boundary_edge(row):
    # an edge declared twice, in either direction
    m = build_structured_mesh(1)
    twice = np.vstack([m.boundary_edges, [row]])
    with pytest.raises(MeshTopologyError, match="boundary edge 4 duplicates edge 1"):
        validate_mesh(Mesh(m.vertices, m.triangles, twice))


def test_load_mesh_bad_header(tmp_path):
    path = tmp_path / "hdr.mesh"
    path.write_text("mesh3d v7\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh(path)


def test_load_mesh_reorients_boundary_edges(tmp_path):
    # same unit-square file but with two boundary edges written backwards
    text = _structured_n1_text().replace("0 1 1", "1 0 1").replace("2 0 4", "0 2 4")
    path = tmp_path / "rev.mesh"
    path.write_text(text)
    loaded = load_mesh(path)
    total = (loaded.boundary_edge_lengths()[:, None] * loaded.edge_normals).sum(axis=0)
    assert np.abs(total).max() <= 1e-12
    # bottom edge normal points down regardless of the declared direction
    mids = 0.5 * (loaded.vertices[loaded.boundary_edges[:, 0]]
                  + loaded.vertices[loaded.boundary_edges[:, 1]])
    bottom = np.where(mids[:, 1] == 0.0)[0][0]
    assert np.allclose(loaded.edge_normals[bottom], [0.0, -1.0])


def _without_last_boundary_edge(n):
    m = build_structured_mesh(n)
    return Mesh(m.vertices, m.triangles, m.boundary_edges[:-1])


def _with_repeated_triangle():
    m = build_structured_mesh(1)
    return Mesh(m.vertices, np.vstack([m.triangles, m.triangles[:1]]),
                m.boundary_edges)


@pytest.mark.parametrize("mesh, message", [
    (_without_last_boundary_edge(2), "lies on the boundary"),
    (_with_repeated_triangle(), "is shared by more than 2 triangles"),
])
def test_topology_errors_name_the_edge_as_plain_ints(mesh, message):
    with pytest.raises(MeshTopologyError, match=r"edge \(0, 3\) " + message):
        validate_mesh(mesh)


def _corner_chain(labels):
    """Triangles joined corner to corner along the diagonal, each sharing
    only one vertex with the next; vertex k of the chain gets labels[k]."""
    count = (len(labels) - 1) // 2
    chain = np.array([[0.0, 0.0]] + [[k + 1.0, k + d] for k in range(count)
                                     for d in (0.0, 1.0)])
    vertices = np.zeros((max(labels) + 1, 2))
    vertices[labels] = chain
    labels = np.asarray(labels)
    triangles = labels[np.array([[2 * k, 2 * k + 1, 2 * k + 2] for k in range(count)])]
    edges = triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    boundary = np.column_stack([edges, np.ones(len(edges), dtype=np.int64)])
    return Mesh(vertices, triangles, boundary)


@pytest.mark.parametrize("labels, vertex", [
    ([0, 1, 2, 3, 4], 2),                 # a bowtie: (0,1,2) and (2,3,4)
    ([0, 1, 33, 3, 2, 4, 5], 2),          # two pinch vertices, 33 and 2
])
def test_boundary_pinched_at_a_vertex_is_not_a_closed_loop(labels, vertex):
    # each pinch vertex starts and ends two boundary edges; the error names
    # the smallest such vertex
    with pytest.raises(MeshTopologyError,
                       match=rf"not a closed loop at vertex {vertex} \(out 2, in 2\)"):
        validate_mesh(_corner_chain(labels))


def _scrambled_structured_mesh(n, seed):
    """Structured mesh with interior vertices jittered, vertices relabelled
    and each triangle's vertex list rotated (orientation kept)."""
    rng = np.random.default_rng(seed)
    m = build_structured_mesh(n)
    vertices = m.vertices.copy()
    interior = ~np.isin(np.arange(m.num_vertices), m.boundary_edges[:, :2])
    vertices[interior] += rng.uniform(-0.1, 0.1, (interior.sum(), 2)) / n
    perm = rng.permutation(m.num_vertices)
    relabelled = np.empty_like(vertices)
    relabelled[perm] = vertices
    shift = rng.integers(0, 3, m.num_triangles)
    cols = (np.arange(3)[None, :] + shift[:, None]) % 3
    triangles = perm[np.take_along_axis(m.triangles, cols, axis=1)]
    boundary = m.boundary_edges.copy()
    boundary[:, :2] = perm[boundary[:, :2]]
    mesh = Mesh(relabelled, triangles, boundary)
    validate_mesh(mesh)
    return mesh


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_edge_table_matches_loop_reference(n, seed):
    mesh = _scrambled_structured_mesh(n, seed)
    edge_index, tri_edges, counts = edge_numbering_loop(mesh)
    table = mesh.edges
    assert np.array_equal(table.vertices, np.array(list(edge_index), dtype=np.int64))
    assert np.array_equal(table.tri_edges, tri_edges)
    assert np.array_equal(table.counts, counts)
    assert np.array_equal(table.tri_edges[table.owner, table.owner_local],
                          np.arange(len(counts)))
    assert np.array_equal(table.owner[mesh.boundary_edge_ids],
                          boundary_owner_loop(mesh))

    space = Space(mesh, 2)
    assert np.array_equal(space.cells,
                          np.hstack([mesh.triangles, tri_edges + mesh.num_vertices]))
    bnodes = p2_boundary_nodes_loop(mesh, edge_index)
    assert np.array_equal(space.boundary_nodes, bnodes)
    assert np.array_equal(vector_dofs(space.boundary_nodes),
                          np.sort(np.concatenate([2 * bnodes, 2 * bnodes + 1])))

    # load_mesh turns boundary edges written backwards to run with the
    # domain on their left again
    rng = np.random.default_rng(seed)
    written = mesh.boundary_edges.copy()
    flip = rng.random(len(written)) < 0.5
    written[flip, :2] = written[flip, 1::-1]
    text = ["mesh2d v1", f"vertices {mesh.num_vertices}"]
    text += [f"{x!r} {y!r}" for x, y in mesh.vertices.tolist()]
    text += [f"triangles {mesh.num_triangles}"]
    text += [" ".join(map(str, t)) for t in mesh.triangles.tolist()]
    text += [f"boundary {len(written)}"]
    text += [" ".join(map(str, e)) for e in written.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scrambled.mesh"
        path.write_text("\n".join(text) + "\n")
        loaded = load_mesh(path)
    assert np.array_equal(loaded.boundary_edges, mesh.boundary_edges)
