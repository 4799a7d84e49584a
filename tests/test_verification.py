import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epsstokes import fem
from epsstokes.drivers import Discretization
from epsstokes.fem import Field, Space
from epsstokes.mesh import build_structured_mesh
from epsstokes.verification import (CSV_COLUMNS, CSV_SCHEMA, ErrorRow,
                                    ErrorTable, diff_field, div_l2, error_gap,
                                    error_h1, error_l2, fit_log_slope, gap,
                                    gap_quotient_l2, gauss_formula_residual,
                                    get_case, quotient_norm_l2, registry,
                                    saturation_filter, seminorm_h1,
                                    trace_mismatch)
import helpers
from helpers import affine_jittered_mesh


# ---------------------------------------------------------------------------
# manufactured cases


def test_registry_names_and_deltas():
    cases = {c.name: c for c in registry()}
    assert cases["ms1"].delta == 0.0
    assert cases["ms1-mismatch"].delta == 1.0
    assert get_case("ms1-mismatch", delta=0.5).delta == 0.5
    with pytest.raises(KeyError):
        get_case("nope")


def _closed_form_inputs():
    """(x, y) pairs of each kind a closed form is called with: Python
    scalars, 1-D arrays, a jittered mesh's (B, Q) quadrature points and
    (n, 1) x (1, m) arrays that broadcast."""
    rng = np.random.default_rng(4)
    mesh = affine_jittered_mesh(6, 2)
    return [(0.3, 0.7), (0.0, 1.0), (rng.random(50), rng.random(50)),
            fem.quad_points_physical(mesh, fem.triangle_rule_d5()),
            fem.quad_points_physical(mesh, fem.triangle_rule_d5(), slice(5, 9)),
            (np.linspace(-0.5, 1.5, 5)[:, None], np.linspace(0.0, 1.0, 7)[None, :])]


@pytest.mark.parametrize("name", ["ms1", "ms1-mismatch"])
def test_case_closed_forms_equal_the_stacked_forms_bit_for_bit(name):
    # each closed form evaluates every bump factor once and writes its
    # components into one array; the values are those of each component's
    # own expression stacked by np.stack, bit for bit.  np.stack needs
    # components of one shape, so the oracle reads x and y broadcast.
    case = get_case(name)
    pairs = [(case.u_exact, helpers.ms1_u_stack),
             (case.grad_u_exact, helpers.ms1_grad_u_stack),
             (case.p_exact, helpers.ms1_p_stack),
             (case.grad_p_exact, helpers.ms1_grad_p_stack),
             (case.body_force, helpers.ms1_force_stack),
             (case.p_bc(), helpers.ms1_p_bc_stack(case.delta))]
    for x, y in _closed_form_inputs():
        for f, oracle in pairs:
            got = np.asarray(f(x, y))
            want = np.asarray(oracle(*np.broadcast_arrays(x, y)))
            assert got.shape == want.shape, (f, np.shape(x))
            assert got.dtype == want.dtype and got.dtype.kind == "f"
            assert got.tobytes() == want.tobytes(), (f, np.shape(x))


def test_case_velocity_is_divergence_free():
    case = get_case("ms1")
    rng = np.random.default_rng(0)
    x, y = rng.random(50), rng.random(50)
    g = case.grad_u_exact(x, y)
    assert np.abs(g[..., 0, 0] + g[..., 1, 1]).max() == 0.0


def test_case_pressure_has_zero_mean():
    case = get_case("ms1")
    # Gauss-Legendre product oracle on the unit square
    t, w = np.polynomial.legendre.leggauss(8)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    mean = np.einsum("i,j,ij->", w, w, case.p_exact(t[:, None], t[None, :]))
    assert abs(mean) <= 1e-14


def test_case_velocity_vanishes_on_boundary():
    case = get_case("ms1")
    s = np.linspace(0.0, 1.0, 33)
    for xs, ys in ((s, np.zeros_like(s)), (s, np.ones_like(s)),
                   (np.zeros_like(s), s), (np.ones_like(s), s)):
        assert np.abs(case.u_exact(xs, ys)).max() == 0.0


def test_case_forcing_matches_finite_differences():
    # independent oracle: -lap(u) + grad(p) by central differences
    case = get_case("ms1")
    h = 1e-3
    rng = np.random.default_rng(4)
    x, y = 0.1 + 0.8 * rng.random(20), 0.1 + 0.8 * rng.random(20)

    def lap(f, x, y):
        return (f(x + h, y) + f(x - h, y) + f(x, y + h) + f(x, y - h)
                - 4.0 * f(x, y)) / (h * h)

    lap_u = lap(case.u_exact, x, y)
    gp = np.stack([(case.p_exact(x + h, y) - case.p_exact(x - h, y)) / (2 * h),
                   (case.p_exact(x, y + h) - case.p_exact(x, y - h)) / (2 * h)],
                  axis=-1)
    assert np.abs(-lap_u + gp - case.body_force(x, y)).max() <= 1e-4


def test_case_gradients_match_finite_differences():
    case = get_case("ms1")
    h = 1e-6
    x, y = np.array([0.3, 0.7]), np.array([0.2, 0.9])
    du_dx = (case.u_exact(x + h, y) - case.u_exact(x - h, y)) / (2 * h)
    du_dy = (case.u_exact(x, y + h) - case.u_exact(x, y - h)) / (2 * h)
    g = case.grad_u_exact(x, y)
    assert np.abs(g[..., 0] - du_dx).max() <= 1e-8
    assert np.abs(g[..., 1] - du_dy).max() <= 1e-8
    gp = case.grad_p_exact(x, y)
    dp_dx = (case.p_exact(x + h, y) - case.p_exact(x - h, y)) / (2 * h)
    assert np.abs(gp[..., 0] - dp_dx).max() <= 1e-8


def test_mismatch_pressure_bc_scales_with_delta():
    base = get_case("ms1-mismatch", delta=0.5)
    x, y = np.array([0.25]), np.array([0.0])
    expected = base.p_exact(x, y) + 0.5 * np.cos(np.pi * x) * np.cos(np.pi * y)
    assert np.abs(base.p_bc()(x, y) - expected).max() == 0.0


# ---------------------------------------------------------------------------
# norms


def test_error_norms_vanish_on_exact_representation():
    mesh = build_structured_mesh(4)
    for degree in (1, 2):
        space = Space(mesh, degree=degree)
        if degree == 1:
            poly = lambda x, y: 2.0 * x - y + 0.25
            grad = lambda x, y: np.broadcast_to([2.0, -1.0], np.broadcast(x, y).shape + (2,))
        else:
            poly = lambda x, y: x * x - x * y + 3.0 * y
            grad = lambda x, y: np.stack([2 * x - y, -x + 3.0 * np.ones_like(y)], axis=-1)
        f = Field(space, poly(space.node_coords[:, 0], space.node_coords[:, 1]))
        assert error_l2(f, poly) <= 1e-11
        assert error_h1(f, poly, grad) <= 1e-11


def test_norm_of_constant_field():
    mesh = build_structured_mesh(3)
    space = Space(mesh, degree=1)
    f = Field(space, np.full(space.ndofs, -2.5))
    assert abs(error_l2(f, None) - 2.5) <= 1e-12


def test_interpolation_error_ratio_order_two():
    vals = {}
    for n in (8, 16):
        mesh = build_structured_mesh(n)
        space = Space(mesh, degree=1)
        coeff = np.sin(np.pi * space.node_coords[:, 0]) * np.sin(np.pi * space.node_coords[:, 1])
        f = Field(space, coeff)
        vals[n] = error_l2(f, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert 3.6 <= vals[8] / vals[16] <= 4.4


def test_quotient_norm_gauge_invariance():
    mesh = build_structured_mesh(5)
    space = Space(mesh, degree=1)
    exact = lambda x, y: 2.0 * x - y
    f = Field(space, exact(space.node_coords[:, 0], space.node_coords[:, 1]) + 7.3)
    assert quotient_norm_l2(f, exact) <= 1e-10
    g = Field(space, exact(space.node_coords[:, 0], space.node_coords[:, 1]))
    assert quotient_norm_l2(g, exact) <= 1e-12


def test_quotient_norm_closed_form():
    # difference x - 1/2 has quotient norm sqrt(1/12)
    mesh = build_structured_mesh(6)
    space = Space(mesh, degree=1)
    f = Field(space, space.node_coords[:, 0] - 0.5)
    assert abs(quotient_norm_l2(f, None) - np.sqrt(1.0 / 12.0)) <= 1e-12


def test_error_ops_absolutely_homogeneous():
    mesh = build_structured_mesh(4)
    space = Space(mesh, degree=2)
    rng = np.random.default_rng(2)
    diff = rng.standard_normal(space.ndofs)
    for alpha in (-3.0, 0.5, 2.0):
        a = Field(space, alpha * diff)
        base_l2 = error_l2(Field(space, diff), None)
        base_q = quotient_norm_l2(Field(space, diff), None)
        base_h1 = error_h1(Field(space, diff), None, None)
        assert abs(error_l2(a, None) - abs(alpha) * base_l2) <= 1e-12 * base_l2
        assert abs(quotient_norm_l2(a, None) - abs(alpha) * base_q) <= 1e-12 * base_q
        assert abs(error_h1(a, None, None) - abs(alpha) * base_h1) <= 1e-12 * base_h1


# ---------------------------------------------------------------------------
# gap norms as Gram forms


def _assert_gaps_match_quadrature(mesh, seed):
    """Every Gram form of random P2 (n, 2) and P1 gaps on mesh against its
    quadrature norm, to 1e-12 relative."""
    disc = Discretization(mesh)
    rng = np.random.default_rng(seed)
    pairs = [(Field(disc.vspace, rng.standard_normal((disc.vspace.ndofs, 2))),
              Field(disc.vspace, rng.standard_normal((disc.vspace.ndofs, 2)))),
             (Field(disc.pspace, rng.standard_normal(disc.pspace.ndofs)),
              Field(disc.pspace, rng.standard_normal(disc.pspace.ndofs)))]
    for a, b in pairs:
        e, g = diff_field(a, b), gap(disc, a, b)
        for got, want in ((g.l2, error_l2(e, None)), (g.seminorm, seminorm_h1(e)),
                          (g.h1, error_h1(e, None, None))):
            assert abs(got - want) <= 1e-12 * want
    a, b = pairs[1]
    want = quotient_norm_l2(diff_field(a, b), None)
    assert abs(gap_quotient_l2(disc, a, b) - want) <= 1e-12 * want


def test_gap_forms_match_quadrature_structured():
    _assert_gaps_match_quadrature(build_structured_mesh(8), 0)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
       linear=st.tuples(st.floats(0.5, 2.0), st.floats(-0.4, 0.4),
                        st.floats(-0.4, 0.4), st.floats(0.5, 2.0)))
def test_gap_forms_match_quadrature_jittered(n, seed, linear):
    # det = a11 a22 - a12 a21 >= 0.25 - 0.16: the map never collapses a cell
    a11, a12, a21, a22 = linear
    mesh = affine_jittered_mesh(n, seed, linear=((a11, a12), (a21, a22)),
                                offset=(0.3, -1.7))
    _assert_gaps_match_quadrature(mesh, seed)


@pytest.mark.parametrize("mesh", [build_structured_mesh(8), affine_jittered_mesh(6, 3)],
                         ids=["structured", "jittered"])
def test_gap_stiffness_form_equals_the_raw_stiffness_form(mesh):
    # gap reads e.K e from the eliminated system: to round-off when the
    # fields' fixed values differ, and bit for bit when they share them
    disc = Discretization(mesh)
    rng = np.random.default_rng(7)
    for space, shape in ((disc.vspace, (disc.vspace.ndofs, 2)),
                         (disc.pspace, (disc.pspace.ndofs,))):
        k = fem.assemble_stiffness(space)
        a = Field(space, rng.standard_normal(shape))
        b = Field(space, rng.standard_normal(shape))
        e = a.coefficients - b.coefficients
        want = float(np.vdot(e, k @ e))
        assert abs(gap(disc, a, b).semi_sq - want) <= 1e-14 * want
        shared = b.coefficients.copy()
        shared[space.boundary_nodes] = a.coefficients[space.boundary_nodes]
        e = a.coefficients - shared
        assert gap(disc, a, Field(space, shared)).semi_sq == float(np.vdot(e, k @ e))


def test_gap_quotient_norm_of_a_nearly_constant_gap():
    # a gap of 1e3 plus a small perturbation: the mean shift leaves the
    # perturbation's own quotient norm, free of cancellation against 1e3
    disc = Discretization(build_structured_mesh(8))
    rng = np.random.default_rng(3)
    small = 1e-6 * rng.standard_normal(disc.pspace.ndofs)
    b = Field(disc.pspace, rng.standard_normal(disc.pspace.ndofs))
    a = Field(disc.pspace, b.coefficients + 1e3 + small)
    want = quotient_norm_l2(Field(disc.pspace, small), None)
    assert abs(gap_quotient_l2(disc, a, b) - want) <= 1e-8 * want
    assert abs(quotient_norm_l2(diff_field(a, b), None) - want) <= 1e-8 * want


def test_gap_forms_reject_fields_off_the_discretization():
    disc = Discretization(build_structured_mesh(3))
    other = Discretization(build_structured_mesh(3))
    p, u = Field(disc.pspace, np.ones(disc.np_)), Field(disc.vspace, np.ones((disc.nu // 2, 2)))
    p_other = Field(other.pspace, np.ones(other.np_))
    with pytest.raises(ValueError, match="different spaces"):
        gap(disc, p, p_other)
    with pytest.raises(ValueError, match="discretization's spaces"):
        gap(disc, p_other, p_other)
    with pytest.raises(ValueError, match="pressure fields"):
        gap_quotient_l2(disc, u, u)
    assert gap(disc, u, u) == (0.0, 0.0)


def test_trace_mismatch_values():
    mesh = build_structured_mesh(8)
    case = get_case("ms1")
    assert trace_mismatch(case.p_exact, case.p_exact, mesh) == 0.0
    mis = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)
    one = trace_mismatch(lambda x, y: case.p_exact(x, y) + mis(x, y),
                         case.p_exact, mesh)
    two = trace_mismatch(lambda x, y: case.p_exact(x, y) + 2.0 * mis(x, y),
                         case.p_exact, mesh)
    assert abs(two - 2.0 * one) <= 1e-12
    # edge integrals of cos^2 sum to 2 over the square's boundary
    assert abs(one - np.sqrt(2.0)) <= 1e-12


def test_gauss_formula_residual_interpolated_polynomials():
    mesh = build_structured_mesh(4)
    vspace = Space(mesh, degree=2)
    wspace = Space(mesh, degree=1)
    ux = vspace.node_coords[:, 0] ** 2
    uy = -vspace.node_coords[:, 0] * vspace.node_coords[:, 1]
    u = Field(vspace, np.column_stack([ux, uy]))
    w = Field(wspace, wspace.node_coords[:, 1] - 0.25)
    assert abs(gauss_formula_residual(u, w)) <= 1e-12


def test_norms_by_blocks_match_one_block(monkeypatch):
    # each norm sums its blocks of cells; blocks of 3 cells agree with one
    # block to round-off
    mesh = affine_jittered_mesh(6, 5)
    rng = np.random.default_rng(8)
    vspace, pspace = Space(mesh, degree=2), Space(mesh, degree=1)
    u = Field(vspace, rng.standard_normal((vspace.ndofs, 2)))
    p = Field(pspace, rng.standard_normal(pspace.ndofs))
    case = get_case("ms1")

    def norms():
        return np.array([
            error_l2(u, case.u_exact), error_l2(p, None), seminorm_h1(u, case.grad_u_exact),
            seminorm_h1(p), error_h1(u, case.u_exact, case.grad_u_exact),
            *error_gap(p, case.p_exact, case.grad_p_exact),
            quotient_norm_l2(p, case.p_exact), div_l2(u)])

    def residual():
        # the volume terms are bounded by this scale, by Cauchy-Schwarz
        scale = error_l2(u, None) * seminorm_h1(p) + div_l2(u) * error_l2(p, None)
        return gauss_formula_residual(u, p), scale

    monkeypatch.setattr(fem, "BLOCK", 10**9)
    whole, (res, scale) = norms(), residual()
    monkeypatch.setattr(fem, "BLOCK", 3)
    assert np.all(np.abs(norms() - whole) <= 1e-13 * whole)
    assert abs(residual()[0] - res) <= 1e-13 * scale


def test_error_h1_peak_does_not_grow_with_the_mesh():
    # one pass over blocks of fem.BLOCK cells: its temporaries are those of
    # one block, so n = 128, in at least 4 blocks, peaks as n = 64 does; in
    # one block the peak took 26 MB at n = 128 and 7 MB at n = 64
    case = get_case("ms1")
    peaks = []
    for n in (64, 128):
        mesh = affine_jittered_mesh(n, 1)
        space = Space(mesh, degree=2)
        mesh.geometry
        u = Field(space, np.ones((space.ndofs, 2)))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            error_h1(u, case.u_exact, case.grad_u_exact)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    assert mesh.num_triangles >= 4 * fem.BLOCK
    assert peaks[1] <= 1.2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# slope fitting and tables


def test_fit_log_slope_exact_power_law():
    assert abs(fit_log_slope([(1, 5.0), (10, 0.5), (100, 0.05)]) + 1.0) <= 1e-12
    assert abs(fit_log_slope([(1, 3.0), (7, 3.0), (50, 3.0)])) <= 1e-12


def test_fit_log_slope_noisy_power_law_with_ls_oracle():
    rng = np.random.default_rng(12)
    x = np.logspace(0, 2, 9)
    y = 3.0 * x ** 1.7 * (1.0 + 0.01 * (2 * rng.random(9) - 1))
    slope = fit_log_slope(list(zip(x, y)))
    assert 1.65 <= slope <= 1.75
    # closed-form least squares oracle
    lx, ly = np.log(x), np.log(y)
    oracle = (len(x) * (lx * ly).sum() - lx.sum() * ly.sum()) / (
        len(x) * (lx * lx).sum() - lx.sum() ** 2)
    assert abs(slope - oracle) <= 1e-12


def test_fit_log_slope_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        fit_log_slope([(1.0, 1.0), (2.0, -1.0)])
    with pytest.raises(ValueError):
        fit_log_slope([(1.0, 1.0)])


def test_saturation_filter():
    pairs = [(1.0, 1e-3), (10.0, 1e-6), (100.0, 1e-11)]
    assert saturation_filter(pairs, 1e-9) == pairs[:2]


def _row(**overrides):
    base = dict(problem="ES", n=8, eps=1.0, err_u_H1_vs_S=1.0,
                err_u_L2_vs_S=1.0, err_p_L2R_vs_S=1.0, err_u_H1_vs_PP=1.0,
                err_p_H1_vs_PP=1.0, div_u_L2=1.0, trace_mismatch_L2G=1.0)
    base.update(overrides)
    return ErrorRow(**base)


def test_error_table_validation_and_csv():
    table = ErrorTable(rows=[_row()])
    table.validate()
    text = table.to_csv_text()
    lines = text.splitlines()
    assert lines[0] == CSV_SCHEMA
    assert lines[1].split(",") == list(CSV_COLUMNS)
    assert lines[2].startswith("ES,8,1.000000000000e+00,")
    bad = ErrorTable(rows=[_row(div_u_L2=float("nan"))])
    with pytest.raises(ValueError):
        bad.validate()
    neg = ErrorTable(rows=[_row(err_u_H1_vs_S=-1.0)])
    with pytest.raises(ValueError):
        neg.validate()
