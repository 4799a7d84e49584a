import json
import os
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epsstokes.cli import COMMANDS, main
from epsstokes.drivers import Discretization, ProblemInput, solve_es, solve_stokes
from epsstokes._numtext import decimal, rows, sci12
from epsstokes.harness import (ConfigError, RunConfig, export_vtk,
                               problem_input, run_sweep_eps, run_sweep_h)
from epsstokes.mesh import build_structured_mesh
from epsstokes.sparse import SolverError
from epsstokes.verification import ErrorRow, error_h1, fit_log_slope, get_case
from helpers import (affine_jittered_mesh, apply_dirichlet, div_coupling,
                     export_vtk_loop, loaded_parallelogram_mesh, reference_system,
                     zero_field, zero_scalar, zero_vec)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(n=1)
    with pytest.raises(ConfigError):
        RunConfig(eps_list=(1.0, -2.0))
    with pytest.raises(ConfigError):
        RunConfig(problem="X")
    with pytest.raises(ConfigError):
        RunConfig(fmt="xml")
    with pytest.raises(ConfigError):
        RunConfig(delta=-0.5)
    with pytest.raises(ConfigError):
        RunConfig(n_list=(8, 1))
    cfg = RunConfig(eps_list=(10.0, 1.0, 10.0))
    assert cfg.eps_list == (1.0, 10.0)


def test_config_refuses_a_repeated_n():
    # two rows at one n used to fit a "rate" of 1.43 for sweep-h --n 8,8
    with pytest.raises(ConfigError, match=r"\[8\] repeated"):
        RunConfig(n_list=(8, 16, 8))
    assert RunConfig(n_list=(16, 8)).n_list == (16, 8)


def test_config_unknown_case():
    with pytest.raises(ConfigError, match="unknown case"):
        RunConfig(case="mystery").manufactured_case()


def test_empty_eps_list_rejected():
    cfg = RunConfig(eps_list=(1.0,))
    cfg.eps_list = ()
    with pytest.raises(ConfigError, match="epsilon"):
        run_sweep_eps(cfg)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_eps_compatible_single_point(tmp_path):
    out = tmp_path / "table.csv"
    cfg = RunConfig(case="ms1", n=8, eps_list=(1.0,), out=str(out))
    table, reports = run_sweep_eps(cfg)
    assert len(table.rows) == 1
    row = table.rows[0]
    # the coupled solve sits within twice the Stokes discretization floor
    case = get_case("ms1")
    mesh = build_structured_mesh(8)
    s = solve_stokes(problem_input(case, mesh), Discretization(mesh))
    floor = error_h1(s.u, case.u_exact, case.grad_u_exact)
    assert row.err_u_H1_vs_S <= 2.0 * floor
    assert all(r.rel_residual <= 1e-10 for r in reports)
    assert out.exists()


def test_sweep_eps_decay_and_ordering():
    cfg = RunConfig(case="ms1-mismatch", n=8, eps_list=(1e3, 1e2))
    table, _ = run_sweep_eps(cfg)
    assert [row.eps for row in table.rows] == [1e2, 1e3]
    ratio = table.rows[1].err_u_H1_vs_PP / table.rows[0].err_u_H1_vs_PP
    assert ratio <= 0.15
    assert table.rows[0].trace_mismatch_L2G == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_sweep_eps_csv_deterministic(tmp_path):
    cfg = RunConfig(case="ms1-mismatch", n=4, eps_list=(0.1, 10.0))
    t1, _ = run_sweep_eps(cfg)
    t2, _ = run_sweep_eps(cfg)
    assert t1.to_csv_text() == t2.to_csv_text()
    assert t1.to_csv_text().encode() == t2.to_csv_text().encode()


GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_eps_ms1_mismatch_n8.csv"


def _split_csv(text):
    """(label lines and per-row label fields, per-row numbers) of a table."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:]]
    return (lines[:2] + [row[:3] for row in rows],
            np.array([[float(v) for v in row[3:]] for row in rows]))


def test_sweep_eps_matches_golden_table():
    # a frozen table of `python -m epsstokes sweep-eps --case ms1-mismatch
    # --n 8 --out <file>` guards against silent numeric drift: labels exactly,
    # numbers to round-off; the eps = 1e6 gaps to PP carry about 1e-16 of
    # absolute round-off, which atol covers
    table, _ = run_sweep_eps(RunConfig(case="ms1-mismatch", n=8))
    labels, values = _split_csv(table.to_csv_text())
    want_labels, want_values = _split_csv(GOLDEN_SWEEP.read_text())
    assert labels == want_labels
    assert values.shape == want_values.shape
    assert np.allclose(values, want_values, rtol=1e-9, atol=1e-15)


def test_sweep_h_rates_and_footer():
    cfg = RunConfig(case="ms1", problem="S", n_list=(8, 16, 32), eps_list=(1.0,))
    table, _ = run_sweep_h(cfg)
    assert len(table.rows) == 3
    assert 1.8 <= table.rates["S:err_u_H1_vs_S"] <= 2.2
    assert 1.6 <= table.rates["S:err_p_L2R_vs_S"] <= 2.2


@pytest.mark.parametrize("floor, rated", [(None, True), (1e-3, False)])
def test_sweep_h_fits_rates_only_above_the_saturation_floor(tmp_path, monkeypatch,
                                                            floor, rated):
    # the sweep fits a rate only through errors at or above the saturation
    # floor: at its fixed 1e-9, S's errors at n = 8, 16 and 32 (2.6e-3 down to
    # 1.6e-4 in u H1) all count and fit about 2, while at a floor of 1e-3
    # only n = 8's stay above it, so the file gets no rate line
    import epsstokes.harness as harness
    if floor is not None:
        monkeypatch.setattr(harness, "SATURATION_FLOOR", floor)
    out = tmp_path / "h.csv"
    assert main(["sweep-h", "--case", "ms1", "--problem", "S", "--n", "8,16,32",
                 "--out", str(out)]) == 0
    rates = {line.split(",")[1]: float(line.split(",")[2])
             for line in out.read_text().splitlines() if line.startswith("# rate,")}
    if rated:
        assert set(rates) == {"S:err_u_H1_vs_S", "S:err_p_L2R_vs_S"}
        assert all(1.9 <= r <= 2.1 for r in rates.values()), rates
    else:
        assert rates == {}


def test_sweep_h_rates_fit_an_error_between_1e_9_and_1e_8(monkeypatch):
    # a finest error of 5e-9 lies above the saturation floor, ten times the
    # solves' residual 1e-10, and so counts in the fit: a floor of 1e-8 would
    # drop it and fit 2.0 from the other two
    import epsstokes.harness as harness
    errors = {2: 4e-7, 4: 1e-7, 8: 5e-9}

    def row(disc, result, s_ref, pp_ref, case, n, mismatch):
        return ErrorRow(problem=result.problem, n=n, eps=None, err_u_H1_vs_S=errors[n],
                        err_u_L2_vs_S=errors[n], err_p_L2R_vs_S=errors[n],
                        err_u_H1_vs_PP=0.0, err_p_H1_vs_PP=0.0, div_u_L2=0.0,
                        trace_mismatch_L2G=mismatch)

    monkeypatch.setattr(harness, "_error_row", row)
    table, _ = run_sweep_h(RunConfig(case="ms1", problem="S", n_list=tuple(errors)))
    rate = fit_log_slope([(1.0 / n, e) for n, e in errors.items()])
    assert table.rates == {"S:err_u_H1_vs_S": rate, "S:err_p_L2R_vs_S": rate}
    assert 3.1 < rate < 3.2


def test_sweep_h_single_n_omits_rates():
    cfg = RunConfig(case="ms1", problem="S", n_list=(8,), eps_list=(1.0,))
    table, _ = run_sweep_h(cfg)
    assert len(table.rows) == 1
    assert table.rates is None


def test_sweep_h_needs_n_list():
    cfg = RunConfig(case="ms1", problem="S", eps_list=(1.0,))
    with pytest.raises(ConfigError, match="n list"):
        run_sweep_h(cfg)


def test_sweep_stokes_row_integrates_the_velocity_l2_error_once(monkeypatch):
    # the row's H1 and L2 errors come from one pass of error_gap, which
    # integrates the L2 error once
    import epsstokes.verification as ver
    real, calls = ver.error_gap, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ver, "error_gap", counted)
    table, _ = run_sweep_h(RunConfig(case="ms1", problem="S", n_list=(4,)))
    [row] = table.rows
    [(field, _, _)] = calls
    case = get_case("ms1")
    assert row.err_u_L2_vs_S == real(field, case.u_exact, None).l2
    assert row.err_u_H1_vs_S == error_h1(field, case.u_exact, case.grad_u_exact)


def test_sweep_partial_flush_on_failure(tmp_path, monkeypatch):
    # the 1/eps series diverges at these eps, so the Schur CG solves both
    out = tmp_path / "partial.csv"
    cfg = RunConfig(case="ms1", n=4, eps_list=(1e-3, 1e-2), out=str(out))
    import epsstokes.drivers as dr
    real = dr.solve_es
    calls = {"k": 0}

    def explode_on_second(inp, disc):
        calls["k"] += 1
        if calls["k"] == 2:
            raise SolverError("synthetic failure")
        return real(inp, disc)

    monkeypatch.setattr(dr, "solve_es", explode_on_second)
    with pytest.raises(SolverError):
        run_sweep_eps(cfg)
    text = out.read_text()
    assert text.startswith("eps_stokes_table v1\n")
    assert len(text.splitlines()) == 3   # schema, header, the one finished row
    assert calls["k"] == 2 and text.splitlines()[2].split(",")[2] == f"{1e-3:.12e}"


# ---------------------------------------------------------------------------
# VTK export


def _parse_vtk(path):
    """Minimal independent reader for the legacy ASCII format."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    k = 4
    npts = int(lines[k].split()[1]); k += 1
    points = np.array([[float(v) for v in lines[k + i].split()] for i in range(npts)])
    k += npts
    ncells, _ = int(lines[k].split()[1]), int(lines[k].split()[2]); k += 1
    cells = np.array([[int(v) for v in lines[k + i].split()][1:] for i in range(ncells)])
    k += ncells
    assert lines[k].startswith("CELL_TYPES"); k += 1
    types = [int(lines[k + i]) for i in range(ncells)]
    k += ncells
    assert lines[k] == f"POINT_DATA {npts}"; k += 1
    data = {}
    while k < len(lines):
        head = lines[k].split()
        if head[0] == "VECTORS":
            vals = np.array([[float(v) for v in lines[k + 1 + i].split()]
                             for i in range(npts)])
            data[head[1]] = vals
            k += 1 + npts
        elif head[0] == "SCALARS":
            assert lines[k + 1] == "LOOKUP_TABLE default"
            vals = np.array([float(lines[k + 2 + i]) for i in range(npts)])
            data[head[1]] = vals
            k += 2 + npts
        else:
            raise AssertionError(f"unexpected section {lines[k]!r}")
    return points, cells, types, data


def test_export_vtk_zero_solution(tmp_path):
    mesh = build_structured_mesh(2)
    inp = ProblemInput(mesh=mesh, body_force=zero_vec, u_bc=zero_vec,
                       p_bc=zero_scalar)
    res = solve_stokes(inp)
    path = tmp_path / "zero.vtk"
    export_vtk(res, path)
    points, cells, types, data = _parse_vtk(path)
    assert len(points) == 9 and len(cells) == 8
    assert set(types) == {5}
    assert np.abs(data["velocity"]).max() <= 1e-10
    assert np.abs(data["pressure"]).max() <= 1e-10
    assert np.abs(data["div_velocity"]).max() <= 1e-9


def test_export_vtk_smallest_mesh_geometry(tmp_path):
    # the 2-triangle mesh is below the mixed pair's solvability threshold,
    # so write a zero result directly; the exporter only reads fields
    from epsstokes.drivers import SolveResult
    from epsstokes.fem import Field, Space
    from epsstokes.sparse import SolverReport

    mesh = build_structured_mesh(1)
    vspace = Space(mesh, 2)
    res = SolveResult(u=Field(vspace, np.zeros((vspace.ndofs, 2))),
                      p=zero_field(Space(mesh, 1)), problem="S", epsilon=None,
                      report=SolverReport("none", 0.0, 0, 0.0))
    path = tmp_path / "tiny.vtk"
    export_vtk(res, path)
    points, cells, types, _ = _parse_vtk(path)
    assert len(points) == 4 and len(cells) == 2
    assert set(types) == {5}


def test_export_vtk_round_trip_pressure(tmp_path):
    case = get_case("ms1")
    mesh = build_structured_mesh(4)
    res = solve_stokes(problem_input(case, mesh))
    path = tmp_path / "ms1.vtk"
    export_vtk(res, path)
    points, _, _, data = _parse_vtk(path)
    assert np.abs(points[:, :2] - mesh.vertices).max() <= 1e-12
    nv = mesh.num_vertices
    assert np.abs(data["pressure"] - res.p.coefficients[:nv]).max() <= 1e-12
    assert np.abs(data["velocity"][:, :2] - res.u.coefficients[:nv]).max() <= 1e-12


@pytest.mark.parametrize("which", ["jittered", "parallelogram", "extremes",
                                   "boundary trace"])
def test_export_vtk_matches_line_writer(tmp_path, which):
    mesh = (loaded_parallelogram_mesh(tmp_path) if which == "parallelogram"
            else affine_jittered_mesh(6, seed=3))
    case = get_case("ms1-mismatch")
    res = solve_es(ProblemInput(mesh=mesh, body_force=case.body_force, u_bc=zero_vec,
                                p_bc=case.p_bc(), epsilon=1.0))
    if which == "extremes":
        # signed zeros, 3-digit exponents both ways and non-finite values:
        # the writer's sign, exponent and '%.12e' fallback paths
        u, p = res.u.coefficients, res.p.coefficients
        u *= 1e-150
        u[:3], u[3:5] = 0.0, -0.0
        p[:4] = np.nan, np.inf, -np.inf, -0.0
        p[4:12] *= 1e150
    if which == "boundary trace":
        # u = (xy + x, y^2) is not 0 on the boundary, so div u = 1 + 3y is
        # not 0 at a vertex that one cell holds, where it is averaged alone
        x, y = res.u.space.node_coords.T
        res.u.coefficients[:] = np.stack([x * y + x, y * y], axis=-1)
        assert np.any(np.bincount(mesh.triangles.ravel()) == 1)
    export_vtk(res, tmp_path / "new.vtk")
    export_vtk_loop(res, tmp_path / "old.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


def _kernel_text(kernel, values):
    """The rows kernel writes for values, as a list of str."""
    return [row[row != 0].tobytes().decode()
            for row in kernel(np.array(values)).view(np.uint8)]


def _assert_sci12_matches_percent_format(values):
    assert _kernel_text(sci12, values) == ["%.12e" % v for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_sci12_matches_percent_format(values):
    _assert_sci12_matches_percent_format(values)


@st.composite
def _tie(draw):
    """A multiple m 2^-b (b <= 18, so of 2^-24 too) that is an exact tie of
    the 13-digit rounding: its b fraction digits end in 5 and it has 14
    significant digits where 2^b 10^(13-b) <= m < 2^b 10^(14-b), m odd."""
    b = draw(st.integers(1, 18))
    lo = -(-(2**b * 10**13) // 10**b)
    hi = (2**b * 10**14 - 1) // 10**b
    return (2 * draw(st.integers(lo // 2, (hi - 1) // 2)) + 1) * 2.0 ** -b


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_tie(), st.integers(-2, 2)), min_size=1, max_size=50),
       st.lists(st.integers(-2**40, 2**40), max_size=20))
@example([(1000000000000.5, 0), (3 * 2.0 ** -18, 1), (9999999999999.5, -1)], [1, -3])
def test_sci12_matches_percent_format_on_dyadic_ties(ties, ks):
    # the exact ties, a few ulps either side of them (near-ties), and plain
    # multiples k 2^-24
    values = [k * 2.0 ** -24 for k in ks]
    for tie, steps in ties:
        digits = Decimal(tie).as_tuple().digits
        assert len(digits) == 14 and digits[-1] == 5
        for _ in range(abs(steps)):
            tie = float(np.nextafter(tie, np.inf if steps > 0 else 0.0))
        values += [tie, -tie]
    _assert_sci12_matches_percent_format(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(10**12, 10**13 - 1), st.integers(-300, 300)),
                min_size=1, max_size=50))
def test_sci12_matches_percent_format_on_decimal_near_ties(items):
    # the doubles nearest to 14-digit decimals ending in 5 at any exponent:
    # within an ulp of a tie, where an unguarded rint of y rounds wrongly
    _assert_sci12_matches_percent_format([float(f"{m}5e{j}") for m, j in items])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-330, 308), st.sampled_from([1.0, 9.9999999999995]),
                          st.integers(-3, 3)), min_size=1, max_size=50))
@example([(j, 9.9999999999995, s) for j in (-283, -1, 0, 12, 290, 291) for s in (-1, 0, 1)])
def test_sci12_matches_percent_format_next_to_exponent_steps(items):
    # a few ulps either side of 10^j, where log10 may round across an
    # integer, and of 9.9999999999995 10^j, where the rounding carries
    values = []
    for j, mantissa, steps in items:
        v = float(f"{mantissa}e{j}")
        for _ in range(abs(steps)):
            v = float(np.nextafter(v, np.inf if steps > 0 else 0.0))
        values += [v, -v]
    _assert_sci12_matches_percent_format(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
                min_size=1, max_size=50))
@example([0.0, -0.0, 5e-324, -5e-324])
def test_sci12_matches_percent_format_on_subnormals_and_zeros(values):
    _assert_sci12_matches_percent_format(values)


def test_sci12_writes_signed_zeros_without_percent_format(monkeypatch):
    # a zero has fixed digits and np.signbit gives its sign, so 0.0 and -0.0
    # among ordinary values leave no row to the '%.12e' fallback, which
    # would build its rows with _words
    monkeypatch.setattr("epsstokes._numtext._words", None)
    _assert_sci12_matches_percent_format(
        [0.0, -0.0, 1.5, -0.0, -2.25e-7, 0.0, 3e100, -7.0, 0.1, -0.0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=50))
@example([0, 9, 10, 9999, 10000, 10001, 99999999, 100000000, 2**31 - 1])
def test_decimal_matches_percent_format(values):
    # with 10**11 the rows have 3 words, the others' leading ones blank
    assert _kernel_text(decimal, values) == ["%d" % i for i in values]
    assert _kernel_text(decimal, values + [10**11])[:-1] == ["%d" % i for i in values]


def test_module_level_arrays_refuse_a_write():
    # a write to _numtext._POW10 would corrupt every later VTK file of the
    # process; every module-level array of the package is read-only
    import importlib
    import pkgutil
    import epsstokes
    arrays = {f"{info.name}.{name}": value
              for info in pkgutil.iter_modules(epsstokes.__path__)
              if info.name != "__main__"
              for name, value in vars(importlib.import_module(f"epsstokes.{info.name}")).items()
              if isinstance(value, np.ndarray)}
    assert set(arrays) == {
        "fem._EDGE_T", "fem._EDGE_W", "harness.P1_REFERENCE_STIFFNESS",
        "_numtext._DIGITS4", "_numtext._LEADING4", "_numtext._HEAD",
        "_numtext._EXP", "_numtext._POW10"}
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] = array.flat[0]


def test_rows_joins_kernel_columns_and_literals():
    x = np.array([0.5, -1e-150, np.nan])
    i = np.array([0, 12345, 7])
    assert rows(b"3 ", i, b" ", x, b"\n") == b"".join(
        b"3 %d %.12e\n" % pair for pair in zip(i.tolist(), x.tolist()))


# ---------------------------------------------------------------------------
# CLI


def test_cli_solve_and_summary(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["solve", "--case", "ms1", "--problem", "S", "--n", "4",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert "S" in payload
    assert payload["S"]["rel_residual"] <= 1e-10


def test_cli_unknown_case_exits_2(capsys):
    assert main(["solve", "--case", "nope", "--n", "4"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_cli_bad_n_exits_2(capsys):
    assert main(["solve", "--case", "ms1", "--n", "1"]) == 2
    assert main(["sweep-h", "--case", "ms1", "--problem", "S", "--n", "8,8"]) == 2
    assert "[8] repeated" in capsys.readouterr().err


def test_cli_sweep_eps_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 "--eps", "0.1,10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps_stokes_table v1"
    assert len(lines) == 4


def test_cli_sweep_eps_at_tiny_eps_exits_0(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 "--eps", "1e-30", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


@pytest.mark.parametrize("eps", ["1e156", "1e200"])
def test_cli_solve_es_at_huge_eps_checks_a_finite_residual(eps, tmp_path):
    # ||b|| of ES overflowed the plain 2-norm here: 1e156 passed the gate
    # with a residual of 0 after no step, and 1e200 failed it on a NaN
    out = tmp_path / "es.json"
    code = main(["solve", "--case", "ms1-mismatch", "--problem", "ES", "--n", "4",
                 "--eps", eps, "--out", str(out)])
    assert code == 0
    es = json.loads(out.read_text())["ES"]
    assert 0.0 < es["rel_residual"] <= 1e-10
    assert es["iterations"] >= 1


def test_cli_solve_prints_the_ritz_values_of_s_and_es(tmp_path):
    out = tmp_path / "all.json"
    assert main(["solve", "--case", "ms1", "--problem", "all", "--n", "4",
                 "--eps", "1e-3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    for problem in ("S", "ES"):
        low, high = payload[problem]["ritz"]
        assert 0.0 < low <= high <= 1.0 + 1e-10
    assert "ritz" not in payload["PP"]       # PP takes no CG step
    assert [p for p in payload if "inf_sup_sq" in payload[p]] == ["S"]


@pytest.mark.parametrize("n", [8, 16])
def test_cli_solve_reports_the_inf_sup_constant_squared_of_s(tmp_path, n):
    # the deflated Schur CG's smallest Ritz value is beta_h^2: 0.1353 at
    # n = 8 and 0.1341 at n = 16 on the unit square
    out = tmp_path / "s.json"
    assert main(["solve", "--case", "ms1", "--problem", "S", "--n", str(n),
                 "--out", str(out)]) == 0
    s = json.loads(out.read_text())["S"]
    assert s["inf_sup_sq"] == s["ritz"][0]
    assert 0.12 <= s["inf_sup_sq"] <= 0.14


def test_cli_sweep_h_json(tmp_path):
    out = tmp_path / "hsweep.json"
    code = main(["sweep-h", "--case", "ms1", "--problem", "S", "--n", "4,8",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "eps_stokes_table v1"
    assert len(payload["rows"]) == 2
    assert "S:err_u_H1_vs_S" in payload["rates"]


def test_cli_config_file_with_flag_override(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"case": "ms1", "problem": "S", "n": 2}))
    out = tmp_path / "sum.json"
    code = main(["solve", "--config", str(conf), "--n", "4", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["S"]["rel_residual"] <= 1e-10


def test_cli_config_file_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"eps_list": [1.0], "nn": 4}))
    assert main(["sweep-eps", "--config", str(conf)]) == 2
    err = capsys.readouterr().err
    assert "eps_list" in err and "nn" in err


@pytest.mark.parametrize("text, error", [
    (None, "cannot read config file .*missing.json: .*No such file"),
    ('{"n": 4', "cannot read config file .*missing.json: Expecting ',' delimiter"),
    ("[4]", "config file must hold a JSON object"),
    ('"n"', "config file must hold a JSON object"),
], ids=["absent", "not-json", "list", "string"])
def test_cli_refuses_a_config_file_it_cannot_read(text, error, tmp_path, capsys):
    conf = tmp_path / "missing.json"
    if text is not None:
        conf.write_text(text)
    assert main(["solve", "--config", str(conf)]) == 2
    assert re.fullmatch(f"error: {error}.*\n", capsys.readouterr().err, re.DOTALL)


def test_cli_export_vtk_refuses_all_problems(tmp_path, capsys):
    out = tmp_path / "all.vtk"
    assert main(["export-vtk", "--problem", "all", "--n", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: export-vtk writes a single problem, "
                                       "not 'all'\n")
    assert not out.exists()


def test_cli_export_vtk(tmp_path):
    out = tmp_path / "field.vtk"
    code = main(["export-vtk", "--case", "ms1", "--problem", "S", "--n", "2",
                 "--out", str(out)])
    assert code == 0
    points, cells, _, _ = _parse_vtk(out)
    assert len(points) == 9 and len(cells) == 8


def test_cli_export_vtk_requires_out():
    assert main(["export-vtk", "--case", "ms1", "--problem", "S", "--n", "2"]) == 2


def test_cli_verify_exit_codes(tmp_path, monkeypatch, capsys):
    # exercise the verify plumbing with a stubbed acceptance run; the real
    # battery is covered by tests/test_acceptance.py
    import epsstokes.cli as cli
    from epsstokes.harness import AcceptanceReport, CriterionResult

    def fake_pass(config):
        return AcceptanceReport([CriterionResult(1, "stub", True, {})])

    def fake_fail(config):
        return AcceptanceReport([CriterionResult(1, "stub", False, {})])

    out = tmp_path / "report.json"
    monkeypatch.setattr(cli, "run_acceptance", fake_pass)
    assert main(["verify", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_passed"] is True
    assert "[PASS] criterion 1" in capsys.readouterr().out

    monkeypatch.setattr(cli, "run_acceptance", fake_fail)
    assert main(["verify"]) == 1
    assert "[FAIL] criterion 1" in capsys.readouterr().out


def test_cli_solve_all_problems(tmp_path):
    out = tmp_path / "all.json"
    code = main(["solve", "--case", "ms1", "--problem", "all", "--n", "4",
                 "--eps", "2.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"S", "PP", "ES"}
    assert payload["ES"]["epsilon"] == 2.0
    for entry in payload.values():
        assert entry["lu_nnz"] > 0
        assert entry["fill"] >= 1.0
        assert entry["iterations"] >= 0
    assert payload["S"]["iterations"] >= 1      # CG on the Schur complement


def test_cli_solver_failure_exits_3(monkeypatch, capsys):
    import epsstokes.cli as cli

    def boom(config):
        raise SolverError("synthetic", residual=1.0)

    monkeypatch.setattr(cli, "run_sweep_eps", boom)
    assert main(["sweep-eps", "--case", "ms1", "--n", "4", "--eps", "1"]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("out", [None, "sweep.csv"])
def test_cli_refuses_a_table_with_a_non_finite_row(out, tmp_path, monkeypatch, capsys):
    # the table is checked before it is written, to stdout as to a file: a
    # non-finite row is an error line and exit 3, the solver failure's code,
    # with nothing written
    import dataclasses
    from epsstokes import harness
    real = harness._error_row
    monkeypatch.setattr(harness, "_error_row", lambda *args: dataclasses.replace(
        real(*args), div_u_L2=float("nan")))
    argv = ["sweep-eps", "--case", "ms1", "--n", "4", "--eps", "1"]
    assert main(argv + ([] if out is None else ["--out", str(tmp_path / out)])) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == ("error: table entry div_u_L2=nan is not a finite "
                            "nonnegative number\n")


def test_cli_dump_matrix(tmp_path):
    prefix = str(tmp_path / "mat_")
    code = main(["solve", "--case", "ms1", "--problem", "PP", "--n", "2",
                 "--dump-matrix", prefix])
    assert code == 0
    assert (tmp_path / "mat_000.mtx").exists()
    assert (tmp_path / "mat_001.mtx").exists()


def test_cli_solve_pp_alone_factors_kp_only(tmp_path):
    # without S on its mesh, PP solves the velocity by CG with the
    # two-level cycle on the factor of Kp, reports the Ritz values of its
    # SPD spectrum, and still dumps Kp, A and A
    from scipy.io import mmread
    out = tmp_path / "pp.json"
    assert main(["solve", "--case", "ms1", "--problem", "PP", "--n", "8",
                 "--out", str(out)]) == 0
    pp = json.loads(out.read_text())["PP"]
    disc = Discretization(build_structured_mesh(8))
    assert pp["rel_residual"] <= 1e-10 and pp["iterations"] >= 1
    assert pp["lu_nnz"] == disc.pressure_factor.nnz
    low, high = pp["ritz"]
    assert 0.0 < low <= high <= 1.0
    prefix = str(tmp_path / "m_")
    assert main(["solve", "--case", "ms1", "--problem", "PP", "--n", "8",
                 "--dump-matrix", prefix]) == 0
    assert sorted(p.name for p in tmp_path.glob("m_*")) == [
        f"m_{k:03d}.mtx" for k in range(3)]
    for k, system in enumerate((disc.pressure_system, disc.velocity_system,
                                disc.velocity_system)):
        want = system.matrix.toarray()
        got = mmread(str(tmp_path / f"m_{k:03d}.mtx")).toarray()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), k


def test_cli_sweep_dumps_one_system_per_solve(tmp_path):
    # S, the three PP solves and one ES system per eps, in eps order: the
    # 1/eps series dumps the ES system its sum was solved with
    from scipy.io import mmread
    prefix = str(tmp_path / "m_")
    assert main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 "--eps", "1e-3,1e6", "--dump-matrix", prefix]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"m_{k:03d}.mtx" for k in range(6)]
    disc = Discretization(build_structured_mesh(4))
    for name, eps in (("m_004.mtx", 1e-3), ("m_005.mtx", 1e6)):
        want = disc.coupled_system(eps).matrix.assembled().toarray()
        got = mmread(str(tmp_path / name)).toarray()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), eps


@pytest.mark.parametrize("n", [4, 8])
def test_dumped_saddle_systems_are_the_reference_elimination(n, tmp_path):
    # the monolithic S and ES matrices exist only in dumps: each one written
    # is the whole system, assembled with sps.bmat with -B^T as G and
    # eliminated by the sparse products, entry for entry, for the Schur CG and
    # the series eps
    from scipy.io import mmread
    prefix = str(tmp_path / "m_")
    eps_list = (1e-3, 1.0, 1e6)
    assert main(["sweep-eps", "--case", "ms1-mismatch", "--n", str(n), "--eps",
                 ",".join(map(str, eps_list)), "--dump-matrix", prefix]) == 0
    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    case = get_case("ms1-mismatch")
    stages = [("S", None)] + [("ES", eps) for eps in eps_list]
    for k, (stage, eps) in zip((0, 4, 5, 6), stages):     # PP's three come second
        inp = ProblemInput(mesh=mesh, body_force=case.body_force, u_bc=case.u_bc(),
                           p_bc=case.p_bc(), epsilon=eps)
        want, _ = apply_dirichlet(*reference_system(stage, inp, disc,
                                                    grad=-div_coupling(disc).T))
        got = mmread(str(tmp_path / f"m_{k:03d}.mtx")).tocsr()
        got.sort_indices()
        assert got.shape == want.shape
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (k, name)


# The keys each subcommand's run reads, as flags and as config keys, "*"
# marking the one it reads as a list; test_readme_config_keys_match_the_parser
# pins this table to the README's.
READS = {command: keys for command, _, keys in COMMANDS}
# A value of each key that a run reading it would take
VALUES = {"case": "ms1", "problem": "PP", "n": "2", "eps": "1", "delta": "0.5",
          "out": "x.out", "format": "json", "dump_matrix": "m_"}


def _reads(command):
    return [key.rstrip("*") for key in READS[command]]


def _refuse_discretizations(monkeypatch):
    def refuse(self, mesh):
        raise AssertionError("a Discretization was built")

    monkeypatch.setattr(Discretization, "__init__", refuse)


@pytest.mark.parametrize("out", ["nodir/x.out", ""])
@pytest.mark.parametrize("command", READS)
def test_cli_unwritable_out_exits_2_before_any_solve(command, out, tmp_path,
                                                     monkeypatch, capsys):
    _refuse_discretizations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    flags = [arg for key in _reads(command) if key not in ("out", "dump_matrix")
             for arg in (f"--{key}", VALUES[key])]
    assert main([command] + flags + ["--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, key", [
    (command, key) for command in READS for key in VALUES
    if key not in _reads(command)])
def test_cli_refuses_a_flag_or_config_key_its_command_does_not_read(
        command, key, tmp_path, monkeypatch, capsys):
    # no run read these: verify --n 64 --case ms1-mismatch ran the n = 32
    # battery, and sweep-eps --problem PP printed ES rows, each with exit 0
    _refuse_discretizations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, VALUES[key]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {VALUES[key]}" in capsys.readouterr().err
    (tmp_path / "conf.json").write_text(json.dumps({key: VALUES[key]}))
    assert main([command, "--config", "conf.json"]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown config key(s) {key} in conf.json; {command} reads: "
        f"{', '.join(_reads(command))}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]


@pytest.mark.parametrize("command, key", [
    (command, key) for command in READS for key in ("n", "eps")
    if key in READS[command]])
def test_cli_refuses_a_list_for_a_single_n_or_eps(command, key, tmp_path,
                                                  monkeypatch, capsys):
    # such a list used to be cut without a word: solve --eps 5,0.001 solved
    # eps = 0.001, sweep-eps --n 4,8 swept n = 4 alone; a config file may
    # give the key a number or its flag's text, not a list, even of one
    _refuse_discretizations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([command, f"--{key}", "4,8", "--out", "x.out"]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad --{key} value '4,8': ")
    for value in ("4,8", [4, 8], [4]):
        (tmp_path / "conf.json").write_text(json.dumps({key: value}))
        assert main([command, "--config", "conf.json", "--out", "x.out"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: bad --{key} value '4,8': " if value == "4,8" else
            f"error: config key {key} takes a number or a string, not {json.dumps(value)}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]


def test_cli_dump_matrix_missing_directory_exits_2_before_any_solve(
        tmp_path, monkeypatch, capsys):
    # scipy's mmwrite raises nothing for a missing directory, so without the
    # check up front such a run wrote no file and exited 0
    _refuse_discretizations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--n", "4", "--eps", "1",
                 "--dump-matrix", "nodir/m_"]) == 2
    assert capsys.readouterr().err.startswith("error: --dump-matrix nodir/m_")
    assert list(tmp_path.iterdir()) == []


def test_cli_write_failure_exits_2(tmp_path, capsys):
    # the directory exists, but the path names a directory, not a file
    assert main(["solve", "--case", "ms1", "--problem", "PP", "--n", "2",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flag, value", [
    ("--eps", "nan"), ("--eps", "inf"), ("--delta", "nan"), ("--delta", "inf"),
    ("--eps", "abc"), ("--n", "4.5"), ("--eps", ""), ("--eps", ","),
])
def test_cli_bad_number_exits_2(flag, value, capsys):
    assert main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 flag, value]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# Each bad setting, from a config file or flags, and the start of its error
BAD_SETTINGS = [
    ({"out": 5}, [], "config key out takes a string, not 5\n"),
    ({"out": 2}, [], "config key out takes a string, not 2\n"),
    ({"n": 4.5}, [], "bad --n value '4.5': "),
    ({"n": [4, 6.9]}, [], "bad --n value '4,6.9': "),
    ({"n": True}, [], "config key n takes a number, a list of numbers or a string, not true\n"),
    ({"eps": None}, [], "config key eps takes a number or a string, not null\n"),
    (None, ["--n", ""], "h sweep needs a nonempty n list\n"),
    (None, ["--delta", "abc"], "bad --delta value 'abc': "),
    (None, ["--format", "xml"], "unknown format 'xml'\n"),
    (None, ["--eps", ""], "bad --eps value '': "),
    ({"format": "xml"}, [], "unknown format 'xml'\n"),
    ({"eps": [5]}, [], "config key eps takes a number or a string, not [5]\n"),
]


@pytest.mark.parametrize("conf, flags, error", BAD_SETTINGS, ids=[
    f"{'None' if conf is None else f'conf{i}'}-flags{i}"
    for i, (conf, _, _) in enumerate(BAD_SETTINGS)])
def test_cli_bad_setting_exits_2(conf, flags, error, tmp_path, monkeypatch, capsys):
    # a bad value from a config file or a flag is a config error before any
    # solve: exit 2 with an error line naming it, no SystemExit, no file
    # descriptor used.  sweep-h reads every key, and n as a list; the other
    # settings, --n 4,8 where the case sets no n, would run a sweep
    _refuse_discretizations(monkeypatch)
    monkeypatch.chdir(tmp_path)
    if conf is not None:
        (tmp_path / "conf.json").write_text(json.dumps(conf))
        flags = ["--config", "conf.json"] + flags
    n = [] if "n" in (conf or {}) or "--n" in flags else ["--n", "4,8"]
    assert main(["sweep-h", "--case", "ms1-mismatch"] + n + flags) == 2
    for fd in (1, 2):
        os.fstat(fd)                  # raises if the run closed the descriptor
    captured = capsys.readouterr()
    assert captured.err.startswith("error: " + error) and captured.out == ""
    written = [p.name for p in tmp_path.iterdir() if p.name != "conf.json"]
    assert written == []


def test_cli_has_no_tolerance_setting(tmp_path, capsys):
    # every solve meets sparse.TOL; neither a flag nor a config key sets another
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--n", "4", "--tol", "1e-9"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"tol": 1e-9}))
    assert main(["solve", "--n", "4", "--config", str(conf)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown config key(s) tol in ")


def _config_pair(command, conf, flags, tmp_path, monkeypatch):
    """The RunConfig of command from the config file conf and from flags."""
    import epsstokes.cli as cli
    seen = []
    monkeypatch.setattr(cli, "_dispatch", lambda command, config: seen.append(config) or 0)
    path = tmp_path / "conf.json"
    path.write_text(json.dumps(conf))
    assert main([command, "--config", str(path)]) == 0
    assert main([command] + flags) == 0
    return seen


@pytest.mark.parametrize("conf, flags", [
    ({"n": [8, 16], "eps": 1, "delta": 0.5, "format": "json"},
     ["--n", "8,16", "--eps", "1", "--delta", "0.5", "--format", "json"]),
    ({"eps": 5}, ["--eps", "5"]),
    ({"delta": "0.5"}, ["--delta", "0.5"]),
])
def test_cli_config_file_equals_flags(conf, flags, tmp_path, monkeypatch):
    from_file, from_flags = _config_pair("sweep-h", conf, flags, tmp_path, monkeypatch)
    assert from_file == from_flags
    if "n" in conf:
        assert (from_file.n_list, from_file.eps_list) == ((8, 16), (1.0,))
        assert (from_file.delta, from_file.fmt) == (0.5, "json")


@pytest.mark.parametrize("command, conf, flags, want", [
    ("sweep-eps", {"n": 8, "eps": [10, 1]}, ["--n", "8", "--eps", "10,1"],
     dict(n=8, eps_list=(1.0, 10.0))),
    ("solve", {"n": 16, "eps": 5}, ["--n", "16", "--eps", "5"],
     dict(n=16, eps_list=(5.0,))),
    ("export-vtk", {"n": 4, "eps": "0.5"}, ["--n", "4", "--eps", "0.5"],
     dict(n=4, eps_list=(0.5,))),
])
def test_cli_single_and_list_keys_set_their_fields(command, conf, flags, want,
                                                   tmp_path, monkeypatch):
    # the list key fills its list alone: no n_list for a single-mesh command
    assert _config_pair(command, conf, flags, tmp_path, monkeypatch) == [RunConfig(**want)] * 2


def test_readme_config_keys_match_the_parser():
    import epsstokes.cli as cli
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (table,) = re.findall(r"Each command's config keys are its flag names:\n\n"
                          r"((?:\|.*\n)+)", readme)
    listed = {command: tuple(re.findall(r"`(\w+\*?)`", keys.replace("` (list)", "*`")))
              for command, keys in re.findall(r"^\| `([\w-]+)` \| (.*) \|$", table,
                                              flags=re.M)}
    # the README and the parser hold one table; (list) marks a list key
    assert listed == READS
    # each subcommand takes exactly --config and one flag per key it reads
    parser = cli._build_parser()
    for command in READS:
        flags = [arg for key in _reads(command)
                 for arg in (f"--{key.replace('_', '-')}", f"v-{key}")]
        args = parser.parse_args([command, "--config", "c"] + flags)
        assert vars(args) == {"command": command, "config": "c",
                              **{key: f"v-{key}" for key in _reads(command)}}


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "cg[" in out and "series[Kp, A]" in out


def test_ci_floors_job_pins_the_declared_floors():
    # the floors job must install exactly the oldest numpy, scipy and Python
    # that pyproject.toml allows; both files are read as text, since the
    # floors job's Python 3.10 has neither a YAML nor a TOML parser
    root = Path(__file__).resolve().parents[1]
    toml = (root / "pyproject.toml").read_text()
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
    (deps,) = re.findall(r"^dependencies = \[(.*?)\]", toml, flags=re.S | re.M)
    floors = dict(re.findall(r'"(\w+)>=([\d.]+)"', deps))
    (python,) = re.findall(r'^requires-python = ">=([\d.]+)"', toml, flags=re.M)
    assert floors == {"numpy": "1.24", "scipy": "1.12"} and python == "3.10"
    (job,) = re.findall(r"^( *)- name: floors\n((?:\1  .*\n)+)", workflow, flags=re.M)
    assert re.findall(r'^ *python: "([\d.]+)"$', job[1], flags=re.M) == [python]
    assert dict(re.findall(r'"(\w+)==([\d.]+)\.\*"', job[1])) == floors


def test_perfbench_span_targets_exist():
    # the benchmark records a target it cannot find as absent, so a rename in
    # the package would turn that per-layer metric into a constant 0
    import importlib
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {f"{module}.{attr}" for module, attr in spans.TARGETS
               if not hasattr(importlib.import_module(f"epsstokes.{module}"), attr)}
    # gone on purpose: elimination moved, the saddle systems apply -B^T, and
    # three front-ends that no workload calls were deleted, and assemble_load
    # moved to the tests as the reference of assemble_body_force_loads
    assert missing <= {"fem.apply_dirichlet", "fem.assemble_grad_coupling",
                       "fem.assemble_grad_load", "fem.assemble_load",
                       "verification.error_l2", "verification.seminorm_h1"}
