import json

import numpy as np
import pytest

from epsstokes.cli import main
from epsstokes.drivers import Discretization, ProblemInput, solve_es, solve_stokes
from epsstokes.harness import (ConfigError, RunConfig, export_vtk,
                               problem_input, run_sweep_eps, run_sweep_h)
from epsstokes.mesh import build_structured_mesh
from epsstokes.sparse import SolverError
from epsstokes.verification import error_h1, get_case
from helpers import (affine_jittered_mesh, export_vtk_loop,
                     loaded_parallelogram_mesh, zero_field, zero_scalar, zero_vec)


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


def test_sweep_h_rates_and_footer():
    cfg = RunConfig(case="ms1", problem="S", n_list=(8, 16, 32), eps_list=(1.0,))
    table, _ = run_sweep_h(cfg)
    assert len(table.rows) == 3
    assert 1.8 <= table.rates["S:err_u_H1_vs_S"] <= 2.2
    assert 1.6 <= table.rates["S:err_p_L2R_vs_S"] <= 2.2


def test_sweep_h_single_n_omits_rates():
    cfg = RunConfig(case="ms1", problem="S", n_list=(8,), eps_list=(1.0,))
    table, _ = run_sweep_h(cfg)
    assert len(table.rows) == 1
    assert table.rates is None


def test_sweep_h_needs_n_list():
    cfg = RunConfig(case="ms1", problem="S", eps_list=(1.0,))
    with pytest.raises(ConfigError, match="n list"):
        run_sweep_h(cfg)


def test_sweep_partial_flush_on_failure(tmp_path, monkeypatch):
    # the 1/eps series diverges at these eps, so GMRES solves both
    out = tmp_path / "partial.csv"
    cfg = RunConfig(case="ms1", n=4, eps_list=(1e-3, 1e-2), out=str(out))
    import epsstokes.drivers as dr
    real = dr.solve_es
    calls = {"k": 0}

    def explode_on_second(inp, disc, tol):
        calls["k"] += 1
        if calls["k"] == 2:
            raise SolverError("synthetic failure")
        return real(inp, disc, tol)

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
    lines = [ln for ln in open(path).read().splitlines() if ln.strip()]
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


@pytest.mark.parametrize("which", ["jittered", "parallelogram"])
def test_export_vtk_matches_line_writer(tmp_path, which):
    mesh = (affine_jittered_mesh(6, seed=3) if which == "jittered"
            else loaded_parallelogram_mesh(tmp_path))
    case = get_case("ms1-mismatch")
    res = solve_es(ProblemInput(mesh=mesh, body_force=case.body_force, u_bc=zero_vec,
                                p_bc=case.p_bc(), epsilon=1.0))
    export_vtk(res, tmp_path / "new.vtk")
    export_vtk_loop(res, tmp_path / "old.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


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


def test_cli_sweep_eps_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 "--eps", "0.1,10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eps_stokes_table v1"
    assert len(lines) == 4


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
    assert payload["S"]["iterations"] >= 1      # block-preconditioned GMRES


def test_cli_solver_failure_exits_3(monkeypatch, capsys):
    import epsstokes.cli as cli

    def boom(config):
        raise SolverError("synthetic", residual=1.0)

    monkeypatch.setattr(cli, "run_sweep_eps", boom)
    assert main(["sweep-eps", "--case", "ms1", "--n", "4", "--eps", "1"]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_dump_matrix(tmp_path):
    prefix = str(tmp_path / "mat_")
    code = main(["solve", "--case", "ms1", "--problem", "PP", "--n", "2",
                 "--dump-matrix", prefix])
    assert code == 0
    assert (tmp_path / "mat_000.mtx").exists()
    assert (tmp_path / "mat_001.mtx").exists()


def test_cli_sweep_dumps_one_system_per_solve(tmp_path):
    # S, the three PP solves and one ES system per eps, in eps order: the
    # 1/eps series dumps the ES system it checked its sum against
    from scipy.io import mmread
    prefix = str(tmp_path / "m_")
    assert main(["sweep-eps", "--case", "ms1-mismatch", "--n", "4",
                 "--eps", "1e-3,1e6", "--dump-matrix", prefix]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"m_{k:03d}.mtx" for k in range(6)]
    disc = Discretization(build_structured_mesh(4))
    for name, eps in (("m_004.mtx", 1e-3), ("m_005.mtx", 1e6)):
        want = disc.coupled_system(eps).matrix.toarray()
        got = mmread(str(tmp_path / name)).toarray()
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), eps
