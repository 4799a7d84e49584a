import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {"sweep-eps", "verify", "mesh-pp"}


def test_every_bench_record_holds_correct_runs_of_each_workload():
    # a BENCH_*.json file (tools/bench_record.py) keeps perfbench's env,
    # result and summary lines for the base and the change of each pair
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text())
        for side in ("base", "change"):
            runs = [r for r in record["runs"] if r["side"] == side]
            assert {r["workload"] for r in runs} == WORKLOADS, (path.name, side)
            for r in runs:
                assert r["summary"]["correct"] is True, (path.name, side, r["pair"])
                assert r["result"]["workload"] == r["workload"]
                assert r["result"]["failed"] == 0 and "git_commit" in r["env"]
            assert set(record["sizes"][side]) >= {"structured n=64", "jittered n=128"}
            # newer records also keep one traced run per workload and side
            for workload, trace in record.get("traces", {}).get(side, {}).items():
                assert workload in WORKLOADS and trace["correct"] is True
                for name in ("verification.norms.self_s", "fem.loads.s"):
                    value, unit = trace["metrics"][name].split()
                    assert unit == "s" and float(value) > 0.0, (path.name, side, name)
        assert set(record.get("traces", {})) in (set(), {"base", "change"}), path.name
        # newer records also keep one scale row per side: S and then ES at
        # n = 256 in a fresh process
        if "scale" in record:
            assert set(record["scale"]) == {"base", "change"}, path.name
            for side, row in record["scale"].items():
                assert row["n"] == 256 and row["wall_s"] > 0.0, (path.name, side)
                assert row["peak_rss_mib"] > 0.0 and row["bytes_after_S_ES"] > 0
                # newer rows also keep the peak once S is solved, before ES
                assert 0.0 < row.get("S_peak_rss_mib", 1.0) <= row["peak_rss_mib"]
        # from BENCH_49.json on, records also keep each side's per-layer
        # metrics of one traced sweep-eps at n = 32, 64 and 128: one process
        # per row in BENCH_49.json, and from BENCH_50.json on three, each
        # kept, with the median of each metric, next to a traced sweep-h row
        number = int(path.stem.split("_")[1])
        if number >= 49:
            assert set(record["layers"]) == {"base", "change"}, path.name
            for side, rows in record["layers"].items():
                assert set(rows) == {"n=32", "n=64", "n=128"}, (path.name, side)
                for n, row in rows.items():
                    if number == 49:
                        _check_layers(row, (path.name, side, n))
                    else:
                        _check_layer_runs(row, (path.name, side, n))
        if number >= 50:
            assert set(record["sweep_h_layers"]) == {"base", "change"}, path.name
            for side, rows in record["sweep_h_layers"].items():
                assert set(rows) == {"n=8,16,32,64"}, (path.name, side)
                _check_layer_runs(rows["n=8,16,32,64"], (path.name, side), calls=20)
            # and the entries of the Schur matrix eps*Kp + Mp next to its factor's
            for side in ("base", "change"):
                for mesh, row in record["sizes"][side].items():
                    assert 0 < row["epsKp_Mp_matrix_nnz"] < row["epsKp_Mp_lu_nnz"], (
                        path.name, side, mesh)
        # newer records also keep the sha256 of each side's mesh-pp VTK files:
        # both sides must have written the same bytes or, in records that
        # keep their number differences, where a change moved the solutions
        # in their last bits, the same text and geometry with point data that
        # agree to 1e-12 of its largest magnitude
        if "vtk_sha256" in record:
            digests = record["vtk_sha256"]
            assert digests["base"] and all(name.startswith("pp-") for name in digests["base"])
            if digests["base"] != digests["change"]:
                differences = record["vtk_number_difference"]
                assert set(differences) == set(digests["base"]), path.name
                for name, difference in differences.items():
                    assert difference is not None, (path.name, name)
                    geometry, data = difference
                    assert geometry == 0.0 and data <= 1e-12, (path.name, name)


def _check_layers(metrics, where, calls=17):
    """metrics is one traced sweep's per-layer metrics, as perfbench formats
    them, with `calls` sparse.solve calls: 17 for sweep-eps, S, PP's three
    solves and the 13 ES solutions of the default grid; for sweep-h, 5 per
    mesh, S, PP's three and ES at the smallest eps."""
    spans = _load("perfbench_spans", "perfbench/spans.py")
    assert set(metrics) == ({name for name, _, _ in spans.SPAN_METRICS}
                            | {name for name, _ in spans.SOLVE_METRICS}), where
    assert metrics["sparse.solve.calls"] == f"{calls} count", where
    for name in ("sparse.solve.s", "fem.assemble_stiffness.s", "verification.norms.self_s"):
        value, unit = metrics[name].split()
        assert unit == "s" and float(value) > 0.0, (where, name)


def _check_layer_runs(row, where, calls=17):
    """row holds the per-layer metrics of three processes, each checked,
    and the median of each metric over them."""
    assert set(row) == {"runs", "median"} and len(row["runs"]) == 3, where
    for metrics in (*row["runs"], row["median"]):
        _check_layers(metrics, where, calls)
    assert row["median"] == _bench_record().median_metrics(row["runs"]), where


def _load(name, path):
    """The module at ROOT / path, loaded by path as name."""
    spec = importlib.util.spec_from_file_location(name, ROOT / path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_record():
    return _load("bench_record", "tools/bench_record.py")


def _runs(workload, name, unit, base, change):
    """Alternating runs of one metric: pair k reads base[k] and change[k]."""
    return [{"workload": workload, "pair": k, "side": side,
             "result": {"metrics": {name: f"{value} {unit}"}}}
            for k, pair in enumerate(zip(base, change))
            for side, value in zip(("base", "change"), pair)]


@pytest.mark.parametrize("base, change, better, won, verdict", [
    # won 10 of 10, medians 20 apart against a base IQR of 1.75
    ([160, 161, 159, 162, 158, 160, 161, 159, 160, 163],
     [140, 141, 139, 142, 145, 140, 141, 139, 140, 143], "lower", 10, "gain"),
    # won 8 of 10: no gain, but well within a 10% bound
    ([100, 101, 99, 102, 98, 100, 101, 99, 100, 103],
     [99, 100, 98, 101, 97, 99, 100, 98, 101, 104], "lower", 8, "within the bound"),
    # the base's IQR (35) is wider than 10% of its median (100)
    ([80, 120, 75, 125, 100, 90, 110, 70, 130, 100],
     [85, 118, 80, 120, 100, 95, 105, 75, 125, 105], "lower", 4, "unresolved"),
    # the same wide base, but every change run reads better than every base
    # run: resolved, though the medians differ by less than the IQR
    ([80, 120, 75, 125, 100, 90, 110, 70, 130, 100],
     [69, 68, 69, 67, 69, 68, 66, 69, 68, 69], "lower", 10, "within the bound"),
    # 20% worse, with a tight base
    ([100, 101, 99, 102, 98, 100, 101, 99, 100, 103],
     [120, 121, 119, 122, 118, 120, 121, 119, 120, 123], "lower", 0,
     "worse than the bound"),
    # higher is better: the same numbers read as a gain the other way round
    ([140, 141, 139, 142, 145, 140, 141, 139, 140, 143],
     [160, 161, 159, 162, 158, 160, 161, 159, 160, 163], "higher", 10, "gain"),
])
def test_bench_record_summary_reads_each_metric(base, change, better, won, verdict):
    bench = _bench_record()
    runs = _runs("mesh-pp", "peak_rss_mib", "MiB", base, change)
    metric = {"name": "peak_rss_mib", "better": better, "bound": 0.1}
    [[workload, metrics]] = bench.summarize(runs, [metric]).items()
    got = metrics["peak_rss_mib"]
    assert workload == "mesh-pp" and got["pairs"] == 10
    assert got["change_won"] == won and got["reading"] == verdict
    assert got["base"]["median"] == float(np.median(base))
    assert got["change"]["q1"] == float(np.percentile(change, 25))
    assert got["change"]["q3"] == float(np.percentile(change, 75))


def test_bench_record_vtk_digests_read_the_mesh_pp_files(tmp_path):
    work = tmp_path / ".bench_work" / "mesh-pp"
    work.mkdir(parents=True)
    (work / "pp-8.vtk").write_bytes(b"# vtk DataFile Version 3.0\n")
    (work / "jitter-8.msh").write_bytes(b"not a VTK file")
    assert _bench_record().vtk_digests(tmp_path) == {
        "pp-8.vtk": hashlib.sha256(b"# vtk DataFile Version 3.0\n").hexdigest()}
    assert _bench_record().vtk_digests(tmp_path / "none") == {}


def test_bench_record_number_difference_reads_geometry_and_point_data():
    text = ("# vtk DataFile Version 3.0\nPOINTS 2 double\n0.0 1.0 0.0\n2.0 0.0 0.0\n"
            "POINT_DATA 2\nSCALARS p double 1\nLOOKUP_TABLE default\n{}\n-4.0\n")
    difference = _bench_record().number_difference
    assert difference(text.format("1.0"), text.format("1.0")) == [0.0, 0.0]
    assert difference(text.format("1.0"), text.format("1.5")) == [0.0, 0.125]
    moved = text.format("1.0").replace("2.0 0.0", "2.5 0.0")
    assert difference(text.format("1.0"), moved) == [0.25, 0.0]
    assert difference(text.format("1.0"), text.format("1.0").replace("p double", "q double")) is None
    assert difference(text.format("1.0"), text.format("1.0 2.0")) is None
    # below 1 in magnitude the relative and the absolute difference disagree
    small = ("# vtk DataFile Version 3.0\nPOINTS 2 double\n0.0 0.5 0.0\n0.25 0.0 0.0\n"
             "POINT_DATA 2\nSCALARS p double 1\nLOOKUP_TABLE default\n{}\n-0.25\n")
    assert difference(small.format("0.125"), small.format("0.1875")) == [0.0, 0.25]
    moved = small.format("0.125").replace("0.25 0.0", "0.375 0.0")
    assert difference(small.format("0.125"), moved) == [0.25, 0.0]


def test_bench_record_size_functions_run_on_this_package():
    # the size table's functions read the package by name, and run in the
    # base checkout too: a renamed attribute fails here, not in a recording
    code = _bench_record().SIZE_FUNCTIONS + """
mesh = build_structured_mesh(8)
print(json.dumps({**sizes(mesh), **schur_steps(mesh), **pp_alone(mesh), **held(mesh),
                  "scale": scale(8)}))
"""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, check=True)
    row = json.loads(proc.stdout)
    assert row["K"] > row["B"] > 0 and row["S"] > row["K"]
    for key in ("A_lu_nnz", "Kp_lu_nnz", "epsKp_Mp_lu_nnz", "epsKp_Mp_matrix_nnz",
                "S_steps", "ES_steps_eps=1e-06", "ES_steps_eps=0.01"):
        assert isinstance(row[key], int) and row[key] > 0, key
    assert row["epsKp_Mp_matrix_nnz"] < row["epsKp_Mp_lu_nnz"]
    # S factors no Mp, so no record made now holds its factor's entries
    assert "Mp_gauge_lu_nnz" not in row
    assert len(row["PP_velocity_steps"]) == 2 and row["PP_ritz"] and row["S_ritz"]
    # the held bytes cover the two eliminated scalar systems at least
    assert row["Discretization_bytes_after_PP"] > 12 * row["Kp_lu_nnz"] + 12 * row["K"]
    assert row["Discretization_traced_peak_bytes"] > 12 * row["K"]
    # the scale row's held bytes cover A's factor, which S and ES made
    scale = row["scale"]
    assert scale["n"] == 8 and scale["wall_s"] > 0.0
    assert 0.0 < scale["S_peak_rss_mib"] <= scale["peak_rss_mib"]
    assert scale["bytes_after_S_ES"] > 12 * row["A_lu_nnz"]


def _traced(*args):
    """The per-layer metrics of bench_record's LAYERS run in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _bench_record().LAYERS, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def test_bench_record_layers_run_on_this_package():
    # the per-layer row loads perfbench/spans.py by path and traces one
    # sweep-eps in a fresh process, as it does in the base checkout
    _check_layers(_traced("sweep-eps", "8"), "n=8")


def test_bench_record_sweep_h_layers_run_on_this_package():
    # the sweep-h row traces one run_sweep_h the same way: 5 solves per mesh
    _check_layers(_traced("sweep-h", "4", "8"), "n=4,8", calls=10)


def test_bench_record_median_metrics_keep_each_unit():
    runs = [{"sparse.solve.s": "0.3 s", "sparse.solve.calls": "17 count"},
            {"sparse.solve.s": "0.1 s", "sparse.solve.calls": "17 count"},
            {"sparse.solve.s": "0.25 s", "sparse.solve.calls": "17 count"}]
    assert _bench_record().median_metrics(runs) == {"sparse.solve.s": "0.25 s",
                                                    "sparse.solve.calls": "17 count"}
