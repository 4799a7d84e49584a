import importlib.util
import json
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


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record",
                                                  ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
