import json
from pathlib import Path

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
