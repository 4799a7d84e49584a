"""Benchmark of the epsstokes package: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {sweep-eps,verify,mesh-pp} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from `src/`.
Inputs come from --seed only.  Every measurement is a fresh process
(workloads.py), started one at a time.

--trace 0 runs S // PROCESS_S[workload] workload processes (at least one),
which cover about S seconds, and reports the medians of the end-to-end
metrics.  Set-up is timed in at least SETUP_SAMPLES processes.  No process
starts unless the RUN_LIMIT_S deadline leaves room for one as long as the
last of its kind.  --trace 1 runs the workload once untraced and once under
spans.Tracer, and reports the per-layer metrics plus the tracing overhead.
Each process checks its outputs.

The last line of standard output is
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it record the environment and every metric with its
unit, fail_rate included.  See perfbench/README.md for the workloads and
the meaning of each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep-eps", "verify", "mesh-pp")
MESH_PP_SIZES = (32, 64, 96, 128)
MESH_PP_JITTER = 0.2          # interior vertices move by up to this times h
DELTA_RANGE = (0.5, 2.0)
SETUP_SAMPLES = 3
# Typical length of one workload process on the reference machine
# (README.md); it fixes the process count of a run, whatever the speed.
PROCESS_S = {"sweep-eps": 15.0, "verify": 40.0, "mesh-pp": 12.0}
RUN_LIMIT_S = 170.0           # whole run, so that it ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def write_jittered_mesh(path, n, rng):
    """Unit square in the `mesh2d v1` format, SW-NE diagonals, boundary
    markers 1..4 (bottom, right, top, left), interior vertices jittered."""
    side = np.linspace(0.0, 1.0, n + 1)
    xg, yg = np.meshgrid(side, side)                 # vertex j*(n+1)+i
    xy = np.column_stack((xg.ravel(), yg.ravel()))
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1))
    interior = ((i > 0) & (i < n) & (j > 0) & (j < n)).ravel()
    k = int(interior.sum())
    radius = MESH_PP_JITTER / n * np.sqrt(rng.random(k))
    angle = 2.0 * np.pi * rng.random(k)
    xy[interior] += np.column_stack((radius * np.cos(angle), radius * np.sin(angle)))

    ci, cj = np.meshgrid(np.arange(n), np.arange(n))
    v00 = (cj * (n + 1) + ci).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    tris = np.empty((2 * n * n, 3), dtype=np.int64)
    tris[0::2] = np.column_stack((v00, v10, v11))
    tris[1::2] = np.column_stack((v00, v11, v01))

    s = np.arange(n)
    bottom = np.column_stack((s, s + 1, np.full(n, 1)))
    right = np.column_stack((s * (n + 1) + n, (s + 1) * (n + 1) + n, np.full(n, 2)))
    top = np.column_stack((n * (n + 1) + n - s, n * (n + 1) + n - s - 1, np.full(n, 3)))
    left = np.column_stack(((n - s) * (n + 1), (n - s - 1) * (n + 1), np.full(n, 4)))
    edges = np.vstack((bottom, right, top, left))

    lines = ["mesh2d v1", f"vertices {len(xy)}"]
    lines += [f"{x:.17g} {y:.17g}" for x, y in xy]
    lines.append(f"triangles {len(tris)}")
    lines += [f"{a} {b} {c}" for a, b, c in tris]
    lines.append(f"boundary {len(edges)}")
    lines += [f"{a} {b} {m}" for a, b, m in edges]
    Path(path).write_text("\n".join(lines) + "\n")


def make_inputs(workload, seed, workdir):
    """The workload's inputs, generated from the seed alone (not timed)."""
    rng = np.random.default_rng(seed)
    if workload == "sweep-eps":
        lo, hi = DELTA_RANGE
        return {"delta": float(lo + (hi - lo) * rng.random())}
    if workload == "mesh-pp":
        meshes = []
        for n in MESH_PP_SIZES:
            path = workdir / f"jitter-{n}.msh"
            write_jittered_mesh(path, n, rng)
            meshes.append({"n": n, "path": str(path)})
        return {"meshes": meshes}
    return {}


def git_commit():
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
    }


class Runner:
    """Starts measurement processes one at a time, within the run limit."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = json.dumps(inputs)
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH", ""))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def time_left(self):
        return self.deadline - time.monotonic()

    def __call__(self, *extra):
        cmd = [sys.executable, str(BENCH_DIR / "workloads.py"),
               "--workload", self.workload, "--inputs", self.inputs,
               "--workdir", str(self.workdir), *extra]
        timeout = max(1.0, self.time_left())
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=True)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(runner, seconds):
    """End-to-end metrics: medians over repeated fresh processes.

    The run starts `seconds // PROCESS_S` workload processes (at least
    one), so the count does not depend on how fast the machine is at the
    time; a further process starts only while the run limit leaves room
    for one as long as the last.  A set-up process before them warms the
    file cache and is not counted.
    """
    def timed(*extra):
        t0 = time.monotonic()
        sample = runner(*extra)
        return sample, time.monotonic() - t0

    runner("--setup-only")
    sample, last = timed()
    samples = [sample]
    processes = max(1, int(seconds // PROCESS_S[runner.workload]))
    while len(samples) < processes and runner.time_left() > last:
        sample, last = timed()
        samples.append(sample)
    setups = [s["setup_s"] for s in samples]
    last = 0.0
    while len(setups) < SETUP_SAMPLES and runner.time_left() > last:
        sample, last = timed("--setup-only")
        setups.append(sample["setup_s"])
    metrics = {
        "wall_s": (statistics.median(s["wall_s"] for s in samples), "s"),
        "cpu_s": (statistics.median(s["cpu_s"] for s in samples), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(s["peak_rss_mib"] for s in samples), "MiB"),
    }
    detail = {"wall_samples": [s["wall_s"] for s in samples], "setup_samples": setups}
    return samples, metrics, detail


def measure_traced(runner, workdir):
    """Per-layer metrics from one traced process, plus tracing overhead."""
    base = runner()
    span_file = workdir / "spans.json"
    traced = runner("--trace-out", str(span_file))
    dumped = json.loads(span_file.read_text())
    metrics = spans.layer_metrics(dumped)
    name, unit = spans.OVERHEAD_METRIC
    metrics[name] = ((traced["wall_s"] - base["wall_s"]) / base["wall_s"], unit)
    detail = {"absent_spans": dumped["absent"],
              "functions": spans.function_table(dumped)}
    return [base, traced], metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "epsstokes" / "__init__.py").is_file():
        print(f"error: no epsstokes source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = make_inputs(args.workload, args.seed, workdir)
    runner = Runner(args.workload, inputs, workdir)
    print("env " + json.dumps(environment()), flush=True)

    try:
        if args.trace:
            samples, metrics, detail = measure_traced(runner, workdir)
        else:
            samples, metrics, detail = measure(runner, args.seconds)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: measurement process failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": {k: v for k, v in inputs.items() if k != "meshes"},
        "processes": len(samples), "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted,
        "failed_ops": sorted({op for s in samples for op in s["failed_ops"]}),
        "checks": samples[0]["checks"],
        "known_red": next((s["known_red"] for s in samples if "known_red" in s), None),
        "solve_count": next((s["solve_count"] for s in samples
                             if "solve_count" in s), None),
        "metrics": {k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()},
        **detail,
    }
    print("result " + json.dumps(record), flush=True)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
