"""Record paired perfbench runs of two checkouts in one BENCH_*.json file.

    python3 tools/bench_record.py BENCH_26.json --base ../parent \
        [--seed 1] [--pairs sweep-eps=5,verify=5,mesh-pp=3]

The change is the checkout that holds this script; --base is another
checkout, such as a `git clone` of the parent commit.  Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

once in each checkout, one process at a time: the base first in even pairs
and the change first in odd ones.  A run keeps perfbench's `env` and
`result` lines and its last line (`summary`), whose `correct` says whether
every output check passed.  Then each checkout reports, in a fresh process,
the stored entries of K, B and the eliminated Stokes system (`nnz` of the
matrix S solves: where it is a SaddleSystem, of the blocks it stores, A, D
and C; its gradient block -D^T is applied, not stored), and the factor
entries (`lu_nnz`) of A, of Kp and of ES's Schur preconditioner,
eps*Kp + Mp at eps = 1e-6 with the pressure boundary eliminated, and that
matrix's own entries (`matrix_nnz`, from BENCH_50.json on); S's Schur CG
takes Chebyshev steps on Mp and factors no Mp (records up to BENCH_47.json
also hold `Mp_gauge_lu_nnz`, Mp with the gauge dof eliminated).  SuperLU
keeps the diagonal pivots of that SPD matrix, so its pattern alone sets the
fill, which is why one eps is recorded: both counts were the same at
eps = 1e-6, 1e-4, 1e-2 and 1 on the n = 32 and 64 meshes.  The table
covers the structured meshes n = 32, 64 and 128 and the jittered mesh-pp
meshes n = 96 and 128 of the seed; on the structured meshes it also holds
the pressure Schur CG steps of S and of ES at eps = 1e-6 and 1e-2, and S's
Ritz values (case ms1-mismatch);
on the jittered meshes also the Krylov steps of each velocity solve of PP
alone (mesh-pp's case, no factor of A) and its report's Ritz values; on
the jittered n = 128 mesh also the traced (tracemalloc) peak of building
a Discretization, and the bytes of the arrays and factors it holds after
one PP solve (its mesh not counted, a SuperLU factor at 12 bytes an
entry).  K, Kp and B are assembled afresh for the table, so the script
runs in checkouts whose Discretization keeps them and in those that do
not.  Under `scale` each checkout reports, in one more fresh process, one
S and then one ES at eps = 1e-6 on the structured n = 256 mesh (case
ms1-mismatch): the wall time from the Discretization to the end of the ES
solve, the peak RSS of the process once S is solved and at the end, and the
bytes the Discretization holds afterwards, counted as for one PP solve.
Under `layers` each checkout reports, for each n = 32, 64 and 128, the
per-layer metrics (perfbench/spans.py `layer_metrics`, loaded by path) of
one traced `run_sweep_eps` of case ms1-mismatch over the default eps grid,
and under `sweep_h_layers` those of one traced `run_sweep_h` of that case
over n = 8, 16, 32 and 64.  Each row runs in LAYER_PROCESSES fresh
processes per checkout, the two checkouts taking turns; the record keeps
each process's metrics (`runs`) and the median of each metric (`median`),
as one process cannot tell a change from noise.  The times include the
tracing overhead: compare them with the other side's, not with an
untraced run.
After the pairs each checkout makes one run of each workload with
`--trace 1`, whose per-layer metrics (perfbench/spans.py: the time in
assembly, loads, solves, norms and I/O) and per-function table are kept
under `traces`; one traced run is not a gain or a loss, it shows where a
change moved the time.  Right after the pairs, before the traced runs,
the record keeps the sha256 of each VTK file that each side's last mesh-pp
run wrote (`.bench_work/mesh-pp/pp-<n>.vtk`), so it shows whether the two
sides write the same bytes, and, under `vtk_number_difference`, the largest
difference between the two sides' numbers in each file's geometry and in
its point data, each relative to the largest magnitude there, or null
where the files differ in anything else.  Nothing outside the two
checkouts is written; perfbench works under each checkout's `.bench_work/`.

The record ends with a summary of each workload's end-to-end metrics, as
BENCHMARK.json names them, which is also printed: each side's median and
quartiles, the pairs the change won (ties count for neither), and the
reading of the rules for a small sandbox (perfbench/README.md): a gain when
the change won at least nine tenths of the pairs and the medians differ by
more than the base's interquartile range; unresolved when the base's
interquartile range is wider than the metric's bound, unless every change
run reads better than every base run; otherwise within the bound, or worse
than the bound when the change's median is worse than the base's by more.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep-eps", "verify", "mesh-pp")

# The functions of the size table, run in a checkout's root.  They read the
# package only through names that the base checkout has too: K and Kp come
# from fem.assemble_stiffness, not from what a Discretization keeps.
SIZE_FUNCTIONS = r"""
import json, resource, sys, time, tracemalloc
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import numpy as np
from scipy.sparse.linalg import SuperLU
import run as bench
from epsstokes import (Discretization, ProblemInput, build_structured_mesh,
                       drivers, fem, get_case, load_mesh)
from epsstokes.harness import problem_input
from epsstokes.sparse import Factor

def sizes(mesh):
    disc = Discretization(mesh)
    kp = fem.assemble_stiffness(disc.pspace)
    schur = fem.eliminate(1e-6 * kp + disc.mass_p, disc.pspace.boundary_nodes)
    return {"K": fem.assemble_stiffness(disc.vspace).nnz,
            "B": fem.assemble_div_coupling(disc.vspace, disc.pspace).nnz,
            "S": disc.stokes_system.matrix.nnz,
            "A_lu_nnz": disc.velocity_factor.nnz,
            "Kp_lu_nnz": disc.pressure_factor.nnz,
            "epsKp_Mp_lu_nnz": Factor(schur, disc.pressure_order).nnz,
            "epsKp_Mp_matrix_nnz": schur.nnz}

def schur_steps(mesh):
    disc, case = Discretization(mesh), get_case("ms1-mismatch")
    s = drivers.solve_stokes(problem_input(case, mesh), disc).report
    es = {f"ES_steps_eps={eps:g}":
          drivers.solve_es(problem_input(case, mesh, eps), disc).report.iterations
          for eps in (1e-6, 1e-2)}
    return {"S_steps": s.iterations, "S_ritz": list(s.ritz), **es}

def pp_alone(mesh):
    reports, real = [], drivers.solve
    def recording(*args, **kwargs):
        x, report = real(*args, **kwargs)
        reports.append(report)
        return x, report
    case = get_case("ms1")
    drivers.solve = recording
    res = drivers.solve_pp(ProblemInput(mesh=mesh, body_force=case.body_force,
                                        u_bc=case.u_bc(), p_bc=case.p_bc()))
    drivers.solve = real
    return {"PP_velocity_steps": [r.iterations for r in reports[1:]],
            "PP_ritz": list(res.report.ritz)}

# Bytes of the arrays, and of the SuperLU factors at 12 per entry,
# reachable from obj and not from an object already in seen.
def reach(obj, seen):
    while isinstance(obj, np.ndarray) and isinstance(obj.base, np.ndarray):
        obj = obj.base
    if id(obj) in seen or callable(obj) or isinstance(obj, type):
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, SuperLU):
        return 12 * obj.nnz
    if isinstance(obj, dict):
        return sum(reach(x, seen) for x in [*obj, *obj.values()])
    if isinstance(obj, (tuple, list)):
        return sum(reach(x, seen) for x in obj)
    return sum(reach(x, seen) for x in getattr(obj, "__dict__", {}).values())

def held(mesh):
    tracemalloc.start()
    disc = Discretization(mesh)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    drivers.solve_pp(problem_input(get_case("ms1"), mesh), disc)
    seen = set()
    reach(mesh, seen)                   # the caller's mesh is not the disc's
    return {"Discretization_traced_peak_bytes": peak,
            "Discretization_bytes_after_PP": reach(disc, seen)}

def scale(n):
    mesh, case = build_structured_mesh(n), get_case("ms1-mismatch")
    start = time.perf_counter()
    disc = Discretization(mesh)
    drivers.solve_stokes(problem_input(case, mesh), disc)
    s_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    drivers.solve_es(problem_input(case, mesh, 1e-6), disc)
    wall = time.perf_counter() - start
    seen = set()
    reach(mesh, seen)
    return {"n": n, "wall_s": wall, "S_peak_rss_mib": s_peak,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "bytes_after_S_ES": reach(disc, seen)}
"""

# Run in a checkout's root: prints the size table of that checkout's package.
SIZES = SIZE_FUNCTIONS + r"""
work = Path(".bench_work/sizes")
work.mkdir(parents=True, exist_ok=True)
table = {}
for n in (32, 64, 128):
    mesh = build_structured_mesh(n)
    table[f"structured n={n}"] = {**sizes(mesh), **schur_steps(mesh)}
for item in bench.make_inputs("mesh-pp", int(sys.argv[1]), work)["meshes"]:
    if item["n"] in (96, 128):
        mesh = load_mesh(item["path"])
        table[f"jittered n={item['n']}"] = {**sizes(mesh), **pp_alone(mesh),
                                            **(held(mesh) if item["n"] == 128 else {})}
print(json.dumps(table))
"""


# Run in a checkout's root: the scale row of that checkout's package.
SCALE = SIZE_FUNCTIONS + r"""
print(json.dumps(scale(int(sys.argv[1]))))
"""
SCALE_N = 256

# Run in a checkout's root: the per-layer metrics of one sweep, argv[1]
# sweep-eps at n = argv[2] or sweep-h over n = argv[2:], under that
# checkout's perfbench/spans.py, formatted as perfbench formats them.  The
# package is imported before the tracer is installed, which wraps the
# functions of the modules already loaded.
LAYERS = r"""
import importlib.util, json, sys
sys.path[:0] = ["src"]
from epsstokes import harness
spec = importlib.util.spec_from_file_location("perfbench_spans", "perfbench/spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
tracer.install()
sweep, ns = sys.argv[1], [int(n) for n in sys.argv[2:]]
if sweep == "sweep-h":
    harness.run_sweep_h(harness.RunConfig(case="ms1-mismatch", n_list=ns))
else:
    harness.run_sweep_eps(harness.RunConfig(case="ms1-mismatch", n=ns[0]))
metrics = spans.layer_metrics({"spans": tracer.spans, "solves": tracer.solves})
print(json.dumps({k: f"{v:.6g} {u}" for k, (v, u) in metrics.items()}))
"""
LAYER_NS = (32, 64, 128)
SWEEP_H_NS = (8, 16, 32, 64)
LAYER_PROCESSES = 3


def perfbench(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One perfbench run in checkout: its env, result and summary lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "30", "--trace", str(trace)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1])
              for line in lines if line.startswith(("env ", "result "))}
    return {"env": tagged["env"], "result": tagged["result"],
            "summary": json.loads(lines[-1])}


def traces(checkout: Path, workloads, seed: int) -> dict:
    """{workload: its per-layer metrics and function table} of one traced
    run of each workload in checkout."""
    out = {}
    for workload in workloads:
        run = perfbench(checkout, workload, seed, trace=1)
        out[workload] = {"correct": run["summary"]["correct"],
                         "metrics": run["result"]["metrics"],
                         "functions": run["result"]["functions"]}
    return out


def vtk_digests(checkout: Path) -> dict:
    """{file name: sha256} of the VTK files of checkout's last mesh-pp run."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((checkout / ".bench_work" / "mesh-pp").glob("pp-*.vtk"))}


def number_difference(a: str, b: str):
    """[geometry, data]: the largest difference between the numbers of two
    VTK texts before their POINT_DATA line (points and cells) and after it
    (the solution), each relative to the largest magnitude there.  None
    where the texts differ in anything but their numbers, header lines being
    those that start with a letter or '#'."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    diff, scale, part = [0.0, 0.0], [0.0, 0.0], 0
    for x, y in zip(lines_a, lines_b):
        if x[:1].isalpha() or x[:1] == "#":
            if x != y:
                return None
            if x.startswith("POINT_DATA"):
                part = 1
            continue
        xs, ys = x.split(), y.split()
        if len(xs) != len(ys):
            return None
        for u, v in zip(map(float, xs), map(float, ys)):
            diff[part] = max(diff[part], abs(u - v))
            scale[part] = max(scale[part], abs(u))
    return [d / s if s else d for d, s in zip(diff, scale)]


def vtk_difference(base: Path, change: Path) -> dict:
    """{file name: number_difference of the two checkouts' files} for the
    VTK files of their last mesh-pp runs."""
    def text(checkout, name):
        return (checkout / ".bench_work" / "mesh-pp" / name).read_text()

    return {name: number_difference(text(base, name), text(change, name))
            for name in vtk_digests(base)}


def sizes(checkout: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, "-c", SIZES, str(seed)], cwd=checkout,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def scale(checkout: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", SCALE, str(SCALE_N)], cwd=checkout,
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def layers(sides: dict, rows: dict) -> dict:
    """{side: {row: {"runs": [metrics], "median": metrics}}}: the per-layer
    metrics of LAYERS run with each row's arguments in LAYER_PROCESSES fresh
    processes per side, the sides taking turns to go first, and the median
    of each metric over them."""
    runs = {side: {row: [] for row in rows} for side in sides}
    for k in range(LAYER_PROCESSES):
        for row, args in rows.items():
            for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                proc = subprocess.run([sys.executable, "-c", LAYERS, *args], cwd=sides[side],
                                      stdout=subprocess.PIPE, text=True, check=True)
                runs[side][row].append(json.loads(proc.stdout))
    return {side: {row: {"runs": r, "median": median_metrics(r)} for row, r in by_row.items()}
            for side, by_row in runs.items()}


def median_metrics(runs: list) -> dict:
    """The median of each metric over runs, formatted as perfbench formats it."""
    out = {}
    for name, first in runs[0].items():
        unit = first.split()[1]
        out[name] = f"{statistics.median(float(r[name].split()[0]) for r in runs):.6g} {unit}"
    return out


def quartiles(values) -> dict:
    """The median and the quartiles of values (linear interpolation)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def reading(base: list, change: list, better: str, bound: float) -> dict:
    """The summary of one metric over the pairs: base[k] and change[k] are
    the two sides of pair k, better is "lower" or "higher", and bound the
    relative amount by which the change's median may be worse."""
    sign = 1.0 if better == "lower" else -1.0     # sign * (change - base) < 0: better
    b, c = quartiles(base), quartiles(change)
    won = sum(sign * (y - x) < 0 for x, y in zip(base, change))
    iqr = b["q3"] - b["q1"]
    worse_by = sign * (c["median"] - b["median"])
    limit = bound * abs(b["median"])
    if won >= 0.9 * len(base) and -worse_by > iqr:
        verdict = "gain"
    elif iqr > limit and not all(sign * (y - x) < 0 for x in base for y in change):
        verdict = "unresolved"
    elif worse_by <= limit:
        verdict = "within the bound"
    else:
        verdict = "worse than the bound"
    return {"base": b, "change": c, "pairs": len(base), "change_won": won,
            "reading": verdict}


def summarize(runs: list, end_to_end: list) -> dict:
    """{workload: {metric: reading(...)}} over the pairs of runs, for the
    end-to-end metrics of BENCHMARK.json (name, better, bound)."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        summary[workload] = {
            m["name"]: reading([float(p["base"][m["name"]].split()[0]) for p in pairs],
                               [float(p["change"][m["name"]].split()[0]) for p in pairs],
                               m["better"], m["bound"])
            for m in end_to_end}
    return summary


def print_summary(summary: dict) -> None:
    for workload, metrics in summary.items():
        for name, r in metrics.items():
            b, c = r["base"], r["change"]
            print(f"{workload:9s} {name:12s} base {b['median']:.4g} [{b['q1']:.4g}, "
                  f"{b['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                  f"{c['q3']:.4g}]  won {r['change_won']}/{r['pairs']}  {r['reading']}")


def parse_pairs(text: str) -> dict:
    pairs = {}
    for item in text.split(","):
        name, _, count = item.partition("=")
        if name not in WORKLOADS or not count.isdigit():
            raise SystemExit(f"error: bad --pairs item {item!r}")
        pairs[name] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", default="sweep-eps=5,verify=5,mesh-pp=3")
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": CHANGE}
    runs, pairs = [], parse_pairs(args.pairs)
    for workload, count in pairs.items():
        for pair in range(count):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                run = perfbench(sides[side], workload, args.seed)
                runs.append({"workload": workload, "pair": pair, "side": side, **run})
                print(workload, pair, side, run["result"]["metrics"], flush=True)
    end_to_end = json.loads((CHANGE / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0",
        "seed": args.seed,
        **({"vtk_sha256": {side: vtk_digests(path) for side, path in sides.items()},
            "vtk_number_difference": vtk_difference(sides["base"], CHANGE)}
           if "mesh-pp" in pairs else {}),
        "sizes": {side: sizes(path, args.seed) for side, path in sides.items()},
        "scale": {side: scale(path) for side, path in sides.items()},
        "layers": layers(sides, {f"n={n}": ("sweep-eps", str(n)) for n in LAYER_NS}),
        "sweep_h_layers": layers(sides, {"n=" + ",".join(map(str, SWEEP_H_NS)):
                                         ("sweep-h", *map(str, SWEEP_H_NS))}),
        "traces": {side: traces(path, pairs, args.seed) for side, path in sides.items()},
        "runs": runs,
        "summary": summarize(runs, end_to_end),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(record["summary"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
