"""One measurement of one benchmark workload, in a fresh interpreter.

run.py starts this script once per measurement and reads the JSON object
on the last line of its standard output:

    python3 perfbench/workloads.py --workload sweep-eps --inputs '{"delta": 1.3}' \
        --workdir .bench_work/sweep-eps [--setup-only] [--trace-out spans.json]

The process first times its set-up (importing epsstokes and building the
Discretization of the workload's largest mesh), then the workload's timed
call, then checks the outputs outside the timed region.  With --trace-out
the timed call runs under spans.Tracer and the spans are written there.

An operation is one driver call or one output check.  A driver call fails
if it raises or reports a relative residual above RESIDUAL_GATE.  verify
sees only the battery's worst residual, so its driver calls count as one
operation.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

RESIDUAL_GATE = 1e-10
SWEEP_N = 40
SWEEP_SLOPE_WINDOW = (1.0, 1e4)
SWEEP_SLOPE_MAX = -0.9
MESH_PP_RATE_RANGE = (1.8, 2.2)
VERIFY_KNOWN_RED = 2


def log_slope(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    import numpy as np      # imported here so that set-up pays for it
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def residual_ops(residuals):
    return [(f"driver[{k}] residual", r <= RESIDUAL_GATE)
            for k, r in enumerate(residuals)]


# Each workload gives (setup_mesh, prepare).  setup_mesh builds the largest
# mesh for the set-up phase; prepare returns (run, check), where run is the
# timed call and check maps its output to a list of (operation, passed).

def sweep_eps(es, inputs, workdir):
    table_path = workdir / "sweep.csv"
    config = es.RunConfig(case="ms1-mismatch", n=SWEEP_N,
                          delta=inputs["delta"], out=str(table_path))

    def run():
        return es.run_sweep_eps(config)

    def check(out):
        table, reports = out
        ops = residual_ops([r.rel_residual for r in reports])
        cols = ("err_u_H1_vs_S", "err_u_L2_vs_S", "err_p_L2R_vs_S",
                "err_u_H1_vs_PP", "err_p_H1_vs_PP", "div_u_L2",
                "trace_mismatch_L2G")
        grid = es.DEFAULT_EPS_GRID
        for k, eps in enumerate(grid):
            row = table.rows[k] if k < len(table.rows) else None
            ok = (row is not None and row.eps == eps and row.n == SWEEP_N
                  and all(math.isfinite(getattr(row, c)) and getattr(row, c) >= 0.0
                          for c in cols))
            ops.append((f"row eps={eps:g}", ok))
        lo, hi = SWEEP_SLOPE_WINDOW
        window = [r for r in table.rows if lo <= r.eps <= hi]
        slope = log_slope([r.eps for r in window],
                          [r.err_u_H1_vs_PP for r in window])
        ops.append((f"slope err_u_H1_vs_PP {slope:.3f} <= {SWEEP_SLOPE_MAX}",
                    slope <= SWEEP_SLOPE_MAX))
        lines = table_path.read_text().splitlines()
        ops.append(("table file", lines[:1] == ["eps_stokes_table v1"]
                    and len(lines) == 2 + len(grid)))
        return ops

    return run, check


def verify(es, inputs, workdir):
    def run():
        return es.run_acceptance(es.RunConfig())

    def check(report):
        details = {c.cid: c for c in report.criteria}
        # The battery reports only its worst residual, so its driver calls
        # are one operation: a breach by any of them is one failure.
        worst_ok = details[9].details["worst_rel_residual"] <= RESIDUAL_GATE
        ops = [("driver[worst] residual", worst_ok)]
        for cid in sorted(details):
            if cid != VERIFY_KNOWN_RED:
                ok = details[cid].passed and (cid != 9 or worst_ok)
                ops.append((f"criterion {cid}", ok))
        return ops

    return run, check


def mesh_pp(es, inputs, workdir):
    from epsstokes import verification as ver

    case = es.get_case("ms1")
    meshes = inputs["meshes"]

    def run():
        rows = []
        for item in meshes:
            mesh = es.load_mesh(item["path"])
            disc = es.Discretization(mesh)
            inp = es.ProblemInput(mesh=mesh, body_force=case.body_force,
                                  u_bc=case.u_bc(), p_bc=case.p_bc())
            res = es.solve_pp(inp, disc)
            rows.append({
                "n": item["n"], "num_vertices": mesh.num_vertices,
                "residual": res.report.rel_residual,
                "u_h1": ver.error_h1(res.u, case.u_exact, case.grad_u_exact),
                "p_l2r": ver.quotient_norm_l2(res.p, case.p_exact),
                "div": ver.div_l2(res.u)})
            es.export_vtk(res, workdir / f"pp-{item['n']}.vtk")
        return rows

    def check(rows):
        ops = residual_ops([r["residual"] for r in rows])
        h = [1.0 / r["n"] for r in rows]
        lo, hi = MESH_PP_RATE_RANGE
        for key in ("u_h1", "p_l2r"):
            rate = log_slope(h, [r[key] for r in rows])
            ops.append((f"h-rate {key} {rate:.3f} in [{lo}, {hi}]",
                        lo <= rate <= hi))
        for r in rows:
            text = (workdir / f"pp-{r['n']}.vtk").read_text()
            nv = r["num_vertices"]
            ok = (text.startswith("# vtk DataFile Version 3.0\n")
                  and f"\nPOINTS {nv} double\n" in text
                  and f"\nPOINT_DATA {nv}\n" in text
                  and math.isfinite(r["div"]))
            ops.append((f"vtk n={r['n']}", ok))
        return ops

    return run, check


def _sweep_setup_mesh(es, inputs):
    return es.build_structured_mesh(SWEEP_N)


def _verify_setup_mesh(es, inputs):
    return es.build_structured_mesh(64)      # criterion 7's finest mesh


def _largest_file_mesh(es, inputs):
    return es.load_mesh(max(inputs["meshes"], key=lambda m: m["n"])["path"])


WORKLOADS = {
    "sweep-eps": (_sweep_setup_mesh, sweep_eps),
    "verify": (_verify_setup_mesh, verify),
    "mesh-pp": (_largest_file_mesh, mesh_pp),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", default="{}")
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    args = parser.parse_args(argv)
    inputs = json.loads(args.inputs)
    setup_mesh, prepare = WORKLOADS[args.workload]

    start = time.perf_counter()
    import epsstokes as es
    disc = es.Discretization(setup_mesh(es, inputs))
    setup_s = time.perf_counter() - start
    del disc
    out = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out is not None:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    run, check = prepare(es, inputs, args.workdir)
    error = None
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        result = run()
    except Exception:   # any failure of the program is a failed operation
        error = traceback.format_exc()
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.dump(args.trace_out)

    if error is None:
        try:
            ops = check(result)
        except Exception:   # an output the check cannot read is a failed check
            error = traceback.format_exc()
            ops = [("output check", False)]
    else:
        ops = [("timed call", False)]
    if error is not None:
        print(error, file=sys.stderr)
    out.update({
        "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": sum(not ok for _, ok in ops),
        "failed_ops": [name for name, ok in ops if not ok],
        "checks": [name for name, _ in ops if not name.startswith("driver[")],
        "error": error,
    })
    if args.workload == "verify" and error is None:
        c2 = next(c for c in result.criteria if c.cid == VERIFY_KNOWN_RED)
        out["known_red"] = {"criterion": VERIFY_KNOWN_RED, "passed": c2.passed}
        c9 = next(c for c in result.criteria if c.cid == 9)
        out["solve_count"] = c9.details["solve_count"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
