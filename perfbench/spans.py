"""Nested spans around the public functions of the epsstokes modules.

Only the traced run installs a Tracer.  `Tracer.install` replaces each
function in TARGETS with a wrapper at every PACKAGE module that bound
it by name (so `drivers.solve` and `sparse.solve` are both covered); for a
class it wraps `__init__`.  A target that no longer exists is recorded as absent.
Spans stay in memory and are written out once, by `Tracer.dump`.

`layer_metrics` turns the dumped spans into the per-layer metrics: a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time

PACKAGE = "epsstokes"

# (module, attribute) pairs of PACKAGE; a span is named "<module>.<attribute>".
TARGETS = (
    ("mesh", "build_structured_mesh"), ("mesh", "load_mesh"),
    ("mesh", "validate_mesh"),
    ("fem", "Space"), ("fem", "assemble_stiffness"),
    ("fem", "assemble_div_coupling"), ("fem", "assemble_grad_coupling"),
    ("fem", "interpolate_boundary"), ("fem", "assemble_load"),
    ("fem", "assemble_grad_load"), ("fem", "assemble_field_grad_load"),
    ("fem", "apply_dirichlet"),
    ("sparse", "solve"),
    ("drivers", "Discretization"), ("drivers", "solve_stokes"),
    ("drivers", "solve_pp"), ("drivers", "solve_es"),
    ("verification", "error_h1"), ("verification", "error_l2"),
    ("verification", "seminorm_h1"), ("verification", "quotient_norm_l2"),
    ("verification", "div_l2"), ("verification", "trace_mismatch"),
    ("verification", "gauss_formula_residual"),
    ("harness", "export_vtk"), ("harness", "write_table"),
    ("harness", "run_sweep_eps"), ("harness", "run_acceptance"),
)

# Hashing the matrices handed to the solver runs under this span, so that
# its time is nobody's self time.
HASH_SPAN = "trace.hash"

NORMS = tuple(f"verification.{f}" for f in (
    "error_h1", "error_l2", "seminorm_h1", "quotient_norm_l2", "div_l2",
    "trace_mismatch", "gauss_formula_residual"))

# (metric, unit, pooled spans).  The statistic is the metric's last part:
# s (inclusive), self_s or calls.  A time must differ between runs, so
# every time metric pools spans that all three workloads reach and none
# reads a constant 0; counts and ratios are exact and may be 0.  Detail
# on functions that only some workloads reach is given as call counts.
SPAN_METRICS = (
    ("mesh.build.self_s", "s", ("mesh.build_structured_mesh", "mesh.load_mesh")),
    ("mesh.load_mesh.calls", "count", ("mesh.load_mesh",)),
    ("mesh.validate_mesh.s", "s", ("mesh.validate_mesh",)),
    ("fem.Space.s", "s", ("fem.Space",)),
    ("fem.assemble_stiffness.s", "s", ("fem.assemble_stiffness",)),
    ("fem.assemble_div_coupling.s", "s", ("fem.assemble_div_coupling",)),
    ("fem.assemble_grad_coupling.self_s", "s", ("fem.assemble_grad_coupling",)),
    ("fem.interpolate_boundary.s", "s", ("fem.interpolate_boundary",)),
    ("fem.loads.s", "s", ("fem.assemble_load", "fem.assemble_grad_load",
                          "fem.assemble_field_grad_load")),
    ("fem.loads.calls", "count", ("fem.assemble_load", "fem.assemble_grad_load",
                                  "fem.assemble_field_grad_load")),
    ("fem.apply_dirichlet.s", "s", ("fem.apply_dirichlet",)),
    ("sparse.solve.s", "s", ("sparse.solve",)),
    ("sparse.solve.calls", "count", ("sparse.solve",)),
    ("drivers.Discretization.s", "s", ("drivers.Discretization",)),
    ("drivers.solvers.self_s", "s", ("drivers.solve_stokes", "drivers.solve_pp",
                                     "drivers.solve_es")),
    ("drivers.solve_stokes.calls", "count", ("drivers.solve_stokes",)),
    ("drivers.solve_pp.calls", "count", ("drivers.solve_pp",)),
    ("drivers.solve_es.calls", "count", ("drivers.solve_es",)),
    ("verification.norms.self_s", "s", NORMS),
    ("verification.norms.calls", "count", NORMS[:-1]),
    ("verification.gauss_formula_residual.calls", "count", NORMS[-1:]),
    ("harness.self_s", "s", ("harness.run_sweep_eps", "harness.run_acceptance",
                             "harness.write_table", "harness.export_vtk")),
    ("harness.write_table.calls", "count", ("harness.write_table",)),
    ("harness.export_vtk.calls", "count", ("harness.export_vtk",)),
)
SOLVE_METRICS = (
    ("sparse.solve.unknowns", "count"),
    ("sparse.solve.nnz", "count"),
    ("sparse.solve.csr_bytes", "bytes"),
    ("sparse.solve.refinements", "count"),
    ("sparse.solve.max_rel_residual", "ratio"),
    ("sparse.solve.repeat_share", "ratio"),
)
OVERHEAD_METRIC = ("trace.overhead_share", "ratio")
PER_LAYER = (tuple((m, u) for m, u, _ in SPAN_METRICS) + SOLVE_METRICS
             + (OVERHEAD_METRIC,))


class Tracer:
    """Span recorder for one traced run; single-threaded by design."""

    def __init__(self):
        self.spans = []        # [id, name, start, end, parent]
        self.solves = []       # one dict per sparse.solve call
        self.absent = []
        self._stack = []
        self._next_id = 0

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append([sid, name, start, end, parent])
        return wrapper

    def _record_matrix(self, a):
        # Works for any CSR object exposing indptr/indices/data/shape.
        arrays = (a.indptr, a.indices, a.data)
        digest = hashlib.blake2b(repr(tuple(a.shape)).encode(), digest_size=16)
        for arr in arrays:
            digest.update(arr.tobytes())
        self.solves.append({
            "unknowns": int(a.shape[0]), "nnz": int(len(a.data)),
            "csr_bytes": int(sum(arr.nbytes for arr in arrays)),
            "digest": digest.hexdigest(), "refinements": None,
            "rel_residual": None})

    def _wrap_solve(self, fn):
        timed = self._wrap("sparse.solve", fn)
        record = self._wrap(HASH_SPAN, self._record_matrix)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            record(a)
            entry = self.solves[-1]
            x, report = timed(a, *args, **kwargs)
            entry["refinements"] = int(report.iterations)
            entry["rel_residual"] = float(report.rel_residual)
            return x, report
        return wrapper

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for modname, attr in TARGETS:
            name = f"{modname}.{attr}"
            orig = getattr(sys.modules.get(f"{PACKAGE}.{modname}"), attr, None)
            if orig is None:
                self.absent.append(name)
            elif isinstance(orig, type):
                orig.__init__ = self._wrap(name, orig.__init__)
            else:
                wrapper = (self._wrap_solve(orig) if name == "sparse.solve"
                           else self._wrap(name, orig))
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, wrapper)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "solves": self.solves,
                       "absent": self.absent}, fh)


def span_stats(spans, names):
    """Inclusive time and call count of the outermost spans named in
    `names` (a call nested in another of them is part of that call), and
    the self time of all of them."""
    names = set(names)
    by_id = {sid: (name, parent) for sid, name, _, _, parent in spans}
    covered = {}
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    stats = {"s": 0.0, "self_s": 0.0, "calls": 0}
    for sid, name, start, end, parent in spans:
        if name not in names:
            continue
        stats["self_s"] += (end - start) - covered.get(sid, 0.0)
        while parent is not None and by_id[parent][0] not in names:
            parent = by_id[parent][1]
        if parent is None:
            stats["s"] += end - start
            stats["calls"] += 1
    return stats


def function_table(dumped):
    """{span: {s, self_s, calls}} for every target the run called."""
    table = {}
    for modname, attr in TARGETS:
        stats = span_stats(dumped["spans"], (f"{modname}.{attr}",))
        if stats["calls"]:
            table[f"{modname}.{attr}"] = stats
    return table


def layer_metrics(dumped):
    """Per-layer metrics, {name: (value, unit)}, from `Tracer.dump` output.

    Counts over sparse.solve calls are sums over the run, except the
    largest residual and the share of calls whose matrix is byte-identical
    to one already solved in the run.
    """
    spans, solves = dumped["spans"], dumped["solves"]
    out = {}
    for metric, unit, names in SPAN_METRICS:
        out[metric] = (span_stats(spans, names)[metric.rsplit(".", 1)[1]], unit)
    repeats = len(solves) - len({e["digest"] for e in solves})
    residuals = [e["rel_residual"] for e in solves if e["rel_residual"] is not None]
    values = {
        "sparse.solve.unknowns": sum(e["unknowns"] for e in solves),
        "sparse.solve.nnz": sum(e["nnz"] for e in solves),
        "sparse.solve.csr_bytes": sum(e["csr_bytes"] for e in solves),
        "sparse.solve.refinements": sum(e["refinements"] or 0 for e in solves),
        "sparse.solve.max_rel_residual": max(residuals, default=0.0),
        "sparse.solve.repeat_share": repeats / len(solves) if solves else 0.0,
    }
    for metric, unit in SOLVE_METRICS:
        out[metric] = (values[metric], unit)
    return out
