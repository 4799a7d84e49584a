"""Run orchestration: parameter sweeps, VTK export, acceptance checks.

The two sweeps traverse the arrows of the problem diagram: the epsilon
sweep runs the coupled problem against fixed Stokes/pressure-Poisson
references on one mesh, the h sweep calibrates the discretization floor.
Tables are emitted in a fixed, versioned CSV schema (or JSON).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import fem, verification as ver
from .drivers import (PROBLEMS, Discretization, ProblemInput, SolveResult,
                      solve_es_sweep, solve_pp, solve_problem, solve_stokes)
from .mesh import Mesh, build_structured_mesh
from .sparse import DEFAULT_TOL, TOL_FLOOR
from .verification import ErrorRow, ErrorTable, ManufacturedCase

DEFAULT_N = 32
DEFAULT_EPS_GRID = tuple(10.0 ** k for k in range(-6, 7))


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass
class RunConfig:
    """Configuration shared by the CLI subcommands.

    n_list drives the h sweep; n the single-mesh commands.  Every n is an
    integer.  Epsilons, at least one, are deduplicated and sorted ascending
    at construction.
    """

    case: str = "ms1"
    problem: str = "ES"
    n: int = DEFAULT_N
    n_list: tuple = ()
    eps_list: tuple = DEFAULT_EPS_GRID
    delta: float = None
    tol: float = DEFAULT_TOL
    out: str = None
    fmt: str = "csv"
    dump_matrix: str = None

    def __post_init__(self):
        if self.problem not in PROBLEMS + ("all",):
            raise ConfigError(f"unknown problem {self.problem!r}")
        if not all(isinstance(m, numbers.Integral) and m >= 2
                   for m in (self.n,) + tuple(self.n_list)):
            raise ConfigError(f"n values must be integers >= 2, got n={self.n!r}, "
                              f"n_list={self.n_list!r}")
        self.n_list = tuple(map(int, self.n_list))
        eps = [float(e) for e in self.eps_list]
        if not eps or not all(0.0 < e < np.inf for e in eps):
            raise ConfigError("need one or more epsilon values, each positive "
                              f"and finite, got {eps}")
        self.eps_list = tuple(sorted(set(eps)))
        if self.delta is not None and not 0.0 <= self.delta < np.inf:
            raise ConfigError(f"delta must be >= 0 and finite, got {self.delta}")
        if not TOL_FLOOR <= self.tol < np.inf:
            raise ConfigError(f"tol must be finite and >= {TOL_FLOOR:g}, got {self.tol}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.out == "":
            raise ConfigError("out must be a path, not empty")

    @property
    def problems(self) -> tuple:
        """The problems a run covers: all three for "all"."""
        return PROBLEMS if self.problem == "all" else (self.problem,)

    def manufactured_case(self) -> ManufacturedCase:
        try:
            return ver.get_case(self.case, self.delta)
        except KeyError as exc:
            raise ConfigError(str(exc)) from None


def problem_input(case: ManufacturedCase, mesh: Mesh, epsilon=None) -> ProblemInput:
    return ProblemInput(mesh=mesh, body_force=case.body_force,
                        u_bc=case.u_bc(), p_bc=case.p_bc(), epsilon=epsilon)


def write_table(table: ErrorTable, config: RunConfig) -> None:
    if config.out is None:
        return
    table.validate()
    if config.fmt == "json":
        text = json.dumps(table.to_json_obj(), indent=2) + "\n"
    else:
        text = table.to_csv_text()
    with open(config.out, "w") as fh:
        fh.write(text)


def _error_row(disc: Discretization, result: SolveResult, s_ref: SolveResult,
               pp_ref: SolveResult, case: ManufacturedCase, n: int,
               mismatch: float) -> ErrorRow:
    """Measure one solve on disc against the Stokes and pressure-Poisson
    references.

    A gap between two solutions is measured by its Gram forms on disc
    (verification.gap).  The Stokes solve itself is measured against the
    closed-form solution by quadrature, which gives the discretization
    floor.  mismatch is the case's trace mismatch on the mesh, which does
    not depend on the solve.
    """
    if result.problem == "S":
        err_u_h1 = ver.error_h1(result.u, case.u_exact, case.grad_u_exact)
        err_u_l2 = ver.error_l2(result.u, case.u_exact)
        err_p = ver.quotient_norm_l2(result.p, case.p_exact)
    else:
        gap_u = ver.gap(disc, result.u, s_ref.u)
        err_u_h1, err_u_l2 = gap_u.h1, gap_u.l2
        err_p = ver.gap_quotient_l2(disc, result.p, s_ref.p)
    return ErrorRow(
        problem=result.problem, n=n, eps=result.epsilon,
        err_u_H1_vs_S=err_u_h1,
        err_u_L2_vs_S=err_u_l2,
        err_p_L2R_vs_S=err_p,
        err_u_H1_vs_PP=ver.gap(disc, result.u, pp_ref.u).h1,
        err_p_H1_vs_PP=ver.gap(disc, result.p, pp_ref.p).h1,
        div_u_L2=ver.div_l2(result.u),
        trace_mismatch_L2G=mismatch,
    )


def _sweep_mesh(case: ManufacturedCase, n: int, tol: float, reports: list):
    """(mesh, disc, s_ref, pp_ref, mismatch) of one sweep mesh: mesh n, its
    Discretization, the Stokes and pressure-Poisson reference solves, whose
    reports go to reports, and the case's trace mismatch on the mesh."""
    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    s_ref = solve_stokes(problem_input(case, mesh), disc, tol)
    pp_ref = solve_pp(problem_input(case, mesh), disc, tol)
    reports.extend([s_ref.report, pp_ref.report])
    return mesh, disc, s_ref, pp_ref, ver.trace_mismatch(case.p_bc(), case.p_exact, mesh)


def run_sweep_eps(config: RunConfig):
    """Solve the references once, then the coupled problem per epsilon
    (drivers.solve_es_sweep: its 1/eps series where that converges).

    Returns (table, reports).  On a solver failure the partial table is
    flushed to the configured output before the error propagates.
    """
    if not config.eps_list:
        raise ConfigError("epsilon sweep needs a nonempty epsilon list")
    case = config.manufactured_case()
    rows, reports = [], []
    table = ErrorTable(rows=rows)
    try:
        mesh, disc, s_ref, pp_ref, mismatch = _sweep_mesh(case, config.n,
                                                          config.tol, reports)
        for res in solve_es_sweep(problem_input(case, mesh), config.eps_list,
                                  disc, config.tol, pp_ref):
            reports.append(res.report)
            rows.append(_error_row(disc, res, s_ref, pp_ref, case, config.n,
                                   mismatch))
    finally:
        write_table(table, config)
    return table, reports


def run_sweep_h(config: RunConfig):
    """Per-mesh errors for the configured problem(s), plus fitted h-rates.

    Rows for the Stokes problem carry errors against the manufactured
    solution (the discretization floor); the other problems are measured
    against the discrete references on the same mesh.  ES is solved at the
    smallest epsilon.  The table is flushed as run_sweep_eps flushes it.
    """
    if not config.n_list:
        raise ConfigError("h sweep needs a nonempty n list")
    case = config.manufactured_case()
    rows, reports = [], []
    table = ErrorTable(rows=rows)
    try:
        for n in config.n_list:
            mesh, disc, s_ref, pp_ref, mismatch = _sweep_mesh(case, n, config.tol,
                                                              reports)
            for prob in config.problems:
                if prob == "ES":
                    [res] = solve_es_sweep(problem_input(case, mesh), config.eps_list[:1],
                                           disc, config.tol, pp_ref)
                    reports.append(res.report)
                else:
                    res = s_ref if prob == "S" else pp_ref
                rows.append(_error_row(disc, res, s_ref, pp_ref, case, n, mismatch))
        if len(config.n_list) >= 2:
            table.rates = {}
            floor = 10.0 * config.tol
            for prob in config.problems:
                sel = [r for r in rows if r.problem == prob]
                for col in ("err_u_H1_vs_S", "err_p_L2R_vs_S"):
                    pairs = [(1.0 / r.n, getattr(r, col)) for r in sel]
                    pairs = ver.saturation_filter(pairs, floor)
                    if len(pairs) >= 2:
                        table.rates[f"{prob}:{col}"] = ver.fit_log_slope(pairs)
    finally:
        write_table(table, config)
    return table, reports


# ---------------------------------------------------------------------------
# VTK export


def export_vtk(result: SolveResult, path) -> None:
    """Write the solution as a legacy-ASCII VTK unstructured grid.

    Point data: velocity vectors, pressure, and pointwise div(u) averaged
    over the triangles incident to each vertex.
    """
    mesh = result.u.space.mesh
    nv = mesh.num_vertices
    nt = mesh.num_triangles

    pressure = result.p.coefficients[:nv]

    corner_rule = fem.QuadratureRule(
        points=np.array([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
        weights=np.full(3, 1.0 / 6.0), degree=1)
    div_corner = fem.eval_div_at_quad(result.u, corner_rule)     # (M, 3)
    corners = mesh.triangles.ravel()
    div_sum = np.bincount(corners, weights=div_corner.ravel(), minlength=nv)
    div_cnt = np.bincount(corners, minlength=nv)
    div_avg = div_sum / np.maximum(div_cnt, 1)

    def rows(fmt, values):
        """fmt once per row of values, each row ended by a newline."""
        values = np.asarray(values)
        return (fmt + "\n") * len(values) % tuple(values.ravel().tolist())

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n"
                 f"epsstokes {result.problem} solution\n"
                 "ASCII\n"
                 "DATASET UNSTRUCTURED_GRID\n"
                 f"POINTS {nv} double\n")
        fh.write(rows("%.12e %.12e 0.0", mesh.vertices))
        fh.write(f"CELLS {nt} {4 * nt}\n")
        fh.write(rows("3 %d %d %d", mesh.triangles))
        fh.write(f"CELL_TYPES {nt}\n")
        fh.write("5\n" * nt)
        fh.write(f"POINT_DATA {nv}\n"
                 "VECTORS velocity double\n")
        fh.write(rows("%.12e %.12e 0.0", result.u.coefficients[:nv]))
        fh.write("SCALARS pressure double 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write(rows("%.12e", pressure))
        fh.write("SCALARS div_velocity double 1\n"
                 "LOOKUP_TABLE default\n")
        fh.write(rows("%.12e", div_avg))


# ---------------------------------------------------------------------------
# acceptance suite


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class AcceptanceReport:
    criteria: list

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json_obj(self) -> dict:
        return {"all_passed": self.all_passed,
                "criteria": [dataclasses.asdict(c) for c in self.criteria]}

    def summary_lines(self):
        out = []
        for c in self.criteria:
            out.append(f"[{'PASS' if c.passed else 'FAIL'}] criterion {c.cid}: {c.name}")
        return out


# The residual contract is a fixed gate, independent of the configured
# solver tolerance, so loosening the tolerance is a detectable failure.
RESIDUAL_GATE = 1e-10

P1_REFERENCE_STIFFNESS = np.array([
    [1.0, -0.5, -0.5],
    [-0.5, 0.5, 0.0],
    [-0.5, 0.0, 0.5],
])


def run_acceptance(config: RunConfig = None) -> AcceptanceReport:
    """Execute every acceptance criterion and report measured values."""
    config = config or RunConfig()
    config.manufactured_case()        # reject unknown case names up front
    tol = config.tol
    n = DEFAULT_N
    reports = []

    mesh = build_structured_mesh(n)
    disc = Discretization(mesh)
    compat = ver.get_case("ms1")
    mismatch = ver.get_case("ms1-mismatch")

    def track(result):
        reports.append(result.report)
        return result

    s_ref = track(solve_stokes(problem_input(compat, mesh), disc, tol))
    pp_compat = track(solve_pp(problem_input(compat, mesh), disc, tol))
    pp_mis = track(solve_pp(problem_input(mismatch, mesh), disc, tol))

    floor_u_h1 = ver.error_h1(s_ref.u, compat.u_exact, compat.grad_u_exact)
    floor_p_l2r = ver.quotient_norm_l2(s_ref.p, compat.p_exact)

    # One coupled solve per decade exponent; integer keys keep the window
    # selections exact.
    exps = range(-6, 7)

    def es_sweep(case, pp):
        sweep = solve_es_sweep(problem_input(case, mesh), [10.0 ** k for k in exps],
                               disc, tol, pp)
        return dict(zip(exps, map(track, sweep))), sweep.term_ratio

    es_compat, _ = es_sweep(compat, pp_compat)
    es_mis, term_ratio = es_sweep(mismatch, pp_mis)

    criteria = []

    # 1: decay toward the pressure-Poisson solution at rate 1/eps.
    window = range(0, 5)
    guard = 10.0 * RESIDUAL_GATE
    pairs_u = [(10.0 ** k, ver.gap(disc, es_mis[k].u, pp_mis.u).h1) for k in window]
    pairs_p = [(10.0 ** k, ver.gap(disc, es_mis[k].p, pp_mis.p).h1) for k in window]
    slope_u = ver.fit_log_slope(ver.saturation_filter(pairs_u, guard))
    slope_p = ver.fit_log_slope(ver.saturation_filter(pairs_p, guard))
    # The 1/eps series solves ES for eps above its term ratio.
    series_terms = {10.0 ** k: res.report.iterations for k, res in es_mis.items()
                    if res.report.method.startswith("series")}
    criteria.append(CriterionResult(
        1, "velocity and pressure converge to the PP solution at rate 1/eps",
        slope_u <= -0.9 and slope_p <= -0.9,
        {"slope_u_H1_vs_PP": slope_u, "slope_p_H1_vs_PP": slope_p,
         "pairs_u": pairs_u, "pairs_p": pairs_p,
         "series_term_ratio": term_ratio, "series_terms_per_eps": series_terms}))

    # 2: approach to the Stokes solution as eps decreases.  With a mismatched
    # pressure trace the ES pressure keeps a boundary layer of width sqrt(eps)
    # whose L2 mass falls like eps^(1/4) and, on a fixed mesh, saturates near
    # sqrt(h); the mismatch gaps must shrink monotonically but are reported,
    # not bounded.  The problem is linear, so the layer-free part of the same
    # solution is the compatible-trace solve, which must reach the floor.
    shrinking = range(0, -5, -1)
    errs_u = [ver.gap(disc, es_mis[k].u, s_ref.u).h1 for k in shrinking]
    errs_p = [ver.gap_quotient_l2(disc, es_mis[k].p, s_ref.p) for k in shrinking]

    def monotone(errs):
        return all(b <= 1.05 * a for a, b in zip(errs, errs[1:]))

    p_l2r_compat = ver.gap_quotient_l2(disc, es_compat[-4].p, s_ref.p)
    criteria.append(CriterionResult(
        2, "approach to the Stokes solution as eps -> 0 (mismatched-trace "
           "velocity and pressure monotone, compatible-trace pressure near "
           "the floor)",
        monotone(errs_u) and monotone(errs_p) and p_l2r_compat <= 3.0 * floor_p_l2r,
        {"err_u_H1_vs_S_decreasing_eps": errs_u,
         "p_L2R_vs_S_decreasing_eps": errs_p,
         "p_L2R_at_eps_1e-4": errs_p[-1],
         "compatible_p_L2R_at_eps_1e-4": p_l2r_compat,
         "stokes_pressure_floor": floor_p_l2r}))

    # 3: with a compatible pressure trace all three problems coincide.
    worst_es = max(ver.gap(disc, es_compat[k].u, s_ref.u).h1 for k in exps)
    pp_gap = ver.gap(disc, pp_compat.u, s_ref.u).h1
    criteria.append(CriterionResult(
        3, "compatible trace: ES and PP velocities match Stokes to the floor",
        worst_es <= 2.0 * floor_u_h1 and pp_gap <= 2.0 * floor_u_h1,
        {"max_err_u_H1_vs_S_over_grid": worst_es, "err_u_PP_vs_S": pp_gap,
         "stokes_velocity_floor": floor_u_h1}))

    # 4: the S-to-PP velocity gap scales linearly in the trace mismatch.
    deltas = (0.25, 0.5, 1.0)
    gaps = {}
    for d in deltas:
        case_d = ver.get_case("ms1-mismatch", delta=d)
        pp_d = pp_mis if d == 1.0 else track(
            solve_pp(problem_input(case_d, mesh), disc, tol))
        gaps[d] = ver.gap(disc, s_ref.u, pp_d.u).h1
    ratios = [gaps[d] / d for d in deltas]
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    criteria.append(CriterionResult(
        4, "S-to-PP velocity gap is proportional to the mismatch amplitude",
        spread <= 0.10,
        {"gap_per_delta": gaps, "gap_over_delta": ratios,
         "relative_spread": spread}))

    # 5: the PP pressure is the closer gradient-projection for every eps.
    proj = {}
    ok5 = True
    for k in exps:
        lhs = ver.gap(disc, es_mis[k].p, pp_mis.p).seminorm
        rhs = ver.gap(disc, es_mis[k].p, s_ref.p).seminorm
        proj[10.0 ** k] = (lhs, rhs)
        ok5 = ok5 and lhs <= rhs * 1.05 + 10.0 * tol
    criteria.append(CriterionResult(
        5, "gradient-projection inequality holds for every eps",
        ok5, {"lhs_rhs_per_eps": proj}))

    # 6: with a mismatched trace the pressure gradient stays away from the
    # Stokes gradient for small eps.
    compat_ref = ver.gap(disc, es_compat[0].p, s_ref.p).seminorm
    mis_min = min(proj[10.0 ** k][1] for k in exps if k <= 0)
    criteria.append(CriterionResult(
        6, "mismatched-trace pressure gradient does not approach the Stokes one",
        mis_min > 10.0 * compat_ref,
        {"min_grad_gap_mismatch": mis_min, "grad_gap_compatible_eps1": compat_ref}))

    # 7: discretization rates of the Stokes solve.
    h_pairs_u, h_pairs_p = [], []
    for nn in (8, 16, 32, 64):
        if nn == n:
            s_n = s_ref
        else:
            mesh_n = build_structured_mesh(nn)
            s_n = track(solve_stokes(problem_input(compat, mesh_n),
                                     Discretization(mesh_n), tol))
        h_pairs_u.append((1.0 / nn, ver.error_h1(s_n.u, compat.u_exact,
                                                 compat.grad_u_exact)))
        h_pairs_p.append((1.0 / nn, ver.quotient_norm_l2(s_n.p, compat.p_exact)))
    rate_u = ver.fit_log_slope(ver.saturation_filter(h_pairs_u, guard))
    rate_p = ver.fit_log_slope(ver.saturation_filter(h_pairs_p, guard))
    criteria.append(CriterionResult(
        7, "Stokes h-rates: velocity H1 in [1.8,2.2], pressure L2/R in [1.6,2.2]",
        1.8 <= rate_u <= 2.2 and 1.6 <= rate_p <= 2.2,
        {"velocity_H1_rate": rate_u, "pressure_L2R_rate": rate_p,
         "pairs_u": h_pairs_u, "pairs_p": h_pairs_p}))

    # 8: structural identities.
    details8 = {}
    mesh16 = build_structured_mesh(16)
    v16 = fem.Space(mesh16, degree=2)
    rng = np.random.default_rng(0)
    gauss_res = 0.0
    for k in range(20):
        uf = fem.Field(v16, rng.standard_normal((v16.ndofs, 2)))
        wspace = fem.Space(mesh16, degree=1 if k % 2 == 0 else 2)
        wf = fem.Field(wspace, rng.standard_normal(wspace.ndofs))
        gauss_res = max(gauss_res, abs(ver.gauss_formula_residual(uf, wf)))
    details8["max_gauss_residual"] = gauss_res

    def linear_pressure(x, y):
        return x - 0.5

    def unit_x_force(x, y):
        return np.stack([np.ones_like(x), np.zeros_like(y)], axis=-1)

    def zero_vec(x, y):
        return np.zeros(np.broadcast(x, y).shape + (2,))

    def deviation(inp, p_nodes):
        """Largest |u| and |p - p_nodes| over the three problems' solutions."""
        results = [track(solve_problem(name, inp, disc, tol)) for name in PROBLEMS]
        return max(max(float(np.abs(res.u.coefficients).max()),
                       float(np.abs(res.p.coefficients - p_nodes).max()))
                   for res in results)

    grad_inp = ProblemInput(mesh, body_force=unit_x_force, u_bc=zero_vec,
                            p_bc=linear_pressure, epsilon=1.0)
    grad_dev = deviation(grad_inp, linear_pressure(disc.pspace.node_coords[:, 0],
                                                   disc.pspace.node_coords[:, 1]))
    details8["gradient_forcing_deviation"] = grad_dev

    def zero_scalar(x, y):
        return np.zeros(np.broadcast(x, y).shape)

    zero_inp = ProblemInput(mesh, body_force=zero_vec, u_bc=zero_vec,
                            p_bc=zero_scalar, epsilon=1.0)
    zero_dev = deviation(zero_inp, 0.0)
    details8["zero_data_deviation"] = zero_dev

    ref_mesh = Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1, 1], [1, 2, 2], [2, 0, 3]]))
    local = fem.assemble_stiffness(fem.Space(ref_mesh, degree=1)).toarray()
    stiff_dev = float(np.abs(local - P1_REFERENCE_STIFFNESS).max())
    details8["p1_stiffness_deviation"] = stiff_dev

    criteria.append(CriterionResult(
        8, "structural identities: Gauss formula, gradient forcing, zero data, "
           "local stiffness",
        gauss_res <= 1e-10 and grad_dev <= 1e-9 and zero_dev <= 1e-10
        and stiff_dev <= 1e-12,
        details8))

    # 9: every accepted solve met the residual contract.  The contract is
    # only enforced when the configured tolerance is at least as strict as
    # the gate, so a loosened tolerance fails here by construction.
    worst = max(r.rel_residual for r in reports)
    criteria.append(CriterionResult(
        9, "all accepted solves report relative residual <= 1e-10",
        worst <= RESIDUAL_GATE and tol <= RESIDUAL_GATE,
        {"worst_rel_residual": worst, "solve_count": len(reports),
         "enforced_tolerance": tol}))

    return AcceptanceReport(criteria=criteria)
