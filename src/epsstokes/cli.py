"""Command-line front end.

Subcommands: solve, sweep-eps, sweep-h, verify, export-vtk.  A JSON config
file may preset any flag; explicit flags override it.  Exit codes:
0 success, 1 acceptance-criterion failure, 2 config/input error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import sparse
from .drivers import Discretization, IncompatibleDataError, solve_problem
from .harness import (DEFAULT_EPS_GRID, DEFAULT_N, ConfigError, RunConfig,
                      export_vtk, problem_input, run_acceptance, run_sweep_eps,
                      run_sweep_h)
from .mesh import MeshError, build_structured_mesh
from .sparse import DEFAULT_TOL, SolverError
from . import verification as ver

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# The keys of a --config file; each is also a flag.
CONFIG_KEYS = ("case", "problem", "n", "eps", "delta", "tol", "out", "format",
               "dump_matrix")


def _parse_floats(text):
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text):
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epsstokes",
        description="Stokes / pressure-Poisson / coupled-parameter flow lab "
                    "on triangulated domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file presetting any flag")
        p.add_argument("--case", help="manufactured case name (default ms1)")
        p.add_argument("--problem", help="S, PP, ES or all (default ES)")
        p.add_argument("--n", help="mesh subdivisions; list for sweep-h, e.g. 8,16,32")
        p.add_argument("--eps", help="comma-separated epsilon list")
        p.add_argument("--delta", type=float, help="trace-mismatch amplitude override")
        p.add_argument("--tol", type=float, help="solver relative-residual tolerance")
        p.add_argument("--out", help="output path (table, report or VTK file)")
        p.add_argument("--format", choices=("csv", "json"),
                       help="table format (default csv)")
        p.add_argument("--dump-matrix",
                       help="prefix for MatrixMarket dumps of each solved system")

    add_common(sub.add_parser("solve", help="run one problem and print a summary"))
    add_common(sub.add_parser("sweep-eps", help="epsilon sweep against fixed references"))
    add_common(sub.add_parser("sweep-h", help="mesh-refinement sweep with fitted rates"))
    add_common(sub.add_parser("verify", help="run the acceptance suite"))
    add_common(sub.add_parser("export-vtk", help="solve and write a VTK file"))
    return parser


def _make_config(args) -> RunConfig:
    settings = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_conf, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_conf) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)} in "
                              f"{args.config}; allowed: {', '.join(CONFIG_KEYS)}")
        settings.update(file_conf)

    for key in CONFIG_KEYS:               # explicit flags override the file
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)

    try:
        n_raw = settings.get("n", DEFAULT_N)
        if isinstance(n_raw, str):
            n_values = _parse_ints(n_raw)
        elif isinstance(n_raw, (list, tuple)):
            n_values = tuple(int(v) for v in n_raw)
        else:
            n_values = (int(n_raw),)
        if not n_values:
            raise ConfigError("empty n list")

        eps_raw = settings.get("eps", DEFAULT_EPS_GRID)
        if isinstance(eps_raw, str):
            eps_values = _parse_floats(eps_raw)
        else:
            eps_values = tuple(float(v) for v in eps_raw)

        return RunConfig(
            case=settings.get("case", "ms1"),
            problem=settings.get("problem", "ES"),
            n=n_values[0],
            n_list=n_values,
            eps_list=eps_values,
            delta=settings.get("delta"),
            tol=float(settings.get("tol", DEFAULT_TOL)),
            out=settings.get("out"),
            fmt=settings.get("format", "csv"),
            dump_matrix=settings.get("dump_matrix"),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc))


def _solve_one(config: RunConfig):
    case = config.manufactured_case()
    mesh = build_structured_mesh(config.n)
    disc = Discretization(mesh)
    eps = config.eps_list[0] if config.eps_list else 1.0
    inp = problem_input(case, mesh, epsilon=eps)
    return case, {prob: solve_problem(prob, inp, disc, config.tol)
                  for prob in config.problems}


def _summary(case, results) -> dict:
    out = {}
    for prob, res in results.items():
        out[prob] = {
            "epsilon": res.epsilon,
            "rel_residual": res.report.rel_residual,
            "solver": res.report.method,
            "wall_time": res.report.wall_time,
            "fill": res.report.fill,
            "lu_nnz": res.report.lu_nnz,
            "iterations": res.report.iterations,
            "err_u_H1_vs_exact": ver.error_h1(res.u, case.u_exact, case.grad_u_exact),
            "err_p_L2R_vs_exact": ver.quotient_norm_l2(res.p, case.p_exact),
            "div_u_L2": ver.div_l2(res.u),
        }
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _make_config(args)
        with sparse.dump_matrices(config.dump_matrix or None):
            return _dispatch(args.command, config)
    except (ConfigError, IncompatibleDataError, MeshError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def _dispatch(command: str, config: RunConfig) -> int:
    if command == "solve":
        case, results = _solve_one(config)
        payload = json.dumps(_summary(case, results), indent=2)
        if config.out:
            with open(config.out, "w") as fh:
                fh.write(payload + "\n")
        print(payload)
        return EXIT_OK

    if command in ("sweep-eps", "sweep-h"):
        sweep = run_sweep_eps if command == "sweep-eps" else run_sweep_h
        table, _ = sweep(config)
        if config.out is None and config.fmt == "json":
            print(json.dumps(table.to_json_obj(), indent=2))
        elif config.out is None:
            print(table.to_csv_text(), end="")
        return EXIT_OK

    if command == "verify":
        report = run_acceptance(config)
        for line in report.summary_lines():
            print(line)
        if config.out:
            with open(config.out, "w") as fh:
                json.dump(report.to_json_obj(), fh, indent=2)
                fh.write("\n")
        return EXIT_OK if report.all_passed else EXIT_CRITERION

    if command == "export-vtk":
        if not config.out:
            raise ConfigError("export-vtk needs --out for the VTK path")
        if config.problem == "all":
            raise ConfigError("export-vtk writes a single problem, not 'all'")
        _, results = _solve_one(config)
        export_vtk(next(iter(results.values())), config.out)
        return EXIT_OK

    raise ConfigError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
