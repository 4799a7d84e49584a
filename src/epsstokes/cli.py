"""Command-line front end.

Subcommands: solve, sweep-eps, sweep-h, verify, export-vtk, each with the
flags its run reads; a JSON config file may preset them, explicit flags
override it.  Exit codes: 0 success, 1 acceptance-criterion failure,
2 config/input error, 3 solver failure, a sweep table with a non-finite
or negative entry included.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import sparse
from .drivers import Discretization, IncompatibleDataError, solve_problem
from .harness import (ConfigError, RunConfig, export_vtk, problem_input,
                      run_acceptance, run_sweep_eps, run_sweep_h)
from .mesh import MeshError, build_structured_mesh
from . import verification as ver

EXIT_OK = 0
EXIT_CRITERION = 1
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# Each subcommand, its help and the keys its run reads, each a config key and
# a flag --key (dashes for _); "*" marks the one key it reads as a list.
COMMANDS = (
    ("solve", "run one problem and print a summary",
     ("case", "problem", "n", "eps", "delta", "out", "dump_matrix")),
    ("sweep-eps", "epsilon sweep against fixed references",
     ("case", "n", "eps*", "delta", "out", "format", "dump_matrix")),
    ("sweep-h", "mesh-refinement sweep with fitted rates",
     ("case", "problem", "n*", "eps", "delta", "out", "format", "dump_matrix")),
    ("verify", "run the acceptance suite", ("out", "dump_matrix")),
    ("export-vtk", "solve and write a VTK file",
     ("case", "problem", "n", "eps", "delta", "out", "dump_matrix")),
)
# Each flag's help, as (key, help); every subcommand takes --config.
FLAGS = (
    ("config", "JSON file presetting any other flag of the command"),
    ("case", f"manufactured case name (default {RunConfig.case})"),
    ("problem", f"S, PP, ES or all (default {RunConfig.problem})"),
    ("n", "mesh subdivisions; a list for sweep-h, e.g. 8,16,32"),
    ("eps", "epsilon; a list for sweep-eps, e.g. 1,10,100"),
    ("delta", "trace-mismatch amplitude override"),
    ("out", "output path (table, report or VTK file)"),
    ("format", f"table format, csv or json (default {RunConfig.fmt})"),
    ("dump_matrix", "prefix for MatrixMarket dumps of each solved system"),
)
# The type of each number flag, whose text is a number or, for a list key,
# a comma-separated list of numbers; every other flag is a str.
_TYPES = {"n": int, "eps": float, "delta": float}
# RunConfig's names for the keys as COMMANDS lists them
_FIELDS = {"n*": "n_list", "eps": "eps_list", "eps*": "eps_list", "format": "fmt"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="epsstokes",
        description="Stokes / pressure-Poisson / coupled-parameter flow lab "
                    "on triangulated domains.")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = dict(FLAGS)
    for command, command_help, keys in COMMANDS:
        p = sub.add_parser(command, help=command_help)
        for key in ("config",) + tuple(entry.rstrip("*") for entry in keys):
            p.add_argument("--" + key.replace("_", "-"), help=helps[key])
    return parser


def _flag_text(entry, value) -> str:
    """A config value as the text of its flag; a list only for a list key."""
    key, many = entry.rstrip("*"), entry.endswith("*")
    if key in _TYPES and type(value) in (int, float, list)[:2 + many]:
        value = ",".join(map(str, value)) if type(value) is list else str(value)
    if not isinstance(value, str):
        kind = ("a string" if key not in _TYPES else "a number, a list of numbers or a string"
                if many else "a number or a string")
        raise ConfigError(f"config key {key} takes {kind}, not {json.dumps(value)}")
    return value


def _parse(entry, text):
    """The value of a flag's text, from the command line or _flag_text;
    entry is its key as COMMANDS lists it.  A single eps is a list of one."""
    key = entry.rstrip("*")
    kind = _TYPES.get(key, str)
    try:
        if entry.endswith("*"):
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        return (kind(text),) if key == "eps" else kind(text)
    except ValueError as exc:
        raise ConfigError(f"bad --{key.replace('_', '-')} value {text!r}: {exc}") from None


def _make_config(args) -> RunConfig:
    """The keys args.command reads, from config file and flags, on RunConfig's defaults."""
    keys = {e.rstrip("*"): e for e in {c: k for c, _, k in COMMANDS}[args.command]}
    texts = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_conf = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(file_conf, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(file_conf) - set(keys))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)} in "
                              f"{args.config}; {args.command} reads: {', '.join(keys)}")
        texts = {key: _flag_text(keys[key], value) for key, value in file_conf.items()}
    for key in keys:                      # explicit flags override the file
        if getattr(args, key) is not None:
            texts[key] = getattr(args, key)
    return RunConfig(**{_FIELDS.get(keys[key], key): _parse(keys[key], text)
                        for key, text in texts.items()})


def _solve_one(config: RunConfig):
    case = config.manufactured_case()
    mesh = build_structured_mesh(config.n)
    disc = Discretization(mesh)
    inp = problem_input(case, mesh, epsilon=config.eps_list[0])
    return case, {prob: solve_problem(prob, inp, disc) for prob in config.problems}


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
            **({"ritz": list(res.report.ritz)} if res.report.ritz else {}),
            # the smallest Ritz value of S's deflated Schur CG (SolverReport)
            **({"inf_sup_sq": res.report.ritz[0]}
               if prob == "S" and res.report.ritz else {}),
            "err_u_H1_vs_exact": ver.error_h1(res.u, case.u_exact, case.grad_u_exact),
            "err_p_L2R_vs_exact": ver.quotient_norm_l2(res.p, case.p_exact),
            "div_u_L2": ver.div_l2(res.u),
        }
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _make_config(args)
        for flag, path in (("--out", config.out), ("--dump-matrix", config.dump_matrix)):
            if not os.path.isdir(os.path.dirname(path or "") or "."):
                raise ConfigError(f"{flag} {path}: its directory does not exist")
        with sparse.dump_matrices(config.dump_matrix or None):
            return _dispatch(args.command, config)
    except (ConfigError, IncompatibleDataError, MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except sparse.SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ver.TableError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
        if config.out is None:
            print(table.text(config.fmt), end="")
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

    # export-vtk, the last of the parser's commands
    if not config.out:
        raise ConfigError("export-vtk needs --out for the VTK path")
    if config.problem == "all":
        raise ConfigError("export-vtk writes a single problem, not 'all'")
    _, results = _solve_one(config)
    export_vtk(next(iter(results.values())), config.out)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
