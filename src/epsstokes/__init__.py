"""Finite-element lab for the Stokes, pressure-Poisson and coupled
epsilon-parameter flow problems on triangulated 2D domains."""

from .drivers import (Discretization, IncompatibleDataError, ProblemInput,
                      SolveResult, check_compatibility, solve_es, solve_pp,
                      solve_stokes)
from .fem import Field, QuadratureRule, Space, triangle_rule_d5
from .harness import (DEFAULT_EPS_GRID, ConfigError, RunConfig, export_vtk,
                      run_acceptance, run_sweep_eps, run_sweep_h)
from .mesh import (Mesh, MeshError, MeshFormatError, MeshTopologyError,
                   build_structured_mesh, load_mesh, mesh_size, validate_mesh)
from .sparse import SolverError, SolverReport, solve
from .verification import (ErrorRow, ErrorTable, ManufacturedCase,
                           fit_log_slope, get_case, registry)

__all__ = [
    "ConfigError", "DEFAULT_EPS_GRID", "Discretization",
    "ErrorRow", "ErrorTable", "Field", "IncompatibleDataError",
    "ManufacturedCase", "Mesh", "MeshError", "MeshFormatError",
    "MeshTopologyError", "ProblemInput", "QuadratureRule", "RunConfig",
    "SolveResult", "SolverError", "SolverReport", "Space",
    "build_structured_mesh", "check_compatibility", "export_vtk",
    "fit_log_slope", "get_case", "load_mesh", "mesh_size", "registry",
    "run_acceptance", "run_sweep_eps", "run_sweep_h", "solve", "solve_es",
    "solve_pp", "solve_stokes", "triangle_rule_d5", "validate_mesh",
]

__version__ = "0.1.0"
