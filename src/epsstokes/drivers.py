"""Drivers for the three discrete problems on a shared Taylor-Hood pair.

All three problems use continuous P2 velocity and continuous P1 pressure on
the same mesh, so their solutions are directly comparable.  A velocity is a
Field on the scalar P2 space with one (x, y) coefficient row per node; in the
assembled systems its dofs are those rows raveled (fem.vector_dofs).

* ``solve_stokes``  -- saddle-point system with velocity Dirichlet data; the
  first pressure dof is pinned to fix the gauge and the pressure is then
  shifted to zero mean;
* ``solve_pp``      -- decoupled Poisson solves: pressure first from the
  gradient-type right-hand side, then each velocity component, driven by
  the discrete pressure gradient, as its own scalar problem;
* ``solve_es``      -- the coupled one-parameter system whose pressure block
  is scaled by epsilon, with Dirichlet data on both fields.

``solve_problem`` dispatches on the problem name.  Drivers are pure
functions of their input; sweeps share one Discretization, so a sweep
assembles, eliminates and factors each block once.  At construction it
builds the P2 and P1 spaces and assembles their stiffness matrices: K, the
Laplacian of one velocity component, and Kp.  On first use it builds the
couplings B and G (S and ES only), the load vectors of each body force,
each problem's system with its Dirichlet dofs eliminated, and the factors
below.  The interleaved velocity block kron(K, I2) exists only while S or
ES assemble their system; PP never forms it.  ES keeps its system at
eps = 1 and scales a copy's Kp entries per epsilon.

Each system is solved by GMRES (sparse.solve) against a preconditioner
built from factors that the Discretization makes on first use:

* A  -- K with every boundary node eliminated: one scalar P2 factor that
  serves the x and the y velocity;
* Kp -- the P1 pressure Laplacian with every boundary node eliminated;
* Mp -- the P1 mass matrix, negated, with the Stokes gauge dof eliminated.

PP makes three scalar solves, each preconditioned by the factor of its own
matrix: Kp, then A once per velocity component, each component meeting the
tolerance against its own right-hand side.  Stokes and ES use the block
lower-triangular preconditioner [[A, 0], [L, S]], where L is the lower-left
block of the solved matrix and S stands for the Schur complement:
eps*Kp + Mp for ES, a P1 matrix factored per epsilon, and its eps -> 0
limit -Mp for Stokes, whose gauge row stays an identity row (Elman, Silvester & Wathen, Finite Elements and
Fast Iterative Solvers, 2014; Mardal & Winther, NLAA 2011).

Building a Discretization and each driver call run numpy's BLAS on one
thread (sparse.one_blas_thread), which covers the per-cell matmuls of
assembly and of the load vectors as well as the solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse as sps

from . import fem
from .fem import Field, Space
from .mesh import Mesh
from .sparse import (DEFAULT_TOL, Factor, Preconditioner, SolverReport,
                     one_blas_thread, solve)

COMPATIBILITY_TOL = 1e-8
GAUGE_DOF = 0          # the pressure dof pinned in the Stokes solve
PROBLEMS = ("S", "PP", "ES")


class IncompatibleDataError(ValueError):
    """Velocity boundary data carries net flux through the boundary."""

    def __init__(self, flux):
        super().__init__(
            f"velocity boundary data has net boundary flux {flux:.3e} "
            f"(|flux| must be <= {COMPATIBILITY_TOL:g})")
        self.flux = flux


@dataclass
class ProblemInput:
    """Shared problem data: body force and boundary conditions.

    body_force maps (x, y) arrays to (..., 2); u_bc likewise; p_bc maps to
    scalars and is only consulted by the pressure-Dirichlet problems;
    epsilon is only consulted by the coupled problem.
    """

    mesh: Mesh
    body_force: object
    u_bc: object
    p_bc: object = None
    epsilon: float = None


@dataclass
class SolveResult:
    """Velocity/pressure pair with provenance."""

    u: Field
    p: Field
    problem: str
    epsilon: float
    report: SolverReport


class Eliminated(NamedTuple):
    """A linear system with its fixed dofs eliminated.

    matrix is the system with the rows and columns of the sorted dofs
    `fixed` zeroed and 1 on their diagonal; lift holds the system's columns
    at those dofs, which carry the fixed values to the right-hand side.
    """

    matrix: sps.csr_matrix
    lift: sps.csr_matrix
    fixed: np.ndarray


def _eliminated(system: sps.csr_matrix, fixed: np.ndarray) -> Eliminated:
    system.sum_duplicates()               # canonical: sorted, no duplicates
    return Eliminated(fem.eliminate(system, fixed), system[:, fixed], fixed)


class Discretization:
    """Taylor-Hood spaces and the epsilon-independent operator blocks.

    The P2 stiffness K of one velocity component, the P1 stiffness Kp and
    the pressure mean are assembled at construction.  The couplings B and G,
    load vectors (memoized per body-force callable), each problem's
    eliminated system and the factors A, Kp and Mp are built on first use and
    live as long as the Discretization.  The interleaved velocity block
    kron(K, I2) is formed only while S or ES builds its system, and is not
    kept.
    """

    @one_blas_thread()
    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vspace = Space(mesh, degree=2)
        self.pspace = Space(mesh, degree=1)
        self.quad = fem.triangle_rule_d5()
        self.stiff_u = fem.assemble_stiffness(self.vspace, self.quad)
        self.stiff_p = fem.assemble_stiffness(self.pspace, self.quad)
        self.mean_p = fem.assemble_mass_against_one(self.pspace, self.quad)
        self._loads = {}

    @property
    def nu(self):
        return 2 * self.vspace.ndofs

    @property
    def np_(self):
        return self.pspace.ndofs

    @cached_property
    def div(self) -> sps.csr_matrix:
        return fem.assemble_div_coupling(self.vspace, self.pspace, self.quad)

    @cached_property
    def grad(self) -> sps.csr_matrix:
        return fem.assemble_grad_coupling(self.vspace, self.pspace, form="transpose",
                                          quad=self.quad, div=self.div)

    @cached_property
    def mass_p(self) -> sps.csr_matrix:
        return fem.assemble_mass(self.pspace, self.quad)

    @cached_property
    def velocity_factor(self) -> Factor:
        """A, the factor of K with the boundary nodes fixed, for x and y alike."""
        return Factor(self.velocity_system.matrix)

    @cached_property
    def pressure_factor(self) -> Factor:
        return Factor(self.pressure_system.matrix)

    @cached_property
    def mass_factor(self) -> Factor:
        """-Mp with the gauge dof eliminated: the Stokes Schur block."""
        return Factor(fem.eliminate(-self.mass_p, [GAUGE_DOF]))

    @cached_property
    def stokes_system(self) -> Eliminated:
        """[[K, -D^T], [-D, 0]] with the velocity boundary and the gauge dof fixed."""
        return _eliminated(
            sps.bmat([[fem.vector_block(self.stiff_u), -self.div.T],
                      [-self.div, None]], format="csr"),
            np.append(fem.vector_dofs(self.vspace.boundary_nodes),
                      self.nu + GAUGE_DOF))

    @cached_property
    def pressure_system(self) -> Eliminated:
        """Kp with the pressure boundary fixed: the first PP stage."""
        return _eliminated(self.stiff_p, self.pspace.boundary_nodes)

    @cached_property
    def velocity_system(self) -> Eliminated:
        """Scalar K with the velocity boundary nodes fixed: PP's second stage,
        solved once per velocity component."""
        return _eliminated(self.stiff_u, self.vspace.boundary_nodes)

    def coupled_system(self, eps: float) -> Eliminated:
        """[[K, G], [D, eps*Kp]] with both boundaries fixed: a copy of the
        eps = 1 system with its stored Kp entries scaled by eps."""
        unit, in_matrix, in_lift = self._coupled_unit
        matrix, lift = unit.matrix.copy(), unit.lift.copy()
        matrix.data[in_matrix] *= eps
        lift.data[in_lift] *= eps
        return Eliminated(matrix, lift, unit.fixed)

    @cached_property
    def _coupled_unit(self):
        """The ES system at eps = 1 and the positions of its stored Kp entries."""
        nu = self.nu
        unit = _eliminated(
            sps.bmat([[fem.vector_block(self.stiff_u), self.grad],
                      [self.div, self.stiff_p]], format="csr"),
            np.concatenate([fem.vector_dofs(self.vspace.boundary_nodes),
                            self.pspace.boundary_nodes + nu]))
        free = np.ones(unit.matrix.shape[0], dtype=bool)
        free[unit.fixed] = False          # a fixed row keeps only its unit diagonal
        mat, lift = unit.matrix.tocoo(), unit.lift.tocoo()    # entries in CSR order
        return (unit, np.flatnonzero(free[mat.row] & (mat.row >= nu) & (mat.col >= nu)),
                np.flatnonzero((lift.row >= nu) & (unit.fixed[lift.col] >= nu)))

    def velocity_load(self, body_force) -> np.ndarray:
        """Read-only (x, y) load rows of body_force against the P2 basis."""
        return self._load(fem.assemble_load, self.vspace, body_force)

    def pressure_load(self, body_force) -> np.ndarray:
        """Read-only load vector of body_force against the pressure gradients."""
        return self._load(fem.assemble_grad_load, self.pspace, body_force)

    def _load(self, assemble, space, body_force):
        key = (assemble, body_force)
        vec = self._loads.get(key)
        if vec is None:
            vec = assemble(space, body_force, self.quad)
            vec.setflags(write=False)
            self._loads[key] = vec
        return vec


def check_compatibility(inp: ProblemInput) -> float:
    """Net flux of u_bc through the boundary, by edge quadrature."""
    xs, ys, w, normals = fem.boundary_quadrature(inp.mesh)
    ub = np.asarray(inp.u_bc(xs, ys), dtype=float)
    if ub.shape != xs.shape + (2,):
        raise ValueError("u_bc must return shape (..., 2)")
    return float(np.einsum("bq,bqc,bc->", w, ub, normals))


def _require_compatible(inp):
    flux = check_compatibility(inp)
    if abs(flux) > COMPATIBILITY_TOL:
        raise IncompatibleDataError(flux)
    return flux


def _merge_reports(first: SolverReport, second: SolverReport,
                   shared: bool = False) -> SolverReport:
    """One report for two solves run in sequence.  shared: both applied the
    same preconditioner, whose name and factors then count once."""
    worse = max(first.rel_residual, second.rel_residual)
    return SolverReport(method=(first.method if shared
                                else f"{first.method}; {second.method}"),
                        rel_residual=worse,
                        iterations=first.iterations + second.iterations,
                        wall_time=first.wall_time + second.wall_time,
                        ordering=first.ordering,
                        lu_nnz=first.lu_nnz + (0 if shared else second.lu_nnz),
                        fill=max(first.fill, second.fill),
                        factor_time=first.factor_time + second.factor_time,
                        residual_history=(first.residual_history
                                          + second.residual_history))


def _solve_velocity(factor: Factor, r: np.ndarray) -> np.ndarray:
    """A^-1 r for interleaved velocity dofs, one column per component."""
    return factor.solve(r.reshape(-1, 2)).ravel()


def _block_lower(disc: Discretization, a, name: str,
                 schur: Factor) -> Preconditioner:
    """[[A, 0], [L, S]] with L the lower-left block of a and S factored."""
    nu = disc.nu
    vel = disc.velocity_factor
    lower = a[nu:, :nu]

    def apply(r):
        z = _solve_velocity(vel, r[:nu])
        return np.concatenate([z, schur.solve(r[nu:] - lower @ z)])

    return Preconditioner(f"block_lower(A, {name})", apply, (vel, schur))


def _solve_fixed(system: Eliminated, rhs: np.ndarray, values: np.ndarray,
                 tol: float, precond) -> tuple[np.ndarray, SolverReport]:
    """Solve an eliminated system, lifting and restoring the fixed values."""
    rhs = rhs - system.lift @ values
    rhs[system.fixed] = values
    x, report = solve(system.matrix, rhs, tol, precond)
    x[system.fixed] = values
    return x, report


@one_blas_thread()
def solve_stokes(inp: ProblemInput, disc: Discretization = None,
                 tol: float = DEFAULT_TOL) -> SolveResult:
    """Velocity-pressure saddle solve with zero-mean pressure gauge.

    The first pressure dof is pinned to zero with the velocity Dirichlet
    dofs, then the pressure is shifted to zero discrete mean: the solution
    of a mean-value Lagrange multiplier, without its dense row and column.
    """
    disc = disc or Discretization(inp.mesh)
    _require_compatible(inp)
    nu = disc.nu
    system = disc.stokes_system

    rhs = np.zeros(nu + disc.np_)
    rhs[:nu] = disc.velocity_load(inp.body_force).ravel()
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    x, report = _solve_fixed(
        system, rhs, np.append(u_vals, 0.0), tol,    # pressure gauge: p dof = 0
        lambda: _block_lower(disc, system.matrix, "-Mp", disc.mass_factor))

    p = x[nu:]
    p -= (disc.mean_p @ p) / disc.mean_p.sum()
    return SolveResult(u=Field(disc.vspace, x[:nu].reshape(-1, 2)),
                       p=Field(disc.pspace, p),
                       problem="S", epsilon=None, report=report)


@one_blas_thread()
def solve_pp(inp: ProblemInput, disc: Discretization = None,
             tol: float = DEFAULT_TOL) -> SolveResult:
    """Two-stage decoupled solve: scalar pressure Poisson, then velocity.

    The velocity right-hand side uses the discrete pressure gradient
    evaluated at quadrature points.
    """
    disc = disc or Discretization(inp.mesh)
    _require_compatible(inp)
    if inp.p_bc is None:
        raise ValueError("pressure boundary data is required")

    _, p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    p_coeff, rep1 = _solve_fixed(
        disc.pressure_system, disc.pressure_load(inp.body_force), p_vals, tol,
        lambda: Preconditioner("Kp", disc.pressure_factor.solve,
                               (disc.pressure_factor,)))
    p = Field(disc.pspace, p_coeff)

    f = (disc.velocity_load(inp.body_force)
         - fem.assemble_field_grad_load(disc.vspace, p, disc.quad))
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    u_coeff = np.empty_like(f)
    reports = []
    for c in (0, 1):          # one scalar solve per velocity component
        u_coeff[:, c], report = _solve_fixed(
            disc.velocity_system, f[:, c], u_vals[:, c], tol,
            lambda: Preconditioner("A", disc.velocity_factor.solve,
                                   (disc.velocity_factor,)))
        reports.append(report)

    return SolveResult(u=Field(disc.vspace, u_coeff), p=p, problem="PP",
                       epsilon=None, report=_merge_reports(
                           rep1, _merge_reports(*reports, shared=True)))


@one_blas_thread()
def solve_es(inp: ProblemInput, disc: Discretization = None,
             tol: float = DEFAULT_TOL) -> SolveResult:
    """Coupled solve of the epsilon-scaled system.

    The pressure-gradient block is the transpose-form coupling, so the
    discrete integration-by-parts identity holds on interior dofs and the
    energy argument behind the asymptotic estimates carries over verbatim.
    """
    disc = disc or Discretization(inp.mesh)
    eps = inp.epsilon
    if eps is None or not (eps > 0.0):
        raise ValueError(f"epsilon must be positive, got {eps}")
    _require_compatible(inp)
    if inp.p_bc is None:
        raise ValueError("pressure boundary data is required")
    nu, npp = disc.nu, disc.np_
    system = disc.coupled_system(eps)

    rhs = np.empty(nu + npp)
    rhs[:nu] = disc.velocity_load(inp.body_force).ravel()
    rhs[nu:] = eps * disc.pressure_load(inp.body_force)
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    _, p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    x, report = _solve_fixed(
        system, rhs, np.concatenate([u_vals.ravel(), p_vals]), tol,
        lambda: _block_lower(disc, system.matrix, "eps*Kp + Mp", Factor(fem.eliminate(
            eps * disc.stiff_p + disc.mass_p, disc.pspace.boundary_nodes))))

    return SolveResult(u=Field(disc.vspace, x[:nu].reshape(-1, 2)),
                       p=Field(disc.pspace, x[nu:]),
                       problem="ES", epsilon=eps, report=report)


def solve_problem(name: str, inp: ProblemInput, disc: Discretization = None,
                  tol: float = DEFAULT_TOL) -> SolveResult:
    """Solve problem `name`, one of PROBLEMS, with its driver."""
    if name == "S":
        return solve_stokes(inp, disc, tol)
    if name == "PP":
        return solve_pp(inp, disc, tol)
    if name == "ES":
        return solve_es(inp, disc, tol)
    raise ValueError(f"unknown problem {name!r}; expected one of {PROBLEMS}")
