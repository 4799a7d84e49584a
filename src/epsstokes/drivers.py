"""Drivers for the three discrete problems on a shared Taylor-Hood pair.

All three problems use continuous P2 velocity and continuous P1 pressure on
the same mesh, so their solutions are directly comparable:

* ``solve_stokes``  -- saddle-point system with velocity Dirichlet data and
  a scalar Lagrange multiplier pinning the pressure mean to zero;
* ``solve_pp``      -- two decoupled Poisson solves: pressure first from the
  gradient-type right-hand side, then velocity driven by the discrete
  pressure gradient;
* ``solve_es``      -- the coupled one-parameter system whose pressure block
  is scaled by epsilon, with Dirichlet data on both fields.

Drivers are pure functions of their input; sweeps can share one
Discretization (mesh, spaces and epsilon-independent blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sps

from . import fem
from .fem import Field, Space
from .mesh import Mesh
from .sparse import DEFAULT_TOL, SolverReport, solve

COMPATIBILITY_TOL = 1e-8


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


class Discretization:
    """Taylor-Hood spaces and the epsilon-independent operator blocks."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vspace = Space(mesh, degree=2, components=2)
        self.pspace = Space(mesh, degree=1, components=1)
        self.quad = fem.triangle_rule_d5()
        self.stiff_u = fem.assemble_stiffness(self.vspace, self.quad)
        self.stiff_p = fem.assemble_stiffness(self.pspace, self.quad)
        self.div = fem.assemble_div_coupling(self.vspace, self.pspace, self.quad)
        self.grad = fem.assemble_grad_coupling(self.vspace, self.pspace,
                                               form="transpose", quad=self.quad)
        self.mean_p = fem.assemble_mass_against_one(self.pspace, self.quad)

    @property
    def nu(self):
        return self.vspace.ndofs

    @property
    def np_(self):
        return self.pspace.ndofs


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


def _merge_reports(first: SolverReport, second: SolverReport) -> SolverReport:
    worse = max(first.rel_residual, second.rel_residual)
    return SolverReport(method=first.method + " [2 stages]",
                        rel_residual=worse,
                        iterations=first.iterations + second.iterations,
                        wall_time=first.wall_time + second.wall_time)


def solve_stokes(inp: ProblemInput, disc: Discretization = None,
                 tol: float = DEFAULT_TOL) -> SolveResult:
    """Velocity-pressure saddle solve with zero-mean pressure gauge.

    The mean constraint is enforced through one extra Lagrange-multiplier
    row/column rather than by pinning a pressure dof.
    """
    disc = disc or Discretization(inp.mesh)
    _require_compatible(inp)
    nu, npp = disc.nu, disc.np_

    m = sps.csr_matrix(disc.mean_p[None, :])
    system = sps.bmat([[disc.stiff_u, -disc.div.T, None],
                       [-disc.div, None, m.T],
                       [None, m, None]], format="csr")
    system.sum_duplicates()               # canonical: sorted, no duplicates
    rhs = np.zeros(nu + npp + 1)
    rhs[:nu] = fem.assemble_load(disc.vspace, inp.body_force, disc.quad)

    bdofs, bvals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    mat, rhs = fem.apply_dirichlet(system, rhs, bdofs, bvals)
    x, report = solve(mat, rhs, tol)
    x[bdofs] = bvals                      # boundary dofs hold exactly

    u = Field(disc.vspace, x[:nu])
    p = Field(disc.pspace, x[nu:nu + npp])
    return SolveResult(u=u, p=p, problem="S", epsilon=None, report=report)


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

    g = fem.assemble_grad_load(disc.pspace, inp.body_force, disc.quad)
    p_bdofs, p_bvals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    kp, g = fem.apply_dirichlet(disc.stiff_p, g, p_bdofs, p_bvals)
    p_coeff, rep1 = solve(kp, g, tol)
    p_coeff[p_bdofs] = p_bvals
    p = Field(disc.pspace, p_coeff)

    f = fem.assemble_load(disc.vspace, inp.body_force, disc.quad)
    f -= fem.assemble_field_grad_load(disc.vspace, p, disc.quad)
    u_bdofs, u_bvals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    au, f = fem.apply_dirichlet(disc.stiff_u, f, u_bdofs, u_bvals)
    u_coeff, rep2 = solve(au, f, tol)
    u_coeff[u_bdofs] = u_bvals

    return SolveResult(u=Field(disc.vspace, u_coeff), p=p, problem="PP",
                       epsilon=None, report=_merge_reports(rep1, rep2))


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

    system = sps.bmat([[disc.stiff_u, disc.grad],
                       [disc.div, eps * disc.stiff_p]], format="csr")
    system.sum_duplicates()               # canonical: sorted, no duplicates
    rhs = np.empty(nu + npp)
    rhs[:nu] = fem.assemble_load(disc.vspace, inp.body_force, disc.quad)
    rhs[nu:] = eps * fem.assemble_grad_load(disc.pspace, inp.body_force, disc.quad)

    u_bdofs, u_bvals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    p_bdofs, p_bvals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    bdofs = np.concatenate([u_bdofs, p_bdofs + nu])
    bvals = np.concatenate([u_bvals, p_bvals])
    mat, rhs = fem.apply_dirichlet(system, rhs, bdofs, bvals)
    x, report = solve(mat, rhs, tol)
    x[bdofs] = bvals

    return SolveResult(u=Field(disc.vspace, x[:nu]),
                       p=Field(disc.pspace, x[nu:]),
                       problem="ES", epsilon=eps, report=report)
