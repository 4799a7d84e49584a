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

``solve_es_sweep`` solves ES over a list of epsilons: by its 1/eps series
where that converges, and by ``solve_es`` below the measured crossover.
``solve_problem`` dispatches on the problem name.  Drivers are pure
functions of their input; sweeps share one Discretization, so a sweep
assembles, eliminates and factors each block once.  At construction it
builds the P2 and P1 spaces and assembles their stiffness matrices: K, the
Laplacian of one velocity component, and Kp.  On first use it builds the
couplings B and G (S and ES only), the load vectors of each body force,
each problem's system with its Dirichlet dofs eliminated, and the factors
below.  The interleaved velocity block kron(K, I2) exists only while S or
ES assemble their system; PP never forms it.  ES keeps its system at
eps = 1 and scales the Kp entries of a copy of its values per epsilon.

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
block of the solved matrix, applied as the divergence coupling B (negated
for Stokes) with the fixed rows and columns masked, and S stands for the
Schur complement: eps*Kp + Mp for ES, a P1 matrix factored per epsilon,
and its eps -> 0 limit -Mp for Stokes, whose gauge row stays an identity
row (Elman, Silvester & Wathen, Finite Elements and Fast Iterative Solvers,
2014; Mardal & Winther, NLAA 2011).

For large epsilon, ES is PP plus a series in 1/eps.  solve_es_sweep
computes its terms once, up front, each one Kp solve and one two-column A
solve with PP's factors, into one running sum per epsilon.  The series
converges for eps above the ratio of successive terms, about 0.02 on the
unit square.  Iterating the sweep checks each sum in the true ES residual;
an epsilon the series cannot reach within SERIES_TERMS terms, or whose sum
misses the tolerance, is solved by GMRES as above when its turn comes.

Building a Discretization and each driver call run numpy's BLAS on one
thread (sparse.one_blas_thread), which covers the per-cell matmuls of
assembly and of the load vectors as well as the solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np
from scipy import sparse as sps

from . import fem
from .fem import Field, Space
from .mesh import Mesh
from .sparse import (AIM, DEFAULT_TOL, ORDERING, RESIDUAL_FLOOR, Factor,
                     Preconditioner, SolverReport, dump_solved, one_blas_thread,
                     rel_residual, solve)

COMPATIBILITY_TOL = 1e-8
GAUGE_DOF = 0          # the pressure dof pinned in the Stokes solve
PROBLEMS = ("S", "PP", "ES")
SERIES_TERMS = 16      # most terms of the 1/eps series one sweep computes


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
    the mass matrices Mp and M2, load vectors (memoized per body-force
    callable), each problem's eliminated system and the factors A, Kp and Mp
    are built on first use and live as long as the Discretization.  The
    interleaved velocity block kron(K, I2) is formed only while S or ES
    builds its system, and is not kept.
    """

    @one_blas_thread()
    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vspace = Space(mesh, degree=2)
        self.pspace = Space(mesh, degree=1)
        self.stiff_u = fem.assemble_stiffness(self.vspace)
        self.stiff_p = fem.assemble_stiffness(self.pspace)
        self.mean_p = fem.assemble_mass_against_one(self.pspace)
        self._loads = {}

    @property
    def nu(self):
        return 2 * self.vspace.ndofs

    @property
    def np_(self):
        return self.pspace.ndofs

    @cached_property
    def div(self) -> sps.csr_matrix:
        return fem.assemble_div_coupling(self.vspace, self.pspace)

    @cached_property
    def grad(self) -> sps.csr_matrix:
        return fem.assemble_grad_coupling(self.vspace, self.pspace, div=self.div)

    @cached_property
    def mass_p(self) -> sps.csr_matrix:
        return fem.assemble_mass(self.pspace)

    @cached_property
    def mass_u(self) -> sps.csr_matrix:
        """M2, the P2 mass matrix of one velocity component: built for the
        first velocity gap norm (verification.gap), not by any solve."""
        return fem.assemble_mass(self.vspace)

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
        """[[K, G], [D, eps*Kp]] with both boundaries fixed: the eps = 1
        system with its stored Kp entries scaled by eps, in a copy of its
        values that shares its index arrays, and coupled_lift(eps)."""
        unit, in_matrix, _ = self._coupled_unit
        data = unit.matrix.data.copy()
        data[in_matrix] *= eps
        matrix = sps.csr_matrix((data, unit.matrix.indices, unit.matrix.indptr),
                                shape=unit.matrix.shape)
        return Eliminated(matrix, self.coupled_lift(eps), unit.fixed)

    def coupled_lift(self, eps: float) -> sps.csr_matrix:
        """The lift of the ES system at eps: a copy of the eps = 1 lift with
        its Kp entries scaled by eps."""
        unit, _, in_lift = self._coupled_unit
        lift = unit.lift.copy()
        lift.data[in_lift] *= eps
        return lift

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
            vec = assemble(space, body_force)
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
                        matrix_nnz=(first.matrix_nnz
                                    + (0 if shared else second.matrix_nnz)),
                        factor_time=first.factor_time + second.factor_time,
                        residual_history=(first.residual_history
                                          + second.residual_history))


def _solve_velocity(factor: Factor, r: np.ndarray) -> np.ndarray:
    """A^-1 r for interleaved velocity dofs, one column per component."""
    return factor.solve(r.reshape(-1, 2)).ravel()


def _block_lower(disc: Discretization, system: Eliminated, sign: float,
                 name: str, schur: Factor) -> Preconditioner:
    """[[A, 0], [L, S]] with S factored and L the lower-left block of system:
    sign * D with the fixed rows and columns of system zeroed, applied as
    disc.div with those entries masked rather than sliced out of system."""
    nu = disc.nu
    vel = disc.velocity_factor
    fixed_u = system.fixed[system.fixed < nu]
    fixed_p = system.fixed[system.fixed >= nu] - nu

    def apply(r):
        z = _solve_velocity(vel, r[:nu])
        free = z.copy()
        free[fixed_u] = 0.0
        lz = disc.div @ free
        lz[fixed_p] = 0.0
        return np.concatenate([z, schur.solve(r[nu:] - sign * lz)])

    return Preconditioner(f"block_lower(A, {name})", apply, (vel, schur))


def _lifted(lift: sps.csr_matrix, fixed: np.ndarray, load: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """The right-hand side of an eliminated system: load minus the lift of
    the fixed values, and the values themselves in the fixed rows."""
    rhs = load - lift @ values
    rhs[fixed] = values
    return rhs


def _solve_fixed(system: Eliminated, load: np.ndarray, values: np.ndarray,
                 tol: float, precond) -> tuple[np.ndarray, SolverReport]:
    """Solve an eliminated system, lifting and restoring the fixed values."""
    x, report = solve(system.matrix,
                      _lifted(system.lift, system.fixed, load, values), tol, precond)
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
        lambda: _block_lower(disc, system, -1.0, "-Mp", disc.mass_factor))

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
         - fem.assemble_field_grad_load(disc.vspace, p))
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
    _check_epsilons([eps])
    values = _coupled_values(disc, inp)
    system = disc.coupled_system(eps)
    x, report = _solve_fixed(
        system, _coupled_load(disc, inp, eps), values, tol,
        lambda: _block_lower(disc, system, 1.0, "eps*Kp + Mp", Factor(fem.eliminate(
            eps * disc.stiff_p + disc.mass_p, disc.pspace.boundary_nodes))))
    return _coupled_result(disc, x, eps, report)


def _check_epsilons(eps_list):
    for eps in eps_list:
        if eps is None or not 0.0 < eps < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {eps}")


def _coupled_values(disc: Discretization, inp: ProblemInput) -> np.ndarray:
    """The fixed values of the ES system: both traces, in the order of its
    fixed dofs; checks the data first."""
    _require_compatible(inp)
    if inp.p_bc is None:
        raise ValueError("pressure boundary data is required")
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    _, p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    return np.concatenate([u_vals.ravel(), p_vals])


def _coupled_load(disc: Discretization, inp: ProblemInput, eps: float) -> np.ndarray:
    """The ES load at eps: the velocity load, then eps times the pressure one."""
    nu = disc.nu
    load = np.empty(nu + disc.np_)
    load[:nu] = disc.velocity_load(inp.body_force).ravel()
    load[nu:] = eps * disc.pressure_load(inp.body_force)
    return load


def _coupled_result(disc: Discretization, x: np.ndarray, eps: float,
                    report: SolverReport) -> SolveResult:
    nu = disc.nu
    return SolveResult(u=Field(disc.vspace, x[:nu].reshape(-1, 2)),
                       p=Field(disc.pspace, x[nu:]),
                       problem="ES", epsilon=eps, report=report)


def solve_es_sweep(inp: ProblemInput, eps_list, disc: Discretization = None,
                   tol: float = DEFAULT_TOL, pp: SolveResult = None) -> EpsSweep:
    """Solve ES at each eps of eps_list, by its 1/eps series where it converges.

    Dividing the free pressure rows of ES(eps) by eps gives
    (M + N/eps) x = b0 + b1/eps.  M = [[A, G], [0, Kp]] is PP's block
    triangular operator, N holds only the divergence block D, and b1 lifts
    the velocity trace through D.  So x is the sum over k of x_k / eps^k:
    x_0, which solves M x_0 = b0, is the PP solution, and M x_k = [0; r_k]
    for k >= 1, where r_k is the divergence of the velocity of x_(k-1),
    negated, on the free pressure rows (for k = 1 the velocity trace in x_0
    brings in b1).  Each term is one Kp solve and one two-column A solve
    with PP's factors, and the terms serve every eps.  x_0 is pp, solve_pp's
    result for inp on disc, solved here if not given; so an ES solution
    minus PP's is its terms k >= 1 up to one rounding.

    The terms x_0 ... x_K leave exactly the residual r_(K+1) / eps^K in the
    pressure rows of ES(eps), so each eps takes terms until that is
    AIM * tol of its ||b||, as GMRES aims in sparse.solve.  An eps
    whose bound, shrinking at the measured term ratio, cannot get there
    within SERIES_TERMS terms, or whose sum then misses tol in the true
    residual ||b - ES(eps) x|| / ||b|| (sparse.rel_residual, with the system
    and right-hand side solve_es would solve), is solved by solve_es.
    inp.epsilon is not read.  See EpsSweep for the results.
    """
    disc = disc or Discretization(inp.mesh)
    eps_list = list(eps_list)
    _check_epsilons(eps_list)
    return EpsSweep(inp, eps_list, disc, tol, pp)


class EpsSweep:
    """The ES solutions of solve_es_sweep and the series terms behind them.

    Construction computes the terms, x_0 and x_1 always and then one more
    while any eps still needs it, and adds each into one running sum per
    eps.  An eps leaves the series once its residual bound meets the aim,
    or once the ratio of the last two terms shows that SERIES_TERMS terms
    will not; in the second case its sum is dropped.

    Iterating yields one SolveResult per eps, in list order: the sum of an
    eps the series solved, once it meets tol in the true residual, and
    otherwise solve_es's solution, solved when the iteration reaches it.
    The report of a series solution has method "series[Kp, A]", the number
    of terms as its iterations, the residual bound after each term as its
    history and the true residual; the first one's wall_time and
    factor_time include the shared terms.  Inside dump_matrices each series
    solution dumps the ES system it was checked against.

    term_ratio is ||r_(k+1)|| / ||r_k|| at the last term computed: the eps
    below which the series diverges.  It is 0 when r_k is 0, as every later
    term is then 0 too.
    """

    @one_blas_thread()
    def __init__(self, inp: ProblemInput, eps_list: list, disc: Discretization,
                 tol: float, pp: SolveResult = None):
        start = time.perf_counter()
        self.inp, self.eps_list, self.disc, self.tol = inp, eps_list, disc, tol
        self.values = _coupled_values(disc, inp)
        pp = pp or solve_pp(inp, disc, tol)
        nu, fixed = disc.nu, disc._coupled_unit[0].fixed
        fixed_u, fixed_p = fixed[fixed < nu], fixed[fixed >= nu] - nu
        # The ES right-hand side is b0 + eps * b1: load and lift are affine in
        # eps, and its fixed rows hold the values at every eps, so b1's are 0.
        b0, b_unit = (_lifted(disc.coupled_lift(e), fixed, _coupled_load(disc, inp, e),
                              self.values) for e in (0.0, 1.0))
        b1 = b_unit - b0
        bnorms = {eps: max(float(np.linalg.norm(b0 + eps * b1)), RESIDUAL_FLOOR)
                  for eps in eps_list}

        def divergence(x):
            """The free pressure rows of -B x."""
            r = -(disc.div @ x[:nu])
            r[fixed_p] = 0.0
            return r

        x = np.concatenate([pp.u.coefficients.ravel(), pp.p.coefficients])
        r = divergence(x)
        self.r_norms = [float(np.linalg.norm(r))]
        open_ = {eps: (np.zeros(len(x)), []) for eps in bnorms}
        self.series = {}        # eps: (sum of its terms, bound after each)
        aim = AIM * tol
        for k in range(SERIES_TERMS):
            if k > 1 and not open_:
                break
            if k:               # x_k with M x_k = [0; r_k]; r becomes r_(k+1)
                p = disc.pressure_factor.solve(r)
                p[fixed_p] = 0.0
                g = disc.grad @ p
                g[fixed_u] = 0.0
                u = _solve_velocity(disc.velocity_factor, -g)
                u[fixed_u] = 0.0
                x = np.concatenate([u, p])
                r = divergence(x)
                self.r_norms.append(float(np.linalg.norm(r)))
            left = SERIES_TERMS - 1 - k
            for eps, (total, bounds) in list(open_.items()):
                total += eps ** -k * x
                bound = eps ** -k * self.r_norms[k] / bnorms[eps]
                bounds.append(bound)
                if bound <= aim:
                    self.series[eps] = open_.pop(eps)
                elif left == 0 or (k and bound * (self.term_ratio / eps) ** left > aim):
                    del open_[eps]
        self.factors = disc.pressure_factor, disc.velocity_factor
        self.factor_time = sum(f.factor_time for f in self.factors if f.finished >= start)
        self.elapsed = time.perf_counter() - start

    @property
    def term_ratio(self) -> float:
        return self.r_norms[-1] / self.r_norms[-2] if self.r_norms[-2] else 0.0

    def __iter__(self) -> Iterator[SolveResult]:
        first = True
        for eps in self.eps_list:
            res = self._checked(eps, first)
            first = first and res is None
            yield res or solve_es(replace(self.inp, epsilon=eps), self.disc, self.tol)

    @one_blas_thread()
    def _checked(self, eps: float, first: bool):
        """The series SolveResult of eps if the series solved eps and its sum
        meets tol in the ES residual, whose system it dumps; else None."""
        if eps not in self.series:
            return None
        check = time.perf_counter()
        disc, (x, bounds) = self.disc, self.series[eps]
        system = disc.coupled_system(eps)
        x[system.fixed] = self.values
        res = rel_residual(system.matrix, x, _lifted(
            system.lift, system.fixed, _coupled_load(disc, self.inp, eps), self.values))
        if not res <= self.tol:
            return None
        dump_solved(system.matrix)
        return _coupled_result(disc, x, eps, SolverReport(
            method="series[Kp, A]", rel_residual=res, iterations=len(bounds),
            wall_time=time.perf_counter() - check + (self.elapsed if first else 0.0),
            ordering=ORDERING, lu_nnz=sum(f.nnz for f in self.factors),
            matrix_nnz=sum(f.matrix_nnz for f in self.factors),
            factor_time=self.factor_time if first else 0.0,
            residual_history=tuple(bounds)))


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
