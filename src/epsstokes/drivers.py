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
coupling B (S and ES only), the load vectors of each body force, each
problem's system with its Dirichlet dofs eliminated, and the factors below.
S and ES are held as their blocks (sparse.SaddleSystem): the scalar K
eliminated, which both share and apply to each velocity component, the
eliminated D, and the P1 pressure block C.  The gradient coupling is -D^T,
applied as D^T and never stored.  No monolithic saddle matrix and no
kron(K, I2) is built, except to write one out inside sparse.dump_matrices;
PP forms no D.  ES keeps ES(0) and its Kp part, and builds ES(eps) by
summing only its pressure block, C(eps) = ES(0)'s + eps * Kp part, and its
lift, in new arrays.  A driver given a Discretization refuses one built
on another mesh than its input's.

Each system goes through sparse.solve with a preconditioner built from
factors.  The Discretization makes each of two on first use and keeps it:

* A  -- K with every boundary node eliminated: one scalar P2 factor that
  serves the x and the y velocity, made by S, ES and the 1/eps series;
* Kp -- the P1 pressure Laplacian with every boundary node eliminated.

These and the Schur factors below are relabelled by the reverse
Cuthill-McKee order of their space's cell graph (fem.cell_order), which
sees every pair of nodes that a cell couples, also where assembly stored
no entry because it is exactly 0.  The Discretization computes each
space's order once and keeps the labels, not the graph.

PP makes three scalar solves, Kp, then A once per velocity component, each
component meeting the tolerance against its own right-hand side.  The Kp
solve is direct.  A velocity solve is direct too if the Discretization
already holds A's factor.  Otherwise PP factors nothing more: the
conjugate gradient method (sparse.cg) solves A, preconditioned by a
two-level cycle, damped Jacobi on A around the exact coarse solve
P Kp^-1 P^T, where P embeds the P1 space in the P2 one (fem.prolongation).
A and the cycle are symmetric positive definite, so CG needs five vectors
and no orthogonalization.  It took 17 steps per component on structured
meshes n = 8 to 128, 20 on perfbench's jittered ones n = 32 to 128 and 19
to 22 on other jittered ones n = 8 to 64 (Eijkhout & Vassilevski, SIAM
Review 1991), and on a jittered n = 128 mesh PP held 0.96M factor entries
where Kp and A held 6.39M.

Stokes is ES at eps = 0: both are [[A, -D^T], [D, C]], C = eps*Kp, with
the velocity boundary and the pressure boundary or, for Stokes, the gauge
dof fixed.  The gradient coupling G, the integral of grad(psi) . phi, is
-B^T plus a boundary flux that lives only in the velocity boundary rows,
which both systems fix (the discrete integration-by-parts identity), so
the eliminated G is -D^T exactly and is applied as such.  Since A is an
exact factor, eliminating the velocity leaves the Schur complement
S = C + D A^-1 D^T on the pressure alone.  A and C are symmetric positive
definite, the fixed pressure dofs as unit rows, so S is too, at every
eps.  sparse.cg solves it (Uzawa-type CG: Verfuerth, IMA J. Numer. Anal. 4,
1984; Benzi, Golub & Liesen, Acta Numerica 2005, section 5),
preconditioned by the factor of C + Mp with the fixed pressure dofs
eliminated: eps*Kp + Mp for ES and Mp for Stokes, whose gauge row stays an
identity row (Elman, Silvester & Wathen, Finite Elements and Fast
Iterative Solvers, 2014; Mardal & Winther, NLAA 2011).  CG deflates the
coarse vector that is 1 on the free pressure dofs and 0 on the fixed ones
(Nicolaides, SIAM J. Numer. Anal. 24, 1987), which nearly spans S's one
soft mode, whose eigenvalue for Stokes shrinks like h^2: it takes S at
n = 40 from 32 steps to 26, and leaves beta_h^2 as S's smallest Ritz value.  One velocity solve then recovers u.  D and C
are the solved system's own blocks.  A Krylov step is one two-column A
solve, one factor solve and three sparse products on vectors of pressure
length: at n = 40, 1.7k entries where the whole system has 14.8k.
sparse.solve checks x against the system block by block.

For large epsilon, ES is PP plus a series in 1/eps.  solve_es_sweep
computes its terms once, up front, each one Kp solve and one two-column A
solve with the factors of Kp and A, into one running sum per epsilon.  The
series converges for eps above the ratio of successive terms, about 0.02
on the unit square.  Iterating the sweep checks each sum in the true ES
residual; an epsilon the series cannot reach within SERIES_TERMS terms,
or whose sum misses the tolerance, is solved by solve_es as above when
its turn comes.

Building a Discretization and each driver call run numpy's BLAS on one
thread (sparse.one_blas_thread), which covers the per-cell matmuls of
assembly and of the load vectors as well as the solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Iterator, NamedTuple

import numpy as np
from scipy import sparse as sps

from . import fem
from .fem import Field, Space
from .mesh import Mesh
from .sparse import (AIM, DEFAULT_TOL, RESIDUAL_FLOOR, Factor, KrylovLog,
                     Preconditioner, SaddleSystem, SolverReport, cg, dump_solved,
                     interleaved, norm, one_blas_thread, placed,
                     product_residual, release_free_heap, solve)

COMPATIBILITY_TOL = 1e-8
GAUGE_DOF = 0          # the pressure dof pinned in the Stokes solve
PROBLEMS = ("S", "PP", "ES")
SERIES_TERMS = 16      # most terms of the 1/eps series one sweep computes
# Weight of the damped-Jacobi steps of PP's two-level velocity cycle.  The
# cycle is symmetric positive definite while the weight times the largest
# eigenvalue of D^-1 A is below 2: 1.53 on structured meshes, 1.59-1.63 on
# jittered ones, 1.82-1.90 on sheared ones (shear 0.9 to 4) and 1.66-1.68 at
# aspect ratios 0.1 and 0.02.  A PP alone took 17 CG steps per component on
# structured meshes n = 8 to 128 and 19 to 22 on jittered ones.  When the
# weight was chosen, with restarted GMRES in place of CG, 0.65 and 0.75 took
# up to 2 steps more per PP, 0.8 up to 8 more, and undamped Jacobi missed
# the tolerance at n = 32.
JACOBI_WEIGHT = 0.7


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
    `fixed` zeroed and 1 on their diagonal: a CSR matrix, or for S and ES a
    SaddleSystem whose blocks are so eliminated (ES's Kp part, which is
    added to ES(0)'s pressure block, has 0 there); lift holds the system's
    columns at those dofs, which carry the fixed values to the right-hand
    side.
    """

    matrix: sps.csr_matrix | SaddleSystem
    lift: sps.csr_matrix
    fixed: np.ndarray


def _eliminated(system: sps.csr_matrix, fixed: np.ndarray) -> Eliminated:
    system.sum_duplicates()               # canonical: sorted, no duplicates
    return Eliminated(fem.eliminate(system, fixed), system[:, fixed], fixed)


def _frozen(matrix: sps.csr_matrix) -> sps.csr_matrix:
    """matrix, its arrays made read-only: a cached block that systems share."""
    for arr in (matrix.indptr, matrix.indices, matrix.data):
        arr.setflags(write=False)
    return matrix


@np.errstate(over="ignore")
def _at_eps(parts: tuple[Eliminated, Eliminated], eps: float) -> Eliminated:
    """ES(eps) from ES(0) and its Kp part: ES(0)'s blocks with the pressure
    block ES(0)'s + eps * Kp part, and the lift likewise.  The parts store
    disjoint entries, so each sum is exact, and it is in new arrays; A and D
    are ES(0)'s own, read-only.  An eps whose scaling overflows leaves
    inf entries, which solve refuses."""
    base, kp = parts
    return Eliminated(base.matrix._replace(pressure=base.matrix.pressure + eps * kp.matrix),
                      base.lift + eps * kp.lift, base.fixed.copy())


class Discretization:
    """Taylor-Hood spaces and the epsilon-independent operator blocks.

    Construction assembles the P2 stiffness K of one velocity component and
    the P1 stiffness Kp but keeps only PP's two stages, velocity_system and
    pressure_system: each matrix with its boundary fixed, and its columns
    there as lift, which together hold all of K or Kp.  It also assembles
    the pressure mean, then hands the C heap's free pages back
    (sparse.release_free_heap).  The coupling B, the mass
    matrices Mp and M2, load vectors (memoized per body-force callable), S's
    and ES's systems, the cell orders of the two spaces and the factors A
    and Kp are built on first use and live as long as the Discretization.
    PP alone builds no factor of A: it is in vars() once S, ES or the 1/eps
    series has used it, and solve_pp uses it then.

    S and ES are SaddleSystems: their velocity block is velocity_system's
    matrix, the scalar K eliminated, which both share, and each keeps its
    eliminated D, whose negated transpose is its gradient block.  ES keeps
    two parts, ES(0) and its Kp part, which store disjoint entries:
    coupled_system(eps) sums only the P1 pressure block and the lift,
    ES(0)'s + eps * Kp part's, each sum exact and in new arrays.  The blocks
    it shares with ES(0) are read-only, so nothing done to a returned
    system reaches the cache.
    """

    @one_blas_thread()
    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.vspace = Space(mesh, degree=2)
        self.pspace = Space(mesh, degree=1)
        # K, then Kp: each raw matrix is dropped once its system is built
        self.velocity_system = _eliminated(fem.assemble_stiffness(self.vspace),
                                           self.vspace.boundary_nodes)
        self.pressure_system = _eliminated(fem.assemble_stiffness(self.pspace),
                                           self.pspace.boundary_nodes)
        self.mean_p = fem.assemble_mass_against_one(self.pspace)
        self._loads = {}
        release_free_heap()     # the assembly temporaries

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
    def mass_p(self) -> sps.csr_matrix:
        return fem.assemble_mass(self.pspace)

    @cached_property
    def mass_u(self) -> sps.csr_matrix:
        """M2, the P2 mass matrix of one velocity component: built for the
        first velocity gap norm (verification.gap), not by any solve."""
        return fem.assemble_mass(self.vspace)

    @cached_property
    def pressure_order(self) -> np.ndarray:
        """fem.cell_order of the P1 space: the labels of the factors of Kp
        and of every Schur preconditioner."""
        return fem.cell_order(self.pspace)

    @cached_property
    def velocity_factor(self) -> Factor:
        """A, the factor of K with the boundary nodes fixed, for x and y alike.

        S, ES and the 1/eps series build it.  PP applies it if it is built
        and otherwise leaves it unbuilt: solve_pp checks vars() for it.  Its
        perm is fem.cell_order of the P2 space."""
        return Factor(self.velocity_system.matrix, fem.cell_order(self.vspace))

    @cached_property
    def pressure_factor(self) -> Factor:
        return Factor(self.pressure_system.matrix, self.pressure_order)

    @cached_property
    def stokes_system(self) -> Eliminated:
        """ES at eps = 0: [[K, -D^T], [D, 0]] with the velocity boundary and
        the gauge dof fixed."""
        return self._saddle_system(np.array([GAUGE_DOF]))

    def _saddle_system(self, fixed_p: np.ndarray) -> Eliminated:
        """[[K, -D^T], [D, 0]] with the velocity boundary and the pressure
        dofs fixed_p fixed, as its blocks: velocity_system's matrix, B masked
        by fem.masked as D, and 1 at fixed_p in the pressure block.  The lift
        is the system's columns at the fixed dofs: velocity_system's lift per
        component, then -B^T's and B's.  -B^T differs from G only in the
        velocity boundary rows, which _lifted overwrites."""
        vel, nu, n_p = self.velocity_system, self.nu, self.np_
        fixed_u = fem.vector_dofs(vel.fixed)
        n_fu = len(fixed_u)
        blocks = (vel.matrix, fem.masked(self.div, fixed_p, fixed_u),
                  fem.eliminate(sps.csr_matrix((n_p, n_p)), fixed_p))
        lift = placed(interleaved(vel.lift)
                      + [(-self.div[fixed_p].T, np.arange(nu),
                          n_fu + np.arange(len(fixed_p))),
                         (self.div[:, fixed_u], nu + np.arange(n_p), np.arange(n_fu))],
                      (nu + n_p, n_fu + len(fixed_p)))
        return Eliminated(SaddleSystem(*map(_frozen, blocks)), lift,
                          np.concatenate([fixed_u, fixed_p + nu]))

    def coupled_system(self, eps: float) -> Eliminated:
        """[[K, -D^T], [D, eps*Kp]] with both boundaries fixed: ES(0)'s blocks
        with the pressure block and the lift summed (_at_eps)."""
        return _at_eps(self._coupled_parts, eps)

    @cached_property
    def _coupled_parts(self) -> tuple[Eliminated, Eliminated]:
        """ES(0), and ES's Kp part: pressure_system's matrix without the
        pressure boundary's unit diagonal, the part of ES's pressure block,
        and as its lift pressure_system's, Kp's columns there, in the
        pressure rows of a lift shaped like ES(0)'s."""
        pbnd, kp = self.pspace.boundary_nodes, self.pressure_system
        base = self._saddle_system(pbnd)
        n_fu = len(base.fixed) - len(pbnd)
        lift = placed([(kp.lift, self.nu + np.arange(self.np_),
                        n_fu + np.arange(len(pbnd)))], base.lift.shape)
        return base, Eliminated(_frozen(fem.masked(kp.matrix, pbnd, pbnd)), lift,
                                base.fixed)

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


def _discretization(inp: ProblemInput, disc: Discretization) -> Discretization:
    """disc, or a new Discretization of inp.mesh if disc is None; a disc
    built on another mesh object is refused."""
    if disc is None:
        return Discretization(inp.mesh)
    if disc.mesh is not inp.mesh:
        raise ValueError("disc was built on another mesh than inp.mesh")
    return disc


def _solve_velocity(factor: Factor, r: np.ndarray) -> np.ndarray:
    """A^-1 r for interleaved velocity dofs, one column per component."""
    return factor.solve(r.reshape(-1, 2)).ravel()


def _schur_reduction(disc: Discretization, system: Eliminated,
                     name: str, tol: float) -> Preconditioner:
    """Solve by reduction to the pressure Schur complement, with the blocks
    of the solved SaddleSystem [[A, -D^T], [D, C]].

    apply(r) takes z = A^-1 r_u, then solves S p = r_p - D z for the
    symmetric positive definite S = C + D A^-1 D^T by cg, preconditioned by
    the factor of C + Mp with the fixed pressure dofs eliminated (Mp for
    Stokes, eps*Kp + Mp for ES), aiming at AIM * tol ||r||, and returns
    [A^-1 (r_u + D^T p), p].  Its residual is that of the pressure solve, so
    x = M b meets tol, and CG runs on pressure-length vectors only.

    cg deflates the coarse vector 1 on the free pressure dofs and 0 on the
    fixed ones, which nearly spans S's one soft mode: for Stokes a
    near-constant pressure that only the pinned gauge dof holds, and for ES
    at small eps one nearly constant inside that drops to 0 at the boundary.
    """
    nu, vel, m = disc.nu, disc.velocity_factor, system.matrix
    div, block = m.div, m.pressure
    gt = div.T          # -G, a view: the products below are G's, bit for bit
    fixed_p = system.fixed[system.fixed >= nu] - nu
    schur = Factor(fem.eliminate(block + disc.mass_p, fixed_p), disc.pressure_order)
    coarse = np.ones(disc.np_)
    coarse[fixed_p] = 0.0
    log = KrylovLog()

    def schur_op(q):
        return block @ q - div @ _solve_velocity(vel, -(gt @ q))

    def apply(r):
        r_u = r[:nu]
        z = _solve_velocity(vel, r_u)
        p = cg(schur_op, schur.solve, r[nu:] - div @ z, AIM * tol * norm(r), log,
               coarse)
        return np.concatenate([_solve_velocity(vel, r_u + gt @ p), p])

    return Preconditioner(f"cg[schur(A, {name})]", apply, (vel, schur), log)


def _two_level(disc: Discretization, tol: float) -> Callable[[], Preconditioner]:
    """The builder of a preconditioner for A that solves by CG, with a
    two-level P2 -> P1 cycle coarse-solved by the factor of Kp.

    The cycle takes one damped-Jacobi step on A from 0, corrects by
    P Kp^-1 P^T of the residual, and takes a second Jacobi step.  P maps
    the free P1 vertices to the P2 nodes (fem.prolongation), zero at the
    fixed ones, so P^T A P is the eliminated Kp on the free dofs: the coarse
    solve is an exact Galerkin solve, and the steps CG needs barely grow as
    h shrinks (Eijkhout & Vassilevski, SIAM Review 1991).  Its error
    operator is (I - S A) Pi (I - S A), with S the Jacobi step and Pi the
    A-orthogonal projection off the coarse space, so the cycle is
    symmetric, and positive definite while S A's spectral radius is below 2
    (see JACOBI_WEIGHT): the Ritz values of the cycle times A lie in (0, 1].
    P, P^T and the Jacobi weights are built once; each preconditioner the
    builder returns keeps the KrylovLog of its solve, and apply(r) runs cg
    on A from 0, aiming at AIM * tol ||r||.
    """
    a, kp = disc.velocity_system.matrix, disc.pressure_factor
    free = np.ones(disc.np_)
    free[disc.pressure_system.fixed] = 0.0
    p = fem.prolongation(disc.vspace, disc.pspace) @ sps.diags(free)
    pt = p.T.tocsr()
    smooth = JACOBI_WEIGHT / a.diagonal()

    def cycle(r):
        x = smooth * r
        x += p @ kp.solve(pt @ (r - a @ x))
        x += smooth * (r - a @ x)
        return x

    def precond():
        log = KrylovLog()
        return Preconditioner(
            "cg[two_level(A, Kp)]",
            lambda r: cg(a.dot, cycle, r, AIM * tol * norm(r), log), (kp,), log)

    return precond


@np.errstate(over="ignore", invalid="ignore")
def _lifted(lift: sps.csr_matrix, fixed: np.ndarray, load: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """The right-hand side of an eliminated system: load minus the lift of
    the fixed values, and the values themselves in the fixed rows; not
    finite where an overflowing eps made it so, which solve refuses."""
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
    disc = _discretization(inp, disc)
    _require_compatible(inp)
    nu = disc.nu
    system = disc.stokes_system

    rhs = np.zeros(nu + disc.np_)
    rhs[:nu] = disc.velocity_load(inp.body_force).ravel()
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    x, report = _solve_fixed(
        system, rhs, np.append(u_vals, 0.0), tol,    # pressure gauge: p dof = 0
        lambda: _schur_reduction(disc, system, "Mp", tol))

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
    evaluated at quadrature points.  Each velocity component is solved with
    A's factor if disc holds it already (S, ES or the 1/eps series ran on
    disc), and otherwise by CG with _two_level, which factors nothing
    beyond Kp.  The one report covers the three solves: the worst
    residual, their histories in order, their wall times summed, the
    distinct factors they applied, and the extreme Ritz values of the two
    velocity solves, () when A's factor solved them.
    """
    start = time.perf_counter()
    disc = _discretization(inp, disc)
    _require_compatible(inp)
    if inp.p_bc is None:
        raise ValueError("pressure boundary data is required")

    _, p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    p_coeff, report = _solve_fixed(         # the solve factors Kp on first use
        disc.pressure_system, disc.pressure_load(inp.body_force), p_vals, tol,
        lambda: Preconditioner("Kp", disc.pressure_factor.solve,
                               (disc.pressure_factor,)))
    reports = [report]
    p = Field(disc.pspace, p_coeff)

    f = (disc.velocity_load(inp.body_force)
         - fem.assemble_field_grad_load(disc.vspace, p))
    _, u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    if "velocity_factor" in vars(disc):     # reading it would factor A
        vel = disc.velocity_factor
        factors = (disc.pressure_factor, vel)
        velocity = partial(Preconditioner, "A", vel.solve, (vel,))
    else:
        factors = (disc.pressure_factor,)
        velocity = _two_level(disc, tol)
    u_coeff = np.empty_like(f)
    for c in (0, 1):          # one scalar solve per velocity component
        u_coeff[:, c], report = _solve_fixed(
            disc.velocity_system, f[:, c], u_vals[:, c], tol, velocity)
        reports.append(report)

    ritz = [v for r in reports[1:] for v in r.ritz]
    return SolveResult(u=Field(disc.vspace, u_coeff), p=p, problem="PP",
                       epsilon=None, report=SolverReport.from_factors(
                           f"Kp; {report.method}",
                           max(r.rel_residual for r in reports),
                           [h for r in reports for h in r.residual_history],
                           sum(r.wall_time for r in reports), factors, start,
                           (min(ritz), max(ritz)) if ritz else ()))


@one_blas_thread()
def solve_es(inp: ProblemInput, disc: Discretization = None,
             tol: float = DEFAULT_TOL) -> SolveResult:
    """Coupled solve of the epsilon-scaled system.

    The gradient block is -D^T, so the discrete integration-by-parts
    identity holds on the free dofs by construction and the energy argument
    behind the asymptotic estimates carries over verbatim.
    """
    disc = _discretization(inp, disc)
    eps = inp.epsilon
    _check_epsilons([eps])
    values = _coupled_values(disc, inp)
    system = disc.coupled_system(eps)
    x, report = _solve_fixed(
        system, _coupled_load(disc, inp, eps), values, tol,
        lambda: _schur_reduction(disc, system, "eps*Kp + Mp", tol))
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


@np.errstate(over="ignore")
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
    (M + N/eps) x = b0 + b1/eps.  M = [[A, -D^T], [0, Kp]] is PP's block
    triangular operator, N holds only the divergence block D, and b1 lifts
    the velocity trace through D.  So x is the sum over k of x_k / eps^k:
    x_0, which solves M x_0 = b0, is the PP solution, and M x_k = [0; r_k]
    for k >= 1, where r_k is the divergence of the velocity of x_(k-1),
    negated, on the free pressure rows (for k = 1 the velocity trace in x_0
    brings in b1).  Each term is one Kp solve and one two-column A solve
    with the factors of Kp and A, and the terms serve every eps.  x_0 is
    pp, solve_pp's result for inp on disc; if not given, it is solved here
    once A is factored, so with A's factor.  An ES solution minus PP's is
    then its terms k >= 1 up to one rounding.

    The terms x_0 ... x_K leave exactly the residual r_(K+1) / eps^K in the
    pressure rows of ES(eps), so each eps takes terms until that is
    AIM * tol of its ||b||, as the Krylov solves aim.  An eps
    whose bound, shrinking at the measured term ratio, cannot get there
    within SERIES_TERMS terms, or whose sum then misses tol in the true
    residual ||b - ES(eps) x|| / ||b|| (with the system and right-hand side
    solve_es would solve, bit for bit), is solved by solve_es.
    inp.epsilon is not read.  See EpsSweep for the results.
    """
    disc = _discretization(inp, disc)
    eps_list = list(eps_list)
    _check_epsilons(eps_list)
    return EpsSweep(inp, eps_list, disc, tol, pp)


class EpsSweep:
    """The ES solutions of solve_es_sweep and the series terms behind them.

    Construction computes the terms, x_0 and x_1 always and then one more
    while any eps still needs it, and adds each into one running sum per
    eps.  An eps leaves the series once its residual bound meets the aim,
    or once the ratio of the last two terms shows that SERIES_TERMS terms
    will not; in the second case its sum is dropped.  An eps at or below
    that ratio, where the series diverges, leaves before its next term is
    added, so a tiny eps forms no power of 1/eps.

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
        vel = disc.velocity_factor      # the terms apply A, so PP applies it too
        pp = pp or solve_pp(inp, disc, tol)
        nu, (base, kp) = disc.nu, disc._coupled_parts
        div = base.matrix.div
        gt = div.T      # -G, a view
        # The ES right-hand side is b0 + eps * b1: load and lift are affine in
        # eps, and its fixed rows hold the values at every eps, so b1's are 0.
        b0, b_unit = (_lifted(base.lift + e * kp.lift, base.fixed,
                              _coupled_load(disc, inp, e), self.values) for e in (0.0, 1.0))
        b1 = b_unit - b0
        with np.errstate(over="ignore"):        # an overflowing b fails its check
            bnorms = {eps: max(norm(b0 + eps * b1), RESIDUAL_FLOOR)
                      for eps in eps_list}

        # r_0 is x_0's residual in the pressure rows of ES(0): -B u_0 on the
        # free rows (b0 lifts the trace) and 0 on the fixed ones.
        x = np.concatenate([pp.u.coefficients.ravel(), pp.p.coefficients])
        r = (b0 - base.matrix @ x)[nu:]
        self.r_norms = [float(np.linalg.norm(r))]
        open_ = {eps: (np.zeros(len(x)), []) for eps in bnorms}
        self.series = {}        # eps: (sum of its terms, bound after each)
        aim = AIM * tol
        for k in range(SERIES_TERMS):
            if k > 1 and not open_:
                break
            if k:               # x_k with M x_k = [0; r_k]; r becomes r_(k+1)
                p = disc.pressure_factor.solve(r)
                u = _solve_velocity(vel, gt @ p)
                x = np.concatenate([u, p])
                r = -(div @ u)
                self.r_norms.append(float(np.linalg.norm(r)))
            left = SERIES_TERMS - 1 - k
            for eps, (total, bounds) in list(open_.items()):
                if k and self.term_ratio >= eps:     # diverges; 1/eps^k may overflow
                    del open_[eps]
                    continue
                total += eps ** -k * x
                bound = eps ** -k * self.r_norms[k] / bnorms[eps]
                bounds.append(bound)
                if bound <= aim:
                    self.series[eps] = open_.pop(eps)
                elif left == 0 or (k and bound * (self.term_ratio / eps) ** left > aim):
                    del open_[eps]
        self.start, self.elapsed = start, time.perf_counter() - start

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
        meets tol in the ES residual; else None.

        The residual is that of solve_es's system and right-hand side, bit
        for bit: ES(eps) is summed as coupled_system sums it, which costs
        its P1 pressure block and its lift, and is dumped inside
        dump_matrices.
        """
        if eps not in self.series:
            return None
        check = time.perf_counter()
        disc, (x, bounds) = self.disc, self.series[eps]
        system = _at_eps(disc._coupled_parts, eps)
        x[system.fixed] = self.values
        # an overflowing eps leaves b or the product not finite: it fails the check
        b = _lifted(system.lift, system.fixed, _coupled_load(disc, self.inp, eps),
                    self.values)
        res = product_residual(system.matrix @ x, b)
        if not res <= self.tol:
            return None
        dump_solved(system.matrix)
        return _coupled_result(disc, x, eps, SolverReport.from_factors(
            "series[Kp, A]", res, bounds,
            time.perf_counter() - check + (self.elapsed if first else 0.0),
            (disc.pressure_factor, disc.velocity_factor),
            self.start if first else check))


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
