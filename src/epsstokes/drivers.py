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
coupling B (S and ES only), the two read-only load vectors of each body
force in one pass over the cells (Discretization.loads), each problem's
system with its Dirichlet dofs eliminated, and the factors below.
S and ES are held as their blocks (sparse.SaddleSystem): the scalar K
eliminated, which both share and apply to each velocity component, one
div, B with its velocity boundary columns masked, which both share too,
and the P1 pressure block C.  Each applies its own fixed pressure dofs,
the gauge dof or the pressure boundary, as a 0/1 mask in its D and D^T
products, and B itself is not kept.  The gradient coupling is -D^T,
applied as D^T and never stored.  No monolithic saddle matrix and no
kron(K, I2) is built, except to write one out inside sparse.dump_matrices;
PP forms no D.  ES keeps ES(0) and its Kp part, both of ES's shape, and
builds ES(eps) as two sums in new arrays, its pressure block
C(eps) = ES(0)'s + eps * Kp part's and its lift likewise.  A driver given
a Discretization refuses one built on another mesh than its input's.

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
component meeting TOL against its own right-hand side.  The Kp solve is
direct.  A velocity solve is direct too if the Discretization already
holds A's factor.  Otherwise PP factors nothing more: the
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
preconditioned by (C + Mp)^-1 with the fixed pressure dofs eliminated, by
its factor, or by k Chebyshev steps when C = 0 (Elman, Silvester & Wathen,
Finite Elements and Fast Iterative Solvers, 2014; Mardal & Winther, NLAA
2011; Wathen & Rees, ETNA 34, 2009): ES factors eps*Kp + Mp, and Stokes,
whose gauge row stays an identity row, takes CHEB_STEPS = 8 Chebyshev
steps on diag(Mp) and factors nothing but A.  The report names the branch
taken, cheb8(Mp) or eps*Kp + Mp, not the caller.  CG deflates the
coarse vector that is 1 on the free pressure dofs and 0 on the fixed ones
(Nicolaides, SIAM J. Numer. Anal. 24, 1987), which nearly spans S's one
soft mode, whose eigenvalue for Stokes shrinks like h^2: it takes S at
n = 40 from 32 steps to 26, and S's smallest Ritz value is then the
smallest on the data's Krylov space, beta_h^2 only if the data excite
the lowest mode (sparse.SolverReport).  One velocity solve then recovers
u.  D and C are the solved system's own blocks.  A Krylov step is one
two-column A solve, one factor solve or 7 products with Mp, and three
sparse products on vectors of pressure length: at n = 40, 1.7k entries
where the whole system has 14.8k.  sparse.solve checks x against the
system block by block.

For large epsilon, ES is PP plus a series in 1/eps.  solve_es_sweep
computes its terms once, up front, each one Kp solve and one two-column A
solve with the factors of Kp and A, into one running sum per epsilon.  The
series converges for eps above the ratio of successive terms, about 0.02
on the unit square.  ES has one solve path, _solve_coupled: ES(eps), its
load and fixed values through sparse.solve, preconditioned by the Schur
reduction for solve_es and by the sum when iterating the sweep.  An
epsilon the series cannot reach within SERIES_TERMS terms, or whose sum
misses solve's gate, is solved by solve_es when its turn comes.

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
from .sparse import (AIM, RESIDUAL_FLOOR, TOL, Factor, KrylovLog, Preconditioner,
                     SaddleSystem, SolverError, SolverReport, cg, interleaved,
                     norm, one_blas_thread, placed, release_free_heap, solve)

COMPATIBILITY_TOL = 1e-8
GAUGE_DOF = 0          # the pressure dof pinned in the Stokes solve
PROBLEMS = ("S", "PP", "ES")
SERIES_TERMS = 16      # most terms of the 1/eps series one sweep computes
# Chebyshev steps on diag(Mp) that precondition S's pressure Schur CG in
# place of a factor of Mp (_chebyshev).  S took 23, 25, 26, 27 and 28 steps
# on ms1-mismatch at n = 8 to 128 with 8, as with the factor but for 1 more
# at n = 32; with 4 it took up to 1 more than with 8.
CHEB_STEPS = 8
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
    SaddleSystem whose A and C are so eliminated and whose D has nothing in
    the fixed columns and masks the fixed rows (ES's Kp part, which is
    added to ES(0)'s pressure block, has 0 there); lift holds the system's
    columns at those dofs, which carry the fixed values to the right-hand
    side (ES's Kp part has entries in its pressure rows only).
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


class Discretization:
    """Taylor-Hood spaces and the epsilon-independent operator blocks.

    Construction assembles the P2 stiffness K of one velocity component and
    the P1 stiffness Kp but keeps only PP's two stages, velocity_system and
    pressure_system: each matrix with its boundary fixed, and its columns
    there as lift, which together hold all of K or Kp.  It also assembles
    the pressure mean, then hands the C heap's free pages back
    (sparse.release_free_heap).  The coupling B, split at the velocity
    boundary (_div_parts), the mass matrices Mp and M2, the read-only load
    pair of each body-force callable (loads: velocity and pressure, one
    pass over the cells), S's and ES's systems, the cell orders of the two
    spaces and the factors A and Kp are built on first use and live as
    long as the Discretization.
    PP alone builds no factor of A: it is in vars() once S, ES or the 1/eps
    series has used it, and solve_pp uses it then.

    S and ES are SaddleSystems: their velocity block is velocity_system's
    matrix, the scalar K eliminated, and their div is B with its velocity
    boundary columns masked; both share the two.  Each masks its own fixed
    pressure dofs in D, whose negated transpose is its gradient block.  ES
    keeps two parts of one shape, ES(0) and its Kp part, which store
    disjoint entries: coupled_system(eps) sums the P1 pressure block and
    the lift, ES(0)'s + eps * Kp part's, each sum exact and in new arrays.
    The blocks and the mask it shares with ES(0) are read-only, so nothing
    done to a returned system reaches the cache.
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
    def _div_parts(self) -> tuple[sps.csr_matrix, sps.csr_matrix]:
        """The coupling B split at the velocity boundary: div, B with those
        columns masked, the D that S and ES share, read-only; and B's
        columns there, which their lifts carry.  B itself is not kept."""
        b = fem.assemble_div_coupling(self.vspace, self.pspace)
        fixed_u = fem.vector_dofs(self.velocity_system.fixed)
        return _frozen(fem.masked(b, [], fixed_u)), b[:, fixed_u]

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
        and of every Schur factor."""
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
        dofs fixed_p fixed, as its blocks: velocity_system's matrix, the
        shared div masked at fixed_p (SaddleSystem.free), and 1 at fixed_p
        in the pressure block.  The lift is the system's columns at the
        fixed dofs: velocity_system's lift per component, then -D^T's, and
        B's velocity boundary columns.  -D^T's lift has nothing in the
        velocity boundary rows, where G differs from -B^T anyway and which
        _lifted overwrites."""
        vel, nu, n_p = self.velocity_system, self.nu, self.np_
        div, div_bnd = self._div_parts
        n_fu = div_bnd.shape[1]
        free = np.ones(n_p)
        free[fixed_p] = 0.0
        free.setflags(write=False)
        pressure = fem.eliminate(sps.csr_matrix((n_p, n_p)), fixed_p)
        lift = placed(interleaved(vel.lift)
                      + [(-div[fixed_p].T, np.arange(nu), n_fu + np.arange(len(fixed_p))),
                         (div_bnd, nu + np.arange(n_p), np.arange(n_fu))],
                      (nu + n_p, n_fu + len(fixed_p)))
        return Eliminated(SaddleSystem(_frozen(vel.matrix), div, _frozen(pressure), free),
                          lift, np.concatenate([fem.vector_dofs(vel.fixed), fixed_p + nu]))

    @np.errstate(over="ignore")
    def coupled_system(self, eps: float) -> Eliminated:
        """[[K, -D^T], [D, eps*Kp]] with both boundaries fixed: ES(0) plus eps
        times its Kp part, in the pressure block and in the lift.  The parts
        store disjoint entries, so each sum is exact, and it is in new
        arrays; A and D are ES(0)'s own, read-only.  An eps whose scaling
        overflows leaves inf entries, which solve refuses."""
        base, kp = self._coupled_parts
        return Eliminated(base.matrix._replace(pressure=base.matrix.pressure + eps * kp.matrix),
                          base.lift + eps * kp.lift, base.fixed.copy())

    @cached_property
    def _coupled_parts(self) -> tuple[Eliminated, Eliminated]:
        """ES(0), and ES's Kp part: pressure_system's matrix without the
        pressure boundary's unit diagonal, the part of ES's pressure block,
        and as its lift pressure_system's, Kp's columns there, placed in
        ES's pressure rows and the pressure boundary's columns of a matrix
        of ES(0)'s lift's shape."""
        pbnd, kp = self.pspace.boundary_nodes, self.pressure_system
        base = self._saddle_system(pbnd)
        n_fu = len(base.fixed) - len(pbnd)
        lift = placed([(kp.lift, self.nu + np.arange(self.np_), n_fu + np.arange(len(pbnd)))],
                      base.lift.shape)
        return base, Eliminated(_frozen(fem.masked(kp.matrix, pbnd, pbnd)), lift,
                                base.fixed)

    def loads(self, body_force) -> tuple[np.ndarray, np.ndarray]:
        """The read-only loads of body_force: its (x, y) rows against the P2
        basis, and its vector against the pressure gradients, built together
        by one pass over the cells on first use (fem.assemble_body_force_loads)."""
        loads = self._loads.get(body_force)
        if loads is None:
            loads = fem.assemble_body_force_loads(self.vspace, self.pspace, body_force)
            for vec in loads:
                vec.setflags(write=False)
            self._loads[body_force] = loads
        return loads


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


def _schur_reduction(disc: Discretization, system: Eliminated) -> Preconditioner:
    """Solve by reduction to the pressure Schur complement, with the blocks
    of the solved SaddleSystem [[A, -D^T], [D, C]].

    apply(r) takes z = A^-1 r_u, then solves S p = r_p - D z for the
    symmetric positive definite S = C + D A^-1 D^T by cg, aiming at
    AIM * TOL ||r||, and returns [A^-1 (r_u + D^T p), p].  Its residual is
    that of the pressure solve, so x = M b meets TOL, and CG runs on
    pressure-length vectors only.

    The CG is preconditioned by (C + Mp)^-1, with the fixed pressure dofs
    eliminated: by its factor, or by CHEB_STEPS Chebyshev steps
    (_chebyshev) when C = 0, which is read off the solved block: C stores
    nothing but the unit rows of the fixed dofs, one entry per fixed dof.
    So Stokes applies the Chebyshev steps on Mp and factors nothing, and ES
    factors eps*Kp + Mp.
    The report names the branch taken, not the caller's problem:
    cg[schur(A, cheb8(Mp))] when C = 0, ES(0) included, and
    cg[schur(A, eps*Kp + Mp)] when C + Mp is factored.

    cg deflates the coarse vector 1 on the free pressure dofs and 0 on the
    fixed ones, which nearly spans S's one soft mode: for Stokes a
    near-constant pressure that only the pinned gauge dof holds, and for ES
    at small eps one nearly constant inside that drops to 0 at the boundary.
    """
    nu, vel, m = disc.nu, disc.velocity_factor, system.matrix
    div, block, free = m.div, m.pressure, m.free
    gt = div.T      # a view, made once: D^T q is m.dt(q), gt @ (free * q)
    fixed_p = system.fixed[system.fixed >= nu] - nu
    c_mp = fem.eliminate(block + disc.mass_p, fixed_p)
    if block.nnz > len(fixed_p):        # C has free entries
        schur = Factor(c_mp, disc.pressure_order)
        name, precond, factors = "eps*Kp + Mp", schur.solve, (vel, schur)
    else:
        name, precond, factors = f"cheb{CHEB_STEPS}(Mp)", _chebyshev(c_mp), (vel,)
    log = KrylovLog()

    def schur_op(q):
        return block @ q - free * (div @ _solve_velocity(vel, -(gt @ (free * q))))

    def apply(r):
        r_u = r[:nu]
        z = _solve_velocity(vel, r_u)
        p = cg(schur_op, precond, r[nu:] - m.d(z), AIM * TOL * norm(r), log, free)
        return np.concatenate([_solve_velocity(vel, r_u + m.dt(p)), p])

    return Preconditioner(f"cg[schur(A, {name})]", apply, factors, log)


def _chebyshev(mass: sps.csr_matrix) -> Callable:
    """r -> z after k = CHEB_STEPS steps of Chebyshev semi-iteration on
    mass z = r from z = 0, preconditioned by diag(mass), for the eigenvalues
    of diag(mass)^-1 mass in [1/2, 2].

    Those are the bounds of a P1 mass matrix on triangles of any shape
    (Wathen, IMA J. Numer. Anal. 7, 1987), and eliminating dofs keeps them,
    a unit row adding the eigenvalue 1.  z = P r for a fixed polynomial in
    diag(mass)^-1 mass times diag(mass)^-1, so P is symmetric, and the
    eigenvalues of P mass lie within 1/T_k(5/3) = 2 / (3^k + 3^-k) of 1,
    T_k the Chebyshev polynomial: P is symmetric positive definite, as cg
    needs (Golub & Varga, Numer. Math. 3, 1961; Wathen & Rees, ETNA 34,
    2009).  A step past the first costs one product with mass, and nothing
    is factored.
    """
    scale = 1.0 / mass.diagonal()
    center, half = 1.25, 0.75       # of the interval [1/2, 2]

    def apply(r):
        d = (scale / center) * r
        z, res, rho = d.copy(), r.copy(), half / center
        for _ in range(CHEB_STEPS - 1):
            res -= mass @ d
            rho, last = 1.0 / (2.0 * center / half - rho), rho
            d *= rho * last
            d += (2.0 * rho / half) * (scale * res)
            z += d
        return z

    return apply


def _two_level(disc: Discretization) -> Callable[[], Preconditioner]:
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
    on A from 0, aiming at AIM * TOL ||r||.
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
            lambda r: cg(a.dot, cycle, r, AIM * TOL * norm(r), log), (kp,), log)

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
                 precond) -> tuple[np.ndarray, SolverReport]:
    """Solve an eliminated system, lifting and restoring the fixed values."""
    x, report = solve(system.matrix,
                      _lifted(system.lift, system.fixed, load, values),
                      precond=precond)
    x[system.fixed] = values
    return x, report


@one_blas_thread()
def solve_stokes(inp: ProblemInput, disc: Discretization = None) -> SolveResult:
    """Velocity-pressure saddle solve with zero-mean pressure gauge.

    The first pressure dof is pinned to zero with the velocity Dirichlet
    dofs, then the pressure is shifted to zero discrete mean: the solution
    of a mean-value Lagrange multiplier, without its dense row and column.
    """
    disc = _discretization(inp, disc)
    _require_compatible(inp)
    nu = disc.nu
    system = disc.stokes_system
    values = np.append(fem.interpolate_boundary(disc.vspace, inp.u_bc), 0.0)  # gauge p = 0
    x, report = _solve_fixed(system, _coupled_load(disc, inp, 0.0),  # ES's load at eps = 0
                             values, partial(_schur_reduction, disc, system))

    p = x[nu:]
    p -= (disc.mean_p @ p) / disc.mean_p.sum()
    return SolveResult(u=Field(disc.vspace, x[:nu].reshape(-1, 2)),
                       p=Field(disc.pspace, p),
                       problem="S", epsilon=None, report=report)


@one_blas_thread()
def solve_pp(inp: ProblemInput, disc: Discretization = None) -> SolveResult:
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

    velocity_load, pressure_load = disc.loads(inp.body_force)
    p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    p_coeff, report = _solve_fixed(         # the solve factors Kp on first use
        disc.pressure_system, pressure_load, p_vals,
        lambda: Preconditioner("Kp", disc.pressure_factor.solve,
                               (disc.pressure_factor,)))
    reports = [report]
    p = Field(disc.pspace, p_coeff)

    f = velocity_load - fem.assemble_field_grad_load(disc.vspace, p)
    u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    if "velocity_factor" in vars(disc):     # reading it would factor A
        vel = disc.velocity_factor
        factors = (disc.pressure_factor, vel)
        velocity = partial(Preconditioner, "A", vel.solve, (vel,))
    else:
        factors = (disc.pressure_factor,)
        velocity = _two_level(disc)
    u_coeff = np.empty_like(f)
    for c in (0, 1):          # one scalar solve per velocity component
        u_coeff[:, c], report = _solve_fixed(
            disc.velocity_system, f[:, c], u_vals[:, c], velocity)
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
def solve_es(inp: ProblemInput, disc: Discretization = None) -> SolveResult:
    """Coupled solve of the epsilon-scaled system.

    The gradient block is -D^T, so the discrete integration-by-parts
    identity holds on the free dofs by construction and the energy argument
    behind the asymptotic estimates carries over verbatim.
    """
    disc = _discretization(inp, disc)
    _check_epsilons([inp.epsilon])
    return _solve_coupled(disc, inp, inp.epsilon, _coupled_values(disc, inp),
                          partial(_schur_reduction, disc))


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
    u_vals = fem.interpolate_boundary(disc.vspace, inp.u_bc)
    p_vals = fem.interpolate_boundary(disc.pspace, inp.p_bc)
    return np.concatenate([u_vals.ravel(), p_vals])


@np.errstate(over="ignore")
def _coupled_load(disc: Discretization, inp: ProblemInput, eps: float) -> np.ndarray:
    """The ES load at eps: the velocity load, then eps times the pressure one."""
    velocity, pressure = disc.loads(inp.body_force)
    return np.concatenate([velocity.ravel(), eps * pressure])


def _solve_coupled(disc: Discretization, inp: ProblemInput, eps: float, values: np.ndarray,
                   precond: Callable[[Eliminated], Preconditioner]) -> SolveResult:
    """The one ES solve path: ES(eps) with inp's load at eps and the fixed
    values, solved by sparse.solve with precond(system): the Schur reduction
    for solve_es, a 1/eps series sum for EpsSweep."""
    system = disc.coupled_system(eps)
    x, report = _solve_fixed(system, _coupled_load(disc, inp, eps), values,
                             lambda: precond(system))
    nu = disc.nu
    return SolveResult(u=Field(disc.vspace, x[:nu].reshape(-1, 2)),
                       p=Field(disc.pspace, x[nu:]),
                       problem="ES", epsilon=eps, report=report)


def solve_es_sweep(inp: ProblemInput, eps_list, disc: Discretization = None,
                   pp: SolveResult = None) -> EpsSweep:
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
    AIM * TOL of its ||b||, as the Krylov solves aim.  An eps
    whose bound, shrinking at the measured term ratio, cannot get there
    within SERIES_TERMS terms, or whose sum then misses sparse.solve's gate
    on solve_es's own path (_solve_coupled), is solved by solve_es.
    inp.epsilon is not read.  See EpsSweep for the results.
    """
    disc = _discretization(inp, disc)
    eps_list = list(eps_list)
    _check_epsilons(eps_list)
    return EpsSweep(inp, eps_list, disc, pp)


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
    eps the series solved, as one sparse.solve call returns it, and
    otherwise, or if the sum misses solve's gate, solve_es's solution,
    solved when the iteration reaches it.  A series report is that call's:
    method "series[Kp, A]", the number of terms as its iterations, the
    residual bound after each term as its history and the true residual;
    the first one's wall_time and factor_time also include the shared
    terms.  Inside dump_matrices every solve call writes its system, so an
    eps whose sum misses the gate writes two.

    term_ratio is ||r_(k+1)|| / ||r_k|| at the last term computed: the eps
    below which the series diverges.  It is 0 when r_k is 0, as every later
    term is then 0 too.
    """

    @one_blas_thread()
    def __init__(self, inp: ProblemInput, eps_list: list, disc: Discretization,
                 pp: SolveResult = None):
        start = time.perf_counter()
        self.inp, self.eps_list, self.disc = inp, eps_list, disc
        self.values = _coupled_values(disc, inp)
        vel = disc.velocity_factor      # the terms apply A, so PP applies it too
        pp = pp or solve_pp(inp, disc)
        nu, (base, kp) = disc.nu, disc._coupled_parts
        m = base.matrix
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
        r = (b0 - m @ x)[nu:]
        self.r_norms = [float(np.linalg.norm(r))]
        open_ = {eps: (np.zeros(len(x)), []) for eps in bnorms}
        self.series = {}        # eps: (sum of its terms, residual norm after each)
        aim = AIM * TOL
        for k in range(SERIES_TERMS):
            if k > 1 and not open_:
                break
            if k:               # x_k with M x_k = [0; r_k]; r becomes r_(k+1)
                p = disc.pressure_factor.solve(r)
                u = _solve_velocity(vel, m.dt(p))
                x = np.concatenate([u, p])
                r = -m.d(u)     # 0 on the fixed rows, masked
                self.r_norms.append(float(np.linalg.norm(r)))
            left = SERIES_TERMS - 1 - k
            for eps, (total, norms) in list(open_.items()):
                if k and self.term_ratio >= eps:     # diverges; 1/eps^k may overflow
                    del open_[eps]
                    continue
                total += eps ** -k * x
                norms.append(eps ** -k * self.r_norms[k])
                bound = norms[-1] / bnorms[eps]
                if bound <= aim:       # fixed entries: the values themselves
                    self.series[eps] = open_.pop(eps)
                    total[base.fixed] = self.values
                elif left == 0 or (k and bound * (self.term_ratio / eps) ** left > aim):
                    del open_[eps]
        self.factors = (disc.pressure_factor, vel)
        self.elapsed = time.perf_counter() - start
        self.factor_time = sum(f.factor_time for f in self.factors if f.finished >= start)

    @property
    def term_ratio(self) -> float:
        return self.r_norms[-1] / self.r_norms[-2] if self.r_norms[-2] else 0.0

    def __iter__(self) -> Iterator[SolveResult]:
        first = True
        for eps in self.eps_list:
            res = self._summed(eps, first)
            first = first and res is None
            yield res or solve_es(replace(self.inp, epsilon=eps), self.disc)

    def _summed(self, eps: float, first: bool):
        """The series SolveResult of eps, by solve_es's path with a
        preconditioner that returns the sum, its log the residual bound
        after each term; None if the series left eps or the sum misses the gate."""
        if eps not in self.series:
            return None
        total, norms = self.series[eps]
        series = Preconditioner("series[Kp, A]", lambda b: total, self.factors,
                                KrylovLog(norms))
        try:
            res = _solve_coupled(self.disc, self.inp, eps, self.values, lambda _: series)
        except SolverError:         # the sum misses the gate: solve_es solves eps
            return None
        if first:
            res.report = replace(res.report, wall_time=res.report.wall_time + self.elapsed,
                                 factor_time=res.report.factor_time + self.factor_time)
        return res


def solve_problem(name: str, inp: ProblemInput,
                  disc: Discretization = None) -> SolveResult:
    """Solve problem `name`, one of PROBLEMS, with its driver."""
    if name == "S":
        return solve_stokes(inp, disc)
    if name == "PP":
        return solve_pp(inp, disc)
    if name == "ES":
        return solve_es(inp, disc)
    raise ValueError(f"unknown problem {name!r}; expected one of {PROBLEMS}")
