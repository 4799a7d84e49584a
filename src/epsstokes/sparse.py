"""Linear solution of the assembled sparse systems.

Every system takes one path, solve: x = M b with a preconditioner M, and
the true relative residual ||b - A x|| / ||b|| checked against TOL, the
one residual contract.  A preconditioner is a factor of the matrix itself,
or it runs a Krylov solve of its own, aiming below TOL, and keeps that
solve's steps in a KrylovLog.  The one Krylov method is this module's own: cg,
the preconditioned conjugate gradient method (Hestenes & Stiefel, 1952)
for a symmetric positive definite operator and preconditioner, which keeps
five vectors and no orthogonalization, and can deflate one coarse vector.
A factor is SuperLU of the matrix as given, in symmetric mode: a
minimum-degree ordering of the pattern of A + A^T (multiple minimum degree;
Liu, ACM TOMS 1985), applied to rows and columns alike, with diagonal
pivots preferred.  Every matrix the drivers factor, A, Kp and ES's Schur
preconditioner eps*Kp + Mp, is symmetric positive
definite, and such a matrix factored on its diagonal has no pivot growth
for a scaling to bound (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 10), so none is applied.

That ordering breaks ties by input label, so on the FE numbering its fill
depended on luck: A's factor held 5.45M entries at n = 96 but 5.29M at
n = 128.  A factor therefore first relabels the matrix by reverse
Cuthill-McKee (Cuthill & McKee, 1969) before minimum degree runs.  The
caller passes the order, and the drivers pass the RCM order of the cell
graph of the matrix's space, which joins every two nodes that share a cell
(fem.cell_order).  Assembly stores no round-off of exact zeros
(fem._scatter), so A's stored pattern lacks pairs that its cells couple,
and RCM on that pattern filled A's factor 23% more on a jittered n = 96
mesh and 25% more at n = 128 than the cell graph does.
With the cell graph, A's factor holds 1.75M entries at n = 96, against
5.45M under the FE labels.

A system is a CSR matrix, or a SaddleSystem: the saddle-point matrix
[[kron(A, I2), -D^T], [D, C]] of Stokes and ES, held as its three blocks,
the scalar A applied to each velocity component and D as a coupling whose
fixed pressure rows a 0/1 mask zeroes in each product.  solve takes it as an
operator: it checks each block for non-finite entries, and its residual
product runs block by block.  The one CSR matrix is assembled only to be
written inside dump_matrices, by placed, which puts each block's entries at
their rows and columns; no monolithic matrix and no kron(A, I2) is built
otherwise.

solve always takes a preconditioner.  The drivers pass preconditioners
built from the factors that one Discretization keeps for its mesh, so a
sweep factors the shared blocks once.  For Stokes and ES the preconditioner
runs cg on the pressure Schur complement, which is symmetric positive
definite since the gradient block is -D^T, deflating the coarse vector of
the free pressure dofs; for a PP velocity component on a Discretization
without A's factor it runs cg on A, preconditioned by a two-level cycle on
the factor of Kp (see drivers).  A preconditioner that misses TOL fails
the solve: no Krylov solve runs around another one, or
around an inexact factor.

A solve runs numpy's BLAS on one thread.  Full-length Krylov vectors at
n = 40 are past OpenBLAS's threading cut-off for dot products, and the
woken second thread busy-waits: it doubled the CPU time and saved no wall
time.  SuperLU calls scipy's own OpenBLAS, a separate library.  Its worker
threads start when scipy is loaded and busy-wait before they sleep: 9
ticks of CPU in the 0.5 s after scipy is imported into an idle process,
60-80 ms of which fell inside perfbench's timed eps sweep.  Importing this
module therefore stops them once, by that library's blas_thread_shutdown_;
where SuperLU links no such symbol nothing is done.  OpenBLAS re-creates
the pool when a call needs it, which SuperLU's calls here never do.
scipy's thread count is never set: setting it to 1 leaves a spinning
worker spinning, and after a stop it re-creates the pool, which spins
again.

Residual norms fail closed.  norm takes the plain 2-norm and rescales by the
largest entry only where that overflows, so a finite norm keeps its bits; a
right-hand side or matrix with a non-finite entry is refused, and a residual
whose norm is not finite fails the gate.

A solve, and each factorization, first hands the C heap's free pages back to
the operating system (glibc's malloc_trim), and so does a Discretization
once it has assembled its blocks.  SuperLU's work arrays and the assembly
temporaries are freed into that heap, which otherwise shrinks only from its
top, so how much of them stayed resident depended on allocation order: the
peak memory of the acceptance battery varied by 15 MiB from one process to
the next.
"""

from __future__ import annotations

import ctypes
import contextvars
import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse as sps
from scipy.sparse.linalg import splu

TOL = 1e-10            # the relative residual every solve meets
RESIDUAL_FLOOR = 1e-300
ORDERING = "rcm+mmd_at_plus_a"     # the ordering a factor runs, as reported
PERMC_SPEC = "MMD_AT_PLUS_A"        # SuperLU's part of it
# The Krylov solves and the 1/eps series of drivers aim this far below TOL,
# as close to a direct solve as round-off allows; only TOL itself is
# enforced.
# Verify's criterion 8 bounds its gradient-forcing deviation by 1e-9: aims of
# 1e-1, 1e-2 and 1e-4 times TOL left 1.7e-9, 2.2e-10 and 4.3e-13.
AIM = 1e-4
_MAX_STEPS = 800     # steps one cg call takes at most; Stokes needs about 28

# (prefix, counter) of the active dump_matrices block, or None.
_DUMP_SINK = contextvars.ContextVar("epsstokes_dump_sink", default=None)
# Names of OpenBLAS's thread-count functions in the builds numpy ships with.
_BLAS_THREAD_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@contextmanager
def dump_matrices(prefix):
    """Write every matrix solved inside the block to a MatrixMarket file.

    The files are <prefix>000.mtx, <prefix>001.mtx, ... in solve order:
    one per solve call, a call that then fails its gate included.  A prefix
    of None dumps nothing.  A debugging aid for --dump-matrix.
    """
    token = _DUMP_SINK.set(None if prefix is None else (prefix, itertools.count()))
    try:
        yield
    finally:
        _DUMP_SINK.reset(token)


@functools.cache
def _blas_thread_functions():
    """(get, set) of numpy's OpenBLAS thread count, or None if not found.

    dlsym on numpy's core extension also searches the libraries it links, so
    this finds the OpenBLAS numpy uses wherever its wheel keeps it.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                     # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_THREAD_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def one_blas_thread():
    """Run the block with numpy's BLAS on one thread; restore the count after.

    The count is process-wide, so blocks run concurrently in threads would
    restore each other's setting.  Without OpenBLAS this does nothing.
    Usable as a decorator; solve, the drivers and Discretization use it.
    """
    functions = _blas_thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _scipy_blas_shutdown():
    """OpenBLAS's blas_thread_shutdown_ in the build SuperLU links, or None.

    dlsym on scipy's SuperLU extension searches only the libraries it links,
    so this finds scipy's own OpenBLAS and never numpy's.
    """
    try:
        from scipy.sparse.linalg._dsolve import _superlu
        shutdown = ctypes.CDLL(_superlu.__file__).blas_thread_shutdown_
    except (ImportError, OSError, AttributeError):
        return None
    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    return shutdown


def _stop_scipy_blas_pool():
    """Stop scipy's OpenBLAS worker threads where its build can (see above)."""
    shutdown = _scipy_blas_shutdown()
    if shutdown is not None:
        shutdown()


_stop_scipy_blas_pool()


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def release_free_heap():
    """Return the free pages of the C heap to the operating system."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class SolverError(RuntimeError):
    """Linear solve failed; carries the residual that was achieved."""

    def __init__(self, message, residual=np.inf):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one linear solve.

    method names the preconditioner M of x = M b, and the Krylov method it
    runs, if any.  iterations counts the steps of that Krylov solve and
    residual_history holds, per step, its estimate of the true residual norm
    over ||b||.  For Stokes and ES those are the steps of the pressure-space
    CG inside M (see drivers), whose residual is the residual of the whole
    system, and for a PP velocity component without A's factor the steps of
    its CG on A; for a preconditioner that is a factor of the matrix itself
    there are none, and iterations is 0.  ritz holds the smallest and
    largest Ritz value of the Krylov solve, the eigenvalues of CG's Lanczos
    tridiagonal matrix, () without steps.  For Stokes and ES they are those
    of the Schur operator with the coarse vector deflated (cg; Nicolaides,
    SIAM J. Numer. Anal. 24, 1987; Saad, Yeung, Erhel & Guyomarc'h, SIAM J.
    Sci. Comput. 21, 2000).  For Stokes the largest is at most
    1 + 1/T_8(5/3) = 1 + 2/(3^8 + 3^-8), about 1.000305, the bound of its
    8 Chebyshev steps on Mp (drivers._chebyshev), and the
    smallest, no longer the pinned gauge mode the deflation removes, is the
    smallest on the data's Krylov space: beta_h^2, the discrete inf-sup
    constant squared, only if the right-hand side excites the lowest mode
    (at n = 8, ms1 reads 0.135298 where the dense beta_h^2 is 0.134095).
    For PP's two-level cycle they lie in (0, 1].  (A
    solution of the 1/eps series in drivers reports its terms and, per term,
    its residual bound instead.)  lu_nnz counts the entries SuperLU stores
    for L and U in every distinct factor the solve applied, diagonals
    included, read without copying the factors, and matrix_nnz the stored
    entries of the matrices they factored; fill is their ratio, 0 without
    factors;
    factor_time is the part of wall_time spent in factorizations made
    during this call (a factor kept from an earlier call costs nothing
    here).  from_factors builds every report a solve gives; the factor
    fields default to empty for results that did not come from a solve.
    """

    method: str
    rel_residual: float
    iterations: int
    wall_time: float
    ordering: str = ""
    lu_nnz: int = 0
    matrix_nnz: int = 0
    factor_time: float = 0.0
    residual_history: tuple = ()
    ritz: tuple = ()

    @classmethod
    def from_factors(cls, method: str, rel_residual: float, history,
                     wall_time: float, factors, since: float,
                     ritz: tuple = ()) -> SolverReport:
        """The report of a solution that applied the distinct factors given,
        one iteration per entry of history: their nnz summed, and the factor
        time of those finished at or after since, a perf_counter reading
        taken when the solution began."""
        return cls(method=method, rel_residual=rel_residual,
                   iterations=len(history), wall_time=wall_time,
                   ordering=ORDERING, lu_nnz=sum(f.nnz for f in factors),
                   matrix_nnz=sum(f.matrix_nnz for f in factors),
                   factor_time=sum((f.factor_time for f in factors
                                    if f.finished >= since), 0.0),
                   residual_history=tuple(history), ritz=ritz)

    @property
    def fill(self) -> float:
        return self.lu_nnz / self.matrix_nnz if self.matrix_nnz else 0.0


class Factor:
    """SuperLU factor of a square sparse matrix, taken as given.

    The matrix is relabelled by perm, the order given, before SuperLU orders
    it by minimum degree.  A zero row is refused.  Each step is a plain scipy
    operation that makes its own copy.  SuperLU factors one column at a
    time (panel_size 1): its default panels of several columns gave the
    same column order, fill and solutions to 3e-15, but on a jittered
    n = 128 mesh they took 401-418 ms for A against 319-373 ms and raised
    the peak RSS of factoring A by 12-21 MiB more, and of Kp by 5.5 MiB
    more.  A CSR matrix given with duplicate entries has them summed in
    place (by scipy's abs).  solve(r) applies the inverse of the matrix
    given to an (n,) or (n, k) array, gathering by perm and back by its
    inverse iperm, of perm's integer type (int32 for the drivers' RCM
    orders).  nnz is SuperLU's count of stored L and U entries and
    matrix_nnz the stored entries of the matrix given, so their ratio is
    the fill; factor_time is the wall time of the factorization and
    finished the perf_counter reading at its end.
    """

    def __init__(self, a: sps.csr_matrix, perm: np.ndarray):
        start = time.perf_counter()
        a = a.tocsr()
        row_max = abs(a).max(axis=1).toarray().ravel()
        if np.any(row_max == 0.0):
            k = int(np.argmin(row_max))
            raise SolverError(f"matrix is structurally singular: row {k} is zero")
        self.perm = perm
        self.iperm = np.empty_like(perm)
        self.iperm[perm] = np.arange(len(perm))
        csc = a.tocsc()[perm][:, perm]
        try:
            self.lu = splu(csc, permc_spec=PERMC_SPEC,
                           diag_pivot_thresh=1e-3, panel_size=1,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        del csc
        release_free_heap()        # SuperLU's work arrays are free now
        self.nnz = self.lu.nnz
        self.matrix_nnz = a.nnz
        self.finished = time.perf_counter()
        self.factor_time = self.finished - start

    def solve(self, r: np.ndarray) -> np.ndarray:
        # np.take gathers faster than fancy indexing
        rp = np.take(np.asarray(r, dtype=float), self.perm, axis=0)
        return np.take(self.lu.solve(rp), self.iperm, axis=0)


@dataclass
class KrylovLog:
    """The CG steps run for one solve: the residual norm after each step,
    and lanczos, the symmetric Lanczos tridiagonal matrix of the steps,
    whose eigenvalues are the Ritz values."""

    estimates: list = field(default_factory=list)
    lanczos: np.ndarray = None

    def ritz(self) -> tuple:
        """The smallest and largest Ritz value; () before any step, or if
        the matrix is not finite."""
        t = self.lanczos
        if t is None or not np.all(np.isfinite(t)):
            return ()
        values = np.linalg.eigvalsh(t)
        return float(values[0]), float(values[-1])


def interleaved(block: sps.csr_matrix) -> list:
    """The parts of placed that put kron(block, I2): component c of row
    node i and column node j at (2i + c, 2j + c), the layout of
    fem.vector_dofs."""
    r, c = 2 * np.arange(block.shape[0]), 2 * np.arange(block.shape[1])
    return [(block, r, c), (block, r + 1, c + 1)]


def placed(parts, shape) -> sps.csr_matrix:
    """The canonical CSR matrix of the given shape whose entries are those
    stored in the blocks of parts, a list of (block, rows, cols): entry
    (i, j) of block goes to (rows[i], cols[j]).  The places must not
    overlap; each value is copied as it is."""
    coos = [(block.tocoo(), rows, cols) for block, rows, cols in parts]
    return sps.csr_matrix(
        (np.concatenate([m.data for m, _, _ in coos]),
         (np.concatenate([rows[m.row] for m, rows, _ in coos]),
          np.concatenate([cols[m.col] for m, _, cols in coos]))), shape=shape)


class SaddleSystem(NamedTuple):
    """The saddle-point matrix [[kron(A, I2), -D^T], [D, C]], held as its
    three blocks and a pressure mask.

    velocity is the scalar A, applied to the x and the y dofs alike
    (fem.vector_dofs), and pressure the P1 block C.  D is div with its rows
    at the fixed pressure dofs masked: free is 1 on the free pressure dofs
    and 0 on the fixed ones, d(u) is free * (div @ u) and dt(p), D^T p, is
    div^T (free * p).  So systems that fix different pressure dofs can hold
    one div.  On finite input dt is D^T's product bit for bit, as a masked
    row adds only signed zeros, and d differs from D's at most in the sign
    of a zero in a masked row.  The gradient block is -D^T, applied as dt
    and subtracted; it is not stored.  system @ x multiplies block by
    block, each block's rows summed in its own stored order (D^T's in div's
    column order) and the two blocks of a row then added.  assembled() is
    the one CSR matrix, canonical, with D's masked rows dropped, built only
    to write it out (see dump_solved).  blocks are the three stored
    matrices; nnz counts their entries, A once, and indptr, indices and
    data lay their CSR arrays end to end, so a caller that sizes or
    fingerprints a solved matrix by those arrays reads what the system
    stores besides the mask.
    """

    velocity: sps.csr_matrix
    div: sps.csr_matrix
    pressure: sps.csr_matrix
    free: np.ndarray

    @property
    def blocks(self) -> tuple:
        return self.velocity, self.div, self.pressure

    @property
    def shape(self) -> tuple:
        n = self.div.shape[1] + self.pressure.shape[0]
        return n, n

    @property
    def nnz(self) -> int:
        return sum(m.nnz for m in self.blocks)

    @property
    def indptr(self) -> np.ndarray:
        return np.concatenate([m.indptr for m in self.blocks])

    @property
    def indices(self) -> np.ndarray:
        return np.concatenate([m.indices for m in self.blocks])

    @property
    def data(self) -> np.ndarray:
        return np.concatenate([m.data for m in self.blocks])

    def d(self, u: np.ndarray) -> np.ndarray:
        return self.free * (self.div @ u)

    def dt(self, p: np.ndarray) -> np.ndarray:
        return self.div.T @ (self.free * p)

    @np.errstate(over="ignore", invalid="ignore")
    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        nu = self.div.shape[1]
        u, p = x[:nu], x[nu:]
        out = np.empty(len(x))
        out[:nu] = (self.velocity @ u.reshape(-1, 2)).ravel()
        out[:nu] -= self.dt(p)
        out[nu:] = self.d(u)
        out[nu:] += self.pressure @ p
        return out

    def assembled(self) -> sps.csr_matrix:
        nu = self.div.shape[1]
        u, p = np.arange(nu), nu + np.arange(self.pressure.shape[0])
        rows = np.flatnonzero(self.free)
        d = self.div[rows]
        return placed(interleaved(self.velocity)
                      + [(-d.T, u, p[rows]), (d, p[rows], u), (self.pressure, p, p)],
                      self.shape)


class Preconditioner(NamedTuple):
    """apply(r) approximates A^-1 r using the given factors; an apply that
    runs cg itself, a Krylov solve in its own right, records its steps in
    log.  name is the method a solve reports."""

    name: str
    apply: Callable
    factors: tuple
    log: KrylovLog = None


def norm(v: np.ndarray) -> float:
    """||v||: the plain 2-norm, or where that overflows, the largest |entry|
    times the norm of v scaled by it.  Not finite if an entry is not."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(v))
    if np.isfinite(plain):
        return plain
    scale = float(np.abs(v).max())
    if not np.isfinite(scale):
        return plain
    return scale * float(np.linalg.norm(v / scale))


def product_residual(ax, b, bnorm=None) -> float:
    """||b - A x|| / ||b|| for a product ax = A x formed by the caller, the
    residual solve holds to TOL; ||b|| is floored at RESIDUAL_FLOOR, and
    bnorm, if given, is that floored norm.  inf if either norm is not
    finite, so that no gate passes it."""
    if bnorm is None:
        bnorm = max(norm(b), RESIDUAL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        rnorm = norm(b - ax)
    if not (np.isfinite(rnorm) and np.isfinite(bnorm)):
        return np.inf
    return rnorm / bnorm


def cg(op: Callable, precond: Callable, b: np.ndarray, aim: float,
       log: KrylovLog, w: np.ndarray = None) -> np.ndarray:
    """x with op(x) = b by the preconditioned conjugate gradient method.

    op and precond must be symmetric positive definite.  From x = 0, each
    step updates the residual r = b - op(x) by recurrence, and the solve
    stops once ||r|| is at most aim, after at most _MAX_STEPS steps.  Each
    step's ||r|| goes to log, and at the end the Lanczos tridiagonal matrix
    of the steps, whose eigenvalues are the Ritz values of precond(op(.))
    (Saad, Iterative Methods for Sparse Linear Systems, 2003, 6.7.3).  A
    step that finds r^T precond(r) or p^T op(p) not positive, which no SPD
    pair gives, raises SolverError.

    w, if given and not all zero, is one coarse vector deflated from the
    solve (Nicolaides, SIAM J. Numer. Anal. 24, 1987; Saad, Yeung, Erhel &
    Guyomarc'h, SIAM J. Sci. Comput. 21, 2000).  cg forms op(w) once and
    E = w^T op(w), and refuses an E that is not positive and finite; it
    starts from x = w (w^T b) / E, whose residual is orthogonal to w, and
    makes each search direction op-orthogonal to w, p = z + beta p -
    w (op(w)^T z) / E.  The stopping rule and the checks stay; the Ritz
    values are then those of precond(op(.)) on the complement of w, where
    a mode that w nearly spans no longer sets the smallest.
    """
    x, r = np.zeros_like(b), b.copy()
    if not norm(r) > aim:
        return x
    coarse = w is not None and bool(np.any(w))
    if coarse:
        sw = op(w)
        with np.errstate(over="ignore", invalid="ignore"):
            e = float(w @ sw)
        if not 0.0 < e < np.inf:
            raise SolverError(f"operator is not positive definite on the "
                              f"coarse vector: w^T A w = {e:.3e}")
        c = float(w @ b) / e
        x += c * w
        r -= c * sw
        if not norm(r) > aim:
            return x
    diag, off = [], []        # the tridiagonal matrix, by its diagonals
    shift = 0.0               # beta / alpha of the step before: part of diag
    p = rz = alpha = None
    for _ in range(_MAX_STEPS):
        z = precond(r)
        rz, last_rz = float(r @ z), rz
        if not rz > 0.0:
            raise SolverError(f"preconditioner is not positive definite: "
                              f"r^T M r = {rz:.3e}")
        if p is None:
            p = z.copy()      # precond may return r itself
        else:
            beta = rz / last_rz
            p *= beta
            p += z
            shift = beta / alpha
            off.append(np.sqrt(beta) / alpha)
        if coarse:
            p -= (float(sw @ z) / e) * w
        q = op(p)
        pq = float(p @ q)
        if not pq > 0.0:
            raise SolverError(f"operator is not positive definite: "
                              f"p^T A p = {pq:.3e}")
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        estimate = norm(r)
        log.estimates.append(estimate)
        diag.append(1.0 / alpha + shift)
        if estimate <= aim:
            break
    log.lanczos = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return x


def dump_solved(a) -> None:
    """Write a, a CSR matrix or a SaddleSystem assembled, as the next solved
    system of the active dump_matrices block, if there is one; solve calls
    it."""
    sink = _DUMP_SINK.get()
    if sink is not None:
        prefix, counter = sink
        if isinstance(a, SaddleSystem):
            a = a.assembled()
        from scipy.io import mmwrite     # only a dumping process loads it
        mmwrite(f"{prefix}{next(counter):03d}.mtx", a)


@one_blas_thread()
def solve(a, b: np.ndarray, *, precond: Callable[[], Preconditioner]):
    """Solve A x = b to a relative residual of at most TOL.

    a is a CSR matrix or a SaddleSystem, which is applied block by block.
    precond builds the preconditioner M; it is called once inside this
    solve, so factors it creates count in the report's factor_time.
    x = M b, and the report takes its method from M's name and its steps
    and Ritz values from M's log, if M runs a Krylov solve.  Raises
    SolverError if a block of the matrix or b has a non-finite entry, if a
    factorization or M's Krylov solve fails, or if ||b - A x|| <= TOL ||b||
    does not hold.  The factorization and M run with numpy's BLAS on one
    thread; the previous count is restored on return or raise.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    blocks = a.blocks if isinstance(a, SaddleSystem) else (a,)
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: matrix {a.shape}, rhs {b.shape}")
    bnorm = max(norm(b), RESIDUAL_FLOOR)
    if not np.isfinite(bnorm):
        raise SolverError("right-hand side is not finite")
    if not all(np.all(np.isfinite(m.data)) for m in blocks):
        raise SolverError("matrix is not finite")

    dump_solved(a)
    release_free_heap()
    start = time.perf_counter()
    pre = precond()
    log = KrylovLog() if pre.log is None else pre.log

    x = pre.apply(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution "
                          "(singular matrix)")
    res = product_residual(a @ x, b, bnorm)
    if not res <= TOL:
        raise SolverError(
            f"solver did not reach tol={TOL:g}; achieved residual {res:.3e}",
            residual=res)
    return x, SolverReport.from_factors(
        pre.name, res, [e / bnorm for e in log.estimates],
        time.perf_counter() - start, pre.factors, start, log.ritz())
