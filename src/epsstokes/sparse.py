"""Linear solution of the assembled sparse systems.

Every system takes one path: GMRES on the assembled matrix against a
preconditioner built from sparse LU factors, restarted until the true
relative residual ||b - A x|| / ||b|| meets the requested tolerance.  A
factor is SuperLU of the row-equilibrated matrix in symmetric mode: a
minimum-degree ordering of the pattern of A + A^T (multiple minimum degree;
Liu, ACM TOMS 1985), applied to rows and columns alike, with diagonal
pivots preferred.

That ordering breaks ties by input label, so on the FE numbering its fill
depended on luck: A's factor held 5.45M entries at n = 96 but 5.29M at
n = 128.  A factor therefore first relabels the matrix by reverse
Cuthill-McKee on the stored pattern of A + A^T (Cuthill & McKee, 1969), and
drops the scaled entries below DROP_TOL, the round-off that assembly leaves
where an integral is exactly 0, before minimum degree runs.  Either step
alone filled more than the FE labels did at n = 64 (1.10x and 1.06x);
together they cut A's factor to 0.67-0.80x on jittered meshes and to 0.34x
at n = 96.  RCM sees the pattern before the drop: on the dropped one,
jittered fill was 0.84-0.89x.  A factor stays a preconditioner: GMRES
checks the true matrix, so the drop costs no accuracy.

Without a preconditioner, solve factors the matrix itself: the first
preconditioned step is then the direct solve, and GMRES only refines it.
The drivers pass block preconditioners built from the factors that one
Discretization keeps for its mesh, so a sweep factors the shared blocks
once (see drivers).

A solve runs numpy's BLAS on one thread.  GMRES vectors at n = 40 are past
OpenBLAS's threading cut-off for dot products, and the woken second thread
busy-waits: it doubled the CPU time and saved no wall time.  SuperLU calls
scipy's own OpenBLAS, which is left as it is.

A solve, and each factorization, first hands the C heap's free pages back to
the operating system (glibc's malloc_trim).  SuperLU's work arrays and the
assembly temporaries are freed into that heap, which otherwise shrinks only
from its top, so how much of them stayed resident depended on allocation
order: the peak memory of the acceptance battery varied by 15 MiB from one
process to the next.
"""

from __future__ import annotations

import ctypes
import contextvars
import functools
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse as sps
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import LinearOperator, gmres, splu

DEFAULT_TOL = 1e-10
TOL_FLOOR = 1e-14      # the smallest tolerance solve accepts
RESIDUAL_FLOOR = 1e-300
_MAX_RESTARTS = 10
ORDERING = "rcm+mmd_at_plus_a"     # the ordering a factor runs, as reported
PERMC_SPEC = "MMD_AT_PLUS_A"        # SuperLU's part of it
DROP_TOL = 1e-14    # scaled entries below this are round-off and not factored
# GMRES and the 1/eps series of drivers aim this far below the tolerance, as
# close to a direct solve as round-off allows; only tol itself is enforced.
AIM = 1e-4
_RESTART = 80        # Krylov vectors per GMRES cycle; Stokes needs about 35

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

    The files are <prefix>000.mtx, <prefix>001.mtx, ... in solve order.  A
    prefix of None dumps nothing.  A debugging aid for --dump-matrix.
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


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_free_heap():
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

    iterations counts GMRES iterations, 0 when the first step x = M b
    already meets the tolerance (a direct solve); residual_history holds,
    per iteration, the norm of the preconditioned residual over ||b||.  (A
    solution of the 1/eps series in drivers reports its terms and, per term,
    its residual bound instead.)  lu_nnz counts the entries SuperLU stores
    for L and U in every distinct factor the solve applied, diagonals
    included, read without copying the factors, and matrix_nnz the stored
    entries of the matrices they factored; fill is their ratio, 0 without
    factors; factor_time is the part of wall_time spent in factorizations
    made during this call (a factor kept from an earlier call costs nothing
    here).  The factor fields default to empty for results that did not
    come from a solve.
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

    @property
    def fill(self) -> float:
        return self.lu_nnz / self.matrix_nnz if self.matrix_nnz else 0.0


class Factor:
    """SuperLU factor of a square sparse matrix after row equilibration.

    The equilibrated matrix is relabelled by perm, the reverse Cuthill-McKee
    order of its stored pattern, and loses its entries below DROP_TOL (of
    their row's largest, which equilibration makes 1) before SuperLU orders
    it by minimum degree.  Each step is a plain scipy operation that makes
    its own copy; SuperLU's work arrays, not these copies, set the peak
    memory of a factorization.  A CSR matrix given with duplicate entries has
    them summed in place (by scipy's abs).  solve(r) applies the inverse of
    the matrix given to an (n,) or (n, k) array, gathering by perm and back
    by its inverse iperm.  nnz is SuperLU's count of stored L and U entries
    and matrix_nnz the stored entries of the matrix given, so their ratio is
    the fill; factor_time is the wall time of the factorization and finished
    the perf_counter reading at its end.
    """

    def __init__(self, a: sps.csr_matrix):
        start = time.perf_counter()
        # Row equilibration keeps pivot growth bounded when one block of the
        # system carries an extreme parameter scaling.
        a = a.tocsr()
        row_max = abs(a).max(axis=1).toarray().ravel()
        if np.any(row_max == 0.0):
            k = int(np.argmin(row_max))
            raise SolverError(f"matrix is structurally singular: row {k} is zero")
        row_scale = 1.0 / row_max
        scaled = (sps.diags(row_scale) @ a).tocsc()
        self.perm = _structure_order(scaled)
        self.iperm = np.argsort(self.perm)
        scaled.data[np.abs(scaled.data) < DROP_TOL] = 0.0    # round-off of zeros
        scaled.eliminate_zeros()
        scaled = scaled[self.perm][:, self.perm]
        self.scale_p = row_scale[self.perm]
        try:
            self.lu = splu(scaled, permc_spec=PERMC_SPEC,
                           diag_pivot_thresh=1e-3,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        del scaled
        _release_free_heap()        # SuperLU's work arrays are free now
        self.nnz = self.lu.nnz
        self.matrix_nnz = a.nnz
        self.finished = time.perf_counter()
        self.factor_time = self.finished - start

    def solve(self, r: np.ndarray) -> np.ndarray:
        # np.take gathers faster than fancy indexing, and scaling in place
        # makes no temporary
        rp = np.take(np.asarray(r, dtype=float), self.perm, axis=0)
        rp *= self.scale_p if rp.ndim == 1 else self.scale_p[:, None]
        return np.take(self.lu.solve(rp), self.iperm, axis=0)


def _structure_order(a: sps.csc_matrix) -> np.ndarray:
    """Reverse Cuthill-McKee labels of the stored pattern of a + a^T.

    scipy forms the union by adding the transpose; on unit values no entry
    can cancel its mirror, so every stored entry counts.
    """
    pattern = sps.csc_matrix((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    return reverse_cuthill_mckee(pattern, symmetric_mode=False)


class Preconditioner(NamedTuple):
    """apply(r) approximates A^-1 r using the given factors."""

    name: str
    apply: Callable
    factors: tuple


def _direct(a: sps.csr_matrix) -> Preconditioner:
    """The factor of a itself."""
    f = Factor(a)
    return Preconditioner(f"sparse_lu({ORDERING})+row_equilibration",
                          f.solve, (f,))


def rel_residual(a, x, b, bnorm=None) -> float:
    """||b - A x|| / ||b||, the residual solve holds to tol; ||b|| is floored
    at RESIDUAL_FLOOR, and bnorm, if given, is that floored norm."""
    if bnorm is None:
        bnorm = max(float(np.linalg.norm(b)), RESIDUAL_FLOOR)
    return float(np.linalg.norm(b - a @ x) / bnorm)


def dump_solved(a: sps.csr_matrix) -> None:
    """Write a as the next solved system of the active dump_matrices block,
    if there is one.  solve calls it; so does a solver that checks its own
    solution against a."""
    sink = _DUMP_SINK.get()
    if sink is not None:
        prefix, counter = sink
        dump_matrix_market(a, f"{prefix}{next(counter):03d}.mtx")


@one_blas_thread()
def solve(a: sps.csr_matrix, b: np.ndarray, tol: float = DEFAULT_TOL,
          precond: Callable[[], Preconditioner] = None):
    """Solve A x = b to a relative residual of at most tol.

    precond builds the preconditioner; it is called once inside this solve,
    so factors it creates count in the report's factor_time.  By default
    the matrix is factored itself.  The first step is x = M b; GMRES
    restarts from there until ||b - A x|| <= tol ||b||.  Raises SolverError
    if a factorization fails or the residual contract cannot be met.  The
    factorization, the preconditioner and GMRES run with numpy's BLAS on one
    thread; the previous count is restored on return or raise.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tolerance must be >= the floor {TOL_FLOOR:g}, got {tol}")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: matrix {a.shape}, rhs {b.shape}")

    dump_solved(a)
    _release_free_heap()
    start = time.perf_counter()
    pre = _direct(a) if precond is None else precond()
    factor_time = sum(f.factor_time for f in pre.factors if f.finished >= start)

    bnorm = max(float(np.linalg.norm(b)), RESIDUAL_FLOOR)
    x = pre.apply(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution "
                          "(singular matrix)")
    res = rel_residual(a, x, b, bnorm)
    history = []
    m = LinearOperator(a.shape, matvec=pre.apply, dtype=float)
    restarts = 0
    while res > tol and restarts < _MAX_RESTARTS:
        x, _ = gmres(a, b, x0=x, rtol=AIM * tol, atol=0.0, restart=_RESTART,
                     maxiter=1, M=m, callback=history.append,
                     callback_type="pr_norm")
        res = rel_residual(a, x, b, bnorm)
        restarts += 1
    elapsed = time.perf_counter() - start
    report = SolverReport(
        method=f"gmres[{pre.name}]", rel_residual=res,
        iterations=len(history), wall_time=elapsed, ordering=ORDERING,
        lu_nnz=sum(f.nnz for f in pre.factors),
        matrix_nnz=sum(f.matrix_nnz for f in pre.factors),
        factor_time=factor_time, residual_history=tuple(history))
    if not res <= tol:
        raise SolverError(
            f"solver did not reach tol={tol:g}; achieved residual {res:.3e}",
            residual=res)
    return x, report


def dump_matrix_market(a: sps.csr_matrix, path) -> None:
    """Write the matrix in MatrixMarket coordinate format (debug aid)."""
    from scipy.io import mmwrite
    mmwrite(str(path), a)
