"""Linear solution of the assembled sparse systems.

Every system takes one path, solve: the first step x = M b with a
preconditioner M, then, if that misses the requested tolerance, restarted
GMRES on the assembled matrix, and always the true relative residual
||b - A x|| / ||b|| checked against the tolerance.  GMRES is this module's
own (gmres): preconditioned on the right, so its residual estimates are
estimates of the true residual, with the Arnoldi vectors orthogonalized by
classical Gram-Schmidt run twice (CGS2; Giraud, Langou & Rozloznik, 2005),
two matrix-vector products with the basis per pass where modified
Gram-Schmidt loops over its vectors in Python.  A factor is SuperLU of the
row-equilibrated matrix in symmetric mode: a minimum-degree ordering of the
pattern of A + A^T (multiple minimum degree; Liu, ACM TOMS 1985), applied
to rows and columns alike, with diagonal pivots preferred.

That ordering breaks ties by input label, so on the FE numbering its fill
depended on luck: A's factor held 5.45M entries at n = 96 but 5.29M at
n = 128.  A factor therefore first relabels the matrix by reverse
Cuthill-McKee (Cuthill & McKee, 1969) before minimum degree runs.  The
drivers pass the RCM order of the cell graph of the matrix's space, which
joins every two nodes that share a cell (fem.cell_order); a bare matrix is
ordered by RCM on the stored pattern of A + A^T.  Assembly stores no
round-off of exact zeros (fem._scatter), so A's stored pattern lacks pairs
that its cells couple, and RCM on it filled A's factor 23% more on a
jittered n = 96 mesh and 25% more at n = 128 than the cell graph does.
With the cell graph, A's factor holds 1.75M entries at n = 96, against
5.45M under the FE labels.

Without a preconditioner, solve factors the matrix itself: the first step
is then the direct solve.  The drivers pass preconditioners built from the
factors that one Discretization keeps for its mesh, so a sweep factors the
shared blocks once.  For Stokes and ES the preconditioner runs gmres itself,
on the pressure Schur complement, and its first step already meets the
tolerance.  A PP velocity solve on a Discretization without A's factor is
the one that continues in solve's own gmres: its preconditioner is a
two-level cycle on the factor of Kp, not a factor of A (see drivers).

A solve runs numpy's BLAS on one thread.  Full-length Krylov vectors at
n = 40 are past OpenBLAS's threading cut-off for dot products, and the
woken second thread busy-waits: it doubled the CPU time and saved no wall
time.  SuperLU calls scipy's own OpenBLAS, which is left as it is.

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
from scipy.linalg import solve_triangular
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-10
TOL_FLOOR = 1e-14      # the smallest tolerance solve accepts
RESIDUAL_FLOOR = 1e-300
_MAX_RESTARTS = 10   # GMRES cycles one gmres call runs at most
ORDERING = "rcm+mmd_at_plus_a"     # the ordering a factor runs, as reported
PERMC_SPEC = "MMD_AT_PLUS_A"        # SuperLU's part of it
# GMRES and the 1/eps series of drivers aim this far below the tolerance, as
# close to a direct solve as round-off allows; only tol itself is enforced.
# Verify's criterion 8 bounds its gradient-forcing deviation by 1e-9: aims of
# 1e-1, 1e-2 and 1e-4 times tol left 1.7e-9, 2.2e-10 and 4.3e-13.
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

    iterations counts GMRES steps and residual_history holds, per step, the
    GMRES estimate of the true residual norm over ||b||.  For Stokes and ES
    those are the steps of the pressure-space GMRES inside the first step
    x = M b (see drivers), whose residual is the residual of the whole
    system; for a preconditioner that is a factor of the matrix itself there
    are none, and iterations is 0.  ritz holds the smallest and largest real
    part of the Ritz values of the last GMRES cycle, the eigenvalues of its
    Hessenberg matrix, () without GMRES steps: for Stokes the largest tends
    to 1, and the smallest is the mode of the pinned gauge dof, which
    shrinks like h^2.  (A solution of the
    1/eps series in drivers reports its terms and, per term, its residual
    bound instead.)  lu_nnz counts the entries SuperLU stores for L and U in
    every distinct factor the solve applied, diagonals included, read
    without copying the factors, and matrix_nnz the stored entries of the
    matrices they factored; fill is their ratio, 0 without factors;
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
    """SuperLU factor of a square sparse matrix after row equilibration.

    The equilibrated matrix is relabelled by perm, the order given or else
    the reverse Cuthill-McKee order of its stored pattern, before SuperLU
    orders it by minimum degree.  Each step is a plain scipy operation that
    makes its own copy; SuperLU's work arrays, not these copies, set the
    peak memory of a factorization.  A CSR matrix given with duplicate
    entries has them summed in place (by scipy's abs).  solve(r) applies the
    inverse of the matrix given to an (n,) or (n, k) array, gathering by
    perm and back by its inverse iperm.  nnz is SuperLU's count of stored L
    and U entries and matrix_nnz the stored entries of the matrix given, so
    their ratio is the fill; factor_time is the wall time of the
    factorization and finished the perf_counter reading at its end.
    """

    def __init__(self, a: sps.csr_matrix, perm: np.ndarray = None):
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
        self.perm = _structure_order(scaled) if perm is None else perm
        self.iperm = np.argsort(self.perm)
        scaled = scaled[self.perm][:, self.perm]
        self.scale_p = row_scale[self.perm]
        try:
            self.lu = splu(scaled, permc_spec=PERMC_SPEC,
                           diag_pivot_thresh=1e-3,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        del scaled
        release_free_heap()        # SuperLU's work arrays are free now
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


@dataclass
class KrylovLog:
    """The GMRES steps run for one solve: the residual estimate after each
    step, as a norm, and the Hessenberg matrix of the last cycle, unrotated."""

    estimates: list = field(default_factory=list)
    hessenberg: np.ndarray = None

    def ritz(self) -> tuple:
        """The smallest and largest real part of the last cycle's Ritz
        values; () before any step, or if the cycle was not finite."""
        h = self.hessenberg
        if h is None or not np.all(np.isfinite(h)):
            return ()
        re = np.linalg.eigvals(h).real
        return float(re.min()), float(re.max())


class Preconditioner(NamedTuple):
    """apply(r) approximates A^-1 r using the given factors; an apply that
    runs gmres itself, a Krylov solve in its own right, records its steps
    in log."""

    name: str
    apply: Callable
    factors: tuple
    log: KrylovLog = None


def _direct(a: sps.csr_matrix) -> Preconditioner:
    """The factor of a itself."""
    f = Factor(a)
    return Preconditioner(f"sparse_lu({ORDERING})+row_equilibration",
                          f.solve, (f,))


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


def rel_residual(a, x, b, bnorm=None) -> float:
    """||b - A x|| / ||b||, the residual solve holds to tol; ||b|| is floored
    at RESIDUAL_FLOOR, and bnorm, if given, is that floored norm.  inf if
    either norm is not finite, so that no gate passes it."""
    return product_residual(a @ x, b, bnorm)


def product_residual(ax, b, bnorm=None) -> float:
    """rel_residual for a product ax = A x formed by the caller."""
    if bnorm is None:
        bnorm = max(norm(b), RESIDUAL_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        rnorm = norm(b - ax)
    if not (np.isfinite(rnorm) and np.isfinite(bnorm)):
        return np.inf
    return rnorm / bnorm


def gmres(op: Callable, precond: Callable, b: np.ndarray, aim: float,
          log: KrylovLog, x: np.ndarray = None) -> np.ndarray:
    """x with op(x) = b by restarted GMRES, preconditioned on the right.

    From x (0 if None), each cycle builds an Arnoldi basis of at most
    _RESTART vectors for op(precond(.)), orthogonalized by CGS2, and stops
    once its residual estimate, which right preconditioning makes an
    estimate of ||b - op(x)||, is at most aim, or when the basis spans an
    invariant subspace.  A cycle that ends above aim is restarted from the
    explicit residual, for at most _MAX_RESTARTS cycles.  Each step's
    estimate and each cycle's Hessenberg matrix go to log.
    """
    if x is None:
        x, r = np.zeros_like(b), b
    else:
        x, r = x.copy(), b - op(x)
    for _ in range(_MAX_RESTARTS):
        dx, estimate = _gmres_cycle(op, precond, r, aim, log)
        x += dx
        if estimate <= aim:
            break
        r = b - op(x)
    return x


def _gmres_cycle(op, precond, r, aim, log):
    """(dx, residual estimate) of one GMRES cycle for op(precond(y)) = r."""
    beta = norm(r)
    if not beta > aim:
        return np.zeros_like(r), beta
    basis = np.empty((_RESTART + 1, len(r)))
    hess = np.zeros((_RESTART + 1, _RESTART))
    tri = np.zeros((_RESTART, _RESTART))      # hess rotated to upper triangular
    cs, sn = [], []
    g = [beta]                                # beta e_1, rotated like hess
    basis[0] = r / beta
    k = 0
    while k < _RESTART and abs(g[k]) > aim:
        w = op(precond(basis[k]))
        before = norm(w)
        for _ in range(2):                    # classical Gram-Schmidt, twice
            h = basis[:k + 1] @ w
            w -= h @ basis[:k + 1]
            hess[:k + 1, k] += h
        hess[k + 1, k] = norm(w)
        col = hess[:k + 2, k].tolist()
        for i in range(k):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  cs[i] * col[i + 1] - sn[i] * col[i])
        d = float(np.hypot(col[k], col[k + 1]))
        c, s = (col[k] / d, col[k + 1] / d) if d else (1.0, 0.0)
        cs.append(c)
        sn.append(s)
        col[k] = d
        tri[:k + 1, k] = col[:k + 1]
        g.append(-s * g[k])
        g[k] *= c
        log.estimates.append(abs(g[k + 1]))
        k += 1
        # w was in the basis's span up to the rounding CGS2 leaves, about
        # 1e-16 of it: the span is invariant and x exact
        if not hess[k, k - 1] > 1e-14 * before:
            break
        basis[k] = w / hess[k, k - 1]
    log.hessenberg = hess[:k, :k].copy()
    y = solve_triangular(tri[:k, :k], g[:k], check_finite=False)
    return precond(y @ basis[:k]), abs(g[k])


def dumping() -> bool:
    """Whether a dump_matrices block with a prefix is active."""
    return _DUMP_SINK.get() is not None


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
    the matrix is factored itself.  The first step is x = M b; if its true
    residual misses tol, gmres continues from there, aiming at AIM * tol
    ||b||, unless M ran gmres itself (it has a log): GMRES around a Krylov
    solve that missed tol would only repeat it.  Raises SolverError if the
    matrix or b has a non-finite entry, if
    a factorization fails, or if ||b - A x|| <= tol ||b|| does not hold at
    the end.  The factorization, the preconditioner and GMRES run with
    numpy's BLAS on one thread; the previous count is restored on return or
    raise.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    if not tol >= TOL_FLOOR:
        raise ValueError(f"tolerance must be >= the floor {TOL_FLOOR:g}, got {tol}")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: matrix {a.shape}, rhs {b.shape}")
    bnorm = max(norm(b), RESIDUAL_FLOOR)
    if not np.isfinite(bnorm):
        raise SolverError("right-hand side is not finite")
    if not np.all(np.isfinite(a.data)):
        raise SolverError("matrix is not finite")

    dump_solved(a)
    release_free_heap()
    start = time.perf_counter()
    pre = _direct(a) if precond is None else precond()
    log = KrylovLog() if pre.log is None else pre.log

    x = pre.apply(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution "
                          "(singular matrix)")
    res = rel_residual(a, x, b, bnorm)
    if res > tol and pre.log is None:
        x = gmres(a.dot, pre.apply, b, AIM * tol * bnorm, log, x)
        res = rel_residual(a, x, b, bnorm)
    report = SolverReport.from_factors(
        f"gmres[{pre.name}]", res, [e / bnorm for e in log.estimates],
        time.perf_counter() - start, pre.factors, start, log.ritz())
    if not res <= tol:
        raise SolverError(
            f"solver did not reach tol={tol:g}; achieved residual {res:.3e}",
            residual=res)
    return x, report


def dump_matrix_market(a: sps.csr_matrix, path) -> None:
    """Write the matrix in MatrixMarket coordinate format (debug aid)."""
    from scipy.io import mmwrite
    mmwrite(str(path), a)
