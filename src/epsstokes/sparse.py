"""Linear solution of the assembled sparse systems.

Every system takes one path: GMRES on the assembled matrix against a
preconditioner built from sparse LU factors, restarted until the true
relative residual ||b - A x|| / ||b|| meets the requested tolerance.  A
factor is SuperLU of the row-equilibrated matrix in symmetric mode: a
minimum-degree ordering of the pattern of A + A^T, applied to rows and
columns alike, with diagonal pivots preferred.

Without a preconditioner, solve factors the matrix itself: the first
preconditioned step is then the direct solve, and GMRES only refines it.
The drivers pass block preconditioners built from the factors that one
Discretization keeps for its mesh, so a sweep factors the shared blocks
once (see drivers).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import sparse as sps
from scipy.sparse.linalg import LinearOperator, gmres, splu

DEFAULT_TOL = 1e-10
RESIDUAL_FLOOR = 1e-300
_MAX_RESTARTS = 10
_ORDERING = "MMD_AT_PLUS_A"
# GMRES aims this far below the tolerance, so the solution is as close to a
# direct solve as round-off allows; only tol itself is enforced.
_AIM = 1e-4
_RESTART = 80        # Krylov vectors per GMRES cycle; Stokes needs about 35

# Flag-gated debugging aid: when set, every solved matrix is written to
# "<prefix><counter>.mtx" in MatrixMarket coordinate format.
_DUMP_PREFIX = None
_DUMP_COUNTER = 0


def configure_debug_dump(prefix) -> None:
    global _DUMP_PREFIX, _DUMP_COUNTER
    _DUMP_PREFIX = prefix
    _DUMP_COUNTER = 0


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
    per iteration, the norm of the preconditioned residual over ||b||.  lu_nnz
    counts the entries SuperLU stores for L and U in every factor the
    preconditioner applies, diagonals included, read without copying the
    factors; fill is lu_nnz over the nnz of the matrices factored; factor_time
    is the part of wall_time spent in factorizations made during this call
    (a factor kept from an earlier call costs nothing here).  The factor
    fields default to empty for results that did not come from a solve.
    """

    method: str
    rel_residual: float
    iterations: int
    wall_time: float
    ordering: str = ""
    lu_nnz: int = 0
    fill: float = 0.0
    factor_time: float = 0.0
    residual_history: tuple = ()


class Factor:
    """SuperLU factor of a square sparse matrix after row equilibration.

    solve(r) applies the inverse to an (n,) or (n, k) array.  nnz is
    SuperLU's count of stored L and U entries and matrix_nnz that of the
    matrix factored; factor_time is the wall time of the factorization and
    finished the perf_counter reading at its end.
    """

    def __init__(self, a: sps.csr_matrix):
        start = time.perf_counter()
        # Row equilibration keeps pivot growth bounded when one block of the
        # system carries an extreme parameter scaling.
        row_max = np.abs(a).max(axis=1).toarray().ravel()
        if np.any(row_max == 0.0):
            k = int(np.argmin(row_max))
            raise SolverError(f"matrix is structurally singular: row {k} is zero")
        self.row_scale = 1.0 / row_max
        scaled = sps.diags(self.row_scale) @ a
        try:
            self.lu = splu(scaled.tocsc(), permc_spec=_ORDERING,
                           diag_pivot_thresh=1e-3,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        self.nnz = self.lu.nnz
        self.matrix_nnz = a.nnz
        self.finished = time.perf_counter()
        self.factor_time = self.finished - start

    def solve(self, r: np.ndarray) -> np.ndarray:
        d = self.row_scale if r.ndim == 1 else self.row_scale[:, None]
        return self.lu.solve(d * r)


class Preconditioner(NamedTuple):
    """apply(r) approximates A^-1 r using the given factors."""

    name: str
    apply: Callable
    factors: tuple


def _direct(a: sps.csr_matrix) -> Preconditioner:
    """The factor of a itself."""
    f = Factor(a)
    return Preconditioner(f"sparse_lu({_ORDERING.lower()})+row_equilibration",
                          f.solve, (f,))


def _rel_residual(a, x, b, bnorm):
    return float(np.linalg.norm(b - a @ x) / bnorm)


def solve(a: sps.csr_matrix, b: np.ndarray, tol: float = DEFAULT_TOL,
          precond: Callable[[], Preconditioner] = None):
    """Solve A x = b to a relative residual of at most tol.

    precond builds the preconditioner; it is called once inside this solve,
    so factors it creates count in the report's factor_time.  By default
    the matrix is factored itself.  The first step is x = M b; GMRES
    restarts from there until ||b - A x|| <= tol ||b||.  Raises SolverError
    if a factorization fails or the residual contract cannot be met.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix is not square: {a.shape}")
    if tol < 1e-14:
        raise ValueError(f"tolerance {tol} below supported floor 1e-14")
    b = np.asarray(b, dtype=float)
    if b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: matrix {a.shape}, rhs {b.shape}")

    global _DUMP_COUNTER
    if _DUMP_PREFIX is not None:
        dump_matrix_market(a, f"{_DUMP_PREFIX}{_DUMP_COUNTER:03d}.mtx")
        _DUMP_COUNTER += 1

    start = time.perf_counter()
    pre = _direct(a) if precond is None else precond()
    factor_time = sum(f.factor_time for f in pre.factors if f.finished >= start)

    bnorm = max(float(np.linalg.norm(b)), RESIDUAL_FLOOR)
    x = pre.apply(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution "
                          "(singular matrix)")
    res = _rel_residual(a, x, b, bnorm)
    history = []
    m = LinearOperator(a.shape, matvec=pre.apply, dtype=float)
    restarts = 0
    while res > tol and restarts < _MAX_RESTARTS:
        x, _ = gmres(a, b, x0=x, rtol=_AIM * tol, atol=0.0, restart=_RESTART,
                     maxiter=1, M=m, callback=history.append,
                     callback_type="pr_norm")
        res = _rel_residual(a, x, b, bnorm)
        restarts += 1
    elapsed = time.perf_counter() - start
    lu_nnz = sum(f.nnz for f in pre.factors)
    fill = lu_nnz / sum(f.matrix_nnz for f in pre.factors)
    report = SolverReport(
        method=f"gmres[{pre.name}]", rel_residual=res,
        iterations=len(history), wall_time=elapsed, ordering=_ORDERING,
        lu_nnz=lu_nnz, fill=fill, factor_time=factor_time,
        residual_history=tuple(history))
    if not res <= tol:
        raise SolverError(
            f"solver did not reach tol={tol:g}; achieved residual {res:.3e}",
            residual=res)
    return x, report


def dump_matrix_market(a: sps.csr_matrix, path) -> None:
    """Write the matrix in MatrixMarket coordinate format (debug aid)."""
    from scipy.io import mmwrite
    mmwrite(str(path), a)
