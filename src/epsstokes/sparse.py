"""Direct linear solution of the assembled sparse systems.

Systems are solved by sparse LU after row equilibration, followed by
iterative refinement until the relative residual meets the requested
tolerance.  All three problems have a structurally symmetric pattern, so
SuperLU runs in symmetric mode: a minimum-degree ordering of the pattern of
A + A^T, applied to rows and columns alike, with diagonal pivots preferred.
The same path handles the symmetric-indefinite saddle systems and the
nonsymmetric coupled systems uniformly over the parameter range 1e-6..1e6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sps
from scipy.sparse.linalg import splu

DEFAULT_TOL = 1e-10
RESIDUAL_FLOOR = 1e-300
_MAX_REFINEMENTS = 10
_ORDERING = "MMD_AT_PLUS_A"

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

    lu_nnz counts the entries SuperLU stores for L and U together, diagonals
    included, read without copying the factors; fill is lu_nnz over the nnz
    of the solved matrix; factor_time is the part of wall_time spent in
    the factorization.  The factor fields default to empty for results that
    did not come from a factorization.
    """

    method: str
    rel_residual: float
    iterations: int
    wall_time: float
    ordering: str = ""
    lu_nnz: int = 0
    fill: float = 0.0
    factor_time: float = 0.0


def _rel_residual(a, x, b, bnorm):
    return float(np.linalg.norm(b - a @ x) / bnorm)


def solve(a: sps.csr_matrix, b: np.ndarray, tol: float = DEFAULT_TOL):
    """Solve A x = b to a relative residual of at most tol.

    Sparse LU of the row-equilibrated matrix, ordered by minimum degree on
    the pattern of A + A^T with diagonal pivots preferred (threshold 1e-3),
    then iterative refinement against the original system.  Raises
    SolverError if the factorization fails or the residual contract cannot
    be met.
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

    # Row equilibration keeps pivot growth bounded when one block of the
    # system carries an extreme parameter scaling.
    row_max = np.abs(a).max(axis=1).toarray().ravel()
    if np.any(row_max == 0.0):
        k = int(np.argmin(row_max))
        raise SolverError(f"matrix is structurally singular: row {k} is zero")
    d = 1.0 / row_max
    scaled = sps.diags(d) @ a

    factor_start = time.perf_counter()
    try:
        lu = splu(scaled.tocsc(), permc_spec=_ORDERING, diag_pivot_thresh=1e-3,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    factor_time = time.perf_counter() - factor_start

    bnorm = max(float(np.linalg.norm(b)), RESIDUAL_FLOOR)
    x = lu.solve(d * b)
    if not np.all(np.isfinite(x)):
        raise SolverError("factorization produced non-finite solution "
                          "(singular matrix)")
    res = _rel_residual(a, x, b, bnorm)
    its = 0
    while res > tol and its < _MAX_REFINEMENTS:
        x = x + lu.solve(d * (b - a @ x))
        res = _rel_residual(a, x, b, bnorm)
        its += 1
    elapsed = time.perf_counter() - start
    report = SolverReport(
        method=f"sparse_lu({_ORDERING.lower()})+row_equilibration",
        rel_residual=res, iterations=its, wall_time=elapsed,
        ordering=_ORDERING, lu_nnz=lu.nnz, fill=lu.nnz / a.nnz,
        factor_time=factor_time)
    if res > tol:
        raise SolverError(
            f"solver did not reach tol={tol:g}; achieved residual {res:.3e}",
            residual=res)
    return x, report


def dump_matrix_market(a: sps.csr_matrix, path) -> None:
    """Write the matrix in MatrixMarket coordinate format (debug aid)."""
    from scipy.io import mmwrite
    mmwrite(str(path), a)
