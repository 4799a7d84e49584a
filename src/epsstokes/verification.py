"""Measurement instruments: manufactured solutions, error norms, rate fits.

The registry carries a divergence-free polynomial velocity with zero
boundary trace and a cubic pressure of zero mean, plus a variant whose
pressure boundary data is perturbed by a cosine trace mismatch.

A norm of the gap between two discrete fields on one Discretization is a
Gram quadratic form on the gap's coefficients (gap, gap_quotient_l2): e.M e
for the mass matrix M of the fields' space and e.K e for its stiffness K.
Every norm against a closed form, and div_l2, is an integral by the same
degree-5 quadrature as assembly, summed a block of cells at a time
(fem.cell_blocks), so its temporaries are those of one block.  error_gap
measures the L2 and the gradient error in one pass, at one set of points.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fem
from .fem import Field
from .mesh import Mesh
from .sparse import one_blas_thread


# ---------------------------------------------------------------------------
# manufactured cases


def _bump(t):
    # t^2 (1-t)^2 and derivatives; double zeros at 0 and 1.
    s = 1.0 - t
    return t * t * s * s


def _bump1(t):
    return 2.0 * t - 6.0 * t * t + 4.0 * t ** 3


def _bump2(t):
    c = 12.0 * t
    return 2.0 - c + c * t


def _bump3(t):
    return 24.0 * t - 12.0


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution pair with its forcing and trace perturbation.

    The velocity is divergence-free with zero boundary values; the pressure
    has zero mean.  body_force equals -laplace(u) + grad(p) in closed form.
    The pressure boundary data is p_exact plus delta times the
    trace_perturbation.  Each callable takes x and y of any shapes that
    broadcast and returns floats of the broadcast shape, followed by (2,)
    for a vector and (2, 2) for a velocity gradient.
    """

    name: str
    u_exact: object
    grad_u_exact: object
    p_exact: object
    grad_p_exact: object
    body_force: object
    trace_perturbation: object
    delta: float

    def u_bc(self):
        return self.u_exact

    def p_bc(self):
        if self.delta == 0.0:
            return self.p_exact
        p, m, d = self.p_exact, self.trace_perturbation, self.delta
        return lambda x, y: p(x, y) + d * m(x, y)


def _ms1_u(x, y):
    u = np.empty(np.broadcast(x, y).shape + (2,))
    u[..., 0] = _bump(x) * _bump1(y)
    u[..., 1] = -_bump1(x) * _bump(y)
    return u


def _ms1_grad_u(x, y):
    # [i, d] = d(u_i)/d(x_d)
    b1x, b1y = _bump1(x), _bump1(y)
    g = np.empty(np.broadcast(x, y).shape + (2, 2))
    g[..., 0, 0] = b1x * b1y
    g[..., 0, 1] = _bump(x) * _bump2(y)
    g[..., 1, 0] = -_bump2(x) * _bump(y)
    g[..., 1, 1] = -b1x * b1y
    return g


def _ms1_p(x, y):
    return x ** 3 + y ** 3 - 0.5


def _ms1_grad_p(x, y):
    g = np.empty(np.broadcast(x, y).shape + (2,))
    g[..., 0] = 3.0 * x * x
    g[..., 1] = 3.0 * y * y
    return g


def _ms1_force(x, y):
    f = np.empty(np.broadcast(x, y).shape + (2,))
    f[..., 0] = -_bump2(x) * _bump1(y) - _bump(x) * _bump3(y) + 3.0 * x * x
    f[..., 1] = _bump3(x) * _bump(y) + _bump1(x) * _bump2(y) + 3.0 * y * y
    return f


def _cos_mismatch(x, y):
    return np.cos(np.pi * x) * np.cos(np.pi * y)


def registry() -> list:
    """Built-in manufactured cases."""
    base = ManufacturedCase(
        name="ms1",
        u_exact=_ms1_u, grad_u_exact=_ms1_grad_u,
        p_exact=_ms1_p, grad_p_exact=_ms1_grad_p,
        body_force=_ms1_force,
        trace_perturbation=_cos_mismatch,
        delta=0.0,
    )
    return [base, dataclasses.replace(base, name="ms1-mismatch", delta=1.0)]


def get_case(name: str, delta: float = None) -> ManufacturedCase:
    for case in registry():
        if case.name == name:
            if delta is not None:
                case = dataclasses.replace(case, delta=float(delta))
            return case
    known = ", ".join(c.name for c in registry())
    raise KeyError(f"unknown case {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# norms


def _blocks(mesh: Mesh):
    """(cells, w) for each block of the mesh's cells: its slice and its
    (B, Q) physical weights of the degree-5 rule."""
    quad = fem.triangle_rule_d5()
    for cells in fem.cell_blocks(mesh.num_triangles):
        yield cells, fem.quad_weights_physical(mesh, quad, cells)


def _points(mesh: Mesh, cells, *functions):
    """The block's quadrature points (xs, ys), or None when every one of
    functions is None."""
    if all(f is None for f in functions):
        return None
    return fem.quad_points_physical(mesh, fem.triangle_rule_d5(), cells)


def _value_error(field: Field, cells, exact, pts) -> np.ndarray:
    """field - exact at the quadrature points of a block of cells, with
    exact evaluated at pts, the block's points, and broadcast to the
    field's layout; field alone when exact is None."""
    vals = fem.eval_at_quad(field, fem.triangle_rule_d5(), cells)
    if exact is None:
        return vals
    return vals - np.broadcast_to(np.asarray(exact(*pts), dtype=float), vals.shape)


def _grad_error(field: Field, cells, grad_exact, pts) -> np.ndarray:
    """grad(field) - grad_exact at the quadrature points of a block of
    cells, as _value_error."""
    g = fem.eval_grad_at_quad(field, fem.triangle_rule_d5(), cells)
    if grad_exact is None:
        return g
    return g - np.asarray(grad_exact(*pts), dtype=float)


def _weighted_sq(w: np.ndarray, v: np.ndarray) -> float:
    """The sum of w |v|^2 over a block's cells and points, for (B, Q) w and
    (B, Q), (B, Q, 2) or (B, Q, 2, 2) v.  einsum reads v in place, whose
    gradient layout is a transposed view, as a reshape would copy it."""
    axes = "mq" + "ab"[:v.ndim - 2]
    return float(np.einsum(f"mq,{axes},{axes}->", w, v, v))


def error_l2(field: Field, exact) -> float:
    """L2 norm of (field - exact); pass exact=None for the norm of field."""
    return error_gap(field, exact, None).l2


def seminorm_h1(field: Field, grad_exact=None) -> float:
    """L2 norm of grad(field - exact)."""
    return error_gap(field, None, grad_exact).seminorm


def error_gap(field: Field, exact, grad_exact) -> Gap:
    """The Gap of field against a closed form: the squared L2 norms of
    field - exact and of its gradient's error, in one pass over the blocks
    of cells that evaluates exact and grad_exact at one set of points."""
    mesh = field.space.mesh
    l2_sq = semi_sq = 0.0
    for cells, w in _blocks(mesh):
        pts = _points(mesh, cells, exact, grad_exact)
        l2_sq += _weighted_sq(w, _value_error(field, cells, exact, pts))
        semi_sq += _weighted_sq(w, _grad_error(field, cells, grad_exact, pts))
    return Gap(l2_sq, semi_sq)


def error_h1(field: Field, exact, grad_exact) -> float:
    """Full H1 norm of (field - exact): sqrt(L2^2 + seminorm^2)."""
    return error_gap(field, exact, grad_exact).h1


def quotient_norm_l2(field: Field, exact) -> float:
    """L2 norm of (field - exact) after removing the mean of the difference.

    The difference is kept at every quadrature point, (M, Q), so that the
    mean is subtracted before squaring, without cancellation."""
    if field.coefficients.ndim != 1:
        raise ValueError("quotient norm applies to scalar fields")
    mesh = field.space.mesh
    w = fem.quad_weights_physical(mesh, fem.triangle_rule_d5())
    diff = np.empty_like(w)
    for cells in fem.cell_blocks(mesh.num_triangles):
        diff[cells] = _value_error(field, cells, exact, _points(mesh, cells, exact))
    diff -= float(np.einsum("mq,mq->", w, diff)) / float(w.sum())
    return float(np.sqrt(_weighted_sq(w, diff)))


def div_l2(field: Field) -> float:
    """L2 norm of the divergence of a vector field."""
    quad = fem.triangle_rule_d5()
    total = 0.0
    for cells, w in _blocks(field.space.mesh):
        total += _weighted_sq(w, fem.eval_div_at_quad(field, quad, cells))
    return float(np.sqrt(total))


def diff_field(a: Field, b: Field) -> Field:
    """Coefficient-wise difference of two fields on the same space."""
    if a.coefficients.shape != b.coefficients.shape or (
            a.space is not b.space and (a.space.mesh is not b.space.mesh
                                        or a.space.degree != b.space.degree)):
        raise ValueError("fields live on different spaces")
    return Field(a.space, a.coefficients - b.coefficients)


class Gap(NamedTuple):
    """The squared L2 norm and the squared H1 seminorm of a gap a - b,
    summed over the components of a velocity."""

    l2_sq: float
    semi_sq: float

    @property
    def l2(self) -> float:
        return float(np.sqrt(self.l2_sq))

    @property
    def seminorm(self) -> float:
        return float(np.sqrt(self.semi_sq))

    @property
    def h1(self) -> float:
        return float(np.sqrt(self.l2_sq + self.semi_sq))


def _gap_matrices(disc, a: Field, b: Field):
    """(coefficients of a - b, mass, stiffness's eliminated system) for two
    fields on the same space of disc: M2 and K on the P2 space, Mp and Kp
    on the P1 space."""
    e = diff_field(a, b)
    if e.space.mesh is not disc.mesh or e.space.degree not in (1, 2):
        raise ValueError("fields do not live on the discretization's spaces")
    if e.space.degree == 2:
        return e.coefficients, disc.mass_u, disc.velocity_system
    return e.coefficients, disc.mass_p, disc.pressure_system


def _quadratic_form(mat, e: np.ndarray) -> float:
    """e . mat e, summed over the columns of an (n, 2) e."""
    return float(np.vdot(e, mat @ e))


def _stiffness_form(system, e: np.ndarray) -> float:
    """e . K e from K's eliminated system (A, L = K[:, B], B): e.A e
    - |e_B|^2 + 2 e.(L e_B) - e_B.(L e_B)_B.  Each correction is an exact
    0 when e_B = 0, and e.A e is then e.K e bit for bit."""
    e_b = e[system.fixed]
    le = system.lift @ e_b
    return (_quadratic_form(system.matrix, e) - float(np.vdot(e_b, e_b))
            + 2.0 * float(np.vdot(e, le)) - float(np.vdot(e_b, le[system.fixed])))


@one_blas_thread()
def gap(disc, a: Field, b: Field) -> Gap:
    """The Gap of two fields on the spaces of the Discretization disc, as
    e.M e and e.K e for e = a - b, the latter from disc's eliminated K or
    Kp.  The first velocity gap of disc builds its M2."""
    e, mass, stiff = _gap_matrices(disc, a, b)
    return Gap(_quadratic_form(mass, e), _stiffness_form(stiff, e))


@one_blas_thread()
def gap_quotient_l2(disc, a: Field, b: Field) -> float:
    """quotient_norm_l2 of the pressure gap a - b on disc's P1 space.

    The P1 basis sums to 1, so shifting the coefficients by the mean,
    (m.e) / |Omega| with m = disc.mean_p and |Omega| = m.sum(), removes the
    mean of the field; e.Mp e then has none of the cancellation of
    e.Mp e - (m.e)^2 / |Omega| when the gap is nearly constant.
    """
    if a.space.degree != 1 or a.coefficients.ndim != 1:
        raise ValueError("quotient norm applies to pressure fields")
    e, mass, _ = _gap_matrices(disc, a, b)
    e = e - (disc.mean_p @ e) / disc.mean_p.sum()
    return float(np.sqrt(_quadratic_form(mass, e)))


def trace_mismatch(p_b, p_exact, mesh: Mesh) -> float:
    """L2(Gamma) norm of (p_b - p_exact restricted to the boundary).

    Declared surrogate for the fractional trace norm appearing in the
    continuous estimates; only scaling in the perturbation amplitude is
    checked against it.
    """
    xs, ys, w, _ = fem.boundary_quadrature(mesh)
    diff = np.asarray(p_b(xs, ys), dtype=float) - np.asarray(p_exact(xs, ys), dtype=float)
    return float(np.sqrt(np.einsum("bq,bq,bq->", w, diff, diff)))


def gauss_formula_residual(u: Field, w: Field) -> float:
    """Residual of the discrete divergence theorem for a vector/scalar pair.

    integral(u . grad w) + integral(div u * w) - boundary(u . nu * w),
    volume terms by the degree-5 rule, boundary by edge Gauss quadrature.
    """
    quad = fem.triangle_rule_d5()
    vol = 0.0
    for cells, wq in _blocks(u.space.mesh):
        uv = fem.eval_at_quad(u, quad, cells)
        gw = fem.eval_grad_at_quad(w, quad, cells)
        wv = fem.eval_at_quad(w, quad, cells)
        du = fem.eval_div_at_quad(u, quad, cells)
        vol += float(np.einsum("mq,mqc,mqc->", wq, uv, gw)
                     + np.einsum("mq,mq,mq->", wq, du, wv))
    xs, ys, bw, normals = fem.boundary_quadrature(u.space.mesh)
    ub = fem.eval_on_boundary(u, xs, ys)
    wb = fem.eval_on_boundary(w, xs, ys)
    surf = float(np.einsum("bq,bqc,bc,bq->", bw, ub, normals, wb))
    return vol - surf


# ---------------------------------------------------------------------------
# rate fitting and tables


def fit_log_slope(pairs) -> float:
    """Least-squares slope of log(y) against log(x).

    pairs is a sequence of (x, y) with strictly positive entries.
    """
    arr = np.asarray(list(pairs), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 2:
        raise ValueError("need at least two (x, y) pairs")
    if np.any(arr <= 0.0):
        raise ValueError("log-log fit requires positive data")
    return float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])


def saturation_filter(pairs, floor: float):
    """Drop pairs whose y falls below the saturation floor.

    Used to exclude sweep points where the measured error sits near solver
    tolerance before fitting a rate.
    """
    kept = [(x, y) for x, y in pairs if y >= floor]
    return kept


@dataclass
class ErrorRow:
    """One measured solve in a sweep."""

    problem: str
    n: int
    eps: float            # None for the problems without epsilon
    err_u_H1_vs_S: float
    err_u_L2_vs_S: float
    err_p_L2R_vs_S: float
    err_u_H1_vs_PP: float
    err_p_H1_vs_PP: float
    div_u_L2: float
    trace_mismatch_L2G: float


CSV_SCHEMA = "eps_stokes_table v1"
CSV_COLUMNS = tuple(f.name for f in dataclasses.fields(ErrorRow))


@dataclass
class ErrorTable:
    """Rows of sweep measurements plus optional fitted-rate footer."""

    rows: list
    rates: dict | None = None

    def validate(self):
        for row in self.rows:
            for col in CSV_COLUMNS[3:]:
                v = getattr(row, col)
                if not np.isfinite(v) or v < 0.0:
                    raise ValueError(f"table entry {col}={v!r} is not a "
                                     "finite nonnegative number")

    def to_csv_text(self) -> str:
        lines = [CSV_SCHEMA, ",".join(CSV_COLUMNS)]
        for row in self.rows:
            eps = "" if row.eps is None else f"{row.eps:.12e}"
            vals = [f"{getattr(row, col):.12e}" for col in CSV_COLUMNS[3:]]
            lines.append(",".join([row.problem, str(row.n), eps] + vals))
        if self.rates:
            for key in sorted(self.rates):
                lines.append(f"# rate,{key},{self.rates[key]:.12e}")
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        obj = {"schema": CSV_SCHEMA,
               "rows": [dataclasses.asdict(r) for r in self.rows]}
        if self.rates is not None:
            obj["rates"] = dict(self.rates)
        return obj
