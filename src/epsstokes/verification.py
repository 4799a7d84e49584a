"""Measurement instruments: manufactured solutions, error norms, rate fits.

The registry carries a divergence-free polynomial velocity with zero
boundary trace and a cubic pressure of zero mean, plus a variant whose
pressure boundary data is perturbed by a cosine trace mismatch.  All error
integrals use the same degree-5 quadrature as assembly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import Field
from .mesh import Mesh


# ---------------------------------------------------------------------------
# manufactured cases


def _bump(t):
    # t^2 (1-t)^2 and derivatives; double zeros at 0 and 1.
    return t * t * (1.0 - t) * (1.0 - t)


def _bump1(t):
    return 2.0 * t - 6.0 * t * t + 4.0 * t ** 3


def _bump2(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def _bump3(t):
    return 24.0 * t - 12.0


@dataclass(frozen=True)
class ManufacturedCase:
    """Closed-form solution pair with its forcing and trace perturbation.

    The velocity is divergence-free with zero boundary values; the pressure
    has zero mean.  body_force equals -laplace(u) + grad(p) in closed form.
    The pressure boundary data is p_exact plus delta times the
    trace_perturbation.
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
    return np.stack([_bump(x) * _bump1(y), -_bump1(x) * _bump(y)], axis=-1)


def _ms1_grad_u(x, y):
    # [i, d] = d(u_i)/d(x_d)
    row1 = np.stack([_bump1(x) * _bump1(y), _bump(x) * _bump2(y)], axis=-1)
    row2 = np.stack([-_bump2(x) * _bump(y), -_bump1(x) * _bump1(y)], axis=-1)
    return np.stack([row1, row2], axis=-2)


def _ms1_p(x, y):
    return x ** 3 + y ** 3 - 0.5


def _ms1_grad_p(x, y):
    return np.stack([3.0 * x * x, 3.0 * y * y], axis=-1)


def _ms1_force(x, y):
    f1 = -_bump2(x) * _bump1(y) - _bump(x) * _bump3(y) + 3.0 * x * x
    f2 = _bump3(x) * _bump(y) + _bump1(x) * _bump2(y) + 3.0 * y * y
    return np.stack([f1, f2], axis=-1)


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


def _as_exact(field: Field, exact):
    """Exact values at quadrature points, broadcast to the field's layout
    (a trailing axis of 2 for a vector field); 0.0 when exact is None."""
    if exact is None:
        return 0.0
    quad = fem.triangle_rule_d5()
    xs, ys = fem.quad_points_physical(field.space.mesh, quad)
    vals = np.asarray(exact(xs, ys), dtype=float)
    return np.broadcast_to(vals, xs.shape + field.coefficients.shape[1:])


def error_l2(field: Field, exact) -> float:
    """L2 norm of (field - exact); pass exact=None for the norm of field."""
    quad = fem.triangle_rule_d5()
    w = fem.quad_weights_physical(field.space.mesh, quad)
    diff = fem.eval_at_quad(field, quad) - _as_exact(field, exact)
    if diff.ndim == 3:
        return float(np.sqrt(np.einsum("mq,mqc,mqc->", w, diff, diff)))
    return float(np.sqrt(np.einsum("mq,mq,mq->", w, diff, diff)))


def seminorm_h1(field: Field, grad_exact=None) -> float:
    """L2 norm of grad(field - exact)."""
    quad = fem.triangle_rule_d5()
    sp = field.space
    w = fem.quad_weights_physical(sp.mesh, quad)
    g = fem.eval_grad_at_quad(field, quad)
    if grad_exact is not None:
        xs, ys = fem.quad_points_physical(sp.mesh, quad)
        g = g - np.asarray(grad_exact(xs, ys), dtype=float)
    sq = (g * g).reshape(g.shape[0], g.shape[1], -1).sum(axis=2)
    return float(np.sqrt(np.einsum("mq,mq->", w, sq)))


def error_h1(field: Field, exact, grad_exact) -> float:
    """Full H1 norm of (field - exact): sqrt(L2^2 + seminorm^2)."""
    l2 = error_l2(field, exact)
    semi = seminorm_h1(field, grad_exact)
    return float(np.hypot(l2, semi))


def quotient_norm_l2(field: Field, exact) -> float:
    """L2 norm of (field - exact) after removing the mean of the difference."""
    if field.coefficients.ndim != 1:
        raise ValueError("quotient norm applies to scalar fields")
    quad = fem.triangle_rule_d5()
    w = fem.quad_weights_physical(field.space.mesh, quad)
    diff = fem.eval_at_quad(field, quad) - _as_exact(field, exact)
    volume = float(w.sum())
    mean = float(np.einsum("mq,mq->", w, diff)) / volume
    diff = diff - mean
    return float(np.sqrt(np.einsum("mq,mq,mq->", w, diff, diff)))


def div_l2(field: Field) -> float:
    """L2 norm of the divergence of a vector field."""
    quad = fem.triangle_rule_d5()
    w = fem.quad_weights_physical(field.space.mesh, quad)
    d = fem.eval_div_at_quad(field, quad)
    return float(np.sqrt(np.einsum("mq,mq,mq->", w, d, d)))


def diff_field(a: Field, b: Field) -> Field:
    """Coefficient-wise difference of two fields on the same space."""
    if a.coefficients.shape != b.coefficients.shape or (
            a.space is not b.space and (a.space.mesh is not b.space.mesh
                                        or a.space.degree != b.space.degree)):
        raise ValueError("fields live on different spaces")
    return Field(a.space, a.coefficients - b.coefficients)


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
    wq = fem.quad_weights_physical(u.space.mesh, quad)
    uv = fem.eval_at_quad(u, quad)
    gw = fem.eval_grad_at_quad(w, quad)
    wv = fem.eval_at_quad(w, quad)
    du = fem.eval_div_at_quad(u, quad)
    vol = float(np.einsum("mq,mqc,mqc->", wq, uv, gw)
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
