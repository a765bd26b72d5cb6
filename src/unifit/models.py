"""The five unimodal model families as peak-normalized shapes on [0, 1].

Each family is an unnormalized shape function s(x) on the unit interval
together with its peak location.  Curve evaluation rescales the shape so
that the value at the peak equals the model amplitude; the amplitude is
therefore decoupled from the shape parameters and "parameter count"
refers to shape degrees of freedom only.

Families:

* ``maxent``     exp(-a/x - b/(1-x)), a, b > 0.  Vanishes exactly at both
  endpoints; peak at sqrt(a)/(sqrt(a)+sqrt(b)).
* ``beta``       x**(a-1) * (1-x)**(b-1), a, b >= 1.
* ``richards``   time derivative of the Richards (generalized logistic)
  growth curve: k*e**(-k(x-t0)) * (1 + nu*e**(-k(x-t0)))**(-(1+1/nu)).
* ``skewnormal`` standard normal density at (x-xi)/omega times the normal
  CDF at alpha*(x-xi)/omega, restricted to [0, 1].
* ``gengamma``   Stacy-family kernel x**(d-1) * exp(-(x/alpha)**p) with
  d > 1 so the peak is interior.

All shape kernels are evaluated in log space so that deeply spiked
shapes normalize without underflow.  Everything known about a family is
defined once, in its ``FAMILIES`` entry.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import erfc, erfcx

__all__ = [
    "ParameterBoundsError",
    "ModelKind",
    "KIND_ORDER",
    "Param",
    "Family",
    "FAMILIES",
    "ShapeParams",
    "CurveModel",
    "SampledSeries",
    "EvalGrid",
    "shape_value",
    "log_shape_on_grid",
    "mode",
    "evaluate",
    "evaluate_on",
    "sample_series",
]

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class ParameterBoundsError(ValueError):
    """Shape parameters or amplitude violate the family's bounds."""


class ModelKind(enum.Enum):
    """Identifier for one of the five model families."""

    RICHARDS = "richards"
    SKEWNORMAL = "skewnormal"
    GENGAMMA = "gengamma"
    MAXENT = "maxent"
    BETA = "beta"

    @property
    def n_params(self) -> int:
        """Number of shape parameters (amplitude not included)."""
        return len(FAMILIES[self].params)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in FAMILIES[self].params)

    @property
    def display_name(self) -> str:
        return FAMILIES[self].display_name

    @classmethod
    def from_string(cls, name: str) -> "ModelKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown model kind {name!r} (valid: {valid})") from None


#: Row/column order used by the cross-comparison table and the CLI.
KIND_ORDER = tuple(ModelKind)


def _check_bounds(kind: ModelKind, values: tuple[float, ...]) -> None:
    specs = FAMILIES[kind].params
    for spec, v in zip(specs, values):
        if not math.isfinite(v):
            raise ParameterBoundsError(
                f"{kind.value} requires finite parameters, got {spec.name}={v!r}"
            )
    for spec, v in zip(specs, values):
        if spec.constraint == "free":
            continue
        bound, strict = _BOUNDS[spec.constraint]
        if v < bound or (strict and v == bound):
            op = ">" if strict else ">="
            raise ParameterBoundsError(
                f"{kind.value} requires {spec.name} {op} {bound:g}, got {spec.name}={v!r}"
            )


@dataclass(frozen=True)
class ShapeParams:
    """Shape parameters of one family, validated against its bounds."""

    kind: ModelKind
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        expected = self.kind.n_params
        if len(values) != expected:
            raise ParameterBoundsError(
                f"{self.kind.value} takes {expected} parameters "
                f"({', '.join(self.kind.param_names)}), got {len(values)}"
            )
        _check_bounds(self.kind, values)

    def named(self) -> dict[str, float]:
        """Parameter values keyed by their conventional names."""
        return dict(zip(self.kind.param_names, self.values))


@dataclass(frozen=True)
class CurveModel:
    """A model family with shape parameters and a peak amplitude.

    By construction ``evaluate(model, mode(model.params)) == amplitude``.
    """

    params: ShapeParams
    amplitude: float

    def __post_init__(self) -> None:
        amp = float(self.amplitude)
        object.__setattr__(self, "amplitude", amp)
        if not (math.isfinite(amp) and amp > 0.0):
            raise ParameterBoundsError(f"amplitude must be > 0, got {amp!r}")


@dataclass(frozen=True)
class SampledSeries:
    """A series sampled on unit-interval abscissae; the universal exchange
    format between the generator, the fitter and the benchmark."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.ascontiguousarray(self.xs, dtype=np.float64)
        ys = np.ascontiguousarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if xs.size == 0:
            raise ValueError("series must contain at least one point")
        # NaN passes both range comparisons
        if not np.isfinite(xs).all():
            raise ValueError("xs must be finite")
        if xs.min() < 0.0 or xs.max() > 1.0:
            raise ValueError("xs must lie within [0, 1]")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.size


class EvalGrid:
    """Precomputed abscissa arrays shared by repeated shape evaluations.

    ``omx`` is 1-x; quadrature code passes a separately computed, more
    accurate complement for nodes very close to 1.
    """

    __slots__ = ("xs", "omx", "inv_x", "inv_omx", "log_x", "log_omx", "has_boundary")

    def __init__(self, xs: np.ndarray, omx: np.ndarray | None = None):
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        self.xs = xs
        self.omx = 1.0 - xs if omx is None else np.ascontiguousarray(omx, dtype=np.float64)
        with np.errstate(divide="ignore", over="ignore"):
            self.inv_x = 1.0 / xs
            self.inv_omx = 1.0 / self.omx
            self.log_x = np.log(xs)
            self.log_omx = np.log(self.omx)
        self.has_boundary = bool(
            np.isinf(self.log_x).any() or np.isinf(self.log_omx).any()
        )


# --- log-shape kernels ----------------------------------------------------
#
# Parameters may be scalars or (m, 1) columns; the result broadcasts against
# the grid arrays, so the same kernels serve scalar evaluation and the
# batched fitting loop.  Callers silence the expected divide/overflow
# warnings once per entry point (the fitting loop calls these thousands of
# times, so the kernels themselves stay free of errstate contexts).

def _ls_maxent(a, b, grid: EvalGrid):
    return -(a * grid.inv_x) - (b * grid.inv_omx)


def _ls_beta(a, b, grid: EvalGrid):
    out = (a - 1.0) * grid.log_x + (b - 1.0) * grid.log_omx
    # 0*(-inf) at an endpoint with a unit exponent: the limit x**0 is 1.
    if grid.has_boundary and np.isnan(out).any():
        out = np.where(np.isnan(out), 0.0, out)
    return out


def _ls_richards(k, t0, nu, grid: EvalGrid):
    u = -k * (grid.xs - t0)
    return np.log(k) + u - (1.0 + 1.0 / nu) * np.logaddexp(0.0, np.log(nu) + u)


def _ls_skewnormal(xi, omega, alpha, grid: EvalGrid):
    z = (grid.xs - xi) / omega
    return -0.5 * z * z + np.log(0.5 * erfc(-alpha * z * _SQRT1_2))


def _ls_gengamma(alpha, d, p, grid: EvalGrid):
    return (d - 1.0) * grid.log_x - np.exp(p * (grid.log_x - np.log(alpha)))


# --- partials of the log shape -------------------------------------------
#
# The factors that, times the dtheta/dz of the family's coords, give
# d log s / d z_j (see ``Family``), broadcasting like the kernels.  Entries
# may be infinite or NaN where the shape is exactly zero (an endpoint);
# callers multiply by s and zero those points.

def _dls_maxent(a, b, grid: EvalGrid):
    return -grid.inv_x, -grid.inv_omx


def _dls_beta(a, b, grid: EvalGrid):
    return grid.log_x, grid.log_omx


def _dls_richards(k, t0, nu, grid: EvalGrid):
    u = -k * (grid.xs - t0)
    w = np.log(nu) + u
    big = np.logaddexp(0.0, w)  # log(1 + nu e^u)
    sig = np.exp(w - big)  # nu e^u / (1 + nu e^u)
    du = 1.0 - (1.0 + 1.0 / nu) * sig  # d log s / d u
    return 1.0 / k + (u / k) * du, k * du, (big / nu - (1.0 + 1.0 / nu) * sig) / nu


def _dls_skewnormal(xi, omega, alpha, grid: EvalGrid):
    z = (grid.xs - xi) / omega
    # inverse Mills ratio phi(t) / Phi(t) at t = alpha z, without underflow
    mills = _SQRT_2_OVER_PI / erfcx(-alpha * z * _SQRT1_2)
    dz = alpha * mills - z  # d log s / d z
    return -dz / omega, -dz * z / omega, z * mills


def _dls_gengamma(alpha, d, p, grid: EvalGrid):
    t = grid.log_x - np.log(alpha)
    e = np.exp(p * t)  # (x / alpha)**p
    dm1 = d - 1.0
    # log(x* / alpha) = (z2 - 2 log p) / p = log((d - 1) / p) / p
    dz3 = e * ((np.log(dm1 / p) + 2.0) / p - t) - (dm1 / p) * grid.log_x
    return p * e, dm1 * grid.log_x - e, (p - _GENGAMMA_P_MIN) * dz3


# --- closed-form start candidates (``Family.start``) -----------------------


def _solve_rows(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b for a stack of small systems.

    The stacked LAPACK call solves each matrix on its own, so a row's
    solution does not depend on the others; a singular matrix makes it
    raise for the whole stack, so the rows are then solved one at a time,
    a singular one by least squares (the minimum-norm solution).
    """
    try:
        return np.linalg.solve(M, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.empty_like(b)
        for i in range(b.shape[0]):
            try:
                out[i] = np.linalg.solve(M[i], b[i])
            except np.linalg.LinAlgError:
                out[i] = np.linalg.lstsq(M[i], b[i], rcond=None)[0]
        return out


def _log_linear(log_y: np.ndarray, w: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients (P, 3) of the least-squares fits c0 + c1 f + c2 g to
    log y (n,) with row weights w (n,), one per column of f and g ((n, P)
    or broadcasting to it), from the normal equations of unit-norm
    columns, refined once (f and g of a narrow shape are nearly collinear);
    a singular system gives its minimum-norm solution.  The sums run over
    the points in order, whatever P, and the normal equations are built a
    row at a time: no (n, P, 3, 3) temporary."""
    w = w[:, None]
    X = np.stack(np.broadcast_arrays(w, w * f, w * g), axis=2)
    scale = np.sqrt(np.add.reduce(X * X, axis=0))
    X /= scale
    N = np.stack([np.add.reduce(X[:, :, i, None] * X, axis=0) for i in range(3)], axis=1)
    b = w * log_y[:, None]
    u = _solve_rows(N, np.add.reduce(X * b[:, :, None], axis=0))
    r = b - np.add.reduce(X * u, axis=2)
    u += _solve_rows(N, np.add.reduce(X * r[:, :, None], axis=0))
    return u / scale


def _log_linear_start(columns: Callable) -> Callable:
    """The start builder of a family whose log shape is linear in theta:
    ``columns`` maps an ``EvalGrid`` to P column pairs f, g, each (P, n) or
    broadcasting to it, on which log s = c0 + c1 f + c2 g, and a map from
    coefficient rows (P, 3) to theta (P, d).  Each pair regresses log y on
    (1, f, g) over the points where y is above 2% of its maximum and every
    pair's f and g are finite, weighted by y (the first-order error of
    log y is dy / y); fewer than 3 such points give no candidate."""

    def start(grid: EvalGrid, ys: np.ndarray):
        f, g, to_theta = columns(grid)
        use = (ys > 0.02 * ys.max()) & np.isfinite(f).all(axis=0) & np.isfinite(g).all(axis=0)
        if np.count_nonzero(use) < 3:
            return None
        y = ys[use]
        return to_theta(_log_linear(np.log(y), y, f[:, use].T, g[:, use].T))

    return start


def _linear_in(f: str, g: str, k: float, t: float) -> Callable:
    """The start of a log shape linear in theta on the named ``EvalGrid``
    arrays f and g: one candidate, theta = t + k (c1, c2)."""
    return _log_linear_start(
        lambda grid: (getattr(grid, f)[None], getattr(grid, g)[None], lambda c: t + k * c[:, 1:])
    )


def _gengamma_columns(grid: EvalGrid):
    # at a fixed power p, log s = (d - 1) log x - alpha^-p x^p; 24 powers,
    # log-spaced over the start range of p
    spec = FAMILIES[ModelKind.GENGAMMA].params[2]
    p = spec.from_unit(np.linspace(0.0, 1.0, 24), spec.lo, spec.hi)
    g = -(grid.xs ** p[:, None])

    def to_theta(c: np.ndarray) -> np.ndarray:
        return np.stack([c[:, 2] ** (-1.0 / p), 1.0 + c[:, 1], p], axis=1)

    return grid.log_x[None], g, to_theta


@lru_cache(maxsize=None)
def _richards_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, log nu, u+ - u-) at 121 nu log-spaced over [1e-3, 1e3], R rising
    with nu.  Against its peak, the richards log shape is h(u) = u - (1 +
    1/nu) log((1 + nu e^u) / (1 + nu)), u = -k (x - t0); u+ > 0 > u- solve
    h(u) = -log 2, so the half-maximum crossings lie u+ / k left and -u- / k
    right of t0, and R = u+ / -u- is the ratio of the half-widths.  h is
    concave with its maximum 0 at u = 0, and h <= -log 2 at u = (1 + nu)
    log(1 + 1/nu) + nu log 2 and at u = -(1 + 1/nu) log(1 + nu) - log 2,
    which bracket the bisection of each root."""
    nu = np.logspace(-3.0, 3.0, 121)
    c = 1.0 + 1.0 / nu
    log_nu, log2 = np.log(nu), math.log(2.0)
    above = np.zeros((2, nu.size))  # h > -log 2: the peak side of each root
    below = np.stack([(1.0 + nu) * np.log1p(1.0 / nu) + nu * log2, -c * np.log1p(nu) - log2])
    for _ in range(64):
        u = 0.5 * (above + below)
        up = u - c * (np.logaddexp(0.0, log_nu + u) - np.log1p(nu)) > -log2
        above = np.where(up, u, above)
        below = np.where(up, below, u)
    u_plus, u_minus = 0.5 * (above + below)
    table = u_plus / -u_minus, log_nu, u_plus - u_minus
    for column in table:
        column.setflags(write=False)
    return table


def _half_maximum(xs: np.ndarray, ys: np.ndarray):
    """(x_l, peak, x_r) of a series, as read in peak fitting (Guo 2011):
    the peak is the vertex of the parabola through the sample maximum and
    its two neighbours, and x_l < peak < x_r the crossings of half the
    vertex height, interpolated linearly between the samples nearest the
    peak that straddle it.  None when the maximum is an end point or the
    series does not fall below half of it on both sides."""
    i = int(np.argmax(ys))
    if i == 0 or i == ys.size - 1:
        return None
    (x0, x1, x2), (y0, y1, y2) = xs[i - 1 : i + 2], ys[i - 1 : i + 2]
    d1 = (y1 - y0) / (x1 - x0)
    curve = ((y2 - y1) / (x2 - x1) - d1) / (x2 - x0)
    peak, top = x1, y1
    if curve < 0.0:
        peak = 0.5 * (x0 + x1 - d1 / curve)
        top = y0 + (peak - x0) * (d1 + curve * (peak - x1))
    half = 0.5 * top
    left = np.flatnonzero(ys[:i] < half)
    right = np.flatnonzero(ys[i + 1 :] < half)
    if not (left.size and right.size):
        return None
    j, m = left[-1], i + 1 + right[0]
    x_l = xs[j] + (xs[j + 1] - xs[j]) * (half - ys[j]) / (ys[j + 1] - ys[j])
    x_r = xs[m - 1] + (xs[m] - xs[m - 1]) * (ys[m - 1] - half) / (ys[m - 1] - ys[m])
    return x_l, peak, x_r


#: Widest half-maximum width from which richards starts by its reading.
_RICHARDS_MAX_WIDTH = 0.7


def _start_richards(grid: EvalGrid, ys: np.ndarray):
    """Richards' start from the ``_half_maximum`` reading (x_l, t0, x_r) of
    the series: nu inverts R = (t0 - x_l) / (x_r - t0) through
    ``_richards_table`` and k = (u+ - u-)(nu) / W, W = x_r - x_l.  No
    candidate when there is no reading, W >= 0.7 (near-box series, whose
    best richards fit lies in another basin) or R is off the table (nu
    would be clamped)."""
    read = _half_maximum(grid.xs, ys)
    if read is None:
        return None
    x_l, t0, x_r = read
    ratio_table, log_nu, span = _richards_table()
    width, ratio = x_r - x_l, (t0 - x_l) / (x_r - t0)
    if not (width < _RICHARDS_MAX_WIDTH and ratio_table[0] <= ratio <= ratio_table[-1]):
        return None
    nu = math.exp(np.interp(ratio, ratio_table, log_nu))
    return np.array([[np.interp(ratio, ratio_table, span) / width, t0, nu]])


# --- z <-> theta maps -----------------------------------------------------


def _param_coords(params: tuple[Param, ...]) -> tuple[Callable, Callable]:
    """The ``coords`` a ``Family`` gets when it names none (see there);
    dtheta/dz is exactly 1.0 in the free columns."""
    free = np.array([spec.constraint == "free" for spec in params])
    bound = np.array([0.0 if f else _BOUNDS[spec.constraint][0] for f, spec in zip(free, params)])
    free.setflags(write=False)
    bound.setflags(write=False)

    def to_theta(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        dtheta = np.exp(Z)
        theta = dtheta + bound
        np.copyto(theta, Z, where=free)
        np.copyto(dtheta, 1.0, where=free)
        return theta, dtheta

    def to_z(theta: np.ndarray) -> np.ndarray:
        return np.log(theta - bound, out=theta.copy(), where=~free)

    return to_theta, to_z


# Gengamma's ridge alpha -> 0, d -> inf at a fixed mode and log-space
# curvature (it tends to a log-normal bump as p -> 0) is a long crawl in
# per-parameter logs; in z = (log x*, log c, log(p - p_min)), x* =
# alpha ((d-1)/p)^(1/p) the unclamped mode and c = p (d-1), it is a walk
# along z3 alone (Prentice 1974 makes the log-normal limit a finite point
# the same way).  The floor p_min keeps alpha a normal float: for p >=
# 0.05, log alpha >= z1 - max(0, 20 z2 + 120), above -708 for any c below
# about e^28.  _dls_gengamma gives d log s / dz itself, so dtheta/dz is 1.

_GENGAMMA_P_MIN = 0.05


def _gengamma_theta(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z1, z2, z3 = Z.T
    p = _GENGAMMA_P_MIN + np.exp(z3)
    theta = np.stack([np.exp(z1 - (z2 - 2.0 * np.log(p)) / p), 1.0 + np.exp(z2) / p, p], axis=1)
    return theta, np.ones_like(Z)


def _gengamma_z(theta: np.ndarray) -> np.ndarray:
    alpha, d, p = theta.T
    dm1 = d - 1.0
    return np.stack(
        [np.log(alpha) + np.log(dm1 / p) / p, np.log(p * dm1), np.log(p - _GENGAMMA_P_MIN)], axis=1
    )


def _mode_maxent(a, b):
    sa, sb = math.sqrt(a), math.sqrt(b)
    return sa / (sa + sb)


def _mode_beta(a, b):
    if a + b > 2.0:
        return min(1.0, max(0.0, (a - 1.0) / (a + b - 2.0)))
    return 0.5  # flat case a = b = 1: any point works, pick the center


def _mode_gengamma(alpha, d, p):
    try:
        return min(1.0, alpha * ((d - 1.0) / p) ** (1.0 / p))
    except OverflowError:  # the power overflows; the product still may not
        return math.exp(min(0.0, math.log(alpha) + math.log((d - 1.0) / p) / p))


# --- the family registry ----------------------------------------------------

#: Lower bound per constraint, and whether the bound itself is excluded.
_BOUNDS = {"pos": (0.0, True), "ge1": (1.0, False), "gt1": (1.0, True)}


@dataclass(frozen=True)
class Param:
    """One shape parameter: its bound and the ranges it is drawn from.

    ``constraint`` is the bound (``pos``: > 0, ``ge1``: >= 1, ``gt1``:
    > 1, ``free``: none).  ``lo``/``hi`` bound the fitter's start draws
    and ``gen`` the benchmark's generation draws, log-uniform when
    ``log_scale``; with ``shifted`` both ranges apply to theta - 1.
    ``from_unit`` maps uniform draws into either range.
    """

    name: str
    constraint: str  # "pos" | "ge1" | "gt1" | "free"
    lo: float
    hi: float
    gen: tuple[float, float]
    log_scale: bool
    shifted: bool = False

    def from_unit(self, u, lo: float, hi: float):
        """Map uniform draws u in [0, 1) into [lo, hi], shifted by 1 if ``shifted``."""
        base = lo * (hi / lo) ** u if self.log_scale else lo + (hi - lo) * u
        return 1.0 + base if self.shifted else base


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one model family.

    ``coords`` is the fitter's map between the parameters theta and its
    unconstrained coordinates z, (z -> (theta, dtheta/dz), theta -> z) on
    (m, d) matrices; ``partials``, broadcasting like ``kernel``, times
    dtheta/dz is d log s / d z_j.  Left out, it is built from the
    ``Param``s: theta = bound + exp(z), or theta = z for a free parameter,
    with ``partials`` giving d log s / d theta_j.  ``mode`` is the analytic
    peak location (None: numeric argmax);
    ``weights`` names the two ``EvalGrid`` arrays f, g of the entropy
    audit's constraint integrals (None: the family is not audited).
    ``start`` builds the fitter's closed-form start candidates (None: the
    family has none): it maps an ``EvalGrid`` and the series' values to a
    (P, d) theta-matrix, or to None when it reads no candidate (the fit
    then runs its start pool).  Maxent, beta and gengamma regress log y on
    column pairs in which their log shape is linear (``_log_linear_start``):
    maxent and beta on their ``weights``, gengamma on log x and -x^p at each
    power p of a 24-point log-spaced scan over its start range.  Richards
    reads its peak and half-maximum crossings (``_start_richards``).
    """

    display_name: str
    color: str
    kernel: Callable
    partials: Callable
    description: str
    params: tuple[Param, ...]
    mode: Callable[..., float] | None = None
    weights: tuple[str, str] | None = None
    coords: tuple[Callable, Callable] | None = None
    start: Callable | None = None

    def __post_init__(self) -> None:
        if self.coords is None:
            object.__setattr__(self, "coords", _param_coords(self.params))

    def inside(self, theta: np.ndarray) -> np.ndarray:
        """Whether each row of a (m, d) theta-matrix is finite and strictly
        inside every bound."""
        bound = [-math.inf if s.constraint == "free" else _BOUNDS[s.constraint][0]
                 for s in self.params]
        return (np.isfinite(theta) & (theta > np.array(bound))).all(axis=1)


# Generation ranges emphasize each family's characteristic geometry within
# the rise-and-return class the benchmark targets: broad steep-walled
# plateaus for the two maximum entropy families, steep-flanked bumps (after
# edge rejection) for the three classical references.  They need not lie
# inside the start ranges (maxent's reaches below its start range): what
# matters is that the unconstrained map reaches every generated value.
FAMILIES: dict[ModelKind, Family] = {
    ModelKind.RICHARDS: Family(
        "Richards", "#1f77b4", _ls_richards, _dls_richards,
        "derivative of the Richards (generalized logistic) growth curve; "
        "k > 0 rate, t0 peak location (free), nu > 0 asymmetry",
        (Param("k", "pos", 2.0, 100.0, (2.0, 100.0), True),
         Param("t0", "free", 0.0, 1.0, (0.0, 1.0), False),
         Param("nu", "pos", 0.1, 10.0, (0.1, 10.0), True)),
        start=_start_richards,
    ),
    ModelKind.SKEWNORMAL: Family(
        "Skewnormal", "#9467bd", _ls_skewnormal, _dls_skewnormal,
        "skew-normal density restricted to [0, 1]; xi location (free), "
        "omega > 0 scale, alpha skewness (free)",
        (Param("xi", "free", 0.0, 1.0, (0.0, 1.0), False),
         Param("omega", "pos", 0.02, 1.0, (0.08, 0.3), True),
         Param("alpha", "free", -20.0, 20.0, (-2.5, 2.5), False)),
    ),
    ModelKind.GENGAMMA: Family(
        "GenGamma", "#2ca02c", _ls_gengamma, _dls_gengamma,
        "generalized gamma kernel x^(d-1) exp(-(x/alpha)^p); alpha > 0 "
        "scale, d > 1 shape (interior peak), p > 0 power",
        (Param("alpha", "pos", 0.05, 2.0, (0.05, 2.0), True),
         Param("d", "gt1", 1.1, 30.0, (1.1, 30.0), True),
         Param("p", "pos", 0.3, 10.0, (0.5, 3.0), True)),
        mode=_mode_gengamma, coords=(_gengamma_theta, _gengamma_z),
        start=_log_linear_start(_gengamma_columns),
    ),
    ModelKind.MAXENT: Family(
        "MaxEnt", "#d62728", _ls_maxent, _dls_maxent,
        "maximum entropy shape exp(-a/x - b/(1-x)); a, b > 0; vanishes at "
        "both endpoints, peak at sqrt(a)/(sqrt(a)+sqrt(b))",
        (Param("a", "pos", 0.05, 50.0, (0.02, 0.7), True),
         Param("b", "pos", 0.05, 50.0, (0.02, 0.7), True)),
        mode=_mode_maxent, weights=("inv_x", "inv_omx"),
        start=_linear_in("inv_x", "inv_omx", -1.0, 0.0),
    ),
    ModelKind.BETA: Family(
        "Beta", "#ff7f0e", _ls_beta, _dls_beta,
        "beta kernel x^(a-1) (1-x)^(b-1); a, b >= 1; maximum entropy shape "
        "under logarithmic boundary weights",
        (Param("a", "ge1", 0.05, 50.0, (0.05, 0.2), True, shifted=True),
         Param("b", "ge1", 0.05, 50.0, (0.05, 0.2), True, shifted=True)),
        mode=_mode_beta, weights=("log_x", "log_omx"),
        start=_linear_in("log_x", "log_omx", 1.0, 1.0),
    ),
}


def log_shape_on_grid(params: ShapeParams, grid: EvalGrid) -> np.ndarray:
    """Natural log of the unnormalized shape at every grid point.

    Entries are ``-inf`` where the shape is exactly zero.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return FAMILIES[params.kind].kernel(*params.values, grid)


def shape_value(params: ShapeParams, x: float) -> float:
    """Unnormalized shape value at a single point of [0, 1].

    Exactly 0.0 (the limit value) where the shape vanishes, e.g. the
    maxent family at either endpoint.
    """
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    grid = EvalGrid(np.array([x]))
    return float(np.exp(log_shape_on_grid(params, grid)[0]))


def _scalar_log_shape(params: ShapeParams, x: float) -> float:
    return float(log_shape_on_grid(params, EvalGrid(np.array([x])))[0])


def _argmax_numeric(params: ShapeParams, n_grid: int = 4097, tol: float = 1e-10) -> float:
    """Coarse grid scan followed by golden-section refinement.

    The shapes are unimodal, so a bracketed derivative-free search is
    robust; the log shape is used because it is better conditioned for
    spiked parameters.
    """
    xs = np.linspace(0.0, 1.0, n_grid)
    ls = log_shape_on_grid(params, EvalGrid(xs))
    i = int(np.argmax(ls))
    lo = xs[i - 1] if i > 0 else xs[0]
    hi = xs[i + 1] if i < n_grid - 1 else xs[-1]

    c = hi - _INVPHI * (hi - lo)
    d = lo + _INVPHI * (hi - lo)
    fc = _scalar_log_shape(params, c)
    fd = _scalar_log_shape(params, d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = _scalar_log_shape(params, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = _scalar_log_shape(params, d)
    mid = min(1.0, max(0.0, 0.5 * (lo + hi)))
    # next to a cliff (skewnormal on its half-normal ridge, |alpha| ~ 1e20
    # or more) the midpoint can land where the shape underflows to 0
    if _scalar_log_shape(params, mid) == -math.inf:
        return float(c if fc > fd else d)  # both lie in [lo, hi]
    return float(mid)


@lru_cache(maxsize=4096)
def mode(params: ShapeParams) -> float:
    """Peak location in [0, 1].

    Analytic for maxent, beta and gengamma; numeric argmax (grid scan plus
    golden-section refinement) for richards and skewnormal, clamped to the
    unit interval.
    """
    analytic = FAMILIES[params.kind].mode
    return analytic(*params.values) if analytic else _argmax_numeric(params)


@lru_cache(maxsize=4096)
def _log_peak(params: ShapeParams) -> float:
    return _scalar_log_shape(params, mode(params))


def evaluate_on(model: CurveModel, xs: np.ndarray) -> np.ndarray:
    """Peak-normalized model values at the given abscissae.

    Computed as amplitude * exp(log s(x) - log s(mode)) so deeply spiked
    shapes whose raw peak value underflows still evaluate correctly.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
        raise ValueError("xs must lie within [0, 1]")
    ls = log_shape_on_grid(model.params, EvalGrid(xs))
    return model.amplitude * np.exp(ls - _log_peak(model.params))


def evaluate(model: CurveModel, x: float) -> float:
    """Peak-normalized model value at a single point."""
    return float(evaluate_on(model, np.array([float(x)]))[0])


def sample_series(model: CurveModel, grid_size: int) -> SampledSeries:
    """Deterministically sample the model on a uniform unit grid."""
    grid_size = int(grid_size)
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")
    xs = np.linspace(0.0, 1.0, grid_size)
    return SampledSeries(xs, evaluate_on(model, xs))
