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
# d log s / d theta_j for every shape parameter, broadcasting like the
# kernels.  Entries may be infinite or NaN where the shape is exactly zero
# (an endpoint); callers multiply by s and zero those points.

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
    return e * (p / alpha), grid.log_x, -e * t


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
    > 1, ``free``: none) and picks the fitter's unconstrained coordinate:
    theta = bound + exp(z), or theta = z for ``free``.  ``lo``/``hi``
    bound the fitter's start draws and ``gen`` the benchmark's generation
    draws, log-uniform when ``log_scale``; with ``shifted`` both ranges
    apply to theta - 1.  ``from_unit`` maps uniform draws into either range.
    """

    name: str
    constraint: str  # "pos" | "ge1" | "gt1" | "free"
    lo: float
    hi: float
    gen: tuple[float, float]
    log_scale: bool
    shifted: bool = False

    @property
    def bound(self) -> float:
        """Lower bound of a constrained parameter: 0 or 1."""
        return _BOUNDS[self.constraint][0]

    def from_unit(self, u, lo: float, hi: float):
        """Map uniform draws u in [0, 1) into [lo, hi], shifted by 1 if ``shifted``."""
        base = lo * (hi / lo) ** u if self.log_scale else lo + (hi - lo) * u
        return 1.0 + base if self.shifted else base


@dataclass(frozen=True)
class Family:
    """Everything the package knows about one model family.

    ``partials`` gives d log s / d theta_j for each parameter, broadcasting
    like ``kernel``; ``mode`` is the analytic peak location (None: numeric
    argmax);
    ``weights`` names the two ``EvalGrid`` arrays f, g of the entropy
    audit's constraint integrals (None: the family is not audited).
    """

    display_name: str
    color: str
    kernel: Callable
    partials: Callable
    description: str
    params: tuple[Param, ...]
    mode: Callable[..., float] | None = None
    weights: tuple[str, str] | None = None


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
        mode=_mode_gengamma,
    ),
    ModelKind.MAXENT: Family(
        "MaxEnt", "#d62728", _ls_maxent, _dls_maxent,
        "maximum entropy shape exp(-a/x - b/(1-x)); a, b > 0; vanishes at "
        "both endpoints, peak at sqrt(a)/(sqrt(a)+sqrt(b))",
        (Param("a", "pos", 0.05, 50.0, (0.02, 0.7), True),
         Param("b", "pos", 0.05, 50.0, (0.02, 0.7), True)),
        mode=_mode_maxent, weights=("inv_x", "inv_omx"),
    ),
    ModelKind.BETA: Family(
        "Beta", "#ff7f0e", _ls_beta, _dls_beta,
        "beta kernel x^(a-1) (1-x)^(b-1); a, b >= 1; maximum entropy shape "
        "under logarithmic boundary weights",
        (Param("a", "ge1", 0.05, 50.0, (0.05, 0.2), True, shifted=True),
         Param("b", "ge1", 0.05, 50.0, (0.05, 0.2), True, shifted=True)),
        mode=_mode_beta, weights=("log_x", "log_omx"),
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
    return min(1.0, max(0.0, 0.5 * (lo + hi)))


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
