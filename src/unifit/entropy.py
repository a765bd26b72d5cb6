"""Numerical audit of the variational characterization of the two
maximum entropy families.

For a mass-normalized shape p on [eps, 1-eps] the module computes the
differential entropy H = -integral(p log p) and the three constraint
integrals C1 = integral(p), C2 = integral(f p), C3 = integral(g p) with
the family-matched weights:

* maxent:  f(x) = 1/x,    g(x) = 1/(1-x)
* beta:    f(x) = log x,  g(x) = log(1-x)

``perturbation_audit`` then verifies local maximality: random smooth
perturbations constrained to preserve C1, C2, C3 must not increase H.

Quadrature is composite Simpson applied after a smooth endpoint-graded
change of variable (nodes cluster at both ends like the CDF of a
symmetric beta(5, 5)).  A plain uniform mesh stalls near 1e-4 accuracy
for beta exponents close to 1, where the integrand behaves like a
fractional power of x; the graded mesh restores full-order convergence
for every admissible parameter choice while leaving the smooth maxent
integrands untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._seeds import mix64
from .models import FAMILIES, EvalGrid, ModelKind, ShapeParams, log_shape_on_grid

__all__ = [
    "QuadratureSpec",
    "AuditReport",
    "UnsupportedFamilyError",
    "entropy_of",
    "constraint_integrals",
    "perturbation_audit",
]

_AUDIT_TAG = 0x4155  # "AU"
_PERTURBATION_SCALE = 1e-3  # sup-norm of delta relative to max p
_FAILURE_MARGIN = 1e-9
_POLY_DEGREE = 8
_MAX_REDRAWS = 10
_AUDIT_BLOCK = 16  # trials scored per block of matrix products
# A constraint row whose part orthogonal to the rows before it (|R[k, k]|
# of the QR factorization) is at most sqrt(eps) of its own norm counts as
# numerically dependent on them.  The threshold comes from a sweep of 5000
# shapes made with classical Gram-Schmidt, whose remainder is the same
# quantity: every audit below it failed spuriously or skipped every trial,
# bar 7 clean ones whose remainder, below 1e-16, was rounding noise.
_DEPENDENT_ROW = float(np.sqrt(np.finfo(np.float64).eps))


class UnsupportedFamilyError(ValueError):
    """Entropy operations only apply to the maxent and beta families."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node count and endpoint cutoff for the audit integrals.

    Integration runs over [endpoint_cutoff, 1 - endpoint_cutoff]; the
    cutoff realizes the vanishing-endpoint limit without evaluating the
    singular weights at 0 or 1.
    """

    node_count: int = 2001
    endpoint_cutoff: float = 1e-8

    def __post_init__(self) -> None:
        if self.node_count < 3 or self.node_count % 2 == 0:
            raise ValueError(
                f"node_count must be odd and >= 3, got {self.node_count}"
            )
        if not 0.0 < self.endpoint_cutoff < 0.5:
            raise ValueError(
                f"endpoint_cutoff must lie in (0, 0.5), got {self.endpoint_cutoff}"
            )


@dataclass(frozen=True)
class AuditReport:
    """Quadrature values plus the outcome of the maximality check."""

    H: float
    C1: float
    C2: float
    C3: float
    perturbation_trials: int
    perturbation_failures: int
    perturbation_skipped: int = 0


def _smoothstep(u: np.ndarray) -> np.ndarray:
    # CDF of beta(5, 5): first four derivatives vanish at both ends.
    return ((((70.0 * u - 315.0) * u + 540.0) * u - 420.0) * u + 126.0) * u**5


@lru_cache(maxsize=64)
def _quad_nodes(node_count: int, eps: float):
    """Graded Simpson rule: (EvalGrid over the nodes, weight vector)."""
    u = np.linspace(0.0, 1.0, node_count)
    w = np.full(node_count, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (1.0 / (node_count - 1)) / 3.0
    span = 1.0 - 2.0 * eps
    x = eps + span * _smoothstep(u)
    # the node map is symmetric, so the exact mirror of x is an accurate
    # 1-x even where x is within rounding distance of 1
    omx = x[::-1].copy()
    w = w * span * 630.0 * u**4 * (1.0 - u) ** 4
    grid = EvalGrid(x, omx)
    w.setflags(write=False)
    return grid, w


def _require_entropy_family(params: ShapeParams) -> None:
    if FAMILIES[params.kind].weights is None:
        supported = " and ".join(k.value for k in ModelKind if FAMILIES[k].weights)
        raise UnsupportedFamilyError(
            f"entropy audit supports {supported} only, got {params.kind.value}"
        )


def _density(params: ShapeParams, grid: EvalGrid, w: np.ndarray) -> np.ndarray:
    """Shape normalized to unit quadrature mass, which must be finite and > 0."""
    ls = log_shape_on_grid(params, grid)
    with np.errstate(invalid="ignore"):  # ls.max() is -inf if every node underflows
        s = np.exp(ls - ls.max())
        mass = float(w @ s)
    if not 0.0 < mass < np.inf:
        raise ValueError(f"{params.kind.value} {params.named()} has quadrature mass {mass!r}")
    return s / mass


def _entropy_integral(p: np.ndarray, w: np.ndarray):
    # -integral(p log p) of p, or of each row of p; p log p is 0 where p vanishes
    lg = np.zeros_like(p)
    np.log(p, out=lg, where=p > 0.0)
    return -((p * lg) @ w)


def _weights_for(params: ShapeParams, grid: EvalGrid) -> tuple[np.ndarray, np.ndarray]:
    f, g = FAMILIES[params.kind].weights
    return getattr(grid, f), getattr(grid, g)


def entropy_of(params: ShapeParams, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Differential entropy (nats) of the mass-normalized shape."""
    _require_entropy_family(params)
    grid, w = _quad_nodes(quad.node_count, quad.endpoint_cutoff)
    return float(_entropy_integral(_density(params, grid, w), w))


def constraint_integrals(
    params: ShapeParams, quad: QuadratureSpec = QuadratureSpec()
) -> tuple[float, float, float]:
    """Mass and the two weighted integrals (C1, C2, C3), all finite."""
    _require_entropy_family(params)
    grid, w = _quad_nodes(quad.node_count, quad.endpoint_cutoff)
    p = _density(params, grid, w)
    f, g = _weights_for(params, grid)
    return float(w @ p), float(w @ (f * p)), float(w @ (g * p))


def perturbation_audit(
    params: ShapeParams,
    quad: QuadratureSpec = QuadratureSpec(),
    trials: int = 200,
    seed: int = 0,
) -> AuditReport:
    """Check that mass- and weight-preserving perturbations cannot raise H.

    Every maxent shape and every beta shape (a, b >= 1, bounds included)
    is a maximizer under its own constraints, so each should audit clean.
    Each trial multiplies the density by a random polynomial of degree
    <= 8 (so the perturbation vanishes wherever p does and p + delta can
    stay nonnegative), projects the coefficients onto the null space of
    the three constraint functionals via quadrature inner products and a
    Householder QR factorization, and rescales to a sup norm of 1e-3 *
    max p, shrinking further if needed to keep p + delta >= 0.  A trial fails when
    H(p + delta) exceeds H(p) by more than 1e-9; a true maximizer yields
    zero failures.  Numerically degenerate perturbations are redrawn up
    to 10 times and then counted as skipped, not failed.  Draws are keyed
    per (seed, trial, redraw) and trials scored in blocks of matrix
    products, so a report can differ from earlier per-trial versions only
    in the failure count of a spiked shape whose audit fails spuriously
    (a trial's entropy gain at the 1e-9 margin).  A shape whose
    three constraint functionals are numerically dependent on the
    perturbation basis (a spike on a few quadrature nodes) raises
    ``ValueError``: it cannot be audited.
    """
    _require_entropy_family(params)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")

    grid, w = _quad_nodes(quad.node_count, quad.endpoint_cutoff)
    p = _density(params, grid, w)
    f, g = _weights_for(params, grid)
    h0 = float(_entropy_integral(p, w))

    # perturbation basis p(x) * x^j and the 3 x (deg+1) constraint matrix
    powers = np.vander(grid.xs, _POLY_DEGREE + 1, increasing=True).T
    V = p * powers
    constraints = np.stack([np.ones_like(grid.xs), f, g])
    M = (constraints * w) @ V.T

    # orthonormal basis Q of the constraint rows (Householder QR: classical
    # Gram-Schmidt lost orthogonality on spiked shapes, and the constraint
    # residual it left raised H at first order, failing true maximizers)
    Q, R = np.linalg.qr(M.T)
    for k in range(M.shape[0]):
        if not abs(R[k, k]) > _DEPENDENT_ROW * np.linalg.norm(M[k]):  # also NaN
            raise ValueError(
                f"{params.kind.value} {params.named()} cannot be audited: constraint "
                f"{k + 1} is numerically dependent on the ones before it"
            )

    peak = float(p.max())
    target = _PERTURBATION_SCALE * peak
    floor = 1e-12 * peak

    def draw(trial: int, redraw: int) -> np.ndarray:
        rng = np.random.default_rng(mix64(seed, _AUDIT_TAG, trial, redraw))
        return rng.standard_normal(_POLY_DEGREE + 1)

    C = np.array([draw(trial, 0) for trial in range(trials)]).reshape(trials, _POLY_DEGREE + 1)
    C -= (C @ Q) @ Q.T
    failures = 0
    skipped = 0
    for lo in range(0, trials, _AUDIT_BLOCK):
        D = C[lo : lo + _AUDIT_BLOCK] @ V
        norm = np.max(np.abs(D), axis=1)
        for i in np.flatnonzero(~(norm > floor)):  # degenerate (or NaN): redraw
            for redraw in range(1, _MAX_REDRAWS + 1):
                c = draw(lo + i, redraw)
                c -= (c @ Q) @ Q.T
                D[i] = c @ V
                norm[i] = np.max(np.abs(D[i]))
                if norm[i] > floor:
                    break
        drawn = norm > floor
        if drawn.all():
            D *= (target / norm)[:, None]
        else:
            D = D[drawn] * (target / norm[drawn])[:, None]
        P = p + D
        # shrink a delta that takes p + delta below 0 (the shrink is < 1);
        # skip it if it cannot shrink, where p vanishes under a delta < 0
        dips = np.flatnonzero(P.min(axis=1) < 0.0)
        if dips.size:
            neg = D[dips] < 0.0
            ratio = np.divide(p, -D[dips], out=np.full(neg.shape, np.inf), where=neg)
            shrink = ratio.min(axis=1) * (1.0 - 1e-9)
            D[dips] *= shrink[:, None]
            P[dips] = p + D[dips]
            P = np.maximum(np.delete(P, dips[shrink <= 0.0], axis=0), 0.0)
        skipped += len(norm) - len(P)
        failures += int(np.count_nonzero(_entropy_integral(P, w) > h0 + _FAILURE_MARGIN))

    return AuditReport(
        H=h0,
        C1=float(w @ p),
        C2=float(w @ (f * p)),
        C3=float(w @ (g * p)),
        perturbation_trials=trials,
        perturbation_failures=failures,
        perturbation_skipped=skipped,
    )
