"""Derivative-free nonlinear least-squares fitting of the model families.

The optimizer is a Nelder-Mead simplex run in unconstrained coordinates:
positive parameters go through a log transform, lower-bounded ones
through a shifted log, free ones are identity-mapped, so in exact
arithmetic every point the simplex can reach maps to valid shape
parameters (in float64 the map can round onto a bound or overflow; ``fit``
then raises ``FitFailureError``).  The amplitude is
profiled out analytically at every loss evaluation (closed-form 1-D
least squares against the unit-peak shape), which drops the search to at
most three dimensions.

Multi-start: initial points come from a seeded Latin hypercube over the
per-family start ranges in ``models.FAMILIES``.  The pool is built in
blocks of 16 (the default start count), so the pool for ``starts=k`` is
a prefix of the pool for any larger count with the same seed.  All
starts advance in lockstep.  Each pass evaluates the reflection points of
all starts in one batched loss call, then, in a second call, only the
expansion or contraction points that the reflections call for; shrinks
take a third.  A row's loss does not depend on which rows share its
batch, so each start's trajectory is identical to running it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._seeds import mix64
from .models import (
    FAMILIES,
    KIND_ORDER,
    CurveModel,
    EvalGrid,
    ModelKind,
    Param,
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    _log_peak,
    evaluate_on,
    log_shape_on_grid,
)

__all__ = [
    "FitConfig",
    "FitResult",
    "FitFailureError",
    "rms_loss",
    "fit",
]

_START_TAG = 0x5354  # "ST"
_START_BLOCK = 16


class FitFailureError(RuntimeError):
    """Every start diverged to a non-finite loss, the best point is not
    representable in float64, or the profiled amplitude degenerated."""

    def __init__(self, message: str, kind: ModelKind, start_losses: tuple[float, ...]):
        super().__init__(message)
        self.kind = kind
        self.start_losses = start_losses


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults are sized for 101-point series."""

    starts: int = 16
    max_iterations: int = 2000
    simplex_tolerance: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.starts < 1:
            raise ValueError(f"starts must be >= 1, got {self.starts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.simplex_tolerance > 0.0:
            raise ValueError(
                f"simplex_tolerance must be > 0, got {self.simplex_tolerance}"
            )


@dataclass(frozen=True)
class FitResult:
    """Best fit plus per-start diagnostics.

    ``rms`` always equals ``min(start_losses)``; ``iterations_used`` is
    the total across starts and ``converged`` reports whether the winning
    start met the simplex tolerance within its iteration budget.
    """

    model: CurveModel
    rms: float
    start_losses: tuple[float, ...]
    iterations_used: int
    converged: bool


# Initial simplex edge per coordinate: a fixed fraction of the start box
# width in unconstrained coordinates.
_STEP_FRACTION = 0.08


def _z_width(spec: Param) -> float:
    if spec.constraint == "free":
        return spec.hi - spec.lo
    # width of log(theta - bound) over the sampling range
    shift = 0.0 if spec.shifted else spec.bound
    return math.log(spec.hi - shift) - math.log(spec.lo - shift)


def _theta_from_unit(spec: Param, u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map uniform draws in [0, 1) to parameter values in [lo, hi]."""
    if spec.log_scale:
        base = lo * (hi / lo) ** u
    else:
        base = lo + (hi - lo) * u
    return 1.0 + base if spec.shifted else base


def _z_from_theta(spec: Param, theta: np.ndarray) -> np.ndarray:
    if spec.constraint == "free":
        return +theta
    return np.log(theta - spec.bound)


def _theta_from_z(spec: Param, z: float) -> float:
    if spec.constraint == "free":
        return z
    return spec.bound + math.exp(z)


def start_pool(kind: ModelKind, starts: int, seed: int) -> np.ndarray:
    """Seeded Latin-hypercube start points in unconstrained coordinates.

    Built in blocks of 16 so pools with the same seed nest: the pool for
    a smaller start count is a prefix of the pool for a larger one.
    """
    specs = FAMILIES[kind].params
    d = len(specs)
    blocks = []
    for b in range((starts + _START_BLOCK - 1) // _START_BLOCK):
        rng = np.random.default_rng(mix64(seed, _START_TAG, KIND_ORDER.index(kind), b))
        u = np.empty((_START_BLOCK, d))
        for j in range(d):
            u[:, j] = (rng.permutation(_START_BLOCK) + rng.random(_START_BLOCK)) / _START_BLOCK
        blocks.append(u)
    u = np.vstack(blocks)[:starts]
    z = np.empty_like(u)
    for j, spec in enumerate(specs):
        z[:, j] = _z_from_theta(spec, _theta_from_unit(spec, u[:, j], spec.lo, spec.hi))
    return z


def rms_loss(observed: SampledSeries, model: CurveModel) -> float:
    """Root mean squared deviation between the series and the model."""
    if len(observed) == 0:
        raise ValueError("observed series is empty")
    r = observed.ys - evaluate_on(model, observed.xs)
    return math.sqrt(float((r * r).sum()) / r.size)


def _make_batch_loss(kind: ModelKind, observed: SampledSeries):
    """Vectorized profiled-amplitude rms loss: (m, d) z-matrix -> (m,).

    Row reductions use np.add.reduce along the rows (not BLAS) so each
    row's value is independent of how many rows are evaluated together.
    """
    grid = EvalGrid(observed.xs)
    ys = observed.ys
    n = ys.size
    family = FAMILIES[kind]
    # z -> theta: bound + exp(z), or z itself in the free columns
    specs = family.params
    free = np.array([spec.constraint == "free" for spec in specs])
    offsets = np.array([0.0 if spec.constraint == "free" else spec.bound for spec in specs])

    def batch_rms(Z: np.ndarray) -> np.ndarray:
        # caller holds an errstate that silences the expected warnings
        theta = np.exp(Z)
        theta += offsets
        np.copyto(theta, Z, where=free)
        ls = family.kernel(*theta.T[:, :, None], grid)
        ls -= np.maximum.reduce(ls, axis=1, keepdims=True)
        s = np.exp(ls, out=ls)
        tmp = s * ys
        num = np.add.reduce(tmp, axis=1)
        amp = np.add.reduce(np.multiply(s, s, out=tmp), axis=1)
        np.divide(num, amp, out=amp)
        np.maximum(amp, 0.0, out=amp)
        r = np.multiply(amp[:, None], s, out=tmp)
        np.square(np.subtract(ys, r, out=r), out=r)
        out = np.add.reduce(r, axis=1)
        out /= n
        np.sqrt(out, out=out)
        # NaN (a non-finite shape or amplitude) -> +inf; fmin keeps the rest
        return np.fmin(out, np.inf, out=out)

    return batch_rms


def _profiled_amplitude(observed: SampledSeries, params: ShapeParams) -> float:
    """Closed-form least-squares amplitude, converted to the peak-normalized
    convention (the in-loop profile normalizes by the grid maximum)."""
    ls = log_shape_on_grid(params, EvalGrid(observed.xs))
    peak_grid = float(np.max(ls))
    s = np.exp(ls - peak_grid)
    amp_grid = float((s * observed.ys).sum() / (s * s).sum())
    # in-loop shapes are normalized by the grid maximum; the true peak can
    # fall between grid points, so rescale to the peak-normalized convention
    return amp_grid * math.exp(_log_peak(params) - peak_grid)


def _nm_lockstep(batch_loss, Z0: np.ndarray, steps: np.ndarray, tol: float, max_iter: int):
    """Advance independent Nelder-Mead instances in lockstep.

    Returns (best z per start, best loss, iterations, converged flags),
    ordered by start index.  Standard coefficients: reflection 1,
    expansion 2, contraction 0.5, shrink 0.5.  Non-finite losses enter as
    +inf and the simplex contracts away from them.

    Each pass makes one batched loss call for the reflection points of all
    active starts, one for the second points that only some starts need
    (the expansion where the reflection beats the best vertex, the
    contraction where it does not beat the second-worst), and one for the
    shrinks.  Every start then gets one write of its new worst vertex and
    loss.  Finished instances are compacted out of the working arrays, so
    each pass only touches still-active starts.
    """
    S, d = Z0.shape
    nv = d + 1
    V = np.repeat(Z0[:, None, :], nv, axis=1)  # (m, nv, d), m = active starts
    for i in range(d):
        V[:, i + 1, i] += steps[i]
    idx = np.arange(S)  # original start index per active row
    rows = np.arange(S)[:, None]
    it = 0  # every active start has made the same number of iterations

    z_out = np.empty((S, d))
    f_out = np.full(S, np.inf)
    it_out = np.zeros(S, dtype=np.int64)
    cv_out = np.zeros(S, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        F = batch_loss(V.reshape(S * nv, d)).reshape(S, nv)
        while idx.size:
            # keep each simplex sorted ascending (stable: ties keep prior order)
            order = np.argsort(F, axis=1, kind="stable")
            F = F[rows, order]
            V = V[rows, order]

            met_tol = F[:, -1] - F[:, 0] <= tol  # NaN spread (all-inf simplex) keeps iterating
            finished = met_tol | (it >= max_iter)
            if finished.any():
                sel = idx[finished]
                z_out[sel] = V[finished, 0]
                f_out[sel] = F[finished, 0]
                it_out[sel] = it
                cv_out[sel] = met_tol[finished]
                keep = ~finished
                V = V[keep]
                F = F[keep]
                idx = idx[keep]
                rows = rows[: idx.size]
                if idx.size == 0:
                    break
            it += 1

            cen = np.add.reduce(V[:, :-1], axis=1) / d  # the mean, without its overhead
            worst = V[:, -1]
            delta = cen - worst
            xr = cen + delta
            fr = batch_loss(xr)
            expand = fr < F[:, 0]
            contract = ~(fr < F[:, -2])
            # the new worst vertex: the reflection, or for a contracting start
            # its old worst vertex, unless the second point below beats it
            xn = np.where(contract[:, None], worst, xr)
            fn = np.where(contract, F[:, -1], fr)
            second = np.flatnonzero(expand | contract)
            if second.size:
                # expansion cen + 2 delta, or contraction cen - 0.5 delta
                x2 = cen[second] + np.where(expand[second], 2.0, -0.5)[:, None] * delta[second]
                f2 = batch_loss(x2)
                better = f2 < fn[second]
                moved = second[better]
                xn[moved] = x2[better]
                fn[moved] = f2[better]
                contract[moved] = False  # the contracting starts left over shrink
            V[:, -1] = xn
            F[:, -1] = fn
            if contract.any():
                best_v = V[contract, 0][:, None, :]
                newv = best_v + 0.5 * (V[contract, 1:] - best_v)  # (ms, d, d)
                V[contract, 1:] = newv
                F[contract, 1:] = batch_loss(newv.reshape(-1, d)).reshape(-1, d)

    return z_out, f_out, it_out, cv_out


def fit(observed: SampledSeries, kind: ModelKind, config: FitConfig = FitConfig()) -> FitResult:
    """Fit one model family to a normalized series.

    The series must have xs within [0, 1] and a positive maximum no
    larger than 1.5 — unit peak plus headroom for additive noise; see
    ``dataio.normalize``.
    """
    if len(observed) < 2:
        raise ValueError("observed series must have at least 2 points")
    ymax = float(observed.ys.max())
    if not np.isfinite(observed.ys).all():
        raise ValueError("observed series contains non-finite values")
    # unit-peak data plus headroom for additive noise on synthetic series;
    # anything larger is raw unnormalized input
    if ymax > 1.5:
        raise ValueError(f"series is not normalized: max(ys) = {ymax!r} > 1.5")
    if ymax <= 0.0:
        raise FitFailureError(
            "series is identically <= 0; amplitude is degenerate",
            kind,
            (),
        )

    specs = FAMILIES[kind].params
    steps = np.array([_STEP_FRACTION * _z_width(spec) for spec in specs])
    batch_loss = _make_batch_loss(kind, observed)
    Z0 = start_pool(kind, config.starts, config.seed)
    zb, fb, iters, conv = _nm_lockstep(
        batch_loss, Z0, steps, config.simplex_tolerance, config.max_iterations
    )

    best = int(np.argmin(fb))  # exact ties resolve to the lowest start index
    start_losses = tuple(float(v) for v in fb)
    if not math.isfinite(start_losses[best]):
        raise FitFailureError(
            f"all {config.starts} starts diverged to non-finite loss for "
            f"{kind.value}",
            kind,
            start_losses,
        )

    try:
        theta = tuple(_theta_from_z(spec, float(zb[best, j])) for j, spec in enumerate(specs))
        params = ShapeParams(kind, theta)
        amplitude = _profiled_amplitude(observed, params)
    except (OverflowError, ParameterBoundsError) as exc:
        # exact in real arithmetic, the z -> theta map can leave the family's
        # bounds in float64 (1 + exp(z) rounds to 1); it, the mode and the
        # amplitude rescale can also overflow
        raise FitFailureError(
            f"{kind.value} optimum is not representable in float64: {exc}", kind, start_losses
        ) from exc
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise FitFailureError(
            f"degenerate profiled amplitude {amplitude!r} for {kind.value}",
            kind,
            start_losses,
        )

    return FitResult(
        model=CurveModel(params, amplitude),
        rms=start_losses[best],
        start_losses=start_losses,
        iterations_used=int(iters.sum()),
        converged=bool(conv[best]),
    )
