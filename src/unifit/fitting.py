"""Nonlinear least-squares fitting of the model families.

The optimizer is Levenberg-Marquardt with analytic derivatives, run in
unconstrained coordinates: positive parameters go through a log
transform, lower-bounded ones through a shifted log, free ones are
identity-mapped, so in exact arithmetic every point a step can reach maps
to valid shape parameters (in float64 the map can round onto a bound or
overflow; ``fit`` then raises ``FitFailureError``).  The amplitude is
profiled out analytically at every loss evaluation (closed-form 1-D
least squares against the unit-peak shape), which drops the search to at
most three dimensions; the remaining separable problem is solved by
variable projection (Golub & Pereyra 1973): Gauss-Newton steps on the
projected residual, with Marquardt damping.  ``_theta_rows`` is the one
z -> theta map: the loss, the partials and ``fit``'s report of the winning
start all use it, so ``fit`` returns the parameters whose rms it reports.

Multi-start: initial points come from a seeded Latin hypercube over the
per-family start ranges in ``models.FAMILIES``, mapped to theta by
``models.Param.from_unit`` (as the benchmark's generation draws are) and
then to z.  The pool is built in blocks of 16 (the default start count),
so the pool for ``starts=k`` is a prefix of the pool for any larger count
with the same seed.  All starts advance in lockstep: each pass scores the
trial steps of all active starts in one batched loss call, which also
returns the shapes it evaluated, and rebuilds the normal equations of the
starts whose step was accepted from those shapes, adding only their
partial derivatives: the family kernel runs once per trial point.  A
row's result does not depend on which rows share its batch, so each
start's trajectory is identical to running it alone.

A start stops, converged, when an accepted step lowers its rms by at most
``FitConfig.simplex_tolerance`` (an absolute amount, which ends fits whose
residual is near zero); or when the step lowers its rms by at most 1e-6 of
the rms before the step, the model predicted no larger fall and the fall
was not more than twice the prediction (a relative test, which ends fits
that settle on a non-zero residual, such as noisy data or another
family's series); or when its damping passes a ceiling.  It stops
unconverged at the pass cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._seeds import mix64
from .models import (
    FAMILIES,
    KIND_ORDER,
    CurveModel,
    EvalGrid,
    ModelKind,
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

#: Most Levenberg-Marquardt passes a start makes (see ``FitConfig``).
_MAX_PASSES = 200
#: Largest series maximum ``fit`` accepts: unit peak plus noise headroom.
_MAX_PEAK = 1.5


class FitFailureError(RuntimeError):
    """Every start diverged to a non-finite loss, the best point is not
    representable in float64, or the profiled amplitude degenerated."""

    def __init__(self, message: str, kind: ModelKind, start_losses: tuple[float, ...]):
        super().__init__(message)
        self.kind = kind
        self.start_losses = start_losses


@dataclass(frozen=True)
class FitConfig:
    """Optimizer settings; defaults are sized for 101-point series.

    ``max_iterations`` caps the Levenberg-Marquardt passes (one trial step
    each) of every start, and no start makes more than 200 whatever its
    value: later passes only lengthen crawls along unidentifiable ridges,
    where no start converges.  A start converges when an accepted step
    lowers its rms by at most ``simplex_tolerance`` (an absolute amount);
    or when it lowers the rms by at most 1e-6 of itself, no larger fall
    was predicted and the fall was at most twice the prediction (a
    relative test); or when its damping grows so large that no step of
    useful length lowers the loss.

    ``simplex_tolerance`` (no simplex is left) and the 2000 default keep
    their names and values because the benchmark's cross-table input digest
    hashes ``repr(FitConfig)``; changing them means re-recording it.
    """

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
    the total of passes across starts and ``converged`` reports whether
    the winning start converged within its pass budget.
    """

    model: CurveModel
    rms: float
    start_losses: tuple[float, ...]
    iterations_used: int
    converged: bool


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
        theta = spec.from_unit(u[:, j], spec.lo, spec.hi)
        z[:, j] = theta if spec.constraint == "free" else np.log(theta - spec.bound)
    return z


def rms_loss(observed: SampledSeries, model: CurveModel) -> float:
    """Root mean squared deviation between the series and the model."""
    if len(observed) == 0:
        raise ValueError("observed series is empty")
    r = observed.ys - evaluate_on(model, observed.xs)
    return math.sqrt(float((r * r).sum()) / r.size)


@lru_cache(maxsize=None)
def _z_columns(kind: ModelKind) -> tuple[np.ndarray, np.ndarray]:
    """(free-column mask, bound per column) of the map from z to theta:
    bound + exp(z), or z itself in the free columns."""
    specs = FAMILIES[kind].params
    free = np.array([spec.constraint == "free" for spec in specs])
    offsets = np.array([0.0 if spec.constraint == "free" else spec.bound for spec in specs])
    free.setflags(write=False)
    offsets.setflags(write=False)
    return free, offsets


def _theta_rows(kind: ModelKind, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, exp(z)) for a (m, d) z-matrix; exp(z) is dtheta/dz outside
    the free columns."""
    free, offsets = _z_columns(kind)
    ez = np.exp(Z)
    theta = ez + offsets
    np.copyto(theta, Z, where=free)
    return theta, ez


def _shapes(kind: ModelKind, Z: np.ndarray, grid: EvalGrid) -> np.ndarray:
    """Grid-max-normalized shapes (m, n) at a (m, d) z-matrix."""
    ls = FAMILIES[kind].kernel(*_theta_rows(kind, Z)[0].T[:, :, None], grid)
    ls -= np.maximum.reduce(ls, axis=1, keepdims=True)
    return np.exp(ls, out=ls)


def _profiled_amplitude(grid: EvalGrid, ys: np.ndarray, params: ShapeParams) -> float:
    """Closed-form least-squares amplitude, converted to the peak-normalized
    convention (the in-loop profile normalizes by the grid maximum)."""
    ls = log_shape_on_grid(params, grid)
    peak_grid = float(np.max(ls))
    s = np.exp(ls - peak_grid)
    amp_grid = float((s * ys).sum() / (s * s).sum())
    # in-loop shapes are normalized by the grid maximum; the true peak can
    # fall between grid points, so rescale to the peak-normalized convention
    return amp_grid * math.exp(_log_peak(params) - peak_grid)


def _partials(kind: ModelKind, Z: np.ndarray, s: np.ndarray, grid: EvalGrid) -> np.ndarray:
    """Partials ds/dz (m, d, n) of the grid-max-normalized shapes s (m, n)
    at a (m, d) z-matrix; ds is 0 wherever s is exactly 0."""
    free = _z_columns(kind)[0]
    theta, dtheta = _theta_rows(kind, Z)
    ds = np.empty(Z.shape + s.shape[1:])
    for j, dls in enumerate(FAMILIES[kind].partials(*theta.T[:, :, None], grid)):
        np.multiply(s, dls, out=ds[:, j])
        if not free[j]:  # dtheta/dz is exactly 1 in a free column
            ds[:, j] *= dtheta[:, j, None]
    # s * dls is 0 * inf (NaN) at an endpoint where the shape vanishes
    if not s.all():
        np.copyto(ds, 0.0, where=(s == 0.0)[:, None, :])
    return ds


def _projection(kind: ModelKind, grid: EvalGrid, ys: np.ndarray):
    """(batch loss, normal equations) of the variable-projection fit of
    ``kind`` to ys on grid.  The loss maps a (m, d) z-matrix to (profiled-
    amplitude rms (m,), grid-max-normalized shapes s (m, n)); the normal
    equations map (z-matrix (k, d), its shapes s (k, n) as the loss returned
    them) to (J^T J / n (k, d, d), J^T r / n (k, d)), adding only partials.

    With the amplitude A = <s, y> / <s, s> profiled out, the residual is
    r = y - A s = P y, P the projector orthogonal to s, and its Jacobian
    column j is (Golub & Pereyra 1973) -A P ds_j - s <ds_j, r> / <s, s>.
    Scaling s by its grid maximum adds a multiple of s to ds_j, which P
    and <., r> both remove.  All reductions are np.add.reduce along rows
    (not BLAS), so each row's result does not depend on which rows share
    the batch.
    """
    n = ys.size

    def batch_rms(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # caller holds an errstate that silences the expected warnings
        s = _shapes(kind, Z, grid)
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
        return np.fmin(out, np.inf, out=out), s

    def normal_equations(Z: np.ndarray, s: np.ndarray):
        ds = _partials(kind, Z, s, grid)
        ss = np.add.reduce(s * s, axis=1)
        amp = np.add.reduce(s * ys, axis=1) / ss
        np.maximum(amp, 0.0, out=amp)  # as the loss clamps it
        r = ys - amp[:, None] * s
        sds = np.add.reduce(ds * s[:, None, :], axis=2)
        rds = np.add.reduce(ds * r[:, None, :], axis=2)
        # J_j = -A ds_j + s (A <s, ds_j> - <ds_j, r>) / <s, s>, built in ds
        ds *= -amp[:, None, None]
        ds += ((amp[:, None] * sds - rds) / ss[:, None])[:, :, None] * s[:, None, :]
        jtj = np.add.reduce(ds[:, :, None, :] * ds[:, None, :, :], axis=3)
        jtr = np.add.reduce(ds * r[:, None, :], axis=2)
        jtj /= n
        jtr /= n
        return jtj, jtr

    return batch_rms, normal_equations


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


# Marquardt damping: lambda starts at _LAMBDA0; after each trial step it is
# divided by _LAMBDA_STEP when the gain ratio (actual over predicted fall
# of the mean square) exceeds _GAIN_HIGH and multiplied by it when the
# ratio is below _GAIN_LOW (a rejected step has a ratio <= 0).  Past
# _LAMBDA_MAX no step of useful length lowers the loss.  An accepted step
# ends the start, settled, when it lowers the rms by at most _REL_FALL of
# itself, the predicted fall is no larger (a fall of the rms by q of
# itself is one of about 2q of the mean square) and the gain ratio is at
# most 2: MINPACK's ftol test (Moré 1978), whose actual-fall term is here
# taken on the rms rather than on the sum of squares.
_LAMBDA0 = 1e-3
_LAMBDA_STEP = 10.0
_LAMBDA_MAX = 1e10
_REL_FALL = 1e-6
_GAIN_LOW = 0.25
_GAIN_HIGH = 0.75


def _finite_rows(A: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.isfinite(A).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)


def _diagonals(A: np.ndarray) -> np.ndarray:
    """The diagonals (k, d) of a C-contiguous (k, d, d) stack, as a strided
    view: writing to it writes to A."""
    k, d, _ = A.shape
    return A.reshape(k, d * d)[:, :: d + 1]


def _lm_lockstep(batch_loss, normal_equations, Z0: np.ndarray, tol: float, max_iter: int):
    """Advance independent Levenberg-Marquardt runs in lockstep.

    Returns (best z per start, best loss, passes, converged flags),
    ordered by start index.  Each pass solves every active start's damped
    normal equations (J^T J + lambda D) dz = -J^T r, D the running maximum
    of diag(J^T J) (Moré 1978; a column that fades along the path keeps
    its damping), and scores all trial points in one batched loss call.
    The normal equations are rebuilt only for the starts whose step was
    accepted (it lowered the loss), from the shapes that loss call
    returned for them, so each accepted point costs one kernel evaluation.
    A start converges when an accepted step lowers its rms F by at most
    ``tol``, which ends near-zero residuals; or when it lowers F by at
    most _REL_FALL * F with a predicted fall of the mean square of at most
    2 _REL_FALL F^2 and a gain ratio of at most 2, which ends fits that
    settle on a non-zero residual (MINPACK's ftol test, Moré 1978); or
    when lambda passes _LAMBDA_MAX.  It stops unconverged after
    ``max_iter`` passes, or at once where its loss or normal equations are
    not finite.  Finished starts are compacted out of the working arrays.
    """
    S = Z0.shape[0]
    z_out = Z0.copy()
    f_out = np.full(S, np.inf)
    it_out = np.zeros(S, dtype=np.int64)
    cv_out = np.zeros(S, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Z = Z0.copy()
        F, s = batch_loss(Z)
        A, g = normal_equations(Z, s)
        D = _diagonals(A).copy()
        lam = np.full(S, _LAMBDA0)
        idx = np.arange(S)  # original start index per active row
        it = 0  # every active start has made the same number of passes
        converged = np.zeros(S, dtype=bool)
        done = ~(np.isfinite(F) & _finite_rows(A, g))
        while True:
            if it >= max_iter:
                done[:] = True
            if done.any():
                sel = idx[done]
                z_out[sel] = Z[done]
                f_out[sel] = F[done]
                it_out[sel] = it
                cv_out[sel] = converged[done]
                keep = ~done
                Z, F, A, g, D, lam, idx = (
                    Z[keep], F[keep], A[keep], g[keep], D[keep], lam[keep], idx[keep]
                )
                if idx.size == 0:
                    break
            it += 1

            damping = lam[:, None] * D
            M = A.copy()
            _diagonals(M)[...] += damping
            dz = _solve_rows(M, -g)
            Zt = Z + dz
            Ft, st = batch_loss(Zt)
            accept = Ft < F
            # predicted fall of the mean square: lambda dz^T D dz - dz^T J^T r / n
            predicted = np.add.reduce(dz * (damping * dz - g), axis=1)
            gain = (F * F - Ft * Ft) / predicted
            settled = (
                (F - Ft <= _REL_FALL * F)
                & (predicted <= 2.0 * _REL_FALL * F * F)
                & (gain <= 2.0)
            )
            converged = accept & ((F - Ft <= tol) | settled)
            np.divide(lam, _LAMBDA_STEP, out=lam, where=gain > _GAIN_HIGH)
            # NaN: a zero or non-finite step
            np.multiply(lam, _LAMBDA_STEP, out=lam, where=~(gain >= _GAIN_LOW))
            converged |= lam > _LAMBDA_MAX
            np.copyto(Z, Zt, where=accept[:, None])
            np.copyto(F, Ft, where=accept)
            done = converged.copy()
            step = np.flatnonzero(accept & ~converged)
            if step.size:
                As, gs = normal_equations(Zt[step], st[step])
                A[step] = As
                g[step] = gs
                D[step] = np.maximum(D[step], _diagonals(As))
                done[step] = ~_finite_rows(As, gs)

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
    if ymax > _MAX_PEAK:
        raise ValueError(f"series is not normalized: max(ys) = {ymax!r} > {_MAX_PEAK}")
    if ymax <= 0.0:
        raise FitFailureError(
            "series is identically <= 0; amplitude is degenerate",
            kind,
            (),
        )

    grid = EvalGrid(observed.xs)
    zb, fb, iters, conv = _lm_lockstep(
        *_projection(kind, grid, observed.ys),
        start_pool(kind, config.starts, config.seed),
        config.simplex_tolerance,
        min(config.max_iterations, _MAX_PASSES),
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
        # the map the loss scored the winner with, so params are that point
        with np.errstate(over="ignore"):
            theta = _theta_rows(kind, zb[best : best + 1])[0][0]
        params = ShapeParams(kind, theta)
        amplitude = _profiled_amplitude(grid, observed.ys, params)
    except (OverflowError, ParameterBoundsError) as exc:
        # exact in real arithmetic, the z -> theta map can leave the family's
        # bounds in float64 (1 + exp(z) rounds to 1, or exp(z) overflows);
        # the mode and the amplitude rescale can also overflow
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
