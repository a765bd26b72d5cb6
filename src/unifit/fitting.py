"""Nonlinear least-squares fitting of the model families.

The optimizer is Levenberg-Marquardt with analytic derivatives, run in
the unconstrained coordinates z of each family's ``coords`` in
``models.FAMILIES``.  In exact arithmetic every point a step can reach
maps to valid shape parameters (in float64 the map can round onto a
bound, underflow or overflow; ``fit`` then raises ``FitFailureError``).
The amplitude is profiled out analytically at every loss evaluation
(closed-form 1-D least squares against the unit-peak shape), which drops
the search to at most three dimensions; the remaining separable problem
is solved by variable projection (Golub & Pereyra 1973): Gauss-Newton
steps on the projected residual, with Marquardt damping.  The loss, the
partials and ``fit``'s report of the winning start all map z to theta by
those ``coords``, so ``fit`` returns the parameters whose rms it reports.

Starts: every family but skewnormal first runs one start read off the
series by its ``models.Family.start``.  Maxent, beta and gengamma, whose
log shapes are linear in theta on two columns f, g (gengamma's at each
fixed power p), take a closed-form scan: the weighted least-squares fit of
log y on (1, f, g) for each candidate pair (one for maxent and beta, 24
powers for gengamma), the candidate of lowest profiled rms among those
inside the bounds running alone.  Richards reads its peak and the two
half-maximum crossings, which give t0, nu (from the ratio of the
half-widths) and k (from the full width), and reads nothing from a
series whose maximum is an end point, whose half maximum is not crossed
on both sides, whose half-maximum width is 0.7 or more, or whose
half-width ratio lies off its table.  They fall back, as skewnormal
always starts, to a seeded Latin hypercube over the per-family start
ranges in ``models.FAMILIES``, mapped to theta by
``models.Param.from_unit`` (as the benchmark's generation draws are) and
then to z.  The pool is built in blocks of 16 (the default start count),
so the pool for ``starts=k`` is a prefix of the pool for any larger count
with the same seed.  All starts advance in lockstep: each pass scores the
trial steps of all active starts in one batched loss call, which also
returns the parameters, shapes, amplitudes and residuals it computed, and
rebuilds the normal equations of the starts whose step was accepted from
those, adding only their partial derivatives: the family kernel runs once
per trial point.  A row's result does not depend on which rows share its
batch, so each start's trajectory is identical to running it alone.

A start stops, converged, when an accepted step lowers its rms by at most
``FitConfig.simplex_tolerance`` (an absolute amount, which ends fits whose
residual is near zero); or when the step lowers its rms by at most 1e-6 of
the rms before the step, the model predicted no larger fall and the fall
was not more than twice the prediction (a relative test, which ends fits
that settle on a non-zero residual, such as noisy data or another
family's series); or when a step is rejected at an rms of at most that
tolerance (a start already at its optimum to round-off, as a closed-form
start of a noiseless shape is); or when its damping passes a ceiling.  It
stops unconverged at the pass cap.
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
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    _log_peak,
    _solve_rows,
    evaluate_on,
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
    relative test); or when a step is rejected at an rms of at most
    ``simplex_tolerance``; or when its damping grows so large that no step
    of useful length lowers the loss.  ``starts`` and ``seed`` size and
    seed the start pool, which every family but skewnormal runs only as the
    fallback of its closed-form start (``fit``): maxent, beta and gengamma
    start from a log-linear solve, richards from a half-maximum reading of
    the series.

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
    theta = np.vstack(blocks)[:starts]  # uniform draws, mapped in place
    for j, spec in enumerate(specs):
        theta[:, j] = spec.from_unit(theta[:, j], spec.lo, spec.hi)
    return FAMILIES[kind].coords[1](theta)


def rms_loss(observed: SampledSeries, model: CurveModel) -> float:
    """Root mean squared deviation between the series and the model."""
    if len(observed) == 0:
        raise ValueError("observed series is empty")
    r = observed.ys - evaluate_on(model, observed.xs)
    return math.sqrt(float((r * r).sum()) / r.size)


def _shapes(kind: ModelKind, theta: np.ndarray, grid: EvalGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid-max-normalized shapes (m, n) at a (m, d) theta-matrix, and each
    row's grid maximum of log s (m,) that normalized it."""
    ls = FAMILIES[kind].kernel(*theta.T[:, :, None], grid)
    top = np.maximum.reduce(ls, axis=1, keepdims=True)
    ls -= top
    return np.exp(ls, out=ls), top[:, 0]


def _partials(
    kind: ModelKind, theta: np.ndarray, dtheta: np.ndarray, s: np.ndarray, grid: EvalGrid
) -> np.ndarray:
    """Partials ds/dz (m, d, n) of the grid-max-normalized shapes s (m, n)
    at the (theta, dtheta/dz) rows the family's ``coords`` give; ds is 0
    wherever s is exactly 0."""
    ds = np.empty(theta.shape + s.shape[1:])
    for j, dls in enumerate(FAMILIES[kind].partials(*theta.T[:, :, None], grid)):
        np.multiply(s, dls, out=ds[:, j])
    ds *= dtheta[:, :, None]
    # s * dls is 0 * inf (NaN) at an endpoint where the shape vanishes
    if not s.all():
        np.copyto(ds, 0.0, where=(s == 0.0)[:, None, :])
    return ds


def _projection(kind: ModelKind, grid: EvalGrid, ys: np.ndarray):
    """(batch loss, normal equations) of the variable-projection fit of
    ``kind`` to ys on grid.  The loss maps a (m, d) z-matrix to (profiled-
    amplitude rms (m,), terms), terms the tuple (theta, dtheta/dz, grid-max-
    normalized shapes s (m, n), <s, s>, amplitude A, residual r, grid
    maximum of log s) of row arrays it computed on the way.  The normal
    equations map k rows of those terms to (J^T J / n (k, d, d), J^T r / n
    (k, d)), adding only the partials.

    With the amplitude A = <s, y> / <s, s> profiled out, the residual is
    r = y - A s = P y, P the projector orthogonal to s, and its Jacobian
    column j is (Golub & Pereyra 1973) -A P ds_j - s <ds_j, r> / <s, s>.
    Scaling s by its grid maximum adds a multiple of s to ds_j, which P
    and <., r> both remove.  All reductions are np.add.reduce along rows
    (not BLAS), so each row's result does not depend on which rows share
    the batch.
    """
    n = ys.size
    to_theta = FAMILIES[kind].coords[0]

    def batch_rms(Z: np.ndarray) -> tuple[np.ndarray, tuple]:
        # caller holds an errstate that silences the expected warnings
        theta, dtheta = to_theta(Z)
        s, top = _shapes(kind, theta, grid)
        tmp = s * ys
        num = np.add.reduce(tmp, axis=1)
        ss = np.add.reduce(np.multiply(s, s, out=tmp), axis=1)
        amp = np.maximum(num / ss, 0.0)
        r = np.subtract(ys, np.multiply(amp[:, None], s, out=tmp), out=tmp)
        out = np.add.reduce(np.square(r), axis=1)
        out /= n
        np.sqrt(out, out=out)
        # NaN (a non-finite shape or amplitude) -> +inf; fmin keeps the rest
        return np.fmin(out, np.inf, out=out), (theta, dtheta, s, ss, amp, r, top)

    def normal_equations(terms: tuple):
        theta, dtheta, s, ss, amp, r, _ = terms
        ds = _partials(kind, theta, dtheta, s, grid)
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


# Marquardt damping: lambda starts at _LAMBDA0; after each trial step it is
# divided by _LAMBDA_DOWN when the gain ratio (actual over predicted fall
# of the mean square) exceeds _GAIN_HIGH and multiplied by _LAMBDA_UP when
# the ratio is below _GAIN_LOW (a rejected step has a ratio <= 0).  It
# falls only 3x, as in Madsen, Nielsen & Tingleff (2004): a tenfold fall
# often overshoots into a step the next pass rejects, and on seed-1
# benchmark fits 34% of trial steps were rejected (44% of those right
# after a tenfold fall), against 20% with the 3x fall.  Past _LAMBDA_MAX
# no step of useful length lowers the loss.  An accepted step ends the
# start, settled, when it lowers the rms by at most _REL_FALL of itself,
# the predicted fall is no larger (a fall of the rms by q of itself is one
# of about 2q of the mean square) and the gain ratio is at most 2:
# MINPACK's ftol test (Moré 1978), whose actual-fall term is here taken on
# the rms rather than on the sum of squares.
_LAMBDA0 = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 3.0
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
    lambda falls 3x after a step whose gain ratio exceeds _GAIN_HIGH, so
    that a good step is not followed by an overlong one the next pass
    rejects, and rises 10x after one below _GAIN_LOW, such as a rejected
    step.  The normal equations are rebuilt only for the starts whose step
    was accepted (it lowered the loss), from the terms that loss call
    returned for them, so each accepted point costs one kernel evaluation.
    A start converges when an accepted step lowers its rms F by at most
    ``tol``, which ends near-zero residuals; or when it lowers F by at
    most _REL_FALL * F with a predicted fall of the mean square of at most
    2 _REL_FALL F^2 and a gain ratio of at most 2, which ends fits that
    settle on a non-zero residual (MINPACK's ftol test, Moré 1978); or
    when a step is rejected at F <= ``tol`` (the start is at its optimum
    to round-off); or when lambda passes _LAMBDA_MAX.  It stops
    unconverged after ``max_iter`` passes, or at once where its loss or
    normal equations are not finite.  Finished starts are compacted out of
    the working arrays.
    """
    S = Z0.shape[0]
    z_out = Z0.copy()
    f_out = np.full(S, np.inf)
    it_out = np.zeros(S, dtype=np.int64)
    cv_out = np.zeros(S, dtype=bool)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        Z = Z0.copy()
        F, terms = batch_loss(Z)
        A, g = normal_equations(terms)
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
            Ft, terms = batch_loss(Zt)
            accept = Ft < F
            # predicted fall of the mean square: lambda dz^T D dz - dz^T J^T r / n
            predicted = np.add.reduce(dz * (damping * dz - g), axis=1)
            gain = (F * F - Ft * Ft) / predicted
            settled = (
                (F - Ft <= _REL_FALL * F)
                & (predicted <= 2.0 * _REL_FALL * F * F)
                & (gain <= 2.0)
            )
            # a rejected step at F <= tol: the start is at its optimum to round-off
            converged = np.where(accept, (F - Ft <= tol) | settled, F <= tol)
            np.divide(lam, _LAMBDA_DOWN, out=lam, where=gain > _GAIN_HIGH)
            # NaN: a zero or non-finite step
            np.multiply(lam, _LAMBDA_UP, out=lam, where=~(gain >= _GAIN_LOW))
            converged |= lam > _LAMBDA_MAX
            np.copyto(Z, Zt, where=accept[:, None])
            np.copyto(F, Ft, where=accept)
            done = converged.copy()
            step = np.flatnonzero(accept & ~converged)
            if step.size:
                As, gs = normal_equations(tuple(t[step] for t in terms))
                A[step] = As
                g[step] = gs
                D[step] = np.maximum(D[step], _diagonals(As))
                done[step] = ~_finite_rows(As, gs)

    return z_out, f_out, it_out, cv_out


def _closed_form_start(kind: ModelKind, grid: EvalGrid, ys: np.ndarray, batch_rms):
    """The family's closed-form start (1, d) in z, or None when it has none
    or no candidate is valid: the candidates of ``FAMILIES[kind].start``
    with theta and z finite and strictly inside the bounds (no clamp); of
    several, the one of lowest profiled rms, the lowest index on ties."""
    family = FAMILIES[kind]
    if family.start is None:
        return None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta = family.start(grid, ys)
        if theta is None:
            return None
        z = family.coords[1](theta)
        z = z[family.inside(theta) & np.isfinite(z).all(axis=1)]
        if len(z) > 1:
            z = z[np.argmin(batch_rms(z)[0])][None]
    return z if len(z) else None


def _result(kind, batch_rms, zb, fb, iters, conv, spent: int = 0) -> FitResult:
    """A lockstep run's best start as a FitResult, plus ``spent`` passes."""
    best = int(np.argmin(fb))  # exact ties resolve to the lowest start index
    start_losses = tuple(float(v) for v in fb)
    if not math.isfinite(start_losses[best]):
        raise FitFailureError(
            f"all {len(start_losses)} starts diverged to non-finite loss for {kind.value}",
            kind,
            start_losses,
        )

    # rescore the winner for the theta and grid-max amplitude its loss used
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta, _, _, _, amp, _, top = batch_rms(zb[best : best + 1])[1]
    try:
        params = ShapeParams(kind, theta[0])
        # the true peak can fall between grid points: rescale to unit peak
        amplitude = float(amp[0]) * math.exp(_log_peak(params) - float(top[0]))
    except (OverflowError, ParameterBoundsError) as exc:
        # exact in real arithmetic, the z -> theta map can leave the family's
        # bounds in float64 (1 + exp(z) rounds to 1, or exp(z) overflows or
        # underflows); the mode and the amplitude rescale can also overflow
        raise FitFailureError(
            f"{kind.value} optimum is not representable in float64: {exc}", kind, start_losses
        ) from exc
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise FitFailureError(
            f"degenerate profiled amplitude {amplitude!r} for {kind.value}", kind, start_losses
        )

    return FitResult(
        model=CurveModel(params, amplitude),
        rms=start_losses[best],
        start_losses=start_losses,
        iterations_used=int(iters.sum()) + spent,
        converged=bool(conv[best]),
    )


def fit(observed: SampledSeries, kind: ModelKind, config: FitConfig = FitConfig()) -> FitResult:
    """Fit one model family to a normalized series.

    The series must have xs within [0, 1] and a positive maximum no
    larger than 1.5 — unit peak plus headroom for additive noise; see
    ``dataio.normalize``.

    Every family but skewnormal returns the run from its closed-form start
    (``models.Family.start``) when it converges to a finite, representable
    optimum; else (no valid candidate, an unconverged or non-finite run, or
    an optimum ``fit`` cannot represent) the pool's result, with the
    closed-form run's passes added to ``iterations_used``.
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
        raise FitFailureError("series is identically <= 0; amplitude is degenerate", kind, ())

    grid = EvalGrid(observed.xs)
    batch_rms, normal = _projection(kind, grid, observed.ys)
    tol, cap = config.simplex_tolerance, min(config.max_iterations, _MAX_PASSES)
    spent = 0
    z0 = _closed_form_start(kind, grid, observed.ys, batch_rms)
    if z0 is not None:
        one = _lm_lockstep(batch_rms, normal, z0, tol, cap)
        spent = int(one[2][0])
        if one[3][0] and math.isfinite(one[1][0]):
            try:
                return _result(kind, batch_rms, *one)
            except FitFailureError:
                pass  # theta off the bounds or a degenerate amplitude
    pool = start_pool(kind, config.starts, config.seed)
    return _result(kind, batch_rms, *_lm_lockstep(batch_rms, normal, pool, tol, cap), spent)
