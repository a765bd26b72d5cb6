import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifit import (
    BUNDLED_DATASETS,
    CurveModel,
    FitConfig,
    FitFailureError,
    KIND_ORDER,
    ModelKind,
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    bundled_dataset_path,
    evaluate,
    fit,
    load_series,
    mode,
    normalize,
    rms_loss,
    sample_series,
)
import unifit.bench as bench
import unifit.fitting as fitting
import unifit.models as models
from unifit.bench import BenchConfig, _trial_series
from unifit.fitting import start_pool
from unifit.models import _GENGAMMA_P_MIN, FAMILIES, EvalGrid


def maxent_series(a, b, n=101):
    return sample_series(CurveModel(ShapeParams(ModelKind.MAXENT, (a, b)), 1.0), n)


class TestRmsLoss:
    def test_identity_is_zero(self):
        series = maxent_series(2, 5)
        model = CurveModel(ShapeParams(ModelKind.MAXENT, (2, 5)), 1.0)
        assert rms_loss(series, model) < 1e-14

    def test_hand_computed(self):
        # maxent evaluates to exactly 0 at both endpoints
        series = SampledSeries(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        model = CurveModel(ShapeParams(ModelKind.MAXENT, (1, 1)), 1.0)
        assert rms_loss(series, model) == math.sqrt(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampledSeries(np.array([]), np.array([]))


class TestFit:
    def test_maxent_self_fit_recovers_parameters(self):
        result = fit(maxent_series(2, 5), ModelKind.MAXENT, FitConfig(seed=1))
        assert result.rms < 1e-3
        a, b = result.model.params.values
        assert a == pytest.approx(2.0, rel=0.05)
        assert b == pytest.approx(5.0, rel=0.05)

    def test_beta_self_fit(self):
        series = sample_series(CurveModel(ShapeParams(ModelKind.BETA, (3, 2)), 1.0), 101)
        result = fit(series, ModelKind.BETA, FitConfig(seed=1))
        assert result.rms < 1e-3

    def test_cross_family_fit_is_finite(self):
        series = sample_series(
            CurveModel(ShapeParams(ModelKind.RICHARDS, (12, 0.4, 2)), 1.0), 101
        )
        result = fit(series, ModelKind.MAXENT, FitConfig(seed=1))
        assert math.isfinite(result.rms)
        assert result.rms < 0.15  # typical magnitude is a few 1e-2

    def test_flat_zero_series_does_not_crash(self):
        series = SampledSeries(np.linspace(0, 1, 32), np.zeros(32))
        with pytest.raises(FitFailureError):
            fit(series, ModelKind.MAXENT, FitConfig(seed=0))

    def test_unnormalized_series_rejected(self):
        series = SampledSeries(np.linspace(0, 1, 16), np.linspace(0, 3.0, 16))
        with pytest.raises(ValueError, match="not normalized"):
            fit(series, ModelKind.MAXENT, FitConfig(seed=0))

    def test_non_finite_series_rejected(self):
        ys = np.ones(16)
        ys[3] = np.nan
        series = SampledSeries(np.linspace(0, 1, 16), ys)
        with pytest.raises(ValueError, match="non-finite"):
            fit(series, ModelKind.MAXENT, FitConfig(seed=0))

    def test_determinism_bit_identical(self):
        series = maxent_series(2, 5)
        a = fit(series, ModelKind.MAXENT, FitConfig(seed=7))
        b = fit(series, ModelKind.MAXENT, FitConfig(seed=7))
        assert a == b

    def test_rms_equals_min_start_loss(self, monkeypatch):
        # a fit from the seeded pool alone, skipping the closed-form start
        monkeypatch.setattr(fitting, "_closed_form_start", lambda *args: None)
        series = maxent_series(1.3, 0.4)
        result = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=3))
        assert result.rms == min(result.start_losses)
        assert len(result.start_losses) == 16

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_model_reproduces_reported_rms(self, kind):
        # the returned peak-normalized model scores the rms fit reports, on
        # the bundled datasets and on benchmark series with their fit seeds
        cases = [
            (normalize(load_series(bundled_dataset_path(name)))[0], FitConfig(seed=0))
            for name in BUNDLED_DATASETS
        ]
        config = BenchConfig(seed=1, fit=FitConfig(seed=1))
        f = KIND_ORDER.index(kind)
        cases += [
            (_trial_series(config, g, trial), bench._fit_config(config, g, trial, f))
            for g in range(len(KIND_ORDER))
            for trial in (0, 1)
        ]
        for i, (series, fit_config) in enumerate(cases):
            result = fit(series, kind, fit_config)
            assert rms_loss(series, result.model) == pytest.approx(
                result.rms, rel=1e-12, abs=1e-14
            ), i

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_monotone_improvement_in_starts(self, kind):
        series = maxent_series(0.8, 2.0)
        one = fit(series, kind, FitConfig(starts=1, seed=5))
        many = fit(series, kind, FitConfig(starts=16, seed=5))
        # the 16-start pool contains the 1-start point, bit-identically
        assert many.start_losses[0] == one.start_losses[0]
        assert many.rms <= one.rms

    def test_bound_respect(self):
        series = sample_series(
            CurveModel(ShapeParams(ModelKind.GENGAMMA, (0.6, 4.0, 2.0)), 1.0), 101
        )
        for kind in KIND_ORDER:
            result = fit(series, kind, FitConfig(seed=2))
            # reconstructing the params re-runs the family bound checks
            ShapeParams(kind, result.model.params.values)

    def test_passes_capped_at_200(self, monkeypatch):
        # skewnormal fitting a seed-1 benchmark richards series from the
        # pool of the benchmark's fit seed: one start crawls along a ridge,
        # still improving, to the cap (the closed-form start is skipped)
        monkeypatch.setattr(fitting, "_closed_form_start", lambda *args: None)
        series = _trial_series(BenchConfig(seed=1), 0, 19)
        seed = bench._fit_config(BenchConfig(seed=1, fit=FitConfig(seed=1)), 0, 19, 1).seed
        capped = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=seed, max_iterations=200))
        wider = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=seed, max_iterations=5000))
        tighter = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=seed, max_iterations=199))
        assert wider == capped
        assert tighter.iterations_used < capped.iterations_used

    def test_gengamma_ridge_walk_ends_at_the_power_floor(self):
        # the series whose gengamma starts crawled to the pass cap in
        # per-parameter logs: with the mode and the log-space curvature
        # held, p walks to its floor, where alpha must still be a normal
        # float (without the floor it underflows toward 0)
        series = _trial_series(BenchConfig(seed=1), 0, 1)
        result = fit(series, ModelKind.GENGAMMA, FitConfig(seed=0))
        alpha, _, p = result.model.params.values
        assert result.converged and result.iterations_used < 300
        assert p == pytest.approx(_GENGAMMA_P_MIN, abs=1e-6)
        assert alpha >= sys.float_info.min
        # 0.0101182 in per-parameter logs, stopped at the cap
        assert result.rms < 0.0101

    def test_flat_series_unrepresentable_optimum_is_fit_failure(self):
        # one step flattens gengamma's shape (p and alpha near 1e13, zero
        # loss), where d = 1 + c / p rounds to exactly 1.0 and leaves the
        # family's bounds
        series = SampledSeries(np.linspace(0.02, 0.98, 10), np.ones(10))
        with pytest.raises(FitFailureError) as err:
            fit(series, ModelKind.GENGAMMA, FitConfig(seed=1))
        assert len(err.value.start_losses) == 16

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    @settings(max_examples=20, deadline=None)
    @given(ys=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=12))
    def test_contract_on_short_series(self, kind, ys):
        # fit returns in-bounds parameters or raises one of its two errors,
        # and emits no RuntimeWarning on the way
        series = SampledSeries(np.linspace(0.0, 1.0, len(ys)), np.array(ys))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = fit(series, kind, FitConfig(seed=0))
        except (FitFailureError, ValueError) as exc:
            assert not isinstance(exc, ParameterBoundsError), exc
            return
        ShapeParams(kind, result.model.params.values)

    def test_all_starts_diverged_raises_with_diagnostics(self, monkeypatch):
        projection = fitting._projection

        def bad_projection(kind, grid, ys):
            loss, normal = projection(kind, grid, ys)

            def diverged(Z):
                F, terms = loss(Z)
                return np.full_like(F, np.inf), terms

            return diverged, normal

        monkeypatch.setattr(fitting, "_projection", bad_projection)
        series = maxent_series(2, 2, n=32)
        with pytest.raises(FitFailureError) as err:
            fit(series, ModelKind.MAXENT, FitConfig(seed=0, max_iterations=5))
        assert err.value.kind is ModelKind.MAXENT
        assert len(err.value.start_losses) == 16
        assert all(math.isinf(v) for v in err.value.start_losses)


    @pytest.mark.parametrize("seed", [731310701, 18324004])
    def test_fit_on_the_half_normal_ridge_keeps_its_peak(self, seed, monkeypatch):
        # the winning start of these seeds' pools ends on the half-normal
        # ridge (alpha -1.5e80 and -2.0e22), where the midpoint of the
        # mode's final golden-section bracket lands just past xi, in the
        # shape's underflow to 0: the fit raised "degenerate profiled
        # amplitude".  The closed-form start (alpha -6.1) never reaches the
        # ridge, so it is skipped
        monkeypatch.setattr(fitting, "_closed_form_start", lambda *args: None)
        series = normalize(load_series(bundled_dataset_path("st_matthew")))[0]
        result = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=seed))
        model = result.model
        assert model.params.values[2] < -1e20 and result.rms < 0.08
        assert evaluate(model, mode(model.params)) == model.amplitude


class TestSelfFitRecovery:
    @pytest.mark.parametrize(
        "kind,threshold",
        [
            (ModelKind.RICHARDS, 5e-3),
            (ModelKind.SKEWNORMAL, 5e-3),
            (ModelKind.MAXENT, 5e-3),
            (ModelKind.BETA, 5e-3),
            (ModelKind.GENGAMMA, 5e-2),
        ],
        ids=lambda v: v.value if isinstance(v, ModelKind) else str(v),
    )
    def test_recovery_rate(self, self_fit_rms, kind, threshold):
        values = self_fit_rms[kind]
        assert (values < threshold).mean() >= 0.95


def _lockstep_inputs(kind, series, seed=0):
    """(batch loss, normal equations, 16-start pool) as ``fit`` builds them."""
    return (*fitting._projection(kind, EvalGrid(series.xs), series.ys), start_pool(kind, 16, seed))


@pytest.fixture(scope="module")
def lockstep_series():
    """The normalized Universe 25 series and one noisy 1001-point series."""
    universe25 = normalize(load_series(bundled_dataset_path("universe25")))[0]
    clean = sample_series(CurveModel(ShapeParams(ModelKind.SKEWNORMAL, (0.4, 0.15, 2.0)), 1.0), 1001)
    noise = np.random.default_rng(7).normal(0.0, 0.03, 1001)
    noisy = SampledSeries(clean.xs, np.clip(clean.ys + noise, 0.0, None))
    return {"universe25": universe25, "noisy1001": noisy}


def _stepping_stub(rows):
    """(batch loss, normal equations) of a 2-D stub problem whose row label
    z[1] picks (F0, q) or (F0, q, k) from ``rows`` (k defaults to 1).  The
    rms is F0 (1 - q) ** round(z[0]): every step that reaches the next
    integer lowers the rms by the share q of itself, and so the mean
    square by s = F^2 q (2 - q).  The normal equations are J^T J = k s I
    and J^T r = (-k s, 0), so z[0] walks up by about 1 / (1 + lambda) and
    the predicted fall of the mean square is about k s: k = 1 predicts the
    actual fall, k > 1 overestimates it and k < 1 underestimates it.  With
    q < 0 and k < 0 every step raises the rms where the model predicts a
    fall, so every step is rejected."""
    table = np.array([tuple(r) + (1.0,) * (3 - len(r)) for r in rows])

    def loss(Z):
        f0, q, k = table[Z[:, 1].astype(int)].T
        F = f0 * (1.0 - q) ** np.rint(Z[:, 0])
        return F, (F, q, k)

    def normal(terms):
        F, q, k = terms
        ks = k * F * F * q * (2.0 - q)
        A = ks[:, None, None] * np.eye(2)
        return A, np.column_stack([-ks, np.zeros_like(ks)])

    return loss, normal


def _run_stub(rows, tol=1e-12, max_iter=200, starts=slice(None)):
    """``_lm_lockstep`` on the stub problem from z = (0, label) for the
    labels ``starts`` picks (default: one start per entry of rows)."""
    loss, normal = _stepping_stub(rows)
    Z0 = np.column_stack([np.zeros(len(rows)), np.arange(len(rows))])[starts]
    return fitting._lm_lockstep(loss, normal, Z0, tol, max_iter)


class TestLockstep:
    @pytest.mark.parametrize("name", ["universe25", "noisy1001"])
    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_batch_makeup_does_not_change_a_trajectory(self, lockstep_series, kind, name):
        # each start run alone gives the same bits as all 16 run together
        loss, normal, Z0 = _lockstep_inputs(kind, lockstep_series[name])
        together = fitting._lm_lockstep(loss, normal, Z0, 1e-12, 200)
        alone = [fitting._lm_lockstep(loss, normal, Z0[i : i + 1], 1e-12, 200) for i in range(16)]
        for k, field in enumerate(("z", "loss", "iterations", "converged")):
            single = np.concatenate([run[k] for run in alone])
            assert np.array_equal(together[k], single), field

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_evaluates_at_most_two_rows_per_start_iteration(self, lockstep_series, kind):
        # each pass: one loss row per active start, plus a normal-equation
        # row only for the starts whose trial step was accepted
        loss, normal, Z0 = _lockstep_inputs(kind, lockstep_series["universe25"])
        calls = []

        def copied(terms):
            return tuple(None if t is None else t.copy() for t in terms)

        # a row is named by its theta, the first of the loss's terms
        def logged_loss(Z):
            out, terms = loss(Z)
            calls.append(("loss", terms[0].copy(), out.copy(), copied(terms)))
            return out, terms

        def logged_normal(terms):
            calls.append(("normal", terms[0].copy(), None, copied(terms)))
            return normal(terms)

        _, _, passes, _ = fitting._lm_lockstep(logged_loss, logged_normal, Z0, 1e-12, 200)
        # one loss row and one normal-equation row per starting point
        assert [(c[0], c[1].shape[0]) for c in calls[:2]] == [("loss", 16), ("normal", 16)]
        best = calls[0][2].copy()
        k = 0
        # the starting points' normal equations take the loss call's terms
        for given, scored in zip(calls[1][3], calls[0][3]):
            np.testing.assert_array_equal(given, scored)
        for i, (what, theta, out, terms) in enumerate(calls[2:], start=2):
            if what == "normal":
                continue
            # pass k scores one trial row per start still active, in start order
            k += 1
            starts = np.flatnonzero(passes >= k)
            assert theta.shape[0] == starts.size
            accepted = out < best[starts]
            best[starts[accepted]] = out[accepted]
            # normal equations at accepted trial points only, and at the
            # accepted point of every start that goes on
            none = np.empty((0, theta.shape[1]))
            after = calls[i + 1] if i + 1 < len(calls) else ("end", none)
            rebuilt = after[1] if after[0] == "normal" else none
            assert all((theta[accepted] == row).all(axis=1).any() for row in rebuilt)
            # ... and take the terms this loss call returned for those rows
            for j, row in enumerate(rebuilt):
                hit = np.flatnonzero((theta == row).all(axis=1))[0]
                for given, scored in zip(after[3], terms):
                    if scored is not None:
                        np.testing.assert_array_equal(given[j], scored[hit])
            going_on = theta[accepted & (passes[starts] > k)]
            assert all((rebuilt == row).all(axis=1).any() for row in going_on)
        assert k == passes.max()
        assert sum(c[1].shape[0] for c in calls[2:] if c[0] == "loss") == passes.sum()

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_one_kernel_row_per_loss_row(self, lockstep_series, kind, monkeypatch):
        # the normal equations reuse the shapes of the loss call that scored
        # their rows: during a fit the family kernel sees exactly the loss
        # rows and the partials exactly the normal-equation rows
        rows = {"kernel": 0, "partials": 0, "loss": 0, "normal": 0}

        def counted(name, f):
            def wrapped(*args):
                if np.ndim(args[0]) == 2:  # a batch of rows, not the scalar peak lookup
                    rows[name] += np.shape(args[0])[0]
                return f(*args)

            return wrapped

        family = FAMILIES[kind]
        monkeypatch.setitem(
            FAMILIES,
            kind,
            dataclasses.replace(
                family,
                kernel=counted("kernel", family.kernel),
                partials=counted("partials", family.partials),
            ),
        )
        projection = fitting._projection

        def logged_projection(*args):
            loss, normal = projection(*args)

            def logged_loss(Z):
                rows["loss"] += Z.shape[0]
                return loss(Z)

            def logged_normal(terms):
                rows["normal"] += terms[0].shape[0]
                return normal(terms)

            return logged_loss, logged_normal

        monkeypatch.setattr(fitting, "_projection", logged_projection)
        result = fit(lockstep_series["universe25"], kind, FitConfig(seed=0))
        # every start the fit ran: 16, or 1 from a closed-form start
        assert rows["normal"] >= len(result.start_losses) and rows["loss"] > rows["normal"]
        assert rows["kernel"] == rows["loss"]
        assert rows["partials"] == rows["normal"]

    @pytest.mark.parametrize(
        "name,kind,seed", [("universe25", ModelKind.MAXENT, 0), ("st_matthew", ModelKind.RICHARDS, 3)]
    )
    def test_fit_returns_the_parameters_it_scored(self, name, kind, seed, monkeypatch):
        # the winning start's z under the loss's own z -> theta map; a
        # scalar copy of the map (math.exp) is one ulp off on these fits
        series = normalize(load_series(bundled_dataset_path(name)))[0]
        loss, normal, _ = _lockstep_inputs(kind, series, seed)
        # the starts of the run whose result the fit returned: its last
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=seed))
        monkeypatch.undo()
        Z0 = runs[-1]
        assert Z0.shape[0] == len(result.start_losses)
        z, F, _, _ = fitting._lm_lockstep(loss, normal, Z0, 1e-12, 200)
        scored = FAMILIES[kind].coords[0](z[np.argmin(F)][None])[0][0]
        assert tuple(map(float, scored)) == fit(series, kind, FitConfig(seed=seed)).model.params.values

    def test_singular_row_does_not_stop_the_others(self, lockstep_series):
        # start 3's normal equations are all zeros, so its damped matrix is
        # singular; the other starts must run exactly as without it
        kind = ModelKind.SKEWNORMAL
        loss, normal, Z0 = _lockstep_inputs(kind, lockstep_series["universe25"])
        poison = FAMILIES[kind].coords[0](Z0[3:4])[0][0]

        def singular_normal(terms):
            A, g = normal(terms)
            hit = (terms[0] == poison).all(axis=1)
            A[hit] = 0.0
            g[hit] = 0.0
            return A, g

        together = fitting._lm_lockstep(loss, singular_normal, Z0, 1e-12, 200)
        clean = fitting._lm_lockstep(loss, normal, Z0, 1e-12, 200)
        others = np.arange(16) != 3
        for k, field in enumerate(("z", "loss", "iterations", "converged")):
            assert np.array_equal(together[k][others], clean[k][others]), field
        assert clean[2][others].max() > 1  # the others did take steps
        # the singular start takes the minimum-norm (zero) step: it cannot
        # move, its damping grows past the ceiling and it stops in place
        np.testing.assert_array_equal(together[0][3], Z0[3])

    def test_damping_falls_threefold_after_a_good_step(self):
        # both passes are accepted with a gain ratio near 1, so the second
        # is damped by lambda0 / 3; D keeps the first pass's diagonal s0,
        # and the second pass's curvature is s1 = (1 - q)^2 s0
        q = 0.1
        z, F, passes, _ = _run_stub([(0.3, q)], max_iter=2)
        assert passes[0] == 2 and F[0] == 0.3 * (1.0 - q) ** 2
        ratio = (1.0 - q) ** 2
        lam = fitting._LAMBDA0 / 3.0
        expected = 1.0 / (1.0 + fitting._LAMBDA0) + ratio / (ratio + lam)
        assert z[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_damping_rises_tenfold_after_a_rejected_step(self):
        # every step is rejected, so z stays put and each pass retries the
        # same step, damped ten times more than the last
        loss, normal = _stepping_stub([(0.3, -0.1, -1.0)])
        trials = []

        def logged_loss(Z):
            trials.append(Z[0, 0])
            return loss(Z)

        Z0 = np.zeros((1, 2))
        z, F, passes, converged = fitting._lm_lockstep(logged_loss, normal, Z0, 1e-12, 3)
        assert passes[0] == 3 and not converged[0]
        assert F[0] == 0.3 and (z == 0.0).all()
        # the loss first scores the starting point, then one trial per pass
        for k, dz in enumerate(trials[1:]):
            assert dz == pytest.approx(1.0 / (1.0 + fitting._LAMBDA0 * 10.0**k), rel=1e-15)

    def test_rejected_step_at_the_tolerance_stops_converged(self):
        # every step is rejected: a start whose rms is at most tol stops at
        # its first pass, converged; one above it raises lambda to the cap
        z, F, passes, converged = _run_stub([(1e-13, -0.1, -1.0), (2e-12, -0.1, -1.0)], max_iter=5)
        np.testing.assert_array_equal(passes, [1, 5])
        np.testing.assert_array_equal(converged, [True, False])
        assert (z[:, 0] == 0.0).all() and F.tolist() == [1e-13, 2e-12]

    def test_relative_fall_at_most_threshold_stops_at_that_pass(self):
        z, F, passes, converged = _run_stub([(0.01, 0.99 * fitting._REL_FALL)])
        assert passes[0] == 1 and converged[0]
        assert F[0] == 0.01 * (1.0 - 0.99 * fitting._REL_FALL)
        assert z[0, 0] == pytest.approx(1.0 / (1.0 + fitting._LAMBDA0), rel=1e-15)

    def test_relative_fall_just_above_threshold_keeps_going(self):
        # the model predicts 0.9 of the fall, so only the fall itself
        # keeps the start going
        q = 1.01 * fitting._REL_FALL
        _, F, passes, converged = _run_stub([(0.01, q, 0.9)], max_iter=2)
        # both passes are accepted; the start runs on to the pass cap
        assert passes[0] == 2 and not converged[0]
        assert F[0] == 0.01 * (1.0 - q) ** 2

    def test_small_fall_with_larger_predicted_fall_keeps_going(self):
        # the fall is below the threshold, but the model predicted three
        # times as much: the start is not settled
        q = 0.99 * fitting._REL_FALL
        _, F, passes, converged = _run_stub([(0.01, q, 3.0)], max_iter=3)
        assert passes[0] == 3 and not converged[0]
        assert F[0] == 0.01 * (1.0 - q) ** 3

    def test_small_fall_beyond_twice_the_prediction_keeps_going(self):
        # the fall is below the threshold, but 2.5 times what the model
        # predicted (gain ratio above 2): the start is not settled
        q = 0.99 * fitting._REL_FALL
        _, F, passes, converged = _run_stub([(0.01, q, 0.4)], max_iter=3)
        assert passes[0] == 3 and not converged[0]
        assert F[0] == 0.01 * (1.0 - q) ** 3

    def test_absolute_tolerance_still_stops_near_zero_residuals(self):
        # a fall of half the rms, far above the relative threshold, but
        # below the absolute tolerance
        _, _, passes, converged = _run_stub([(1e-14, 0.5)], tol=1e-12)
        assert passes[0] == 1 and converged[0]
        _, _, passes, converged = _run_stub([(1e-14, 0.5)], tol=1e-20, max_iter=2)
        assert passes[0] == 2 and not converged[0]

    def test_relative_stop_leaves_other_rows_unchanged(self):
        # start 0 stops relatively at pass 1, start 2 by the absolute
        # tolerance; 1, 3 and 4 go on to the cap, each as it would alone
        rows = [
            (0.01, 0.5 * fitting._REL_FALL),
            (0.01, 1.5 * fitting._REL_FALL, 0.6),
            (1e-14, 0.5),
            (0.3, 1e-3),
            (0.01, 0.5 * fitting._REL_FALL, 3.0),
        ]
        together = _run_stub(rows, max_iter=20)
        np.testing.assert_array_equal(together[2], [1, 20, 1, 20, 20])
        np.testing.assert_array_equal(together[3], [True, False, True, False, False])
        for i in range(len(rows)):
            alone = _run_stub(rows, max_iter=20, starts=slice(i, i + 1))
            for k, field in enumerate(("z", "loss", "iterations", "converged")):
                assert np.array_equal(together[k][i], alone[k][0]), (i, field)


class TestPartials:
    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_match_central_differences(self, kind):
        # ds/dz from the analytic partials against central differences of
        # the kernel at seeded in-range points, on a grid with both endpoints
        grid = EvalGrid(np.linspace(0.0, 1.0, 41))
        specs = FAMILIES[kind].params
        Z = start_pool(kind, 8, seed=17)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            theta, dtheta = FAMILIES[kind].coords[0](Z)
            s = fitting._shapes(kind, theta, grid)[0]
            ds = fitting._partials(kind, theta, dtheta, s, grid)

            def log_shape(z):
                return FAMILIES[kind].kernel(*FAMILIES[kind].coords[0](z[None])[0][0], grid)

            for i, z in enumerate(Z):
                peak = log_shape(z).max()  # the normalization of s at z
                for j in range(len(specs)):
                    h = np.zeros(len(specs))
                    h[j] = 1e-5
                    fd = (np.exp(log_shape(z + h) - peak) - np.exp(log_shape(z - h) - peak)) / 2e-5
                    assert np.abs(ds[i, j] - fd).max() <= 1e-6 * np.abs(ds[i, j]).max(), (i, j)
        assert np.isfinite(ds).all()
        # exactly zero where the shape vanishes at an endpoint
        ends = {ModelKind.MAXENT: [0, -1], ModelKind.BETA: [0, -1], ModelKind.GENGAMMA: [0]}
        ends = ends.get(kind, [])
        assert (s[:, ends] == 0.0).all()
        assert (ds[:, :, ends] == 0.0).all()


EXACT_SHAPES = [
    (ModelKind.MAXENT, (0.02, 0.7)),
    (ModelKind.MAXENT, (0.3, 0.5)),
    (ModelKind.MAXENT, (5.0, 0.1)),
    (ModelKind.MAXENT, (50.0, 50.0)),
    (ModelKind.BETA, (1.05, 1.2)),
    (ModelKind.BETA, (3.0, 5.0)),
    (ModelKind.BETA, (51.0, 1.05)),
]
GENGAMMA_SHAPES = [(0.05, 1.5, 0.6), (0.2, 3.0, 1.3), (0.5, 8.0, 4.5), (1.0, 2.0, 2.2)]
# richards shapes whose peak spans several points of the 22-point grid, so
# that its half-maximum reading is within 1% of theta there too
RICHARDS_SHAPES = [(10.0, 0.45, 1.0), (5.0, 0.55, 0.5), (4.0, 0.5, 0.3)]
SKEWNORMAL_SHAPES = [
    (0.4, 0.1, 2.0), (0.5, 0.15, -1.5), (0.3, 0.08, 5.0), (0.6, 0.12, -8.0), (0.45, 0.2, 0.8)
]
# beta (51, 1.05) on 22 points has only two points above 2% of the maximum
# (the closed-form start needs three): the fallback test below uses it
TWO_POINTS = (ModelKind.BETA, (51.0, 1.05), 22)


def _shape_series(kind, theta, n):
    return sample_series(CurveModel(ShapeParams(kind, theta), 1.0), n)


def _long_series(kind, theta, noise_seed):
    """A perfbench long-series input: the shape on 1001 points plus noise
    of sigma 0.03 drawn with noise_seed, clipped at 0."""
    clean = _shape_series(kind, theta, 1001)
    noise = np.random.default_rng(noise_seed).normal(0.0, 0.03, clean.ys.size)
    return SampledSeries(clean.xs, np.clip(clean.ys + noise, 0.0, None))


def _long_series_round_52():
    """perfbench's long-series seed 1 round 52: a noisy gengamma shape."""
    theta = (0.3287807953114529, 1.4415864327456753, 2.886791514872707)
    return _long_series(ModelKind.GENGAMMA, theta, 4608141326015880419)


#: the richards shape of perfbench's long-series rounds 50, 60, ...
LONG_SERIES_RICHARDS = (90.2255307178825, 0.3749961532564603, 2.7731243120759466)


def _fit_logging_runs(monkeypatch, series, kind, config, lockstep=fitting._lm_lockstep):
    """fit(series, kind, config), and the starts (a z-matrix) and the summed
    passes of each lockstep run it made, the run itself being ``lockstep``."""
    runs, passes = [], []

    def logged(loss, normal, Z0, tol, max_iter):
        out = lockstep(loss, normal, Z0, tol, max_iter)
        runs.append(Z0.copy())
        passes.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(fitting, "_lm_lockstep", logged)
    return fit(series, kind, config), runs, passes


def _assert_pool_result(result, series, kind, config, spent=0, lockstep=fitting._lm_lockstep):
    # the result of the seeded pool alone, as before closed-form starts
    loss, normal = fitting._projection(kind, EvalGrid(series.xs), series.ys)
    pool = start_pool(kind, config.starts, config.seed)
    z, F, passes, _ = lockstep(loss, normal, pool, 1e-12, 200)
    assert len(result.start_losses) == config.starts
    assert result.start_losses == tuple(map(float, F))
    theta = FAMILIES[kind].coords[0](z[np.argmin(F)][None])[0][0]
    assert result.model.params.values == tuple(map(float, theta))
    assert result.iterations_used == passes.sum() + spent


class TestClosedFormStart:
    @pytest.mark.parametrize(
        "kind,theta,n",
        [(k, theta, n) for k, theta in EXACT_SHAPES for n in (22, 101, 1001)
         if (k, theta, n) != TWO_POINTS],
        ids=lambda v: getattr(v, "value", str(v)),
    )
    def test_noiseless_shape_gives_its_parameters(self, kind, theta, n, monkeypatch):
        series = _shape_series(kind, theta, n)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=0))
        assert len(runs) == 1 and len(result.start_losses) == 1
        start = FAMILIES[kind].coords[0](runs[0])[0][0]
        # one refinement step holds this; without it maxent (50, 50) on 22
        # points, whose f and g are nearly collinear, is off by 8e-10
        np.testing.assert_allclose(start, theta, rtol=1e-12, atol=0)
        assert result.rms < 1e-12
        # at its optimum to round-off, the start stops once a step is rejected
        assert result.converged and result.iterations_used <= 2

    @pytest.mark.parametrize("kind", [ModelKind.MAXENT, ModelKind.BETA], ids=lambda k: k.value)
    @pytest.mark.parametrize("name", BUNDLED_DATASETS)
    def test_start_is_the_weighted_log_linear_fit(self, name, kind, monkeypatch):
        # against lstsq of y log y on the y-weighted columns (1, f, g), over
        # the points above 2% of the maximum (both datasets have points
        # between 1% and 2%) with f and g finite
        series = normalize(load_series(bundled_dataset_path(name)))[0]
        _, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=0))
        grid = EvalGrid(series.xs)
        f, g = (getattr(grid, w) for w in FAMILIES[kind].weights)
        use = (series.ys > 0.02 * series.ys.max()) & np.isfinite(f) & np.isfinite(g)
        y = series.ys[use]
        X = y[:, None] * np.column_stack([np.ones_like(y), f[use], g[use]])
        c = np.linalg.lstsq(X, y * np.log(y), rcond=None)[0]
        # log s = -a/x - b/(1-x) for maxent, (a-1) log x + (b-1) log(1-x) for beta
        theta = (1.0 + c[1:] if kind is ModelKind.BETA else -c[1:])[None]
        assert FAMILIES[kind].admits(theta)[0]
        start = FAMILIES[kind].coords[0](runs[0])[0][0]
        np.testing.assert_allclose(start, theta[0], rtol=1e-9, atol=0)

    def test_two_usable_points_fall_back(self, monkeypatch):
        kind, theta, n = TWO_POINTS
        series = _shape_series(kind, theta, n)
        assert np.count_nonzero(series.ys > 0.02 * series.ys.max()) == 2
        config = FitConfig(seed=3)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, config)
        assert [len(z) for z in runs] == [16]
        _assert_pool_result(result, series, kind, config)

    def test_non_finite_solve_falls_back(self, monkeypatch):
        log_linear = models._log_linear
        solved = []

        def nan_solve(M, b):
            solved.append(M.shape)
            return np.full(b.shape, np.nan)

        def nan_log_linear(*args):  # NaN for the log-linear solves only
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "solve", nan_solve)
                return log_linear(*args)

        monkeypatch.setattr(models, "_log_linear", nan_log_linear)
        series = normalize(load_series(bundled_dataset_path("universe25")))[0]
        config = FitConfig(seed=2)
        for kind in (ModelKind.MAXENT, ModelKind.GENGAMMA):
            solved.clear()
            result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, config)
            assert solved and [len(z) for z in runs] == [16]
            _assert_pool_result(result, series, kind, config)

    @pytest.mark.parametrize("trial,b", [(61, -0.589), (88, -2.097)])
    def test_start_off_the_bounds_is_not_run(self, trial, b, monkeypatch):
        # seed-4242 benchmark maxent fits of richards series whose log-linear
        # b is negative: a start clamped inside the bound walked to b ~ 0
        bench_config = BenchConfig(seed=4242, fit=FitConfig(seed=4242))
        series = _trial_series(bench_config, 0, trial)
        kind = ModelKind.MAXENT
        theta = FAMILIES[kind].start(EvalGrid(series.xs), series.ys)
        assert theta[0, 1] == pytest.approx(b, abs=1e-3)
        config = bench._fit_config(bench_config, 0, trial, KIND_ORDER.index(kind))
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, config)
        assert [len(z) for z in runs] == [16]
        _assert_pool_result(result, series, kind, config)

    def test_beta_candidate_on_its_closed_bound_is_not_run(self, monkeypatch):
        # a = 1 is a valid beta parameter, so the bound rule admits the
        # candidate; its z = log(a - 1) is -inf, so the start filter still
        # drops it and the pool runs
        kind = ModelKind.BETA
        theta = np.array([[1.0, 2.0]])
        family = FAMILIES[kind]
        assert family.admits(theta)[0]
        with np.errstate(divide="ignore"):
            assert family.coords[1](theta)[0, 0] == -math.inf
        monkeypatch.setitem(FAMILIES, kind, dataclasses.replace(family, start=lambda g, y: theta))
        series = _shape_series(kind, (3.0, 2.0), 101)
        config = FitConfig(seed=5)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, config)
        assert [len(z) for z in runs] == [16]
        _assert_pool_result(result, series, kind, config)

    def test_unconverged_run_falls_back(self, monkeypatch):
        lockstep = fitting._lm_lockstep

        def unconverged_alone(loss, normal, Z0, tol, max_iter):
            z, F, passes, converged = lockstep(loss, normal, Z0, tol, max_iter)
            if Z0.shape[0] == 1:
                assert converged[0]  # as it would have returned
                converged = np.zeros_like(converged)
            return z, F, passes, converged

        series = normalize(load_series(bundled_dataset_path("st_matthew")))[0]
        config = FitConfig(seed=1)
        result, runs, passes = _fit_logging_runs(
            monkeypatch, series, ModelKind.BETA, config, unconverged_alone
        )
        assert [len(z) for z in runs] == [1, 16]
        _assert_pool_result(result, series, ModelKind.BETA, config, spent=passes[0])

    def test_optimum_off_the_bounds_falls_back(self, monkeypatch):
        calls = []

        def first_fails(kind, values):
            calls.append(tuple(values))
            if len(calls) == 1:
                raise ParameterBoundsError("off the bounds")
            return ShapeParams(kind, values)

        monkeypatch.setattr(fitting, "ShapeParams", first_fails)
        series = normalize(load_series(bundled_dataset_path("universe25")))[0]
        config = FitConfig(seed=4)
        result, runs, passes = _fit_logging_runs(monkeypatch, series, ModelKind.MAXENT, config)
        # the closed-form optimum raised, the pool's did not
        assert [len(z) for z in runs] == [1, 16] and len(calls) == 2
        _assert_pool_result(result, series, ModelKind.MAXENT, config, spent=passes[0])

    @pytest.mark.parametrize("n", [22, 101, 1001])
    @pytest.mark.parametrize("theta", GENGAMMA_SHAPES, ids=str)
    def test_noiseless_gengamma_fits_from_one_start(self, theta, n, monkeypatch):
        kind = ModelKind.GENGAMMA
        series = _shape_series(kind, theta, n)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=0))
        assert [len(z) for z in runs] == [1] and len(result.start_losses) == 1
        assert result.rms < 1e-10
        np.testing.assert_allclose(result.model.params.values, theta, rtol=1e-8)

    def test_gengamma_with_no_valid_candidate_falls_back(self, monkeypatch):
        # two points above 2% of the maximum: no candidate has the three
        # points its solve needs
        ys = np.zeros(22)
        ys[5:7] = 1.0, 0.3
        series = SampledSeries(np.linspace(0.0, 1.0, 22), ys)
        config = FitConfig(seed=3)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, ModelKind.GENGAMMA, config)
        assert [len(z) for z in runs] == [16] and len(result.start_losses) == config.starts
        _assert_pool_result(result, series, ModelKind.GENGAMMA, config)

    def test_gengamma_start_scored_by_rms_matches_the_pool(self, monkeypatch):
        # long-series seed 1 round 50: a noisy richards shape on which the
        # candidate of least log-space residual ended 1.65x above the pool
        series = _long_series(ModelKind.RICHARDS, LONG_SERIES_RICHARDS, 6257429007608818135)
        kind = ModelKind.GENGAMMA
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig())
        assert [len(z) for z in runs] == [1]
        loss, normal = fitting._projection(kind, EvalGrid(series.xs), series.ys)
        pool = fitting._lm_lockstep(loss, normal, start_pool(kind, 16, 0), 1e-12, 200)[1]
        assert result.rms <= 1.01 * pool.min()

    @pytest.mark.parametrize(
        "kind,name",
        [(k, name)
         for k in (ModelKind.MAXENT, ModelKind.BETA, ModelKind.GENGAMMA, ModelKind.SKEWNORMAL)
         for name in BUNDLED_DATASETS]
        # Universe 25's half-width ratio (0.29) is off the richards table
        + [(ModelKind.RICHARDS, "st_matthew")],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_fit_does_not_depend_on_the_seed(self, name, kind):
        series = normalize(load_series(bundled_dataset_path(name)))[0]
        fits = [fit(series, kind, FitConfig(seed=seed)) for seed in range(6)]
        assert len(fits[0].start_losses) == 1
        assert all(f == fits[0] for f in fits)

    @pytest.mark.parametrize("n", [22, 101, 1001])
    @pytest.mark.parametrize("theta", RICHARDS_SHAPES, ids=str)
    def test_noiseless_richards_fits_from_one_start(self, theta, n, monkeypatch):
        kind = ModelKind.RICHARDS
        series = _shape_series(kind, theta, n)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=0))
        assert [len(z) for z in runs] == [1] and len(result.start_losses) == 1
        start = FAMILIES[kind].coords[0](runs[0])[0][0]
        np.testing.assert_allclose(start, theta, rtol=0.01)
        assert result.rms < 1e-10
        np.testing.assert_allclose(result.model.params.values, theta, rtol=1e-8)

    @pytest.mark.parametrize(
        "case", ["near-box width", "ratio off the table", "maximum at an end point"]
    )
    def test_richards_without_a_reading_runs_the_pool(self, case, monkeypatch):
        kind = ModelKind.RICHARDS
        if case == "near-box width":
            series = _shape_series(ModelKind.BETA, (1.2, 1.2), 101)
        elif case == "ratio off the table":
            series = _long_series_round_52()
        else:
            series = _shape_series(kind, (10.0, 1.2, 1.0), 101)
        read = models._half_maximum(series.xs, series.ys)
        ratio = FAMILIES[kind].start.table()[0]
        if case == "maximum at an end point":
            assert read is None
        else:
            x_l, t0, x_r = read
            off = not ratio[0] <= (t0 - x_l) / (x_r - t0) <= ratio[-1]
            assert (x_r - x_l >= 0.7, off) == (
                (True, False) if case == "near-box width" else (False, True)
            )
        assert FAMILIES[kind].start(EvalGrid(series.xs), series.ys) is None
        config = FitConfig(seed=5)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, config)
        assert [len(z) for z in runs] == [16] and len(result.start_losses) == 16
        _assert_pool_result(result, series, kind, config)

    def test_richards_on_long_series_round_52_matches_the_pool(self):
        # its half-width ratio 0.54 is off the table; clamped to nu = 1e-3,
        # the start ended in the Gompertz basin at rms 0.0523 against 0.0428
        series = _long_series_round_52()
        kind = ModelKind.RICHARDS
        loss, normal = fitting._projection(kind, EvalGrid(series.xs), series.ys)
        pool = fitting._lm_lockstep(loss, normal, start_pool(kind, 16, 0), 1e-12, 200)[1]
        assert fit(series, kind, FitConfig()).rms <= 1.01 * pool.min()

    @pytest.mark.parametrize(
        "kind", [ModelKind.RICHARDS, ModelKind.SKEWNORMAL], ids=lambda k: k.value
    )
    def test_table_solves_the_half_maximum(self, kind):
        family = FAMILIES[kind]
        ratio, shape, m, span = family.start.table()
        assert (np.diff(ratio) > 0.0).all()
        if kind is ModelKind.RICHARDS:
            # R rises with nu, log-spaced over [1e-3, 1e3]
            assert ratio.size == 121 and (np.diff(shape) > 0.0).all()
            np.testing.assert_allclose(np.exp(shape[[0, 60, -1]]), [1e-3, 1.0, 1e3])
            # the logistic (nu = 1) is symmetric: u+ = -u- = log(3 + 2 sqrt 2)
            i, width = 60, 2.0 * math.log(3.0 + 2.0 * math.sqrt(2.0))
        else:
            # R falls as alpha rises
            assert ratio.size == 161 and (np.diff(shape) < 0.0).all()
            np.testing.assert_array_equal(shape[::-1], np.linspace(-20.0, 20.0, 161))
            # alpha = 0 is the normal density: mode 0, half-widths sqrt(2 log 2)
            i, width = 80, 2.0 * math.sqrt(2.0 * math.log(2.0))
            assert shape[i] == 0.0
        assert ratio[i] == pytest.approx(1.0, abs=1e-12) and m[i] == pytest.approx(0.0, abs=1e-12)
        assert span[i] == pytest.approx(width, rel=1e-12)
        # on the shape of location 0.5 and a half-maximum width of 0.5, m
        # is the peak and the tabled crossings lie at half of it
        location = 1 if kind is ModelKind.RICHARDS else 0
        for i in (0, ratio.size // 4, 3 * ratio.size // 4, -1):
            scale = 0.5 / span[i]
            theta = ((1.0 / scale, 0.5, math.exp(shape[i])) if kind is ModelKind.RICHARDS
                     else (0.5, scale, shape[i]))
            z_l = m[i] - span[i] * ratio[i] / (1.0 + ratio[i])
            grid = EvalGrid(0.5 + scale * np.array([m[i], z_l, z_l + span[i]]))
            peak, left, right = family.kernel(*theta, grid)
            np.testing.assert_allclose([left - peak, right - peak], [-math.log(2.0)] * 2, rtol=1e-9)
            assert abs(family.partials(*theta, grid)[location][0]) < 1e-9

    @pytest.mark.parametrize("n", [101, 1001])
    @pytest.mark.parametrize("theta", SKEWNORMAL_SHAPES, ids=str)
    def test_noiseless_skewnormal_fits_from_one_start(self, theta, n, monkeypatch):
        kind = ModelKind.SKEWNORMAL
        series = _shape_series(kind, theta, n)
        result, runs, _ = _fit_logging_runs(monkeypatch, series, kind, FitConfig(seed=0))
        assert [len(z) for z in runs] == [1] and len(result.start_losses) == 1
        assert result.rms < 1e-12
        if n == 1001:
            start = FAMILIES[kind].coords[0](runs[0])[0][0]
            np.testing.assert_allclose(start, theta, rtol=0.02)

    @pytest.mark.parametrize(
        "case",
        ["near-box width", "too few samples", "alpha near 0 as read", "run ends near alpha 0"],
    )
    def test_skewnormal_gates_run_the_pool(self, case, monkeypatch):
        kind = ModelKind.SKEWNORMAL
        config = FitConfig(seed=5)
        if case == "near-box width":
            series = _shape_series(ModelKind.BETA, (1.2, 1.2), 101)
        elif case == "too few samples":
            # the seed-2 benchmark skewnormal trial 7 thinned to 8 points, as
            # the off-distribution panel thins it: read from the one sample
            # inside its half maximum, the start ended at rms 9.6e-5, where
            # the pool fits it exactly
            bench_config = BenchConfig(seed=2, fit=FitConfig(seed=2))
            full = _trial_series(bench_config, 1, 7)
            keep = np.linspace(0, len(full) - 1, 8).round().astype(int)
            series = SampledSeries(full.xs[keep], full.ys[keep])
            config = bench._fit_config(bench_config, 1, 7, KIND_ORDER.index(kind))
        elif case == "alpha near 0 as read":
            series = _shape_series(kind, (0.5, 0.1, 0.0), 101)
        else:
            # perfbench's long-series seed 4242 round 80: read at alpha 2.1,
            # the one start ended "converged" at alpha 0.006 and rms 0.0353,
            # where the pool reaches alpha -2.69 and rms 0.0258
            series = _long_series(ModelKind.RICHARDS, LONG_SERIES_RICHARDS, 4050423835367577452)
            config = FitConfig()
        x_l, _, x_r = models._half_maximum(series.xs, series.ys)
        inside = np.count_nonzero((series.xs > x_l) & (series.xs < x_r))
        assert (x_r - x_l >= 0.6, inside < 3) == (
            case == "near-box width", case == "too few samples"
        )
        theta = FAMILIES[kind].start(EvalGrid(series.xs), series.ys)
        if case in ("near-box width", "too few samples"):
            assert theta is None
        else:
            assert (abs(theta[0, 2]) < 0.3) == (case == "alpha near 0 as read")
        result, runs, passes = _fit_logging_runs(monkeypatch, series, kind, config)
        if case == "run ends near alpha 0":
            assert [len(z) for z in runs] == [1, 16]
            _assert_pool_result(result, series, kind, config, spent=passes[0])
            assert result.rms < 0.026 and result.model.params.values[2] < -2.0
        else:
            assert [len(z) for z in runs] == [16]
            _assert_pool_result(result, series, kind, config)

    def test_skewnormal_trap_self_fit_recovers(self, monkeypatch):
        # the seed-4242 benchmark skewnormal trial 6: the best start of its
        # pool stops near alpha = 0 at rms 0.026 (ROADMAP item 2); the read
        # start fits it exactly
        bench_config = BenchConfig(seed=4242, fit=FitConfig(seed=4242))
        series = _trial_series(bench_config, 1, 6)
        kind = ModelKind.SKEWNORMAL
        config = bench._fit_config(bench_config, 1, 6, KIND_ORDER.index(kind))
        result = fit(series, kind, config)
        assert len(result.start_losses) == 1 and result.rms < 1e-12
        monkeypatch.setattr(fitting, "_closed_form_start", lambda *args: None)
        assert fit(series, kind, config).rms > 0.02


class TestStartPool:
    def test_prefix_property(self):
        full = start_pool(ModelKind.MAXENT, 16, seed=11)
        for k in (1, 4, 9):
            np.testing.assert_array_equal(start_pool(ModelKind.MAXENT, k, 11), full[:k])

    def test_block_extension(self):
        pool = start_pool(ModelKind.RICHARDS, 20, seed=3)
        assert pool.shape == (20, 3)
        np.testing.assert_array_equal(pool[:16], start_pool(ModelKind.RICHARDS, 16, 3))

    def test_latin_hypercube_stratification(self):
        # per dimension, each of the 16 strata contains exactly one draw
        pool = start_pool(ModelKind.MAXENT, 16, seed=0)
        specs = FAMILIES[ModelKind.MAXENT].params
        for j, spec in enumerate(specs):
            u = (pool[:, j] - math.log(spec.lo)) / (math.log(spec.hi) - math.log(spec.lo))
            assert sorted(np.floor(u * 16).astype(int)) == list(range(16))

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_coords_round_trip(self, seed, kind):
        # theta -> z -> theta gives start draws back; dtheta/dz is exactly 1
        # in free columns and exp(z) in bounded ones, and exactly 1 in every
        # column of gengamma's coupled map, whose partials are taken in z
        family = FAMILIES[kind]
        u = np.random.default_rng(seed).random((64, len(family.params)))
        draws = np.column_stack(
            [spec.from_unit(u[:, j], spec.lo, spec.hi) for j, spec in enumerate(family.params)]
        )
        to_theta, to_z = family.coords
        z = to_z(draws)
        theta, dtheta = to_theta(z)
        np.testing.assert_allclose(theta, draws, rtol=1e-12, atol=0)
        if kind is ModelKind.GENGAMMA:
            expected = np.ones_like(z)
        else:
            free = np.array([spec.lower == -math.inf for spec in family.params])
            expected = np.where(free, 1.0, np.exp(z))
        assert np.array_equal(dtheta, expected)

    def test_within_documented_ranges(self):
        for kind, family in FAMILIES.items():
            pool = start_pool(kind, 16, seed=1)
            thetas = family.coords[0](pool)[0]
            for j, spec in enumerate(family.params):
                theta = thetas[:, j]
                lo = 1.0 + spec.lo if spec.shifted else spec.lo
                hi = 1.0 + spec.hi if spec.shifted else spec.hi
                assert min(theta) >= lo - 1e-9
                assert max(theta) <= hi + 1e-9


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(starts=0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError):
            FitConfig(simplex_tolerance=0.0)
