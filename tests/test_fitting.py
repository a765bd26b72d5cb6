import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifit import (
    CurveModel,
    FitConfig,
    FitFailureError,
    KIND_ORDER,
    ModelKind,
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    bundled_dataset_path,
    fit,
    load_series,
    normalize,
    rms_loss,
    sample_series,
)
import unifit.fitting as fitting
from unifit.bench import BenchConfig, _trial_series
from unifit.fitting import start_pool
from unifit.models import FAMILIES, EvalGrid


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

    def test_rms_equals_min_start_loss(self):
        series = maxent_series(1.3, 0.4)
        result = fit(series, ModelKind.SKEWNORMAL, FitConfig(seed=3))
        assert result.rms == min(result.start_losses)
        assert len(result.start_losses) == 16

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

    def test_passes_capped_at_200(self):
        # gengamma fitting a seed-1 benchmark richards series: some starts
        # crawl along a ridge, still improving, to the cap
        series = _trial_series(BenchConfig(seed=1), 0, 1)
        capped = fit(series, ModelKind.GENGAMMA, FitConfig(seed=0, max_iterations=200))
        wider = fit(series, ModelKind.GENGAMMA, FitConfig(seed=0, max_iterations=5000))
        tighter = fit(series, ModelKind.GENGAMMA, FitConfig(seed=0, max_iterations=199))
        assert wider == capped
        assert tighter.iterations_used < capped.iterations_used

    def test_flat_series_unrepresentable_optimum_is_fit_failure(self):
        # the optimizer drives gengamma's d toward 1, where 1 + exp(z)
        # rounds to exactly 1.0 and leaves the family's bounds
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
            _, normal = projection(kind, grid, ys)
            return lambda Z: (np.full(Z.shape[0], np.inf), np.full((Z.shape[0], ys.size), np.nan)), normal

        monkeypatch.setattr(fitting, "_projection", bad_projection)
        series = maxent_series(2, 2, n=32)
        with pytest.raises(FitFailureError) as err:
            fit(series, ModelKind.MAXENT, FitConfig(seed=0, max_iterations=5))
        assert err.value.kind is ModelKind.MAXENT
        assert len(err.value.start_losses) == 16
        assert all(math.isinf(v) for v in err.value.start_losses)


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
    actual fall, k > 1 overestimates it and k < 1 underestimates it."""
    table = np.array([tuple(r) + (1.0,) * (3 - len(r)) for r in rows])

    def loss(Z):
        f0, q, k = table[Z[:, 1].astype(int)].T
        F = f0 * (1.0 - q) ** np.rint(Z[:, 0])
        return F, np.column_stack([F, q, k])

    def normal(Z, shapes):
        F, q, k = shapes.T
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

        def logged_loss(Z):
            out, shapes = loss(Z)
            calls.append(("loss", Z.copy(), out.copy(), shapes.copy()))
            return out, shapes

        def logged_normal(Z, shapes):
            calls.append(("normal", Z.copy(), None, shapes.copy()))
            return normal(Z, shapes)

        _, _, passes, _ = fitting._lm_lockstep(logged_loss, logged_normal, Z0, 1e-12, 200)
        # one loss row and one normal-equation row per starting point
        assert [(c[0], c[1].shape[0]) for c in calls[:2]] == [("loss", 16), ("normal", 16)]
        best = calls[0][2].copy()
        k = 0
        # the starting points' normal equations take the loss call's shapes
        np.testing.assert_array_equal(calls[1][3], calls[0][3])
        for i, (what, Z, out, shapes) in enumerate(calls[2:], start=2):
            if what == "normal":
                continue
            # pass k scores one trial row per start still active, in start order
            k += 1
            starts = np.flatnonzero(passes >= k)
            assert Z.shape[0] == starts.size
            accepted = out < best[starts]
            best[starts[accepted]] = out[accepted]
            # normal equations at accepted trial points only, and at the
            # accepted point of every start that goes on
            after = calls[i + 1] if i + 1 < len(calls) else ("end", np.empty((0, Z.shape[1])))
            rebuilt = after[1] if after[0] == "normal" else np.empty((0, Z.shape[1]))
            assert all((Z[accepted] == row).all(axis=1).any() for row in rebuilt)
            # ... and take the shapes this loss call returned for those rows
            for row, given in zip(rebuilt, after[3] if after[0] == "normal" else ()):
                np.testing.assert_array_equal(given, shapes[(Z == row).all(axis=1)][0])
            going_on = Z[accepted & (passes[starts] > k)]
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
            def logged(name, inner):
                def call(Z, *rest):
                    rows[name] += Z.shape[0]
                    return inner(Z, *rest)

                return call

            loss, normal = projection(*args)
            return logged("loss", loss), logged("normal", normal)

        monkeypatch.setattr(fitting, "_projection", logged_projection)
        fit(lockstep_series["universe25"], kind, FitConfig(seed=0))
        assert rows["normal"] >= 16 and rows["loss"] > rows["normal"]
        assert rows["kernel"] == rows["loss"]
        assert rows["partials"] == rows["normal"]

    @pytest.mark.parametrize(
        "name,kind,seed", [("universe25", ModelKind.MAXENT, 0), ("st_matthew", ModelKind.RICHARDS, 3)]
    )
    def test_fit_returns_the_parameters_it_scored(self, name, kind, seed):
        # the winning start's z under the loss's own z -> theta map; a
        # scalar copy of the map (math.exp) is one ulp off on these fits
        series = normalize(load_series(bundled_dataset_path(name)))[0]
        loss, normal, Z0 = _lockstep_inputs(kind, series, seed)
        z, F, _, _ = fitting._lm_lockstep(loss, normal, Z0, 1e-12, 200)
        scored = fitting._theta_rows(kind, z[np.argmin(F)][None])[0][0]
        assert tuple(map(float, scored)) == fit(series, kind, FitConfig(seed=seed)).model.params.values

    def test_singular_row_does_not_stop_the_others(self, lockstep_series):
        # start 3's normal equations are all zeros, so its damped matrix is
        # singular; the other starts must run exactly as without it
        kind = ModelKind.SKEWNORMAL
        loss, normal, Z0 = _lockstep_inputs(kind, lockstep_series["universe25"])
        poison = Z0[3].copy()

        def singular_normal(Z, shapes):
            A, g = normal(Z, shapes)
            hit = (Z == poison).all(axis=1)
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
        np.testing.assert_array_equal(together[0][3], poison)

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
            s = fitting._shapes(kind, Z, grid)
            ds = fitting._partials(kind, Z, s, grid)

            def log_shape(z):
                return FAMILIES[kind].kernel(*fitting._theta_rows(kind, z[None])[0][0], grid)

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

    def test_within_documented_ranges(self):
        for kind, family in FAMILIES.items():
            pool = start_pool(kind, 16, seed=1)
            thetas = fitting._theta_rows(kind, pool)[0]
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
