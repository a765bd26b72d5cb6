import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unifit
from unifit import (
    CurveModel,
    KIND_ORDER,
    ModelKind,
    ParameterBoundsError,
    SampledSeries,
    ShapeParams,
    evaluate,
    evaluate_on,
    mode,
    sample_series,
    shape_value,
)
from unifit._seeds import mix64
from unifit.bench import sample_generator_params
from unifit.models import FAMILIES, EvalGrid


def maxent(a, b):
    return ShapeParams(ModelKind.MAXENT, (a, b))


def beta(a, b):
    return ShapeParams(ModelKind.BETA, (a, b))


def random_params(kind, i):
    return sample_generator_params(kind, mix64(777, KIND_ORDER.index(kind), i))


class TestShapeValue:
    def test_maxent_center(self):
        assert shape_value(maxent(1, 1), 0.5) == pytest.approx(math.exp(-4), rel=1e-12)

    def test_maxent_vanishes_at_zero(self):
        assert shape_value(maxent(3, 7), 0.0) == 0.0
        assert shape_value(maxent(3, 7), 1.0) == 0.0

    def test_beta_uniform(self):
        assert shape_value(beta(1, 1), 0.37) == 1.0

    def test_beta_symmetric(self):
        assert shape_value(beta(2, 2), 0.5) == pytest.approx(0.25, rel=1e-12)

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            shape_value(maxent(1, 1), 1.5)

    @pytest.mark.parametrize("i", range(200))
    def test_maxent_boundary_exactly_zero(self, i):
        rng = np.random.default_rng(mix64(42, i))
        a, b = np.exp(rng.uniform(np.log(0.05), np.log(50), 2))
        params = maxent(a, b)
        assert shape_value(params, 0.0) == 0.0
        assert shape_value(params, 1.0) == 0.0

    def test_beta_boundary_zero_for_interior_exponents(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = 1.0 + rng.uniform(0.1, 20, 2)
            params = beta(a, b)
            assert shape_value(params, 0.0) == 0.0
            assert shape_value(params, 1.0) == 0.0


class TestMode:
    def test_maxent_formula(self):
        assert mode(maxent(1, 4)) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("c", [0.05, 0.3, 1.0, 7.7, 50.0])
    def test_maxent_symmetric(self, c):
        assert mode(maxent(c, c)) == pytest.approx(0.5, abs=1e-15)

    def test_beta_symmetric(self):
        assert mode(beta(2, 2)) == 0.5

    def test_beta_flat_case_center(self):
        assert mode(beta(1, 1)) == 0.5

    def test_richards_against_brute_force(self):
        params = ShapeParams(ModelKind.RICHARDS, (10.0, 0.4, 1.0))
        xs = np.linspace(0.0, 1.0, 1_000_001)
        ys = evaluate_on(CurveModel(params, 1.0), xs)
        brute = xs[int(np.argmax(ys))]
        assert mode(params) == pytest.approx(brute, abs=1e-4)

    def test_gengamma_analytic_interior(self):
        params = ShapeParams(ModelKind.GENGAMMA, (0.5, 3.0, 2.0))
        m = 0.5 * math.sqrt(2.0 / 2.0)
        assert mode(params) == pytest.approx(m, abs=1e-12)

    def test_gengamma_overflowing_power_clamps_to_one(self):
        # ((d - 1) / p) ** (1 / p) overflows a float; the mode is far past 1
        params = ShapeParams(ModelKind.GENGAMMA, (0.5, 1000.0, 0.01))
        assert mode(params) == 1.0
        values = evaluate_on(CurveModel(params, 1.0), np.array([0.5, 1.0]))
        assert values[1] == 1.0 and 0.0 <= values[0] < 1.0

    def test_gengamma_overflowing_power_interior_mode(self):
        # the power overflows but a subnormal alpha brings the product below 1
        params = ShapeParams(ModelKind.GENGAMMA, (1e-320, 1e30, 0.1))
        expected = math.exp(math.log(1e-320) + math.log(1e30 / 0.1) / 0.1)
        assert 0.0 < expected < 1.0
        assert mode(params) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_mode_is_a_python_float(self, kind):
        # the numeric argmax of richards and skewnormal included, not np.float64
        for i in range(5):
            assert type(mode(random_params(kind, i))) is float

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_mode_agreement_with_dense_argmax(self, kind):
        # numeric argmax of evaluate on a 1e5 grid within 2e-5 of mode()
        xs = np.linspace(0.0, 1.0, 100_001)
        for i in range(1000):
            params = random_params(kind, i)
            ys = evaluate_on(CurveModel(params, 1.0), xs)
            assert abs(xs[int(np.argmax(ys))] - mode(params)) < 2e-5


class TestEvaluate:
    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_peak_normalization_identity(self, kind):
        for i in range(10):
            params = random_params(kind, i)
            amplitude = 0.5 + i * 0.3
            model = CurveModel(params, amplitude)
            assert evaluate(model, mode(params)) == amplitude

    def test_maxent_amplitude_at_center(self):
        assert evaluate(CurveModel(maxent(1, 1), 2.0), 0.5) == 2.0

    def test_beta_uniform_amplitude_everywhere(self):
        assert evaluate(CurveModel(beta(1, 1), 5.0), 0.9) == 5.0

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_scale_equivariance(self, kind):
        xs = np.linspace(0.0, 1.0, 257)
        for i in range(10):
            params = random_params(kind, i)
            one = evaluate_on(CurveModel(params, 1.0), xs)
            scaled = evaluate_on(CurveModel(params, 7.25), xs)
            np.testing.assert_allclose(scaled, 7.25 * one, rtol=1e-14)

    def test_deep_spike_is_finite(self):
        # raw peak value of this shape underflows; log-space evaluation
        # must still return the amplitude at the peak
        params = maxent(400.0, 400.0)
        model = CurveModel(params, 3.0)
        assert evaluate(model, 0.5) == 3.0
        assert np.isfinite(evaluate_on(model, np.linspace(0, 1, 101))).all()

    def test_subnormal_abscissa_is_silent(self):
        # 1/x overflows to inf for a subnormal x; that is the expected value,
        # not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = EvalGrid(np.array([1e-309, 0.5]))
            gengamma = CurveModel(ShapeParams(ModelKind.GENGAMMA, (1e-308, 1.1, 1.0)), 1.0)
            ys = evaluate_on(gengamma, np.linspace(0, 1, 5))
        assert grid.inv_x[0] == np.inf and grid.inv_x[1] == 2.0
        assert np.isfinite(ys).all()


class TestUnimodality:
    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_single_peak_on_grid(self, kind):
        for i in range(25):
            params = random_params(kind, 1000 + i)
            ys = sample_series(CurveModel(params, 1.0), 2049).ys
            k = int(np.argmax(ys))
            rises = np.diff(ys[: k + 1])
            falls = np.diff(ys[k:])
            assert (rises >= -1e-12).all(), f"{params} not rising before peak"
            assert (falls <= 1e-12).all(), f"{params} not falling after peak"


class TestSampleSeries:
    def test_maxent_three_points(self):
        s = sample_series(CurveModel(maxent(1, 1), 1.0), 3)
        np.testing.assert_array_equal(s.ys, [0.0, 1.0, 0.0])

    def test_beta_uniform_five_points(self):
        s = sample_series(CurveModel(beta(1, 1), 1.0), 5)
        np.testing.assert_array_equal(s.ys, np.ones(5))

    def test_maxent_peak_lands_near_one_third(self):
        s = sample_series(CurveModel(maxent(2, 8), 1.0), 101)
        assert int(np.argmax(s.ys)) == 33
        assert s.ys.max() == pytest.approx(1.0, abs=1e-2)

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            sample_series(CurveModel(maxent(1, 1), 1.0), 1)

    def test_deterministic(self):
        a = sample_series(CurveModel(maxent(2, 5), 1.0), 64)
        b = sample_series(CurveModel(maxent(2, 5), 1.0), 64)
        np.testing.assert_array_equal(a.ys, b.ys)


class TestValidation:
    def test_param_count(self):
        with pytest.raises(ParameterBoundsError, match="2 parameters"):
            ShapeParams(ModelKind.MAXENT, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize(
        "kind,values,fragment",
        [
            (ModelKind.MAXENT, (-1.0, 2.0), "a > 0"),
            (ModelKind.MAXENT, (1.0, 0.0), "b > 0"),
            (ModelKind.BETA, (0.5, 2.0), "a >= 1"),
            (ModelKind.RICHARDS, (0.0, 0.5, 1.0), "k > 0"),
            (ModelKind.RICHARDS, (5.0, 0.5, -1.0), "nu > 0"),
            (ModelKind.SKEWNORMAL, (0.5, 0.0, 1.0), "omega > 0"),
            (ModelKind.GENGAMMA, (1.0, 1.0, 1.0), "d > 1"),
            (ModelKind.GENGAMMA, (1.0, 2.0, 0.0), "p > 0"),
            (ModelKind.BETA, (2.0, 0.999), "b >= 1"),
            (ModelKind.GENGAMMA, (0.0, 2.0, 1.0), "alpha > 0"),
        ],
    )
    def test_bounds_violations_name_constraint(self, kind, values, fragment):
        with pytest.raises(ParameterBoundsError, match=fragment.replace(">", ">")):
            ShapeParams(kind, values)

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterBoundsError, match="finite"):
            ShapeParams(ModelKind.MAXENT, (math.nan, 1.0))

    def test_amplitude_positive(self):
        with pytest.raises(ParameterBoundsError, match="amplitude"):
            CurveModel(maxent(1, 1), 0.0)

    def test_richards_t0_unconstrained(self):
        ShapeParams(ModelKind.RICHARDS, (5.0, -0.7, 1.0))
        ShapeParams(ModelKind.RICHARDS, (5.0, 1.9, 1.0))

    def test_series_immutability(self):
        s = sample_series(CurveModel(maxent(1, 1), 1.0), 16)
        with pytest.raises(ValueError):
            s.ys[0] = 5.0

    def test_series_xs_domain(self):
        with pytest.raises(ValueError):
            SampledSeries(np.array([0.0, 1.5]), np.array([0.0, 1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_series_xs_finite(self, bad):
        # NaN fails neither range comparison
        with pytest.raises(ValueError, match="finite"):
            SampledSeries(np.array([0.0, bad, 1.0]), np.array([0.0, 1.0, 0.0]))


# The bound table, the per-parameter constraint strings and _check_bounds
# of the registry before each Param held its bound as a number: the
# reference that ShapeParams' one numeric rule (Param.admits) must match.
_BOUNDS = {"pos": (0.0, True), "ge1": (1.0, False), "gt1": (1.0, True)}
_CONSTRAINTS = {
    ModelKind.RICHARDS: ("pos", "free", "pos"),
    ModelKind.SKEWNORMAL: ("free", "pos", "free"),
    ModelKind.GENGAMMA: ("pos", "gt1", "pos"),
    ModelKind.MAXENT: ("pos", "pos"),
    ModelKind.BETA: ("ge1", "ge1"),
}
_REFERENCE = {
    kind: SimpleNamespace(
        params=tuple(
            SimpleNamespace(name=spec.name, constraint=c)
            for spec, c in zip(FAMILIES[kind].params, constraints)
        )
    )
    for kind, constraints in _CONSTRAINTS.items()
}


def _check_bounds(kind, values):
    FAMILIES = _REFERENCE  # noqa: N806 - the body below is the reference, verbatim
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


#: Values at and next to every bound (0 and 1), the signed zeros, the
#: infinities and NaN, mixed with arbitrary floats.
_NEAR_BOUNDS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
         0.5, 2.0, -1.0, math.inf, -math.inf, math.nan]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestBoundRule:
    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_shape_params_match_the_reference_check(self, kind, data):
        values = tuple(data.draw(_NEAR_BOUNDS) for _ in FAMILIES[kind].params)
        try:
            _check_bounds(kind, values)
        except ParameterBoundsError as exc:
            with pytest.raises(ParameterBoundsError) as err:
                ShapeParams(kind, values)
            assert str(err.value) == str(exc)
        else:
            assert ShapeParams(kind, values).values == values

        # the start filter: a candidate runs only if it is finite and
        # strictly inside every bound, as at the reference, the closed
        # bounds being dropped by their infinite z
        theta = np.array([values])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            z_finite = np.isfinite(FAMILIES[kind].coords[1](theta)).all()
        strictly_inside = all(
            math.isfinite(v) and (spec.constraint == "free" or v > _BOUNDS[spec.constraint][0])
            for spec, v in zip(_REFERENCE[kind].params, values)
        )
        assert (FAMILIES[kind].admits(theta)[0] and z_finite) == (strictly_inside and z_finite)


def test_model_kind_members_are_named_in_models_only():
    # every family fact lives in the models.FAMILIES registry: no module
    # but models.py branches on, or tabulates by, a ModelKind member
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(Path(unifit.__file__).parent.glob("*.py"))
        if path.name != "models.py"
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(r"ModelKind\.[A-Z]", line)
    ]
    assert hits == []
