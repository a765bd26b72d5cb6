import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifit import (
    BUNDLED_DATASETS,
    CurveModel,
    DomainTransform,
    FitConfig,
    ModelKind,
    RawSeries,
    SeriesFormatError,
    ShapeParams,
    bundled_dataset_path,
    denormalize_fit,
    denormalize_series,
    fit,
    load_series,
    normalize,
    read_fit,
    sample_series,
    write_fit,
)
from unifit.dataio import FitDocument


def series_of(text):
    return load_series(io.StringIO(text))


class TestLoadSeries:
    def test_three_rows(self):
        raw = series_of("1944,29\n1963,6000\n1966,42")
        assert len(raw) == 3
        assert raw.values.max() == 6000

    def test_header_skipped(self):
        raw = series_of("t,v\n0,0\n1,5\n2,0")
        assert len(raw) == 3

    def test_duplicate_time_names_value(self):
        with pytest.raises(SeriesFormatError, match="duplicate time 1.0"):
            series_of("1,2\n1,3\n2,4")

    def test_unparseable_row_has_line_number(self):
        with pytest.raises(SeriesFormatError, match="line 4") as err:
            series_of("t,v\n1,2\n2,3\nbogus line\n4,5")
        assert err.value.line_number == 4

    def test_too_few_rows(self):
        with pytest.raises(SeriesFormatError, match="at least 3"):
            series_of("1,2\n2,3")

    def test_comments_and_blanks_skipped(self):
        raw = series_of("# a comment\n\n1,2\n# mid comment\n2,3\n\n3,4\n")
        assert len(raw) == 3

    def test_negative_value_rejected(self):
        with pytest.raises(SeriesFormatError, match="negative"):
            series_of("1,2\n2,-3\n3,4")

    def test_order_independence(self):
        sorted_raw = series_of("1,10\n2,20\n3,30")
        shuffled = series_of("3,30\n1,10\n2,20")
        np.testing.assert_array_equal(sorted_raw.times, shuffled.times)
        np.testing.assert_array_equal(sorted_raw.values, shuffled.values)

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO], ids=["bytes", "stream"])
    def test_non_utf8_bytes_are_format_error(self, wrap):
        with pytest.raises(SeriesFormatError, match="UTF-8"):
            load_series(wrap(b"\xff\xfe1,2\n2,3\n3,4\n"))

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=64),
            st.text(max_size=64).map(io.StringIO),
            st.lists(
                st.tuples(st.sampled_from(["1", "-0.0", "1e308", "inf", "nan", "x", ""]), st.text(max_size=4)),
                max_size=6,
            ).map(lambda rows: io.StringIO("\n".join(a + b for a, b in rows))),
            st.lists(st.tuples(st.floats(), st.floats()), max_size=6).map(
                lambda rows: "\n".join(f"{t!r},{v!r}" for t, v in rows).encode()
            ),
        )
    )
    def test_any_input_loads_or_is_format_error(self, source):
        try:
            raw = load_series(source)
        except SeriesFormatError:
            return
        assert isinstance(raw, RawSeries)
        assert len(raw) >= 3

    def test_bytes_and_path_inputs(self, tmp_path):
        text = "1,1\n2,5\n3,1\n"
        from_bytes = load_series(text.encode())
        path = tmp_path / "s.csv"
        path.write_text(text)
        from_path = load_series(path)
        np.testing.assert_array_equal(from_bytes.values, from_path.values)

    @pytest.mark.parametrize("source", ["path", "bytes", "stream", "text"])
    def test_byte_order_mark_keeps_the_first_row(self, source, tmp_path):
        # "CSV UTF-8" files start with EF BB BF; undecoded, the first row
        # failed to parse and was dropped as the optional header
        data = "\ufeff1,5\n2,9\n3,4\n4,1\n".encode("utf-8")
        assert data[:3] == b"\xef\xbb\xbf"
        path = tmp_path / "bom.csv"
        path.write_bytes(data)
        wrapped = {
            "path": path,
            "bytes": data,
            "stream": io.BytesIO(data),
            "text": io.StringIO(data.decode("utf-8")),
        }[source]
        raw = load_series(wrapped)
        np.testing.assert_array_equal(raw.times, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(raw.values, [5.0, 9.0, 4.0, 1.0])

    def test_byte_order_mark_before_a_header(self):
        raw = load_series("\ufefft,v\n1,5\n2,9\n3,4\n".encode("utf-8"))
        np.testing.assert_array_equal(raw.times, [1.0, 2.0, 3.0])


class TestNormalize:
    def test_zero_padding_hits_unit_endpoints(self):
        raw = RawSeries(np.array([0.0, 5.0, 10.0]), np.array([1.0, 2.0, 1.0]))
        series, transform = normalize(raw, padding=0.0)
        assert series.xs[0] == 0.0
        assert series.xs[-1] == 1.0
        assert transform.t_min == 0.0 and transform.t_max == 10.0

    def test_padding_insets_data(self):
        raw = RawSeries(np.array([0.0, 10.0, 20.0]), np.array([1.0, 2.0, 1.0]))
        series, _ = normalize(raw, padding=0.02)
        assert series.xs[0] == pytest.approx(0.02, abs=1e-12)
        assert series.xs[-1] == pytest.approx(0.98, abs=1e-12)

    def test_value_scaling(self):
        raw = RawSeries(np.array([1944.0, 1963.0, 1966.0]), np.array([29.0, 6000.0, 42.0]))
        series, transform = normalize(raw)
        assert transform.y_scale == 6000.0
        np.testing.assert_allclose(series.ys, [29 / 6000, 1.0, 42 / 6000])
        assert series.ys.max() == 1.0

    def test_round_trip(self):
        raw = RawSeries(np.array([3.0, 8.5, 11.0, 19.0]), np.array([4.0, 9.0, 2.0, 1.0]))
        series, transform = normalize(raw, padding=0.03)
        back = denormalize_series(series, transform)
        np.testing.assert_allclose(back.times, raw.times, rtol=1e-12)
        np.testing.assert_allclose(back.values, raw.values, rtol=1e-12)

    def test_idempotent_on_normalized_data(self):
        raw = RawSeries(np.array([0.0, 0.4, 1.0]), np.array([0.2, 1.0, 0.1]))
        once, t1 = normalize(raw, padding=0.0)
        twice, t2 = normalize(RawSeries(once.xs, once.ys), padding=0.0)
        np.testing.assert_array_equal(once.xs, twice.xs)
        np.testing.assert_array_equal(once.ys, twice.ys)

    def test_all_zero_rejected(self):
        raw = RawSeries(np.array([0.0, 1.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError, match="zero"):
            normalize(raw)

    def test_padding_validation(self):
        raw = RawSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            normalize(raw, padding=0.5)

    @pytest.mark.parametrize(
        "times,padding",
        [([-1e308, 0.0, 1e308], 0.02), ([0.0, 1.0, 1.7e308], 0.4)],
    )
    def test_overflowing_time_span_named(self, times, padding):
        raw = RawSeries(np.array(times), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match=r"time span \[.*\].*overflows"):
            normalize(raw, padding=padding)


class TestDenormalizeFit:
    @pytest.fixture()
    def fitted(self):
        model = CurveModel(ShapeParams(ModelKind.MAXENT, (1.0, 3.0)), 0.9)
        series = sample_series(model, 101)
        result = fit(series, ModelKind.MAXENT, FitConfig(seed=0))
        return result

    def test_identity_transform_matches_sample_series(self, fitted):
        transform = DomainTransform(0.0, 1.0, 1.0)
        curve = denormalize_fit(fitted, transform, 101)
        expected = sample_series(fitted.model, 101)
        np.testing.assert_array_equal(curve.times, expected.xs)
        np.testing.assert_array_equal(curve.values, expected.ys)

    def test_y_scale_applied(self, fitted):
        transform = DomainTransform(1944.0, 1966.0, 6000.0)
        curve = denormalize_fit(fitted, transform, 201)
        # grid max sits within one grid step of the true peak
        assert curve.values.max() == pytest.approx(
            fitted.model.amplitude * 6000.0, rel=1e-3
        )

    def test_two_point_grid(self, fitted):
        transform = DomainTransform(10.0, 20.0, 2.0)
        curve = denormalize_fit(fitted, transform, 2)
        np.testing.assert_array_equal(curve.times, [10.0, 20.0])


class TestWriteReadFit:
    @pytest.fixture()
    def fit_and_transform(self):
        raw = load_series(bundled_dataset_path("st_matthew"))
        series, transform = normalize(raw)
        result = fit(series, ModelKind.MAXENT, FitConfig(seed=0))
        return result, transform

    def test_document_structure(self, fit_and_transform, tmp_path):
        result, transform = fit_and_transform
        path = tmp_path / "fit.json"
        write_fit(result, transform, path)
        doc = json.loads(path.read_text())
        assert doc["model"] == "maxent"
        assert set(doc["parameters"]) == {"a", "b"}
        assert doc["rms_original"] == pytest.approx(result.rms * transform.y_scale)
        # the number of starts run: 1 for a maxent fit from its closed-form start
        assert doc["optimizer"]["starts"] == len(result.start_losses) == 1
        assert isinstance(doc["optimizer"]["converged"], bool)
        assert doc["version"]

    def test_byte_deterministic(self, fit_and_transform, tmp_path):
        result, transform = fit_and_transform
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_fit(result, transform, p1)
        write_fit(result, transform, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip(self, fit_and_transform, tmp_path):
        result, transform = fit_and_transform
        path = tmp_path / "fit.json"
        write_fit(result, transform, path)
        doc = read_fit(path)
        assert doc.model == result.model
        assert doc.transform == transform
        assert doc.rms_normalized == result.rms
        assert doc.iterations_used == result.iterations_used
        assert doc.converged == result.converged

    def test_unconverged_passthrough(self, fit_and_transform, tmp_path):
        result, transform = fit_and_transform
        capped = fit(
            normalize(load_series(bundled_dataset_path("st_matthew")))[0],
            ModelKind.MAXENT,
            FitConfig(seed=0, max_iterations=3),
        )
        assert not capped.converged
        path = tmp_path / "fit.json"
        write_fit(capped, transform, path)
        assert read_fit(path).converged is False

    def test_write_error_names_path(self, fit_and_transform, tmp_path):
        result, transform = fit_and_transform
        bad = tmp_path / "missing_dir" / "fit.json"
        with pytest.raises(OSError, match="missing_dir"):
            write_fit(result, transform, bad)


VALID_DOCUMENT = {
    "model": "maxent",
    "parameters": {"a": 2.0, "b": 5.0},
    "amplitude": 1.0,
    "rms_normalized": 0.01,
    "rms_original": 0.5,
    "transform": {"t_min": 0.0, "t_max": 10.0, "y_scale": 50.0},
    "optimizer": {"starts": 16, "iterations_used": 900, "converged": True},
    "version": "0.1.0",
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _mutated_document(drops, overrides):
    """VALID_DOCUMENT with dotted keys dropped or overridden (a key under a
    parent that is no longer an object is left alone)."""
    doc = json.loads(json.dumps(VALID_DOCUMENT))
    edits = [(path, False, value) for path, value in overrides.items()]
    edits += [(path, True, None) for path in drops]
    for path, drop, value in edits:
        *parents, key = path.split(".")
        target = doc
        for parent in parents:
            target = target.get(parent) if isinstance(target, dict) else None
        if not isinstance(target, dict):
            continue
        if drop:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


_DOCUMENT_KEYS = [
    "model", "parameters", "parameters.a", "parameters.b", "amplitude", "rms_normalized",
    "rms_original", "transform", "transform.t_min", "transform.t_max", "transform.y_scale",
    "optimizer", "optimizer.starts", "optimizer.iterations_used", "optimizer.converged", "version",
]


class TestReadFitMalformed:
    def test_valid_document_reads(self):
        doc = read_fit(io.StringIO(json.dumps(VALID_DOCUMENT)))
        assert doc.model.params.values == (2.0, 5.0)
        assert doc.starts == 16 and doc.converged is True

    @pytest.mark.parametrize(
        "document, key",
        [
            ({"model": "maxent"}, "parameters"),
            ({}, "model"),
            ({"model": "maxent", "parameters": {"a": 1}}, "parameters.b"),
            ([1, 2], "JSON object"),
        ],
        ids=["no-parameters", "empty", "missing-parameter", "list"],
    )
    def test_format_error_names_key(self, document, key):
        with pytest.raises(SeriesFormatError, match=key):
            read_fit(io.StringIO(json.dumps(document)))

    @pytest.mark.parametrize(
        "path, value",
        [("amplitude", "1.0"), ("optimizer.converged", 1), ("optimizer.starts", 16.0),
         ("parameters.a", True), ("transform", [0, 1, 2])],
    )
    def test_mistyped_key_is_format_error(self, path, value):
        with pytest.raises(SeriesFormatError, match=path):
            read_fit(io.StringIO(json.dumps(_mutated_document((), {path: value}))))

    @pytest.mark.parametrize(
        "path, value",
        [("rms_normalized", math.nan), ("rms_original", math.inf), ("amplitude", -math.inf),
         ("parameters.a", math.nan), ("transform.t_max", math.inf),
         ("rms_normalized", -0.01), ("rms_original", -1e-300),
         ("optimizer.starts", 0), ("optimizer.starts", -5), ("optimizer.iterations_used", -1)],
    )
    def test_value_write_fit_never_writes_is_format_error(self, path, value):
        # json writes and reads NaN and Infinity, so these documents parse
        text = json.dumps(_mutated_document((), {path: value}))
        with pytest.raises(SeriesFormatError, match=path):
            read_fit(io.StringIO(text))

    def test_truncated_json_is_format_error(self):
        with pytest.raises(SeriesFormatError, match="not UTF-8 JSON"):
            read_fit(io.StringIO('{"model": "maxent",'))

    def test_non_utf8_file_is_format_error(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(SeriesFormatError, match="not UTF-8 JSON"):
            read_fit(path)

    def test_zero_rms_and_iterations_read(self):
        doc = _mutated_document((), {"rms_normalized": 0.0, "rms_original": 0,
                                     "optimizer.iterations_used": 0, "optimizer.starts": 1})
        result = read_fit(io.StringIO(json.dumps(doc)))
        assert result.rms_original == 0.0 and result.starts == 1

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            st.dictionaries(st.text(max_size=8), json_values, max_size=4),
            st.builds(
                _mutated_document,
                st.sets(st.sampled_from(_DOCUMENT_KEYS), max_size=2),
                st.dictionaries(st.sampled_from(_DOCUMENT_KEYS), json_values, max_size=2),
            ),
        )
    )
    def test_json_dicts_read_or_raise_value_error(self, document):
        try:
            result = read_fit(io.StringIO(json.dumps(document)))
        except ValueError:
            return
        assert isinstance(result, FitDocument)


class TestBundledDatasets:
    @pytest.mark.parametrize("name", BUNDLED_DATASETS)
    def test_parse_cleanly(self, name):
        raw = load_series(bundled_dataset_path(name))
        assert len(raw) >= 10

    def test_st_matthew_anchors(self):
        raw = load_series(bundled_dataset_path("st_matthew"))
        table = dict(zip(raw.times, raw.values))
        assert table[1944.0] == 29.0
        assert table[1963.0] == 6000.0
        assert table[1966.0] == 42.0
        assert raw.values.max() == 6000.0

    def test_universe25_rise_peak_collapse(self):
        raw = load_series(bundled_dataset_path("universe25"))
        k = int(np.argmax(raw.values))
        assert 0 < k < len(raw) - 1
        assert raw.values[0] < 0.02 * raw.values[k]
        assert raw.values[-1] < 0.02 * raw.values[k]
        # single peak: rises then falls
        assert (np.diff(raw.values[: k + 1]) >= 0).all()
        assert (np.diff(raw.values[k:]) <= 0).all()

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            bundled_dataset_path("atlantis")


class TestRawSeries:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            RawSeries(np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            RawSeries(np.array([0.0, 1.0]), np.array([1.0, -2.0]))

    def test_transform_validation(self):
        with pytest.raises(ValueError):
            DomainTransform(1.0, 1.0, 5.0)
        with pytest.raises(ValueError):
            DomainTransform(0.0, 1.0, 0.0)
