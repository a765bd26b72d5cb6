"""Tests of the benchmark's own helpers: the tail-percentile rule, span
self-time arithmetic, metric-name validation and the reference-speed scale.

Run with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S, Reference, reference_work, scale  # noqa: E402
from metrics import MIN_TAIL, check_name, check_unit, percentile, tail_level  # noqa: E402
from spans import Recorder, Span, covered, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, level",
    [(200, 95), (1000, 95), (100, 90), (50, 80), (11, 9), (20, 50), (199, 94)],
)
def test_tail_level_is_highest_with_ten_beyond(n, level):
    assert tail_level(n) == level
    values = list(range(n))
    above = sum(v > percentile(values, level) for v in values)
    assert above >= MIN_TAIL
    if level < 95:
        nxt = percentile(values, level + 1)
        assert sum(v > nxt for v in values) < MIN_TAIL


def test_tail_level_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_level(MIN_TAIL)


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    assert percentile(values, 80) == 4.0


def test_reference_scale_maps_median_reference_time_to_reference_s():
    assert scale([2 * REFERENCE_S] * 3) == pytest.approx(0.5)
    assert scale([REFERENCE_S / 2, REFERENCE_S, 9 * REFERENCE_S]) == pytest.approx(1.0)
    ref = Reference()
    assert not ref.due()
    assert ref.sample() > 0 and len(ref.samples) == 1


def test_reference_scaled_uses_nearest_smoothed_sample():
    ref = Reference()
    ref.times, ref.samples = [0.0, 1.0, 2.0], [2 * REFERENCE_S] * 3
    assert ref.scaled(0.0, 3.0) == pytest.approx(1.5)
    ref.times, ref.samples = [0.0, 10.0], [REFERENCE_S, 4 * REFERENCE_S]
    assert ref.scaled(0.0, 4.0) == pytest.approx(4.0)
    assert ref.scaled(4.0, 8.0) == pytest.approx(1.0 + 3.0 / 4)
    # a lone slow sample between two fast ones is smoothed away
    ref.times, ref.samples = [0.0, 1.0, 2.0], [REFERENCE_S, 10 * REFERENCE_S, REFERENCE_S]
    assert ref.scaled(0.5, 1.5) == pytest.approx(1.0)


def test_reference_work_is_fixed():
    assert reference_work() == reference_work()


def _span(name, start, end, parent):
    return Span(name, start, end, parent, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("command", 0.0, 10.0, -1),
        _span("fit", 1.0, 4.0, 0),
        _span("kernel", 2.0, 3.0, 1),
        _span("fit", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        _span("parent", 0.0, 10.0, -1),
        _span("a", -1.0, 3.0, 0),
        _span("b", 2.0, 5.0, 0),
        _span("c", 9.0, 12.0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(4.0)
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_recorder_nests_wrapped_calls_and_restores():
    class Owner:
        @staticmethod
        def inner(x):
            return x + 1

    rec = Recorder()
    rec.patch(Owner, "inner", "inner", describe=lambda args, result, exc: {"out": result})
    with rec.span("outer"):
        assert Owner.inner(1) == 2
    rec.restore()
    assert Owner.inner(1) == 2 and len(rec.spans) == 2
    outer, inner = rec.spans
    assert inner.parent == 0 and outer.parent == -1
    assert inner.attrs == {"out": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


@pytest.mark.parametrize("name", ["setup_s", "fitting.fit_ms_p50.richards", "models.x.48x1001", "a-b"])
def test_good_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "é"])
def test_bad_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_declared_metrics_are_valid_and_unique():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        check_name(name)
    for m in spec["end_to_end"] + spec["per_layer"]:
        check_unit(m["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
