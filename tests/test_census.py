"""tools/census.py: a census repeats exactly, and compare reads changes."""

import copy
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from unifit import KIND_ORDER, BenchConfig, FitConfig, cross_compare
from unifit.bench import _trial_series

CENSUS = Path(__file__).resolve().parents[1] / "tools" / "census.py"


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def one_trial(census, tmp_path_factory):
    """Two runs of the seed-1 census at trials=1, as written to disk."""
    out = []
    for name in ("a.json", "b.json"):
        path = tmp_path_factory.mktemp("census") / name
        assert census.main(["run", "--seed", "1", "--trials", "1", "--out", str(path)]) == 0
        out.append(json.loads(path.read_text(encoding="utf-8")))
    return out


def test_reruns_agree(census, one_trial):
    a, b = one_trial
    assert a == b and len(a["fits"]) == 25
    for row in census.compare(a, b).values():
        assert row["passes"][0] == row["passes"][1] > 0
        assert row["converged"][0] == row["converged"][1]
        assert row["worse"] == row["better"] == [] and row["switched"] == row["differ"] == 0
    assert all(len(r["params"]) > 0 and r["amplitude"] > 0.0 for r in a["fits"])


def test_census_measures_the_benchmark_fits(one_trial):
    # the seed-1 trials=1 census fits are exactly the cells of that table
    table = cross_compare(BenchConfig(trials_per_cell=1, seed=1, fit=FitConfig(seed=1)))
    cells = {(r["fitter"], r["generator"]): r["rms"] for r in one_trial[0]["fits"]}
    assert not table.degraded and None not in cells.values()
    for f, fitter in enumerate(KIND_ORDER):
        for g, generator in enumerate(KIND_ORDER):
            assert cells[fitter.value, generator.value] == table.cells[f][g].mean_rms


def test_compare_counts_changes(census, one_trial):
    a = one_trial[0]
    b = copy.deepcopy(a)
    round_off, worse, failed, ulp = b["fits"][:4]
    worse["rms"] *= 1.5
    failed.update(rms=None, failed=True)
    round_off["rms"] += 1e-10  # a near-zero self-fit's round-off
    ulp["params"][0] = math.nextafter(ulp["params"][0], math.inf)  # differs, same rms
    summary = census.compare(a, b)
    assert sum(row["differ"] for row in summary.values()) == 4
    assert summary[worse["fitter"]]["worse"] == [(worse["generator"], 0, pytest.approx(1.5))]
    assert summary[failed["fitter"]]["switched"] == 1
    assert sum(len(row["worse"]) + len(row["better"]) for row in summary.values()) == 1
    text = census.report(summary)
    assert f"worse: {worse['fitter']} on {worse['generator']} trial 0" in text
    total = next(line for line in text.splitlines() if line.startswith("all "))
    assert total.split()[1] == "4"  # the differ column
    with pytest.raises(ValueError, match="different fits"):
        census.compare(a, {"fits": a["fits"][1:]})


def test_compare_counts_fits_from_the_pool(census, one_trial):
    a = one_trial[0]
    starts = {}
    for r in a["fits"]:
        starts.setdefault(r["fitter"], []).append(r["starts"])
    # at trials=1 every fit finishes; skewnormal always runs the pool, the
    # log-linear starts of gengamma, maxent and beta hold here, and richards
    # reads a start from some series and falls back on others
    assert starts["skewnormal"] == [16] * 5
    assert starts["gengamma"] == starts["maxent"] == starts["beta"] == [1] * 5
    assert sorted(set(starts["richards"])) == [1, 16]
    pooled = starts["richards"].count(16)
    b = copy.deepcopy(a)
    fell_back = next(r for r in b["fits"] if r["fitter"] == "gengamma")
    fell_back["starts"] = 16
    summary = census.compare(a, b)
    assert summary["gengamma"]["pool"] == [0, 1] and summary["gengamma"]["differ"] == 1
    assert summary["richards"]["pool"] == [pooled, pooled] and summary["maxent"]["pool"] == [0, 0]
    total = next(line for line in census.report(summary).splitlines() if line.startswith("all "))
    assert f"{5 + pooled} -> {6 + pooled}" in total


def test_compare_reads_a_census_without_start_counts(census, one_trial):
    a = one_trial[0]
    old = copy.deepcopy(a)
    for record in old["fits"]:
        del record["starts"]
    for summary in (census.compare(old, a), census.compare(a, old)):
        assert sum(row["differ"] for row in summary.values()) == 0
        assert all(None in row["pool"] for row in summary.values())
    text = census.report(census.compare(old, a))
    assert "? -> 5" in text and "? -> 0" in text


FORMS = ["thin8", "thin12", "thin20", "noise0.05", "noise0.1", "cut0.5", "cut0.7"]


def test_panel_forms(census):
    config = BenchConfig(trials_per_cell=1, seed=2, fit=FitConfig(seed=2))
    series = _trial_series(config, 3, 0)
    forms = census.panel_forms(config, 3, 0)
    assert [name for name, _ in forms] == FORMS
    by_name = dict(forms)
    for m in (8, 12, 20):
        thin = by_name[f"thin{m}"]
        assert len(thin) == m and thin.xs[0] == 0.0 and thin.xs[-1] == 1.0
        assert set(thin.ys) <= set(series.ys)
    for sigma in (0.05, 0.1):
        noisy = _trial_series(replace(config, noise_sigma=sigma), 3, 0)
        assert np.array_equal(by_name[f"noise{sigma:g}"].ys, noisy.ys)
        assert by_name[f"noise{sigma:g}"].ys.min() == 0.0
    for end in (0.5, 0.7):
        cut = by_name[f"cut{end:g}"]
        kept = series.ys[series.xs <= end]
        assert len(cut) == kept.size and cut.ys.max() == 1.0
        assert cut.xs[0] == 0.02 and cut.xs[-1] == pytest.approx(0.98, abs=1e-15)
        np.testing.assert_array_equal(cut.ys, kept / kept.max())


@pytest.fixture(scope="module")
def one_panel(census, tmp_path_factory):
    path = tmp_path_factory.mktemp("panel") / "panel.json"
    assert census.main(["run", "--panel", "--seed", "1", "--trials", "1", "--out", str(path)]) == 0
    return json.loads(path.read_text(encoding="utf-8"))


def test_panel_compare_counts_per_form(census, one_panel):
    a = one_panel
    assert a["seeds"] == [1] and len(a["fits"]) == 5 * len(FORMS) * 5
    summary = census.compare(a, a)
    assert all(row["forms"] == {form: [0, 0, 0] for form in FORMS} for row in summary.values())
    b = copy.deepcopy(a)
    worse = next(r for r in b["fits"] if r["form"] == "cut0.7" and (r["rms"] or 0.0) > 1e-3)
    worse["rms"] *= 2.0
    failed = next(r for r in b["fits"] if r["form"] == "thin8" and r["fitter"] != worse["fitter"])
    failed.update(rms=None, failed=True)
    summary = census.compare(a, b)
    assert summary[worse["fitter"]]["forms"]["cut0.7"] == [1, 0, 0]
    assert summary[failed["fitter"]]["forms"]["thin8"] == [0, 0, 1]
    assert summary[worse["fitter"]]["worse"] == [
        (1, "cut0.7", worse["generator"], worse["trial"], pytest.approx(2.0))
    ]
    text = census.report(summary)
    assert f"worse: {worse['fitter']} on {worse['generator']} trial 0 (seed 1, cut0.7)" in text
    row = next(line for line in text.splitlines() if line.startswith("thin8 "))
    column = list(summary).index(failed["fitter"])
    assert row.split()[1 + column] == "0/0/1"


def test_run_needs_a_seed_without_the_panel(census, tmp_path):
    with pytest.raises(SystemExit):
        census.main(["run", "--trials", "1", "--out", str(tmp_path / "x.json")])
