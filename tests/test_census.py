"""tools/census.py: a census repeats exactly, and compare reads changes."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

from unifit import KIND_ORDER, BenchConfig, FitConfig, cross_compare

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
    starts = {r["fitter"]: r["starts"] for r in a["fits"]}
    # at trials=1 every fit finishes; richards and skewnormal always run the
    # pool, the families with a closed-form start run one start here
    assert starts == {"richards": 16, "skewnormal": 16, "gengamma": 1, "maxent": 1, "beta": 1}
    b = copy.deepcopy(a)
    fell_back = next(r for r in b["fits"] if r["fitter"] == "gengamma")
    fell_back["starts"] = 16
    summary = census.compare(a, b)
    assert summary["gengamma"]["pool"] == [0, 1] and summary["gengamma"]["differ"] == 1
    assert summary["richards"]["pool"] == [5, 5] and summary["maxent"]["pool"] == [0, 0]
    total = next(line for line in census.report(summary).splitlines() if line.startswith("all "))
    assert "10 -> 11" in total


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
