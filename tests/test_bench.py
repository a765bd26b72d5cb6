import math

import numpy as np
import pytest

from unifit import (
    BenchConfig,
    CellStats,
    CrossTable,
    CurveModel,
    FitConfig,
    FitFailureError,
    GenerationError,
    KIND_ORDER,
    ModelKind,
    ShapeParams,
    cross_compare,
    fit,
    mode,
    parse_table,
    render_table,
    sample_generator_params,
)
import unifit.bench as bench
from unifit.bench import _fwhm
from unifit.models import evaluate_on


@pytest.fixture(scope="module")
def small_table():
    cfg = BenchConfig(trials_per_cell=5, seed=1, fit=FitConfig(seed=1))
    return cfg, cross_compare(cfg)


class TestGeneratorDraws:
    def test_mode_within_window(self):
        params = sample_generator_params(ModelKind.MAXENT, 1)
        assert 0.15 <= mode(params) <= 0.85

    def test_beta_bounds_honored(self):
        params = sample_generator_params(ModelKind.BETA, 2)
        a, b = params.values
        assert a >= 1.0 and b >= 1.0

    def test_deterministic(self):
        a = sample_generator_params(ModelKind.RICHARDS, 77)
        b = sample_generator_params(ModelKind.RICHARDS, 77)
        assert a == b

    @pytest.mark.parametrize("kind", KIND_ORDER, ids=lambda k: k.value)
    def test_filters_hold_across_draws(self, kind):
        edges = np.array([0.0, 1.0])
        for seed in range(30):
            params = sample_generator_params(kind, seed)
            assert 0.15 <= mode(params) <= 0.85
            assert _fwhm(params) >= 0.02
            assert evaluate_on(CurveModel(params, 1.0), edges).max() <= 0.05

    @pytest.mark.parametrize(
        "a,b,width",
        [
            (3.0, 3.0, math.sqrt(1.0 - math.sqrt(0.5))),  # both crossings inside
            (1.0, 3.0, 1.0 - math.sqrt(0.5)),  # peak at 0: runs to 0
            (3.0, 1.0, 1.0 - math.sqrt(0.5)),  # peak at 1: runs to 1
            (1.0, 1.0, 1.0),  # flat: no crossing, the whole interval
        ],
    )
    def test_fwhm_runs_a_truncated_width_to_the_end(self, a, b, width):
        assert _fwhm(ShapeParams(ModelKind.BETA, (a, b))) == pytest.approx(width, abs=1e-6)

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(bench, "_MODE_RANGE", (0.49999, 0.50001))
        with pytest.raises(GenerationError):
            sample_generator_params(ModelKind.RICHARDS, 0)


class TestCrossCompare:
    def test_single_trial_diagonal(self):
        cfg = BenchConfig(trials_per_cell=1, seed=3, fit=FitConfig(seed=3))
        table = cross_compare(cfg)
        for i, kind in enumerate(KIND_ORDER):
            cell = table.cells[i][i]
            limit = 5e-2 if kind is ModelKind.GENGAMMA else 5e-3
            assert cell.mean_rms < limit, kind

    def test_bit_identical_reruns(self, small_table):
        cfg, table = small_table
        assert cross_compare(cfg) == table

    def test_parallel_matches_sequential(self, small_table):
        cfg, table = small_table
        assert cross_compare(cfg, workers=2) == table

    def test_paired_columns(self, small_table):
        cfg, table = small_table
        f = KIND_ORDER.index(ModelKind.MAXENT)
        g = KIND_ORDER.index(ModelKind.RICHARDS)
        # the fits of the benchmark's own series with its own fit configs
        values = [
            fit(bench._trial_series(cfg, g, t), KIND_ORDER[f], bench._fit_config(cfg, g, t, f)).rms
            for t in range(cfg.trials_per_cell)
        ]
        cell = table.cells[f][g]
        assert cell.mean_rms == float(np.mean(values))
        assert cell.std_rms == float(np.std(values, ddof=1))
        assert cell.trials == len(values)

    def test_noise_raises_every_cell(self):
        base = BenchConfig(trials_per_cell=3, seed=5, fit=FitConfig(seed=5))
        noisy = BenchConfig(
            trials_per_cell=3, noise_sigma=0.05, seed=5, fit=FitConfig(seed=5)
        )
        clean_table = cross_compare(base)
        noisy_table = cross_compare(noisy)
        for f in range(5):
            for g in range(5):
                assert (
                    noisy_table.cells[f][g].mean_rms > clean_table.cells[f][g].mean_rms
                ), (f, g)

    def test_failures_use_worst_case_rms_and_flag_degraded(self, monkeypatch):
        real_fit = bench.fit

        def flaky_fit(series, kind, config):
            if kind is ModelKind.GENGAMMA:
                raise FitFailureError("synthetic failure", kind, ())
            return real_fit(series, kind, config)

        monkeypatch.setattr(bench, "fit", flaky_fit)
        cfg = BenchConfig(trials_per_cell=2, seed=8, fit=FitConfig(seed=8))
        table = cross_compare(cfg)
        assert table.degraded
        f = KIND_ORDER.index(ModelKind.GENGAMMA)
        for g in range(5):
            worst = [
                math.sqrt(float((s.ys * s.ys).mean()))
                for s in (bench._trial_series(cfg, g, t) for t in range(2))
            ]
            assert table.cells[f][g].mean_rms == pytest.approx(float(np.mean(worst)))

    def test_one_fit_call_per_fit(self, monkeypatch):
        # perfbench times the cross-table fits by wrapping unifit.bench.fit
        # (CrossTable.instrument in perfbench/workloads.py), so its timing
        # statistics need cross_compare to call it once per fit
        cfg = BenchConfig(trials_per_cell=1, seed=1)
        plain = cross_compare(cfg)
        real_fit = bench.fit
        calls = []

        def counted_fit(series, kind, config):
            calls.append(kind)
            return real_fit(series, kind, config)

        monkeypatch.setattr(bench, "fit", counted_fit)
        assert cross_compare(cfg) == plain
        assert len(calls) == 25
        assert all(calls.count(kind) == 5 for kind in KIND_ORDER)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        cfg = BenchConfig(trials_per_cell=1, seed=1, fit=FitConfig(seed=1))
        with pytest.raises(ValueError, match=f"got {workers}"):
            cross_compare(cfg, workers=workers)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(trials_per_cell=0)
        with pytest.raises(ValueError):
            BenchConfig(grid_size=4)
        with pytest.raises(ValueError):
            BenchConfig(noise_sigma=-0.1)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_sigma must be finite"):
                BenchConfig(noise_sigma=sigma)
        BenchConfig(grid_size=100_000)
        with pytest.raises(ValueError, match=r"grid_size must be in \[8, 100000\]"):
            BenchConfig(grid_size=100_001)

    def test_noise_past_fit_limit_is_generation_error(self):
        # one noisy series above the 1.5 that fit accepts stops the run
        cfg = BenchConfig(trials_per_cell=1, noise_sigma=1.0, seed=1, fit=FitConfig(seed=1))
        with pytest.raises(GenerationError, match="past the 1.5 that fit accepts"):
            cross_compare(cfg)


class TestRenderTable:
    def test_shape_and_roundtrip(self, small_table):
        _, table = small_table
        rendered = render_table(table)
        lines = rendered.csv.strip().splitlines()
        assert lines[0] == "fitter,generator,mean_rms,std_rms,trials"
        assert len(lines) == 26  # header + 25 cells
        parsed = parse_table(rendered.csv)
        assert render_table(parsed).csv == rendered.csv
        for f in range(5):
            for g in range(5):
                assert parsed.cells[f][g].mean_rms == pytest.approx(
                    table.cells[f][g].mean_rms, rel=1e-5
                )

    def test_empty_cells(self):
        empty = CellStats(math.nan, math.nan, 0)
        table = CrossTable(cells=tuple(tuple(empty for _ in range(5)) for _ in range(5)))
        rendered = render_table(table)
        for line in rendered.csv.strip().splitlines()[1:]:
            assert line.endswith(",,,0")
        parsed = parse_table(rendered.csv)
        assert parsed.cells[0][0].trials == 0

    def test_grid_layout(self, small_table):
        _, table = small_table
        grid = render_table(table).grid
        head = grid.splitlines()[0]
        assert [w.strip() for w in head.split("|")] == [
            "Methods",
            "Richards",
            "Skewnormal",
            "GenGamma",
            "MaxEnt",
            "Beta",
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_table("not,a,table\n")


class TestTableProperties:
    def test_diagonal_dominance(self, cross_tables):
        # diagonal is the row minimum for every family except gengamma
        table = cross_tables["tables"][1]
        for f, kind in enumerate(KIND_ORDER):
            if kind is ModelKind.GENGAMMA:
                continue
            row = [table.cells[f][g].mean_rms for g in range(5)]
            assert row[f] == min(row), kind

    def test_maxent_beta_generalize_best(self, cross_tables):
        table = cross_tables["tables"][1]
        means = [
            np.mean([table.cells[f][g].mean_rms for g in range(5) if g != f])
            for f in range(5)
        ]
        order = np.argsort(means)
        best_two = {KIND_ORDER[order[0]], KIND_ORDER[order[1]]}
        assert best_two == {ModelKind.MAXENT, ModelKind.BETA}
