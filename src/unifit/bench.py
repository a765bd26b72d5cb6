"""Synthetic cross-fitting benchmark: every family fits series generated
by every family.

For each (generator, trial) a parameter draw is sampled from the
documented ranges (rejecting shapes whose peak sits outside [0.15, 0.85],
whose full width at half maximum is below 0.02, or whose endpoints carry
more than 5% of the peak — the benchmark targets series that rise from a
reference level and return to it), a unit-amplitude series is sampled on
the grid, and all five families fit the same series, so columns are
paired.  Every random draw is keyed by (seed, generator, trial), which
makes the table independent of execution order and safe to parallelize;
each fit's start seed comes from ``_fit_config``, keyed by (fit seed,
generator, trial, fitter).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._seeds import mix64
from .fitting import _MAX_PEAK, FitConfig, FitFailureError, fit
from .models import (
    FAMILIES,
    KIND_ORDER,
    CurveModel,
    ModelKind,
    SampledSeries,
    ShapeParams,
    evaluate_on,
    mode,
    sample_series,
)

__all__ = [
    "BenchConfig",
    "CellStats",
    "CrossTable",
    "RenderedTable",
    "GenerationError",
    "sample_generator_params",
    "cross_compare",
    "render_table",
    "parse_table",
]

_GEN_TAG = 0x47454E  # "GEN"
_NOISE_TAG = 0x4E4F49  # "NOI"
_FIT_TAG = 0x464954  # "FIT"

_MODE_RANGE = (0.15, 0.85)
_MIN_FWHM = 0.02
_MAX_EDGE_FRACTION = 0.05  # shape at x in {0, 1} relative to the peak
_MAX_REJECTIONS = 100
# fitting holds float64 arrays of (starts, grid points): at this grid the
# five fits of a series peak near 270 MB, and memory grows with the grid
_MAX_GRID = 100_000

class GenerationError(RuntimeError):
    """Series generation failed: the parameter draw exhausted its
    rejection budget, or noise lifted a series past what ``fit`` accepts."""


@dataclass(frozen=True)
class BenchConfig:
    trials_per_cell: int = 100
    grid_size: int = 101
    noise_sigma: float = 0.0
    seed: int = 0
    fit: FitConfig = FitConfig()

    def __post_init__(self) -> None:
        if self.trials_per_cell < 1:
            raise ValueError(f"trials_per_cell must be >= 1, got {self.trials_per_cell}")
        if not 8 <= self.grid_size <= _MAX_GRID:
            raise ValueError(f"grid_size must be in [8, {_MAX_GRID}], got {self.grid_size}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


@dataclass(frozen=True)
class CellStats:
    """Mean/std of per-trial rms for one (fitter, generator) pair."""

    mean_rms: float
    std_rms: float
    trials: int


@dataclass(frozen=True)
class CrossTable:
    """5x5 cells indexed [fitter][generator] in the canonical kind order.

    ``degraded`` is set when any cell had fit failures in more than half
    of its trials.
    """

    cells: tuple[tuple[CellStats, ...], ...]
    degraded: bool = False

    def cell(self, fitter: ModelKind, generator: ModelKind) -> CellStats:
        return self.cells[KIND_ORDER.index(fitter)][KIND_ORDER.index(generator)]


def _fwhm(params: ShapeParams, n_grid: int = 2049) -> float:
    """Full width at half maximum of the peak-normalized shape; crossings
    are linearly interpolated, truncated widths extend to the boundary."""
    xs = np.linspace(0.0, 1.0, n_grid)
    ys = evaluate_on(CurveModel(params, 1.0), xs)
    k = int(np.argmax(ys))
    half = 0.5 * ys[k]

    left = 0.0
    below = np.flatnonzero(ys[:k] < half)
    if below.size:
        i = below[-1]
        left = xs[i] + (xs[i + 1] - xs[i]) * (half - ys[i]) / (ys[i + 1] - ys[i])
    right = 1.0
    above = np.flatnonzero(ys[k:] < half)
    if above.size:
        j = k + above[0]
        right = xs[j - 1] + (xs[j] - xs[j - 1]) * (ys[j - 1] - half) / (ys[j - 1] - ys[j])
    return right - left


def sample_generator_params(kind: ModelKind, rng_seed: int) -> ShapeParams:
    """Draw shape parameters from the generation ranges in ``FAMILIES``.

    Rejects draws whose peak lies outside [0.15, 0.85], whose width is
    below 0.02 (near-boundary spikes that no family can represent on the
    benchmark grid), or whose peak-normalized value at either endpoint
    exceeds 5% of the peak (the benchmark targets series that start near
    a reference level, rise once and return); deterministic given the
    seed.
    """
    specs = FAMILIES[kind].params
    rng = np.random.default_rng(rng_seed)
    edge_xs = np.array([0.0, 1.0])
    for _ in range(_MAX_REJECTIONS):
        u = rng.random(len(specs))
        values = tuple(float(spec.from_unit(uj, *spec.gen)) for spec, uj in zip(specs, u))
        params = ShapeParams(kind, values)
        if not _MODE_RANGE[0] <= mode(params) <= _MODE_RANGE[1]:
            continue
        if float(evaluate_on(CurveModel(params, 1.0), edge_xs).max()) > _MAX_EDGE_FRACTION:
            continue
        if _fwhm(params) < _MIN_FWHM:
            continue
        return params
    raise GenerationError(
        f"no acceptable {kind.value} draw within {_MAX_REJECTIONS} rejections "
        f"(mode range {_MODE_RANGE}, min width {_MIN_FWHM}, "
        f"max edge fraction {_MAX_EDGE_FRACTION})"
    )


def _trial_series(config: BenchConfig, gen_index: int, trial: int) -> SampledSeries:
    gen_kind = KIND_ORDER[gen_index]
    params = sample_generator_params(gen_kind, mix64(config.seed, _GEN_TAG, gen_index, trial))
    series = sample_series(CurveModel(params, 1.0), config.grid_size)
    if config.noise_sigma > 0.0:
        rng = np.random.default_rng(mix64(config.seed, _NOISE_TAG, gen_index, trial))
        ys = series.ys + rng.normal(0.0, config.noise_sigma, series.ys.size)
        np.clip(ys, 0.0, None, out=ys)
        if ys.max() > _MAX_PEAK:
            raise GenerationError(
                f"noise_sigma {config.noise_sigma} lifts {gen_kind.value} trial {trial} "
                f"to a peak of {ys.max():.4g}, past the {_MAX_PEAK} that fit accepts"
            )
        series = SampledSeries(series.xs, ys)
    return series


def _fit_config(config: BenchConfig, g: int, trial: int, f: int) -> FitConfig:
    """``config.fit`` with the seed of fitter f on (generator g, trial), keyed
    by (seed, generator, trial, fitter): the only place a fit seed is made."""
    return replace(config.fit, seed=mix64(config.fit.seed, _FIT_TAG, g, trial, f))


def _row_job(config: BenchConfig, g: int, trial: int) -> list[tuple[float, bool]]:
    """(rms, failed) of each fitter on the series of (generator g, trial),
    a failed fit counting as the series' worst-case rms; a pure function
    of its arguments, so rows can run in any order or process."""
    series = _trial_series(config, g, trial)
    row = []
    for f, kind in enumerate(KIND_ORDER):
        try:
            row.append((fit(series, kind, _fit_config(config, g, trial, f)).rms, False))
        except FitFailureError:
            row.append((math.sqrt(float((series.ys * series.ys).mean())), True))
    return row


def cross_compare(config: BenchConfig = BenchConfig(), *, workers: int = 1) -> CrossTable:
    """Run the full 5x5 cross-comparison.

    The same generated series is reused across all five fitters for a
    given (generator, trial), so columns are paired.  With ``workers > 1``
    the (generator, trial) rows run in a process pool; every draw is
    keyed by (seed, generator, trial), so the table is identical to a
    sequential run.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n, trials = len(KIND_ORDER), config.trials_per_cell
    tasks = [(g, trial) for g in range(n) for trial in range(trials)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the default start method: _row_job and its arguments pickle, so
        # spawn and forkserver work as well as fork
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_row_job, [config] * len(tasks), *zip(*tasks), chunksize=8))
    else:
        rows = [_row_job(config, g, t) for g, t in tasks]

    # (fitter, generator, trial) arrays of rms and failure flags, trials on
    # the contiguous axis: a cell's mean and std sum its trials in the
    # order a 1-D array of them would
    rms, failed = np.ascontiguousarray(np.reshape(rows, (n, trials, n, 2)).transpose(3, 2, 0, 1))
    mean = rms.mean(axis=2)
    std = rms.std(axis=2, ddof=1) if trials > 1 else np.zeros_like(mean)
    cells = tuple(
        tuple(CellStats(float(m), float(sd), trials) for m, sd in zip(means, stds))
        for means, stds in zip(mean, std)
    )
    return CrossTable(cells, degraded=bool((failed.sum(axis=2) * 2 > trials).any()))


@dataclass(frozen=True)
class RenderedTable:
    """CSV body plus an aligned human-readable grid."""

    csv: str
    grid: str


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_table(table: CrossTable) -> RenderedTable:
    """Render the table as a 25-row CSV body and an aligned 5x5 grid."""
    lines = ["fitter,generator,mean_rms,std_rms,trials"]
    for f, fitter in enumerate(KIND_ORDER):
        for g, generator in enumerate(KIND_ORDER):
            cell = table.cells[f][g]
            if cell.trials > 0:
                lines.append(
                    f"{fitter.value},{generator.value},"
                    f"{_fmt(cell.mean_rms)},{_fmt(cell.std_rms)},{cell.trials}"
                )
            else:
                lines.append(f"{fitter.value},{generator.value},,,0")
    csv_text = "\n".join(lines) + "\n"

    names = [k.display_name for k in KIND_ORDER]
    col_cells = []
    for f in range(len(KIND_ORDER)):
        row = []
        for g in range(len(KIND_ORDER)):
            cell = table.cells[f][g]
            row.append(f"{cell.mean_rms:.4g}+-{cell.std_rms:.2g}" if cell.trials else "-")
        col_cells.append(row)
    width = max(
        max(len(n) for n in names),
        max(len(c) for row in col_cells for c in row),
    )
    header = " | ".join(["Methods".ljust(width)] + [n.rjust(width) for n in names])
    grid_lines = [header, "-" * len(header)]
    for f, name in enumerate(names):
        grid_lines.append(
            " | ".join([name.ljust(width)] + [c.rjust(width) for c in col_cells[f]])
        )
    return RenderedTable(csv=csv_text, grid="\n".join(grid_lines) + "\n")


def parse_table(csv_text: str) -> CrossTable:
    """Reconstruct a CrossTable from the CSV emitted by ``render_table``."""
    lines = [ln for ln in csv_text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "fitter,generator,mean_rms,std_rms,trials":
        raise ValueError("not a cross-table CSV: bad or missing header")
    seen: dict[tuple[int, int], CellStats] = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise ValueError(f"bad row {ln!r}")
        f = KIND_ORDER.index(ModelKind.from_string(parts[0]))
        g = KIND_ORDER.index(ModelKind.from_string(parts[1]))
        trials = int(parts[4])
        if trials == 0:
            seen[(f, g)] = CellStats(math.nan, math.nan, 0)
        else:
            seen[(f, g)] = CellStats(float(parts[2]), float(parts[3]), trials)
    n = len(KIND_ORDER)
    if len(seen) != n * n:
        raise ValueError(f"expected {n * n} rows, got {len(seen)}")
    cells = tuple(tuple(seen[(f, g)] for g in range(n)) for f in range(n))
    return CrossTable(cells=cells, degraded=False)
