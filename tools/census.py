"""Fit census of the cross-comparison benchmark, and a comparison of two.

    PYTHONPATH=src python tools/census.py run --seed 1 --trials 100 --out before.json
    PYTHONPATH=src python tools/census.py compare before.json after.json
    PYTHONPATH=src python tools/census.py run --panel --out panel.json
    PYTHONPATH=src python tools/census.py run --seed 1 --trials 100 --pool-only --out pool.json

``run`` makes every fit of ``unifit bench --trials T --seed S`` (each
generator, trial and fitter), one ``fit()`` at a time with the benchmark's
own series and fit configs (``bench._fit_config``), and records for each:
its rms, ``converged``, ``iterations_used`` (passes summed over the
starts), its lockstep passes (passes of the lockstep loop, which are those
of its longest-running start), its start count (``len(start_losses)`` of
the result or of the ``FitFailureError``), the winning parameters and
amplitude, and whether it raised ``FitFailureError``.  The package
measured is the one on the import path, so one copy of this script can
census two checkouts that both have ``bench._fit_config``; an older
checkout is censused with its own copy.

``compare`` prints, per fitter, the fits whose records are not
byte-identical (0 when a change leaves every fit bit-identical; the start
count is left out when a census lacks it), the change in lockstep passes,
the fits whose result came from the start pool (more than one start: a
fit whose closed-form start read no candidate or fell back; ``?`` for a
census without start counts), the fits more than 1% worse or better (a
difference of at most 1e-9 in rms is round-off on near-zero self-fits and
is ignored), the fits that switched between a result and
``FitFailureError``, the winners that converged, and the largest relative
change in rms and in any parameter among the fits that differ and
finish in both (how far a change that moves only late digits moves
them; the rms of a fit whose rms is round-off in both is left out); then
each fit more than 1% worse or better.

``run --panel`` fits the off-distribution panel instead: each benchmark
series of ``trials=12`` at seeds 1 and 2 (or ``--trials`` and the one
``--seed`` given), with the benchmark's fit configs, in seven forms:
thinned to 8, 12 and 20 evenly spaced points (``thin8``, ``thin12``,
``thin20``); with the benchmark's noise at sigma 0.05 and 0.1, clipped at 0
(``noise0.05``, ``noise0.1``); and cut to x <= 0.5 and x <= 0.7, then
rescaled to x in [0.02, 0.98] and a unit maximum, as ``dataio.normalize``
maps data (``cut0.5``, ``cut0.7``).  ``compare`` of two panels also prints
the worse, better and switched counts per perturbation and fitter.

``run --pool-only`` (with or without ``--panel``) makes every fit from
the seeded start pool alone, with ``fitting._closed_form_start`` patched
to return None for the run, and records ``"pool_only": true``: comparing
it with a plain census of the same checkout measures its start policy
against the pool.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import unifit.fitting as fitting
from unifit import KIND_ORDER, BenchConfig, FitConfig, FitFailureError, SampledSeries, fit
from unifit.bench import _fit_config, _trial_series

#: A fit is worse (better) when its rms exceeds (falls below) the other's
#: by more than this share of it.
SHARE = 0.01
#: Differences in rms at most this large are round-off, not a change.
ROUND_OFF = 1e-9


@contextmanager
def _lockstep_passes(log: list[int]):
    """Append the lockstep passes of every ``_lm_lockstep`` run to log."""
    inner = fitting._lm_lockstep

    def counted(*args):
        out = inner(*args)
        log.append(int(out[2].max()))
        return out

    fitting._lm_lockstep = counted
    try:
        yield
    finally:
        fitting._lm_lockstep = inner


def _fit_record(series, fitter, config: FitConfig, log: list[int]) -> dict:
    """The census fields of one fit."""
    log.clear()
    try:
        result = fit(series, fitter, config)
    except FitFailureError as exc:
        record = dict(
            rms=None, converged=False, iterations_used=None, failed=True,
            params=None, amplitude=None, starts=len(exc.start_losses),
        )
    else:
        record = dict(
            rms=result.rms,
            converged=result.converged,
            iterations_used=result.iterations_used,
            failed=False,
            params=list(result.model.params.values),
            amplitude=result.model.amplitude,
            starts=len(result.start_losses),
        )
    record["passes"] = sum(log)
    return record


@contextmanager
def _pool_only(on: bool):
    """With ``on``, fits skip their closed-form start and run the pool."""
    inner = fitting._closed_form_start
    if on:
        fitting._closed_form_start = lambda *args: None
    try:
        yield
    finally:
        fitting._closed_form_start = inner


def _fits(config: BenchConfig, forms, pool_only: bool) -> list[dict]:
    """A record per (generator, trial, form, fitter) of config's benchmark
    series, forms mapping the benchmark config, generator and trial to
    (fields naming the form, series) pairs."""
    fits = []
    log: list[int] = []
    with _lockstep_passes(log), _pool_only(pool_only):
        for g, generator in enumerate(KIND_ORDER):
            for trial in range(config.trials_per_cell):
                for fields, series in forms(config, g, trial):
                    for f, fitter in enumerate(KIND_ORDER):
                        record = {**fields, "generator": generator.value, "trial": trial,
                                  "fitter": fitter.value}
                        record.update(_fit_record(series, fitter, _fit_config(config, g, trial, f), log))
                        fits.append(record)
    return fits


def run(seed: int, trials: int, pool_only: bool = False) -> dict:
    """The census of ``unifit bench --trials trials --seed seed``."""
    config = BenchConfig(trials_per_cell=trials, seed=seed, fit=FitConfig(seed=seed))
    fits = _fits(config, lambda c, g, trial: [({}, _trial_series(c, g, trial))], pool_only)
    return {"seed": seed, "trials": trials, "pool_only": pool_only, "fits": fits}


#: The off-distribution panel: its seeds and trials, and its perturbations.
PANEL_SEEDS = (1, 2)
PANEL_TRIALS = 12
THIN = (8, 12, 20)
NOISE = (0.05, 0.1)
CUT = (0.5, 0.7)


def panel_forms(config: BenchConfig, g: int, trial: int) -> list[tuple[str, SampledSeries]]:
    """The perturbed forms of the benchmark series of (generator g, trial)."""
    series = _trial_series(config, g, trial)
    n = len(series)
    forms = []
    for m in THIN:
        keep = np.linspace(0, n - 1, m).round().astype(int)
        forms.append((f"thin{m}", SampledSeries(series.xs[keep], series.ys[keep])))
    for sigma in NOISE:
        forms.append((f"noise{sigma:g}", _trial_series(replace(config, noise_sigma=sigma), g, trial)))
    for end in CUT:
        keep = series.xs <= end
        xs, ys = series.xs[keep], series.ys[keep]
        top = ys.max()
        xs = 0.02 + 0.96 * (xs - xs[0]) / (xs[-1] - xs[0])
        forms.append((f"cut{end:g}", SampledSeries(xs, ys / top if top > 0.0 else ys)))
    return forms


def run_panel(seeds=PANEL_SEEDS, trials: int = PANEL_TRIALS, pool_only: bool = False) -> dict:
    """The census of the off-distribution panel at the given seeds."""
    fits = []
    for seed in seeds:
        config = BenchConfig(trials_per_cell=trials, seed=seed, fit=FitConfig(seed=seed))
        fits += _fits(config, lambda c, g, trial: [
            ({"seed": c.seed, "form": name}, series) for name, series in panel_forms(c, g, trial)
        ], pool_only)
    return {"panel": True, "seeds": list(seeds), "trials": trials, "pool_only": pool_only,
            "fits": fits}


def _key(record: dict) -> tuple:
    # a panel record also names its seed and form
    where = tuple(record[k] for k in ("seed", "form") if k in record)
    return *where, record["generator"], record["trial"], record["fitter"]


def _row() -> dict:
    return {
        "differ": 0, "passes": [0, 0], "pool": [0, 0], "worse": [], "better": [],
        "switched": 0, "converged": [0, 0], "forms": {}, "rms_change": 0.0,
        "param_change": 0.0,
    }


def _relative(a: float, b: float) -> float:
    """|b - a| as a share of |a|."""
    return abs(b - a) / abs(a) if a else (0.0 if b == a else math.inf)


def _bytes(record: dict, starts: bool) -> str:
    # JSON writes each float as its shortest round-tripping repr, so equal
    # text is equal bits (-0.0 included, which == would not tell from 0.0)
    if not starts:
        record = {k: v for k, v in record.items() if k != "starts"}
    return json.dumps(record, sort_keys=True)


def compare(a: dict, b: dict) -> dict:
    """Per-fitter summary of census b against census a, which must cover
    the same fits: {fitter: {differ, passes, pool, worse, better, switched,
    converged, forms}}, where differ counts the fits whose records are not
    byte-identical, passes, pool (the fits run from the start pool; None
    for a census without start counts) and converged are (a, b) pairs,
    worse and better list (generator, trial, rms ratio b / a), led by seed
    and form for a panel, forms maps each panel form to its [worse,
    better, switched] counts (empty for a plain census), and rms_change
    and param_change are the largest ``_relative`` change in rms (of the
    fits not at round-off in both) and in any parameter among the fits
    that differ and finish in both."""
    before = {_key(r): r for r in a["fits"]}
    after = {_key(r): r for r in b["fits"]}
    if before.keys() != after.keys():
        raise ValueError("the censuses cover different fits (seed or trials differ)")
    out = {kind.value: _row() for kind in KIND_ORDER}
    for key, ra in before.items():
        rb = after[key]
        row = out[key[-1]]
        starts = "starts" in ra and "starts" in rb
        differ = _bytes(ra, starts) != _bytes(rb, starts)
        row["differ"] += differ
        if differ and not (ra["failed"] or rb["failed"]):
            if max(ra["rms"], rb["rms"]) > ROUND_OFF:  # else both are round-off
                row["rms_change"] = max(row["rms_change"], _relative(ra["rms"], rb["rms"]))
            row["param_change"] = max(row["param_change"],
                                      *map(_relative, ra["params"], rb["params"]))
        for i, r in enumerate((ra, rb)):
            row["passes"][i] += r["passes"]
            row["converged"][i] += r["converged"]
            if "starts" not in r:
                row["pool"][i] = None
            elif row["pool"][i] is not None:
                row["pool"][i] += r["starts"] > 1
        counts = row["forms"].setdefault(ra["form"], [0, 0, 0]) if "form" in ra else [0, 0, 0]
        if ra["failed"] != rb["failed"]:
            row["switched"] += 1
            counts[2] += 1
        elif not ra["failed"] and abs(rb["rms"] - ra["rms"]) > ROUND_OFF:
            where = (*key[:-1], rb["rms"] / ra["rms"] if ra["rms"] > 0.0 else float("inf"))
            if rb["rms"] > (1.0 + SHARE) * ra["rms"]:
                row["worse"].append(where)
                counts[0] += 1
            elif ra["rms"] > (1.0 + SHARE) * rb["rms"]:
                row["better"].append(where)
                counts[1] += 1
    return out


def _change(pair) -> str:
    a, b = pair
    share = f" ({(b - a) / a:+.1%})" if a else ""
    return f"{a} -> {b}{share}"


def _count(pair) -> str:
    return " -> ".join("?" if v is None else str(v) for v in pair)


def report(summary: dict) -> str:
    lines = [
        f"{'fitter':<11} differ {'lockstep passes':<32} {'pool':<12} worse better switched "
        f"{'converged':<13} rms_rel param_rel"
    ]
    total = _row()
    for name, row in list(summary.items()) + [("all", total)]:
        if name != "all":
            for field in ("passes", "pool", "converged"):
                total[field] = [
                    None if t is None or v is None else t + v
                    for t, v in zip(total[field], row[field])
                ]
            for field in ("differ", "worse", "better", "switched"):
                total[field] += row[field]
            for field in ("rms_change", "param_change"):
                total[field] = max(total[field], row[field])
        converged = f"{row['converged'][0]} -> {row['converged'][1]}"
        lines.append(
            f"{name:<11} {row['differ']:>6} {_change(row['passes']):<32} "
            f"{_count(row['pool']):<12} {len(row['worse']):>5} "
            f"{len(row['better']):>6} {row['switched']:>8} {converged:<13} "
            f"{row['rms_change']:>7.2g} {row['param_change']:>9.2g}"
        )
    forms = list(next(iter(summary.values()))["forms"])
    if forms:
        lines.append("worse/better/switched per perturbation")
        lines.append(f"{'form':<10} " + " ".join(f"{name:>10}" for name in summary))
        for form in forms:
            cells = ("/".join(map(str, row["forms"][form])) for row in summary.values())
            lines.append(f"{form:<10} " + " ".join(f"{cell:>10}" for cell in cells))
    for name, row in summary.items():
        for label in ("worse", "better"):
            for *where, generator, trial, ratio in row[label]:
                at = f" (seed {where[0]}, {where[1]})" if where else ""
                lines.append(
                    f"{label}: {name} on {generator} trial {trial}{at}: rms x{ratio:.4g}"
                )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="fit every benchmark fit and write the census")
    p_run.add_argument("--seed", type=int, help="required without --panel")
    p_run.add_argument("--trials", type=int, help="required without --panel")
    p_run.add_argument("--panel", action="store_true",
                       help="fit the off-distribution panel (default seeds 1 and 2, trials 12)")
    p_run.add_argument("--pool-only", action="store_true",
                       help="fit from the seeded start pool alone, skipping closed-form starts")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare", help="compare census B against census A")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.panel:
            seeds = PANEL_SEEDS if args.seed is None else (args.seed,)
            trials = PANEL_TRIALS if args.trials is None else args.trials
            census = run_panel(seeds, trials, args.pool_only)
        elif args.seed is None or args.trials is None:
            parser.error("run needs --seed and --trials, or --panel")
        else:
            census = run(args.seed, args.trials, args.pool_only)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(census, fh, indent=1)
            fh.write("\n")
        return 0
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        print(report(compare(json.load(fa), json.load(fb))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
