"""The three benchmark workloads.

Every workload is a closed loop with one caller: round ``r`` gets inputs
derived from ``(seed, r)`` before it starts, makes its calls into unifit
one after another, and the next round starts when it returns.  Rounds
draw fresh inputs, so the package's own caches do not carry over from one
round to the next, the way they would not for a user's new series.

* ``cross-table``: the paper's 5x5 cross-fitting table through
  ``cross_compare(..., workers=1)``: 25 * TRIALS fits of noiseless
  101-point series.  Its tail is set by skewnormal and gengamma iteration
  counts, so it is the workload for optimizer and lockstep changes.
* ``long-series``: every family fits one noisy 1001-point series per
  round, the generators taking turns, each fit one ``fit()`` call.  The batched loss dominates, so
  kernel and batch-loss changes show here first.
* ``cli-session``: ``unifit.cli.main`` runs ``fit --model all`` on both
  bundled datasets (22 and 39 rows), audits of maxent and beta shapes, and
  ``list-models``.  At n of about 30 optimizer bookkeeping dominates, and
  it is the only workload that reaches dataio, plotting, entropy and cli.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import unifit.bench
import unifit.cli
import unifit.plotting
from unifit import (
    KIND_ORDER,
    BenchConfig,
    CurveModel,
    FitConfig,
    FitFailureError,
    ModelKind,
    SampledSeries,
    bundled_dataset_path,
    cross_compare,
    fit,
    read_fit,
    render_table,
    sample_generator_params,
    sample_series,
)

from metrics import sha256_hex, subseed
from spans import COMMAND, FIT, ROUND, Recorder

#: Criterion-4 limits on self-fit rms, applied to the table's diagonal.
DIAGONAL_LIMITS = {
    ModelKind.RICHARDS: 5e-3,
    ModelKind.SKEWNORMAL: 5e-3,
    ModelKind.GENGAMMA: 5e-2,
    ModelKind.MAXENT: 1e-3,
    ModelKind.BETA: 1e-3,
}


@dataclass
class Round:
    wall_s: float
    spans: list  # spans recorded during the round, in start order
    problems: list[str]  # failed correctness gates
    output_digest: str
    cpu_s: float = 0.0  # process CPU time, set by the caller


def describe_fit(args, result, exc) -> dict:
    series, kind = args[0], args[1]
    attrs = {"kind": kind.value, "n": len(series), "failed": exc is not None}
    if result is not None:
        attrs.update(
            rms=result.rms,
            converged=result.converged,
            iterations=result.iterations_used,
            params=list(result.model.params.values),
            amplitude=result.model.amplitude,
        )
    return attrs


class Workload:
    name = ""
    #: Rounds every run makes; the fit-quality metrics and the recorded
    #: input digest cover exactly these.
    quality_rounds = 1
    #: Rounds after the quality rounds are added in groups of this many;
    #: a whole repeat of the quality rounds' panel keeps a run's mix of
    #: inputs the same however many rounds it makes.
    rounds_per_cycle = 1

    def make_inputs(self, seed: int, r: int):
        """Inputs of round ``r``, made before the round is timed."""
        raise NotImplementedError

    def input_bytes(self, inputs):
        """Byte chunks that identify the inputs, for the input digest."""
        raise NotImplementedError

    def instrument(self, rec: Recorder, traced: bool) -> None:
        """Install the fit-site wrapper, and with ``traced`` every other
        layer boundary this workload crosses."""
        raise NotImplementedError

    def run_round(self, inputs, rec: Recorder, workdir: Path) -> Round:
        raise NotImplementedError


class CrossTable(Workload):
    name = "cross-table"
    trials = 2
    quality_rounds = 4
    rounds_per_cycle = quality_rounds

    def make_inputs(self, seed, r):
        # cross_compare draws the table's series from BenchConfig.seed and
        # the fitter's starts from its FitConfig.seed.  The series are a
        # fixed panel, repeated after the quality rounds, and the seed draws
        # the starts: with seed-drawn series the tail of 300 fits moved by
        # more than a quarter from seed to seed.
        return BenchConfig(
            trials_per_cell=self.trials,
            seed=subseed("panel", self.name, r % self.quality_rounds),
            fit=FitConfig(seed=subseed(seed, self.name, r)),
        )

    def input_bytes(self, inputs):
        return [repr(inputs).encode()]

    def instrument(self, rec, traced):
        rec.patch(unifit.bench, "fit", FIT, describe=describe_fit)
        if traced:
            rec.patch(unifit.bench, "sample_generator_params", "bench.generate", new_trial=True)

    def run_round(self, config, rec, workdir):
        first = len(rec.spans)
        with rec.span(ROUND) as span:
            table = cross_compare(config, workers=1)
        problems = []
        if table.degraded:
            problems.append("table is degraded")
        for f, fitter in enumerate(KIND_ORDER):
            for g, generator in enumerate(KIND_ORDER):
                cell = table.cells[f][g]
                if not (math.isfinite(cell.mean_rms) and math.isfinite(cell.std_rms)):
                    problems.append(f"cell {fitter.value}/{generator.value} is not finite")
        for kind, limit in DIAGONAL_LIMITS.items():
            mean = table.cell(kind, kind).mean_rms
            if not mean < limit:
                problems.append(f"diagonal {kind.value} mean rms {mean:.3g} >= {limit:g}")
        csv = render_table(table).csv
        return Round(span.duration, rec.spans[first:], problems, sha256_hex([csv.encode()]))


class LongSeries(Workload):
    name = "long-series"
    grid = 1001
    sigma = 0.03
    quality_rounds = 10
    rounds_per_cycle = quality_rounds

    def make_inputs(self, seed, r):
        # Round r fits one series from generator r mod 5.  Its shape comes
        # from a fixed panel, repeated after the quality rounds, and the
        # seed draws its noise; the fits use the default FitConfig, as a
        # user's would.  Fit cost
        # varies far more between shapes and start pools than between
        # noise draws, and a run fits only ten series, so drawing those
        # from the seed too left the run-to-run spread of the median fit
        # time close to the largest allowed bound.
        generator = KIND_ORDER[r % len(KIND_ORDER)]
        params = sample_generator_params(
            generator, subseed("panel", self.name, r % self.quality_rounds))
        clean = sample_series(CurveModel(params, 1.0), self.grid)
        rng = np.random.default_rng(subseed(seed, self.name, r, "noise"))
        ys = np.clip(clean.ys + rng.normal(0.0, self.sigma, clean.ys.size), 0.0, None)
        return SampledSeries(clean.xs, ys)

    def input_bytes(self, series):
        return [series.xs.tobytes(), series.ys.tobytes()]

    def instrument(self, rec, traced):
        self._fit = rec.wrap(fit, FIT, describe=describe_fit)

    def run_round(self, series, rec, workdir):
        first = len(rec.spans)
        results = []
        rec.new_trial()
        with rec.span(ROUND) as span:
            for kind in KIND_ORDER:
                try:
                    results.append(self._fit(series, kind, FitConfig()))
                except FitFailureError:
                    results.append(None)
        zero_model = math.sqrt(float(np.mean(series.ys * series.ys)))
        problems = [
            f"{r.model.params.kind.value} rms {r.rms:.4g} exceeds the zero model's {zero_model:.4g}"
            for r in results
            if r is not None and not r.rms <= zero_model
        ]
        rms = np.array([math.nan if r is None else r.rms for r in results])
        return Round(span.duration, rec.spans[first:], problems, sha256_hex([rms.tobytes()]))


class CliSession(Workload):
    name = "cli-session"
    datasets = ("universe25", "st_matthew")
    audits_per_family = 4
    quality_rounds = 8

    def make_inputs(self, seed, r):
        fit_seed = str(subseed(seed, self.name, r, "fit") % 2**31)
        commands = [
            [
                "fit", "--model", "all", "--input", f"{{data}}/{name}.csv",
                "--out", f"{{out}}/{name}.json", "--plot", f"{{out}}/{name}.svg",
                "--seed", fit_seed,
            ]
            for name in self.datasets
        ]
        rng = np.random.default_rng(subseed(seed, self.name, r, "audit"))
        for family, lo, hi in (("maxent", 0.05, 5.0), ("beta", 1.2, 20.0)):
            for i in range(self.audits_per_family):
                a, b = np.exp(rng.uniform(math.log(lo), math.log(hi), 2))
                commands.append(
                    ["audit", "--model", family, "--a", f"{a:.6g}", "--b", f"{b:.6g}", "--seed", str(i)]
                )
        commands.append(["list-models"])
        return commands

    def input_bytes(self, inputs):
        data = [bundled_dataset_path(name).read_bytes() for name in self.datasets]
        return data + [" ".join(argv).encode() + b"\n" for argv in inputs]

    def instrument(self, rec, traced):
        rec.patch(unifit.cli, "fit", FIT, describe=describe_fit)
        if traced:
            rec.patch(unifit.cli, "load_series", "dataio.load_series")
            rec.patch(unifit.cli, "write_fit", "dataio.write_fit")
            rec.patch(unifit.cli, "perturbation_audit", "entropy.perturbation_audit")
            rec.patch(unifit.cli, "entropy_of", "entropy.entropy_of")
            rec.patch(unifit.plotting, "render_plot", "plotting.render_plot")

    def run_round(self, commands, rec, workdir):
        data_dir = bundled_dataset_path(self.datasets[0]).parent
        first = len(rec.spans)
        ran = []
        with rec.span(ROUND) as span:
            for argv in commands:
                argv = [a.format(data=data_dir, out=workdir) for a in argv]
                stdout, stderr = io.StringIO(), io.StringIO()
                rec.new_trial()
                with rec.span(COMMAND, cmd=argv[0]) as cmd:
                    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                        code = unifit.cli.main(argv)
                cmd.attrs["code"] = code
                ran.append((argv, code, stdout.getvalue()))

        problems = []
        chunks = []
        fits_by_trial: dict[int, list] = {}
        for s in rec.spans[first:]:
            if s.name == FIT:
                fits_by_trial.setdefault(s.trial, []).append(s)
        commands_spans = [s for s in rec.spans[first:] if s.name == COMMAND]
        for (argv, code, text), cmd in zip(ran, commands_spans):
            chunks.append(text.encode())
            if code != 0:
                problems.append(f"{' '.join(argv)} exited with {code}")
            if argv[0] == "audit" and "failures=0 " not in text:
                problems.append(f"{' '.join(argv)} reported audit failures")
            if argv[0] == "fit":
                out = Path(argv[argv.index("--out") + 1])
                for fs in fits_by_trial.get(cmd.trial, []):
                    problems.extend(_round_trip_problems(fs, out))
        for path in sorted(workdir.iterdir()):
            chunks.append(path.name.encode() + path.read_bytes())
        return Round(span.duration, rec.spans[first:], problems, sha256_hex(chunks))


def _round_trip_problems(fit_span, out: Path) -> list[str]:
    attrs = fit_span.attrs
    if attrs["failed"]:
        return []
    path = out.with_name(f"{out.stem}_{attrs['kind']}{out.suffix}")
    doc = read_fit(path)
    same = (
        list(doc.model.params.values) == attrs["params"]
        and doc.model.amplitude == attrs["amplitude"]
        and doc.rms_normalized == attrs["rms"]
        and doc.iterations_used == attrs["iterations"]
        and doc.converged == attrs["converged"]
    )
    return [] if same else [f"read_fit({path.name}) does not round-trip the fit"]


WORKLOADS = {w.name: w for w in (CrossTable(), LongSeries(), CliSession())}
