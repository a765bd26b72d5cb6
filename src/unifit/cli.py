"""Command-line interface: fit, bench, audit and list-models.

Exit codes: 0 success, 1 usage, input or output error, 2 fit failure,
3 degraded benchmark (some cell failed in more than half its trials),
4 entropy audit failure.  All commands are end-to-end deterministic for
identical flags and inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import BenchConfig, GenerationError, cross_compare, render_table
from .dataio import (
    SeriesFormatError,
    denormalize_fit,
    load_series,
    normalize,
    write_fit,
)
from .entropy import entropy_of, perturbation_audit
from .fitting import FitConfig, FitFailureError, fit
from .models import (
    FAMILIES,
    KIND_ORDER,
    ModelKind,
    ShapeParams,
    mode,
)

_PLOT_GRID = 201

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FIT_FAILURE = 2
EXIT_DEGRADED = 3
EXIT_AUDIT_FAILURE = 4


class _Parser(argparse.ArgumentParser):
    """argparse flavor that reports usage problems with exit status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="unifit",
        description="Fit unimodal time series with five peak-shaped model families.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_fit = sub.add_parser(
        "fit",
        help="fit model families to a time,value CSV file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_fit.add_argument("--input", required=True, help="input CSV path (time,value rows)")
    p_fit.add_argument(
        "--model",
        default="all",
        choices=[k.value for k in KIND_ORDER] + ["all"],
        help="family to fit, or all five",
    )
    p_fit.add_argument(
        "--out",
        default=None,
        help="write the fit document as JSON here (with --model all, one "
        "file per family with the family name appended to the stem)",
    )
    p_fit.add_argument("--plot", default=None, help="write an SVG chart here")
    p_fit.add_argument("--starts", type=int, default=FitConfig.starts, help="optimizer start "
                       "count of the pool that backs up each family's closed-form start (a "
                       "log-linear solve or, for richards and skewnormal, a half-maximum reading)")
    p_fit.add_argument("--seed", type=int, default=0, help="random seed")
    p_fit.add_argument(
        "--padding",
        type=float,
        default=0.02,
        help="time-domain inset used by normalization",
    )

    p_bench = sub.add_parser(
        "bench",
        help="run the 5x5 synthetic cross-comparison benchmark",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_bench.add_argument("--trials", type=int, default=BenchConfig.trials_per_cell,
                         help="trials per table cell")
    p_bench.add_argument("--grid", type=int, default=BenchConfig.grid_size,
                         help="points per synthetic series")
    p_bench.add_argument("--noise", type=float, default=BenchConfig.noise_sigma,
                         help="gaussian noise sd")
    p_bench.add_argument("--seed", type=int, default=0, help="random seed")
    p_bench.add_argument("--out", required=True, help="write the 25-row CSV table here")
    p_bench.add_argument(
        "--workers", type=int, default=1, help="worker processes (the table does not depend on it)"
    )

    p_audit = sub.add_parser(
        "audit",
        help="verify the entropy-maximality of a maxent or beta shape",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    audited = [k.value for k in KIND_ORDER if FAMILIES[k].weights]
    p_audit.add_argument("--model", required=True, choices=audited, help="family to audit")
    p_audit.add_argument("--a", type=float, required=True, help="first exponent")
    p_audit.add_argument("--b", type=float, required=True, help="second exponent")
    p_audit.add_argument(
        "--perturbations", type=int, default=200, help="perturbation trials"
    )
    p_audit.add_argument("--seed", type=int, default=0, help="random seed")

    sub.add_parser("list-models", help="describe the five model families")

    return parser


def _run_fit(args) -> int:
    try:
        config = FitConfig(starts=args.starts, seed=args.seed)
    except ValueError as exc:
        print(f"unifit fit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    path = Path(args.input)
    if not path.exists():
        print(f"unifit fit: input file not found: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        raw = load_series(path)
        series, transform = normalize(raw, padding=args.padding)
    except (SeriesFormatError, ValueError) as exc:
        print(f"unifit fit: {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a directory, say, or no read permission
        print(f"unifit fit: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE

    kinds = list(KIND_ORDER) if args.model == "all" else [ModelKind.from_string(args.model)]

    status = EXIT_OK
    fitted = []
    for kind in kinds:
        try:
            result = fit(series, kind, config)
        except FitFailureError as exc:
            print(f"unifit fit: {kind.value}: {exc}", file=sys.stderr)
            status = EXIT_FIT_FAILURE
            continue
        fitted.append((kind, result))
        print(
            f"{kind.value:<10} rms={result.rms:.6g} "
            f"rms_original={result.rms * transform.y_scale:.6g} "
            f"converged={'yes' if result.converged else 'no'}"
        )

    if args.out is not None and fitted:
        out = Path(args.out)
        try:
            if args.model != "all":
                write_fit(fitted[0][1], transform, out)
            else:
                for kind, result in fitted:
                    target = out.with_name(f"{out.stem}_{kind.value}{out.suffix or '.json'}")
                    write_fit(result, transform, target)
        except OSError as exc:
            print(f"unifit fit: {exc}", file=sys.stderr)
            return EXIT_USAGE

    if args.plot is not None and fitted:
        from .plotting import render_plot

        curves = []
        for kind, result in fitted:
            try:
                curves.append((kind, denormalize_fit(result, transform, _PLOT_GRID)))
            except ValueError as exc:
                print(
                    f"unifit fit: cannot plot {kind.value}: the fitted curve is not "
                    f"finite in original units ({exc})",
                    file=sys.stderr,
                )
                return EXIT_USAGE
        try:
            render_plot(raw, curves, args.plot)
        except OSError as exc:
            print(f"unifit fit: cannot write plot: {exc}", file=sys.stderr)
            return EXIT_USAGE

    return status


def _run_bench(args) -> int:
    if args.workers < 1:
        print(f"unifit bench: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = BenchConfig(
            trials_per_cell=args.trials,
            grid_size=args.grid,
            noise_sigma=args.noise,
            seed=args.seed,
            fit=FitConfig(seed=args.seed),
        )
    except ValueError as exc:
        print(f"unifit bench: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        table = cross_compare(config, workers=args.workers)
    except GenerationError as exc:
        print(f"unifit bench: cannot run the benchmark: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rendered = render_table(table)
    try:
        Path(args.out).write_text(rendered.csv, encoding="utf-8")
    except OSError as exc:
        print(f"unifit bench: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(rendered.grid, end="")
    if table.degraded:
        print(
            "unifit bench: degraded table: a cell failed in more than half "
            "of its trials",
            file=sys.stderr,
        )
        return EXIT_DEGRADED
    return EXIT_OK


def _run_audit(args) -> int:
    if args.perturbations < 0:
        print(f"unifit audit: --perturbations {args.perturbations} is negative", file=sys.stderr)
        return EXIT_USAGE
    kind = ModelKind.from_string(args.model)
    try:
        params = ShapeParams(kind, (args.a, args.b))
        h = entropy_of(params)
        report = perturbation_audit(params, trials=args.perturbations, seed=args.seed)
    except ValueError as exc:
        # out of bounds, or a shape the quadrature cannot normalize or audit
        print(f"unifit audit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"model {kind.value} a={args.a:g} b={args.b:g}")
    print(f"mode: {mode(params):.10g}")
    print(f"H:  {h:.10g}")
    print(f"C1: {report.C1:.10g}")
    print(f"C2: {report.C2:.10g}")
    print(f"C3: {report.C3:.10g}")
    print(
        f"perturbations: trials={report.perturbation_trials} "
        f"failures={report.perturbation_failures} "
        f"skipped={report.perturbation_skipped}"
    )
    return EXIT_OK if report.perturbation_failures == 0 else EXIT_AUDIT_FAILURE


def _run_list_models(_args) -> int:
    print("model families (peak-normalized shapes on the unit interval):")
    for kind in KIND_ORDER:
        names = ", ".join(kind.param_names)
        print(f"  {kind.value:<10} [{names}]  {FAMILIES[kind].description}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    runners = {
        "fit": _run_fit,
        "bench": _run_bench,
        "audit": _run_audit,
        "list-models": _run_list_models,
    }
    return runners[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
