"""Benchmark of the unifit package: one workload per run, checked outputs,
end-to-end metrics untraced and per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cross-table --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --digests

Workloads are ``cross-table``, ``long-series`` and ``cli-session`` (see
workloads.py).  The package is imported from the checkout's ``src``; a
checkout without it is an error.  BLAS and OpenMP thread counts are
pinned to 1 before numpy loads, and everything runs in this one process
apart from the set-up probes.

``--trace 0`` measures set-up (SETUP_REPEATS fresh interpreters, each
importing unifit and fitting once per family), then runs the workload's
quality rounds and further whole cycles of rounds while they fit in
``--seconds`` of round time, then repeats round 0 to check that its
output digest is unchanged.  Only the fit call sites carry a timing
wrapper, which also times the reference work of calibrate.py between
calls; the end-to-end timings are scaled to reference speed with it.

``--trace 1`` runs each quality round traced, with spans at every layer
boundary the workload crosses, and untraced, and reports per-layer
metrics plus the traced-to-untraced wall-time overhead.  Layers the
workload does not reach are measured on one traced round of the workload
that does; the models layer by microbenchmarks.

The last line of standard output is the result as one JSON object; the
full report, with environment and digests, goes to ``perfbench/out``.
The exit code is 1 when a correctness gate failed.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import REFERENCE_S, Reference, scale  # noqa: E402
from metrics import check_name, check_unit, median, percentile, sha256_hex, tail_level  # noqa: E402
from spans import COMMAND, FIT, REFERENCE, ROUND, Recorder, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SEEDS = HERE / "seeds.json"
SETUP_REPEATS = 5
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cross-table", "long-series", "cli-session"))
    parser.add_argument("--seed", type=int, default=None, help="default: seeds.json default_seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="round time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--digests", action="store_true",
        help="print the input digest of every workload at the recorded seeds and exit",
    )
    args = parser.parse_args(argv)
    if not args.digests and args.workload is None:
        parser.error("--workload is required")
    return args


def import_package():
    """Import unifit from this checkout's src, or return None."""
    if not (SRC / "unifit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import unifit

    if Path(unifit.__file__).resolve().parent != (SRC / "unifit").resolve():
        return None
    return unifit


def measure_setup() -> list[dict]:
    """Run SETUP_REPEATS set-up probes; each reports its set-up time and
    SETUP_SAMPLES reference samples taken right after, in its process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), repr(time.perf_counter()), str(SETUP_SAMPLES)],
            env=env, cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.PIPE, text=True,
        ).stdout
        probes.append(json.loads(out.splitlines()[-1]))
    return probes


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def input_digest(workload, inputs) -> str:
    return sha256_hex(chunk for inp in inputs for chunk in workload.input_bytes(inp))


def run_round(workload, inputs, rec):
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        c0 = time.process_time()
        rnd = workload.run_round(inputs, rec, Path(tmp))
        rnd.cpu_s = time.process_time() - c0
        return rnd


def run_rounds(workload, inputs, traced):
    rec = Recorder()
    workload.instrument(rec, traced)
    try:
        rounds = [run_round(workload, inp, rec) for inp in inputs]
    finally:
        rec.restore()
    return rec, rounds


def spans_named(rounds, name):
    return [s for r in rounds for s in r.spans if s.name == name]


# --- end-to-end --------------------------------------------------------------


def run_untraced(workload, seed, seconds, inputs):
    probes = measure_setup()
    setup = [p["setup_s"] for p in probes]
    setup_scaled = [p["setup_s"] * scale(p["reference_samples_s"]) for p in probes]
    ref = Reference()
    rec = Recorder()
    workload.instrument(rec, traced=False)

    def sample_reference():
        if ref.due():
            with rec.span(REFERENCE):
                ref.sample()

    ref.sample()
    rec.before_call = sample_reference
    rounds = []
    try:
        # after the quality rounds, rounds come in whole cycles, and a cycle
        # starts only if it should end within half a cycle of the deadline
        cycle = workload.rounds_per_cycle
        elapsed = 0.0
        while (
            len(rounds) < len(inputs)
            or len(rounds) % cycle
            or elapsed + elapsed / len(rounds) * cycle / 2 < seconds
        ):
            r = len(rounds)
            rnd = run_round(workload, inputs[r] if r < len(inputs) else workload.make_inputs(seed, r), rec)
            # reference samples taken between the round's calls are not its time
            rnd.wall_s -= sum(s.duration for s in rnd.spans if s.name == REFERENCE)
            rounds.append(rnd)
            elapsed += rnd.wall_s
        rec.before_call = None
        repeat = run_round(workload, inputs[0], rec)
    finally:
        rec.restore()

    problems = [p for r in rounds for p in r.problems]
    if repeat.output_digest != rounds[0].output_digest:
        problems.append("repeating round 0 changed its output digest")

    fits = spans_named(rounds, FIT)
    commands = spans_named(rounds, COMMAND)
    quality = rounds[: len(inputs)]
    qfits = spans_named(quality, FIT)
    qcommands = spans_named(quality, COMMAND)
    qfailed = sum(s.attrs["failed"] for s in qfits) + sum(s.attrs["code"] != 0 for s in qcommands)
    level = tail_level(len(qfits))

    def timings(setup: list[float], scaled) -> dict:
        # scaled(span) is the span's time; a round's time leaves out the
        # reference samples taken inside it
        walls = [
            sum(scaled(s) for s in r.spans if s.name == ROUND)
            - sum(scaled(s) for s in r.spans if s.name == REFERENCE)
            for r in rounds
        ]
        durations = [scaled(s) for s in fits]
        return {
            "setup_s": (median(setup), "s"),
            "fits_per_s": (len(fits) / sum(walls), "1/s"),
            "fit_ms_p50": (median(durations) * 1e3, "ms"),
            "fit_ms_p95": (percentile(durations, level) * 1e3, "ms"),
            "session_s": (median(walls), "s"),
        }

    scaled = timings(setup_scaled, lambda span: ref.scaled(span.start, span.end))
    metrics = {
        "setup_s": scaled.pop("setup_s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        **scaled,
        "converged_share": (
            sum(bool(s.attrs.get("converged")) for s in qfits) / len(qfits), "share"),
        "rms_median": (median(s.attrs["rms"] for s in qfits if not s.attrs["failed"]), "1"),
        "ok_share": (1.0 - qfailed / (len(qfits) + len(qcommands)), "share"),
    }
    attempted = len(fits) + len(commands)
    failed = sum(s.attrs["failed"] for s in fits) + sum(s.attrs["code"] != 0 for s in commands)
    context = {
        "rounds": len(rounds),
        "quality_rounds": len(inputs),
        "fit_samples": len(fits),
        "fit_tail_percentile": level,
        "reference_s": REFERENCE_S,
        "measured_timings": {k: v for k, (v, _) in timings(setup, lambda span: span.duration).items()},
        "setup_probes": probes,
        "round_walls_s": [r.wall_s for r in rounds],
        "round_cpu_s": [r.cpu_s for r in rounds],
        "reference_samples_s": ref.samples,
    }
    return metrics, attempted, failed, problems, context, rec


# --- per-layer ---------------------------------------------------------------


def fitting_metrics(fits):
    from unifit import KIND_ORDER

    out = {}
    for kind in KIND_ORDER:
        k = kind.value
        mine = [s for s in fits if s.attrs["kind"] == k]
        ok = [s for s in mine if not s.attrs["failed"]]
        iterations = sum(s.attrs["iterations"] for s in ok)
        out[f"fitting.fit_ms_p50.{k}"] = (median(s.duration for s in mine) * 1e3, "ms")
        out[f"fitting.iterations_per_fit.{k}"] = (iterations / len(ok), "count")
        out[f"fitting.ms_per_iteration.{k}"] = (
            sum(s.duration for s in ok) * 1e3 / iterations, "ms")
        out[f"fitting.converged_share.{k}"] = (
            sum(bool(s.attrs.get("converged")) for s in mine) / len(mine), "share")
        out[f"fitting.failed_share.{k}"] = ((len(mine) - len(ok)) / len(mine), "share")
    return out


def bench_metrics(spans):
    selfs = self_times(spans)
    fit_self = sum(t for s, t in zip(spans, selfs) if s.name == FIT)
    table_wall = sum(s.duration for s in spans if s.name == ROUND)
    return {
        "bench.generate_ms_p50": (
            median(s.duration for s in spans if s.name == "bench.generate") * 1e3, "ms"),
        "bench.fit_share": (fit_self / table_wall, "share"),
    }


def cli_metrics(spans):
    selfs = self_times(spans)

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def command(cmd):
        return [(s, t) for s, t in zip(spans, selfs) if s.name == COMMAND and s.attrs["cmd"] == cmd]

    return {
        "cli.fit_cmd_self_ms": (median(t for _, t in command("fit")) * 1e3, "ms"),
        "cli.cmd_fit_ms_p50": (median(s.duration for s, _ in command("fit")) * 1e3, "ms"),
        "cli.cmd_audit_ms_p50": (median(s.duration for s, _ in command("audit")) * 1e3, "ms"),
        "entropy.audit_ms_p50": (median(durations("entropy.perturbation_audit")) * 1e3, "ms"),
        "entropy.entropy_of_us": (median(durations("entropy.entropy_of")) * 1e6, "us"),
        "dataio.load_ms": (median(durations("dataio.load_series")) * 1e3, "ms"),
        "dataio.write_fit_ms": (median(durations("dataio.write_fit")) * 1e3, "ms"),
        "plotting.render_ms": (median(durations("plotting.render_plot")) * 1e3, "ms"),
    }


def run_traced(workload, seed, inputs):
    from kernels import kernel_metrics, mode_metrics
    from workloads import WORKLOADS

    # traced and untraced rounds alternate, and so does which of the two
    # goes first, so that drifts in machine speed fall on both alike
    rec, plain_rec = Recorder(), Recorder()
    traced, plain = [], []
    for i, inp in enumerate(inputs):
        order = [(rec, True, traced), (plain_rec, False, plain)]
        for r, flag, out in order[:: 1 if i % 2 == 0 else -1]:
            workload.instrument(r, flag)
            try:
                out.append(run_round(workload, inp, r))
            finally:
                r.restore()
    problems = [p for r in traced + plain for p in r.problems]
    if any(t.output_digest != p.output_digest for t, p in zip(traced, plain)):
        problems.append("traced and untraced rounds gave different output digests")

    metrics = fitting_metrics(spans_named(traced, FIT))
    # geometric mean of per-round ratios: the run that goes second finds
    # the package's caches warm, and alternating the order cancels that
    ratios = [math.log(t.wall_s / p.wall_s) for t, p in zip(traced, plain)]
    metrics["trace.overhead_share"] = (math.exp(sum(ratios) / len(ratios)) - 1.0, "share")
    # each of these layers is measured on the workload's own spans when it
    # reaches the layer, else on one traced round of the workload that does
    spans_by_workload = {workload.name: rec.spans}
    for other, layer_metrics in (("cross-table", bench_metrics), ("cli-session", cli_metrics)):
        if other not in spans_by_workload:
            companion = WORKLOADS[other]
            crec, crounds = run_rounds(companion, [companion.make_inputs(seed, 0)], traced=True)
            problems += [p for r in crounds for p in r.problems]
            spans_by_workload[other] = crec.spans
        metrics.update(layer_metrics(spans_by_workload[other]))
    metrics.update(kernel_metrics())
    metrics.update(mode_metrics(seed))

    fits = spans_named(traced, FIT)
    commands = spans_named(traced, COMMAND)
    attempted = len(fits) + len(commands)
    failed = sum(s.attrs["failed"] for s in fits) + sum(s.attrs["code"] != 0 for s in commands)
    context = {"rounds": len(inputs), "fit_samples": len(fits)}
    return metrics, attempted, failed, problems, context, rec


# --- entry point -------------------------------------------------------------


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_declared(metrics, trace) -> None:
    declared = declared_metrics(trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    for name, unit in got.items():
        check_name(name)
        check_unit(unit)
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")


def print_digests(workloads, seeds) -> None:
    out = {}
    for name, w in workloads.items():
        out[name] = {}
        for key in ("default_seed", "held_out_seed"):
            seed = seeds[key]
            inputs = [w.make_inputs(seed, r) for r in range(w.quality_rounds)]
            out[name][str(seed)] = input_digest(w, inputs)
    print(json.dumps(out, indent=2))


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_package() is None:
        print(f"run.py: cannot import unifit from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    seeds = json.loads(SEEDS.read_text(encoding="utf-8"))
    if args.digests:
        print_digests(WORKLOADS, seeds)
        return 0

    workload = WORKLOADS[args.workload]
    seed = seeds["default_seed"] if args.seed is None else args.seed
    inputs = [workload.make_inputs(seed, r) for r in range(workload.quality_rounds)]
    digest = input_digest(workload, inputs)
    recorded = seeds["input_digests"].get(workload.name, {}).get(str(seed))

    run = run_traced(workload, seed, inputs) if args.trace else run_untraced(
        workload, seed, args.seconds, inputs)
    metrics, attempted, failed, problems, context, rec = run
    if recorded is not None and recorded != digest:
        problems.append(f"input digest {digest} differs from the one recorded for seed {seed}")
    check_declared(metrics, args.trace)

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{args.trace}"
    if args.trace:
        rec.write_jsonl(OUT / f"{stem}.spans.jsonl")
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": args.seconds,
        "input_digest": digest,
        "environment": environment(),
        "context": context,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for problem in problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={seed} input_digest={digest}")
    print(f"# environment {json.dumps(report['environment'])}")
    print(f"# context {json.dumps(context)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
