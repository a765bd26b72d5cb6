"""Run perfbench's own correctness gates over many rounds, untimed.

    python3 tools/gate_sweep.py --workload cli-session --seeds 1,4242 --rounds 300
    python3 tools/gate_sweep.py --workload all --seeds 1,2,3,4242 --rounds 40

A timed benchmark run makes the quality rounds and then as many further
rounds as fit in its time, and every round past the quality rounds draws
fresh inputs (fit seeds, audit shapes, noise), so a faster change reaches
rounds that ``--seconds 0`` and CI never run.  This makes rounds 0 to
N - 1 of each workload at each seed, exactly as ``perfbench/run.py`` does
untraced (the same workload classes, fit-site wrapper and thread
pinning), checks each round's gates, and then repeats round 0 and checks
that its output digest is unchanged, as run.py does at the end of a run.
It adds no gate of its own; a round that raises is reported, as it would
end a benchmark run.

Prints one line per problem (``workload seed round problem``) and a
summary line; exits 1 when there is any problem.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import traceback
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (pins the BLAS and OpenMP thread variables before numpy loads)

if run.import_package() is None:
    sys.exit(f"no unifit package under {run.SRC}")

from spans import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def sweep(workload, seed: int, rounds: int) -> list[str]:
    """The gate problems of rounds 0..rounds-1 of ``workload`` at ``seed``,
    each as ``round problem``, then those of repeating round 0."""
    rec = Recorder()
    workload.instrument(rec, traced=False)
    problems, digests = [], []
    try:
        for r in [*range(rounds), 0]:
            try:
                with tempfile.TemporaryDirectory() as tmp:
                    rnd = workload.run_round(workload.make_inputs(seed, r), rec, Path(tmp))
            except Exception as exc:  # noqa: BLE001 - a crash ends a benchmark run
                traceback.print_exc()
                problems.append(f"{r} raised {type(exc).__name__}: {exc}")
                digests.append(None)
                continue
            finally:
                rec.spans.clear()  # a round reads only its own spans
            problems += [f"{r} {p}" for p in rnd.problems]
            digests.append(rnd.output_digest)
    finally:
        rec.restore()
    if digests[-1] != digests[0]:
        problems.append("0 repeating round 0 changed its output digest")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seeds", default="1,4242", help="comma-separated seeds")
    parser.add_argument("--rounds", type=int, required=True, help="rounds per workload and seed")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    count = 0
    for name in names:
        for seed in seeds:
            for problem in sweep(WORKLOADS[name], seed, args.rounds):
                print(f"{name} {seed} {problem}", flush=True)
                count += 1
    print(
        f"gate sweep: {count} problems in rounds 0-{args.rounds - 1} of "
        f"{', '.join(names)} at seeds {', '.join(map(str, seeds))}"
    )
    return 1 if count else 0


if __name__ == "__main__":
    sys.exit(main())
