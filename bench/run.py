"""Run one workload of the starcover benchmark and print its metrics.

    python3 bench/run.py --workload descent --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout, in one process and one thread,
against the library in ``src/``.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones.
The full record of the run, raw wall times included, goes to
``bench/results/``.  The exit code is 0 when every output check passed, 1
when one failed, and 2 when the library cannot be found.  See README.md.
"""

import time

PROCESS_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
# Write no bytecode caches: every run then compiles the library from source,
# as the first run in a fresh checkout does, and set-up times stay comparable.
sys.dont_write_bytecode = True

import reference  # noqa: E402

# Reference slices before and after set-up rate the machine speed while it
# runs; the time of the first ones is left out of set-up.
SETUP_SLICES = 3
_pre_start = time.perf_counter()
PRE_SLICES = [reference.run_slice() for _ in range(SETUP_SLICES)]
PRE_SLICES_S = time.perf_counter() - _pre_start

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

WORKLOADS = {"descent": "descent_wl", "brackets": "brackets_wl", "quantize": "quantize_wl"}


def import_library():
    """Import starcover from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "starcover" / "__init__.py").is_file():
        print(f"run.py: no starcover sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import starcover

    if Path(starcover.__file__).resolve().parent != (src / "starcover").resolve():
        print(f"run.py: starcover imported from {starcover.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return starcover


class Run:
    """The problems of one run, timed on the program clock."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.records: list = []  # (kind, start, end) of each solved and verified problem
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def round(self, problems) -> None:
        for problem in problems:
            self.attempted += 1
            start = self.clock.now()
            try:
                out = problem.solve()
            except Exception:  # a failing library call is counted, and the run goes on
                self.failed += 1
                traceback.print_exc()
                continue
            end = self.clock.now()
            message = problem.check(out)
            if message is None:
                self.records.append((problem.kind, start, end))
            else:
                self.wrong.append(f"{problem.kind}: {message}")

    def times(self) -> tuple[list, list]:
        """(normalized, raw) program seconds of each verified problem."""
        raw = [end - start for _, start, end in self.records]
        normalized = [self.clock.normalize(start, end) for _, start, end in self.records]
        return normalized, raw

    def by_kind(self) -> dict:
        normalized, _ = self.times()
        kinds: dict = {}
        for (kind, _, _), t in zip(self.records, normalized):
            kinds.setdefault(kind, []).append(t)
        return {k: {"count": len(v), "median_s": statistics.median(v)} for k, v in kinds.items()}


def traced_rounds(seconds: int, round_s: float) -> int:
    """Rounds in a traced run.  Each runs traced and then again untraced;
    a third of --seconds leaves room for the tracing cost and a slow
    machine."""
    return max(1, round(seconds / (3 * round_s)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_library()
    import timing
    import tracing

    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed)
    clock = timing.Clock()
    warm = Run(clock)
    warm.round(workload.warm_up())
    setup_raw = time.perf_counter() - PROCESS_START - PRE_SLICES_S
    post = [reference.run_slice() for _ in range(SETUP_SLICES)]
    setup_s = setup_raw * reference.NOMINAL_SLICE_S / statistics.median(PRE_SLICES + post)

    run = Run(clock)
    clock.start()
    if args.trace:
        rounds = traced_rounds(args.seconds, module.ROUND_S)
        tracer = tracing.Tracer(clock)
        tracer.install()
        traced_from = clock.now()
        for r in range(rounds):
            run.round(workload.round(r))
        traced_s = clock.normalize(traced_from, clock.now())
        tracer.uninstall()
        replay = Run(clock)
        replay_from = clock.now()
        for r in range(rounds):
            replay.round(workload.round(r))
        untraced_s = clock.normalize(replay_from, clock.now())
        clock.stop()
        metrics = tracer.metrics(clock.run_factor())
        metrics["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
        units = tracing.metric_units()
        wrong = run.wrong + replay.wrong + warm.wrong
        record = {"rounds": rounds, "traced_s": traced_s, "untraced_s": untraced_s}
    else:
        begin = clock.now()
        r = 0
        while True:  # whole rounds, so every run has the same mix of problems
            run.round(workload.round(r))
            r += 1
            if clock.now() - begin >= args.seconds:
                break
        clock.stop()
        normalized, raw = run.times()
        metrics = {
            "setup_s": setup_s,
            "problems_per_s": len(normalized) / sum(normalized),
            "problem_s_p50": statistics.median(normalized),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "problems_per_s": "1/s", "problem_s_p50": "s", "peak_rss_mib": "MiB"}
        wrong = run.wrong + warm.wrong
        record = {
            "rounds": r,
            "raw": {
                "setup_s": setup_raw,
                "problems_per_s": len(raw) / sum(raw),
                "problem_s_p50": statistics.median(raw),
            },
            "by_kind": run.by_kind(),
        }

    result = {
        "correct": not wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=sys.version.split()[0],
        slices={
            "count": len(clock.durations),
            "median_s": statistics.median(clock.durations),
            "quartiles_s": statistics.quantiles(clock.durations, n=4),
        },
        wrong=wrong,
        result=result,
        timeline={
            "problems": [[kind, round(a, 6), round(b, 6)] for kind, a, b in run.records],
            "slices": [[round(p, 6), round(d, 6)] for p, d in zip(clock.positions, clock.durations)],
        },
    )
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    for message in wrong:
        print(f"wrong output: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
