"""Benchmark of the CAP checker, relation engines and conformance oracle.

    python3 bench/run.py --workload programs --seed 1 --seconds 30 --trace 0

Runs one workload (`programs`, `relations` or `conform`) in this process,
with one thread, for about `--seconds` of timed passes, checks every output,
and prints as its last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones from a traced run, plus
`trace.overhead_s`. Full results, and the spans of a traced run, are also
written to bench/results/.

Times are calibrated: each pass is scaled by the speed of the machine
sampled during it (see calibrate.py), so they read as seconds on a
reference machine. The process re-executes itself once with a fixed
PYTHONHASHSEED, so that set and dict orders are the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 7
HASH_SEED = "0"


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _setup_s(workload: str, seed: int, size: str) -> float:
    """The median calibrated time, over SETUP_REPEATS fresh processes, from
    process start to inputs ready (see setup_once.py)."""
    cmd = [sys.executable, str(HERE / "setup_once.py"), workload, str(seed), size]
    times = []
    for _ in range(SETUP_REPEATS):
        probe = calibrate.SpeedProbe(interval=0.0)
        probe.start()
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up of {workload} failed with exit code {child.returncode}")
        probe.tick()
        times.append(elapsed * probe.factor())
    return statistics.median(times)


class Tally:
    """Operations attempted and failed (wrong verdict or exception), over every pass."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def add(self, verdicts: list) -> None:
        self.attempted += len(verdicts)
        self.failed += sum(v is not True for v in verdicts)


class Passes:
    """Calibrated times of the timed passes and of their items, with the wall
    times and speed factors they come from."""

    def __init__(self, n_items: int) -> None:
        self.times: list[float] = []
        self.items: list[list[float]] = [[] for _ in range(n_items)]
        self.wall: list[float] = []
        self.factors: list[float] = []


def _timed_passes(workload, seconds: float, tally: Tally) -> Passes:
    """Run whole passes until `seconds` have gone by (at least one)."""
    out = Passes(len(workload.labels))
    probe = calibrate.SpeedProbe()
    deadline = time.perf_counter() + seconds
    while True:
        probe.start()
        start = time.perf_counter()
        times, verdicts = workload.run_pass(probe.tick)
        wall = time.perf_counter() - start - probe.spent
        factor = probe.factor()
        out.wall.append(wall)
        out.factors.append(factor)
        out.times.append(wall * factor)
        for slot, t in zip(out.items, times):
            slot.append(t * factor)
        tally.add(verdicts)
        if time.perf_counter() >= deadline:
            return out


def end_to_end(passes: Passes, setup_s: float) -> dict:
    per_item = [statistics.median(ts) for ts in passes.items]
    return {
        "pass_s": (statistics.median(passes.times), "s"),
        "verdict_p50_ms": (statistics.median(per_item) * 1000, "ms"),
        "verdict_p90_ms": (_percentile(per_item, 90) * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cap" / "__init__.py").is_file():
        print(f"error: no cap sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    cap = workloads.load_cap()
    workload = workload_cls(cap, args.seed, args.size)
    workload.prepare_checks()
    tally = Tally()
    tally.add(workload.run_pass(lambda: None)[1])  # the warm-up pass

    record: dict = {"workload": args.workload, "seed": args.seed, "size": args.size, "items": len(workload.labels)}
    if args.trace:
        import tracer

        untraced = _timed_passes(workload, args.seconds / 3, tally).times
        trace = tracer.Tracer()
        trace.install(cap)
        try:
            workload_cls(cap, args.seed, args.size)  # a traced set-up, for the layers set-up uses
            setup_spans = trace.take()
            traced = _timed_passes(workload, args.seconds * 2 / 3, tally).times
            pass_spans = trace.take()
        finally:
            trace.uninstall()
        metrics = tracer.layer_metrics(setup_spans, pass_spans, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        record["passes"] = {"untraced": len(untraced), "traced": len(traced)}
        record["spans"] = {
            "setup": [[parent, span, *row] for (parent, span), row in sorted(setup_spans[0].items())],
            "pass": [[parent, span, *row] for (parent, span), row in sorted(pass_spans[0].items())],
            "columns": ["caller", "span", "calls", "total_s", "self_s"],
        }
    else:
        setup_s = _setup_s(args.workload, args.seed, args.size)
        passes = _timed_passes(workload, args.seconds, tally)
        metrics = end_to_end(passes, setup_s)
        record["passes"] = len(passes.wall)
        record["pass_wall_s"] = passes.wall
        record["speed_factors"] = passes.factors
        record["items_median_s"] = dict(zip(workload.labels, (statistics.median(ts) for ts in passes.items)))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(result)
    RESULTS.mkdir(exist_ok=True)
    kind = "trace" if args.trace else "run"
    out = RESULTS / f"{kind}-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}: {len(workload.labels)} items per pass, {record['passes']} timed passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  attempted = {tally.attempted}, failed = {tally.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
