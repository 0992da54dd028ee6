"""Run-to-run spread of every end-to-end metric, next to its bound.

    python3 bench/steadiness.py --runs 10 --first-seed 1
    python3 bench/steadiness.py --runs 10 --first-seed 101 --compare bench/results/steadiness-seed1.json

Runs each workload `--runs` times, one process after another, each with its
own seed (first-seed, first-seed + 1, ...), for the run length set in
BENCHMARK.json. For every end-to-end metric it prints the median, the
quartiles and the spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives them) beside the metric's bound.
With --compare it also prints how far each median moved from an earlier
set, in the metric's worse direction. The table is saved to
bench/results/steadiness-seed<first-seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--compare", type=Path, help="an earlier steadiness-*.json to compare medians with")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(args.compare.read_text(encoding="utf-8")) if args.compare else {}
    report: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i, bench["run_seconds"]))
            print(f"  {workload} run {i + 1}/{args.runs} done", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {name: summarise([r["metrics"][name]["value"] for r in results]) for name in metrics}
        report[workload] = {"correct": all(r["correct"] for r in results), "failed_shares": shares, "metrics": rows}
        print(f"{workload}: {args.runs} runs, correct={report[workload]['correct']}, failed shares={shares}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}  verdict")
        for name, row in rows.items():
            bound = metrics[name]["bound"]
            verdict = "steady" if row["spread"] < bound / 3 else "within bound" if row["spread"] <= bound else "TOO WIDE"
            line = f"  {name:<16}{row['median']:>12.5g}{row['q1']:>12.5g}{row['q3']:>12.5g}{row['spread']:>8.3f}{bound:>7.2f}  {verdict}"
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if before:
                sign = 1 if metrics[name]["better"] == "lower" else -1
                worse = sign * (row["median"] - before["median"]) / before["median"]
                row["worse_than_compared"] = worse
                line += f"; median {worse:+.3f} worse than compared set ({'ok' if worse <= bound else 'OVER BOUND'})"
            print(line, flush=True)
    out = HERE / "results" / f"steadiness-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"saved {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
