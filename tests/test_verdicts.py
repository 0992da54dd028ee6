"""Replay the relation verdicts and conformance reports at fixed seeds.

For each seed s in `SEEDS`, `a` is `gen_type` at seed s with `rec_probability`
0.5. The file records `is_subtype` both ways and `is_equivalent` of `a`
against its mutant (`mutate_type` with `random.Random(s)`), against an
unrelated type (`gen_type` at seed s + 100 000) and against `head_unfold(a)`,
as nine "0"/"1" characters by seed. It also records the `run_conformance`
reports at `FULL_SEEDS` and, at the benchmark's sizes, at `BENCH_SEEDS`. A
change to the relation engines, the types or the suites that leaves this file
alone changes no verdict. Run this file as a script to record them again after
a change that alters them on purpose.
"""

import json
import random
from pathlib import Path

from cap.conformance import run_conformance
from cap.generators import GenConfig, gen_type, mutate_type
from cap.mu_types import head_unfold
from cap.relations import is_equivalent, is_subtype

SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "verdicts.json"
SEEDS = range(3000)
FULL_SEEDS = (0, 1000, 7777)
BENCH_SEEDS = range(1000, 13_000, 1000)  # the `conform` workload's seeds, cases and pairs


def verdicts(seed: int) -> str:
    """`a <: b`, `b <: a` and `a ~ b` for each of the three partners `b` of seed's `a`."""
    cfg = GenConfig(rec_probability=0.5)
    a = gen_type(cfg.with_seed(seed))
    partners = (mutate_type(random.Random(seed), a), gen_type(cfg.with_seed(seed + 100_000)), head_unfold(a))
    return "".join(str(int(v)) for b in partners for v in (is_subtype(a, b), is_subtype(b, a), is_equivalent(a, b)))


def reports() -> dict[str, dict]:
    out = {f"full-{s}": run_conformance(GenConfig(seed=s), dump_failures=False).to_dict() for s in FULL_SEEDS}
    for s in BENCH_SEEDS:
        out[f"bench-{s}"] = run_conformance(GenConfig(seed=s), cases=15, pairs=30, dump_failures=False).to_dict()
    return out


def recorded() -> dict:
    return json.loads(SNAPSHOT.read_text(encoding="utf-8"))


def test_verdicts_match_their_snapshot():
    kept = recorded()["verdicts"]
    changed = [seed for seed in SEEDS if verdicts(seed) != kept[str(seed)]]
    assert changed == []


def test_conformance_reports_match_their_snapshot():
    assert reports() == recorded()["reports"]


if __name__ == "__main__":
    recorded = {"verdicts": {str(seed): verdicts(seed) for seed in SEEDS}, "reports": reports()}
    SNAPSHOT.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
