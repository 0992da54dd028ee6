"""Replay what the generators print at fixed seeds.

For each seed, at the default `GenConfig` and at the random profile of the
benchmark's `relations` workload, the file records `pretty` of `gen_type`, of
`mutate_type` on that type with `random.Random(seed)`, and of the term and
type `gen_typed_term` builds. The conformance suites draw their corpus from
these generators, so a change that leaves this file alone leaves their cases
alone too. Run this file as a script to record the outputs again after a
change that alters them on purpose.
"""

import json
import random
from pathlib import Path

import pytest

from cap.generators import GenConfig, gen_type, gen_typed_term, mutate_type
from cap.surface import pretty

SNAPSHOT = Path(__file__).resolve().parent / "snapshots" / "generated.json"
SEEDS = range(300)
PROFILES = {
    "default": GenConfig(),
    "relations": GenConfig(max_type_nodes=20, max_union_width=5, rec_probability=0.35),
}


def generated(profile: str) -> dict[str, list[str]]:
    """By seed: the generated type, its mutant, and the generated term and its type, printed."""
    cfg = PROFILES[profile]
    out = {}
    for seed in SEEDS:
        t = gen_type(cfg.with_seed(seed))
        term, ty = gen_typed_term(cfg.with_seed(seed))
        out[str(seed)] = [pretty(t), pretty(mutate_type(random.Random(seed), t)), pretty(term), pretty(ty)]
    return out


RECORDED = json.loads(SNAPSHOT.read_text(encoding="utf-8"))


@pytest.mark.parametrize("profile", PROFILES)
def test_generated_output_matches_its_snapshot(profile):
    assert generated(profile) == RECORDED[profile]


if __name__ == "__main__":
    outputs = {profile: generated(profile) for profile in PROFILES}
    SNAPSHOT.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
