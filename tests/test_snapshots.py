"""Replay the recorded stdout, stderr and exit code of `cap` on a fixed battery.

The battery is `check` and `eval` on every corpus file, plain, `--json`,
`--trace` and `--json --trace`; `eval` out of fuel, which gives a `runtime`
diagnostic; `type` on inline terms, and `sub`, `equiv` and `oracle` on inline
type pairs, each plain and `--json`; `type`, `sub` and `equiv --json` on
each shape of union that `Union` tells apart; and two small `conform` runs
as text and as JSON. The second, at `--kmax 1`, reaches the oracle's deep
paths: pairs refuted beyond kmax, the 4·kmax re-check and an inconclusive
pair. Run this file as a script to record the
outputs again after a change that alters them on purpose.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cap.cli import main

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOTS = ROOT / "tests" / "snapshots" / "cli_outputs.json"
FLAGS = ([], ["--json"], ["--trace"], ["--json", "--trace"])
CONFORM = ["conform", "--seed", "3", "--cases", "10", "--pairs", "10"]
CONFORM_DEEP = ["conform", "--seed", "245", "--cases", "5", "--pairs", "120", "--kmax", "1"]
# Terms whose printed form (`type --json` echoes the term) covers nested
# compound patterns, abstractions as arguments and as branch bodies, and
# annotations with unions and `rec`; the last one is a sort error.
TYPE_TERMS = [
    "[x:A, y:B, z:C] Pair (Cons x (Cons y Nil)) (Box (Pair z Nil)) => Pair z x",
    "([f: A -> A] Box f => f) (Box ([x:A] x => x))",
    "[f: A -> A] Box f => ([y:A] Wrap y => f y) | [] Nil => Nil",
    "Cons ([x:A] x => x) ([z:B] Box z => z)",
    "[x: rec t. Nil + Cons@A@t, y: A + B] Pair x y => x",
    "[g: (rec t. Nil + Cons@A@t) -> A + B] Go (Pair g (Cons Nil)) => ([h: A + rec u. Nil + Box@u] Wrap h => g)",
    "[x:A -> A] Box (x Nil) => x",
]
# Type pairs over `rec` and unions, each printed back by `--json`: the first
# is an equivalence by one unfolding, the second a strict subtype.
TYPE_PAIRS = [
    ("rec t. Nil + Cons@A@t", "Nil + Cons@A@(rec u. Nil + Cons@A@u)"),
    ("rec t. A + Box@t", "rec u. A + B + Box@u"),
]
# Each shape of union the constructor tells apart: a union as a later part,
# which keeps its parentheses, a union as the first part, which is taken in,
# both under `@` and `->`, and a `rec` first part, whose unfolding is a union.
# `type` prints each back as the annotation of a matchable.
UNION_TERMS = [
    "[x: A + (B + C)] Box x => x",
    "[x: (A + B) + C] x => x",
    "[f: Cons@(A + B) -> (A + B) + C] Box f => f",
    "[x: (rec u. A + B) + C, y: A + B + C] Pair x y => y",
]
UNION_PAIRS = [
    ("A + (B + C)", "(A + B) + C"),
    ("Cons@(A + B) -> (A + B) + C", "Cons@(B + A) -> C + B + A"),
    ("(rec u. A + B) + C", "A + B + C"),
]


def battery() -> list[list[str]]:
    files = sorted(p.name for p in (ROOT / "corpus").glob("*.cap"))
    runs = [[command, f"corpus/{name}", *flags] for name in files for command in ("check", "eval") for flags in FLAGS]
    runs += [["eval", "corpus/bool_flip.cap", "--max-steps", "1", *flags] for flags in ([], ["--json"])]
    runs += [["type", term, *flags] for term in TYPE_TERMS for flags in ([], ["--json"])]
    runs += [
        [command, *pair, *flags]
        for pair in TYPE_PAIRS
        for command in ("sub", "equiv", "oracle")
        for flags in ([], ["--json"])
    ]
    runs += [["type", term, "--json"] for term in UNION_TERMS]
    runs += [[command, *pair, "--json"] for pair in UNION_PAIRS for command in ("sub", "equiv")]
    return runs + [CONFORM, CONFORM + ["--json"], CONFORM_DEEP, CONFORM_DEEP + ["--json"]]


def run_cli(argv: list[str]) -> dict:
    """Run `main` from the repository root and capture what it writes."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


RECORDED = json.loads(SNAPSHOTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", battery(), ids=" ".join)
def test_cli_output_matches_its_snapshot(argv):
    assert run_cli(argv) == RECORDED[" ".join(argv)]


if __name__ == "__main__":
    outputs = {" ".join(argv): run_cli(argv) for argv in battery()}
    SNAPSHOTS.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
