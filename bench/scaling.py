"""Reference scaling curves: time against input size, one row per size.

    python3 bench/scaling.py

Each row runs in its own process under a limit of ROW_TIMEOUT_S seconds,
so an exponential shows as a curve that stops at the first row over the
limit, not as a hang; larger sizes of that curve are skipped. These are reference figures for the
README, not workloads of the benchmark. Results go to
bench/results/scaling.json.

Curves:
  nested-union k   is_equivalent(T_k, T_k reordered), T_{j+1} = T_j@T_j + A
  chained-def n    a .cap program `def d_i = Cons d_{i-1} d_{i-1}` (i <= n) plus one check
  id-chain n       eval of `id (id (... A))` with n applications (n beta steps)
  truncation d     truncate both sides of (F, unfold F) at depth d, then finite_tree_rel
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CURVES = {
    "nested-union": (3, 4, 5, 6, 7, 8, 9, 10),
    "chained-def": (6, 8, 10, 12, 13, 14, 15, 16),
    "id-chain": (50, 100, 200, 300),
    "truncation": (4, 8, 12, 16, 24, 32),
}

ROW_TIMEOUT_S = 20.0

F_TYPE = "rec a. Vl@Nat + a@a + Cons + Node + Nil"


def _prepare(curve: str, size: int):
    """The input of one row and the function that processes it."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    cap = workloads.load_cap()
    mu = cap.mu_types
    if curve == "nested-union":
        a = workloads._nested(mu, size, "A", "app-first")
        b = workloads._nested(mu, size, "A", "leaf-first")
        return lambda: cap.relations.is_equivalent(a, b)
    if curve == "chained-def":
        text = "\n".join(
            ["def d0 = A;"]
            + [f"def d{i} = Cons d{i - 1} d{i - 1};" for i in range(1, size + 1)]
            + [f"check d{size} : rec t. A + Cons@t@t;"]
        )

        def check_chain():
            state = cap.program.SessionState()
            return [cap.program.process_decl(state, d) for d in cap.surface.parse_program(text).decls]

        return check_chain
    if curve == "id-chain":
        arg = "id A"
        for _ in range(size - 1):
            arg = f"id ({arg})"
        decls = cap.surface.parse_program(f"def id = [x:A] x => x;\neval {arg};").decls

        def eval_chain():
            state = cap.program.SessionState()
            return [cap.program.process_decl(state, d) for d in decls]

        return eval_chain
    if curve == "truncation":
        a = cap.surface.parse_type(F_TYPE)
        b = mu.head_unfold(a)
        rel = cap.relations
        return lambda: rel.finite_tree_rel(mu.truncate(a, size), mu.truncate(b, size), rel.MODE_EQ)
    raise ValueError(curve)


def run_row(curve: str, size: int) -> None:
    work = _prepare(curve, size)
    times: list[float] = []
    while len(times) < 3 and sum(times) < 2.0:
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    print(json.dumps(statistics.median(times)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--row", nargs=2, metavar=("CURVE", "SIZE"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.row:
        run_row(args.row[0], int(args.row[1]))
        return 0
    table: dict[str, dict[int, float | None]] = {}
    for curve, sizes in CURVES.items():
        table[curve] = {}
        for size in sizes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--row", curve, str(size)]
            try:
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROW_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                table[curve][size] = None
                print(f"{curve:>13} {size:>4}: over {ROW_TIMEOUT_S:g} s; larger sizes skipped")
                break
            if proc.returncode != 0:
                print(f"{curve:>13} {size:>4}: failed: {proc.stderr.strip().splitlines()[-1]}")
                table[curve][size] = None
                break
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])
            table[curve][size] = seconds
            print(f"{curve:>13} {size:>4}: {seconds:.4f} s")
    out = HERE / "results" / "scaling.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
