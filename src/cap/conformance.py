"""Property runners: subject reduction, progress, match success, confluence,
and the engine-vs-truncation differential suite."""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .diagnostics import CapError
from .generators import GenConfig, gen_type, gen_typed_term, mutate_type
from .mu_types import AppT, MuType, TypeConst, same_structure
from .reduction import StuckMatch, Success, beta, evaluate, match_pattern, small_step
from .relations import MODE_EQ, MODE_SUB, PairOracle, is_subtype
from .surface import pretty
from .syntax import (
    Abs,
    App,
    Matchable,
    Pattern,
    PatternCompound,
    PatternConst,
    Term,
)
from .typecheck import check_type, infer_type


@dataclass
class Counterexample:
    suite: str
    seed: int
    term: str
    type: str | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteReport:
    name: str
    cases: int
    failures: list[Counterexample] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": [f.to_dict() for f in self.failures],
            "ok": self.ok,
            **self.extra,
        }


# -- single-term check --------------------------------------------------------------

# The beta steps each suite term may take before it counts as out of fuel.
SUITE_FUEL = 1000


def check_term(term: Term, ty: MuType, fuel: int = SUITE_FUEL) -> tuple[str | None, str | None, Term | None]:
    """Walk `term` through at most `fuel` `small_step`s, re-checking `ty` after each.

    Returns the first reduct that lost `ty` (subject reduction), the stuck
    non-value (progress), and the value, reported only when it is reached in
    fewer than `fuel` steps, as `evaluate(term, fuel)` reports it normal.
    """
    current, lost = term, None
    for step in range(fuel):
        try:
            stepped = small_step(current)
        except StuckMatch as stuck:
            return lost, f"stuck non-value {pretty(current)}: {stuck}", None
        if stepped is None:
            return lost, None, current
        current = stepped[0]
        if lost is None:
            try:
                check_type({}, current, ty)
            except CapError as err:
                lost = f"step {step + 1}: reduct {pretty(current)} lost type {pretty(ty)}: {err.message}"
    return lost, None, None


# -- pattern generation for the match suite -----------------------------------------


def pattern_of_type(rng: random.Random, ty: MuType, counter: list[int]) -> tuple[Pattern, tuple[tuple[str, MuType], ...]]:
    """A pattern whose type under its annotations is exactly `ty`."""

    def fresh() -> str:
        counter[0] += 1
        return f"m{counter[0]}"

    match ty:
        case TypeConst(name) if rng.random() < 0.6:
            return PatternConst(name), ()
        case AppT(left, right) if rng.random() < 0.7:
            lp, lb = pattern_of_type(rng, left, counter)
            rp, rb = pattern_of_type(rng, right, counter)
            return PatternCompound(lp, rp), lb + rb
    name = fresh()
    return Matchable(name), ((name, ty),)


# -- randomized-order reduction ------------------------------------------------------


def weak_moves(t: Term) -> list[Term]:
    """Every term reachable in one weak call-by-value step, any redex position.

    Beta fires only on value arguments, as in the deterministic strategy, so
    all interleavings join on the same normal form; only the visiting order
    varies.
    """
    moves: list[Term] = []

    def go(t: Term, rebuild) -> None:
        if t.value:
            return
        if t.fun.value and t.arg.value and isinstance(t.fun, Abs):
            try:
                moves.append(rebuild(beta(t.fun, t.arg)[1]))
            except StuckMatch:
                pass
        fun, arg = t.fun, t.arg
        go(fun, lambda s, _arg=arg, _rb=rebuild: _rb(App(s, _arg)))
        go(arg, lambda s, _fun=fun, _rb=rebuild: _rb(App(_fun, s)))

    go(t, lambda s: s)
    return moves


def random_order_normalize(rng: random.Random, term: Term, fuel: int) -> tuple[str, Term]:
    current = term
    for _ in range(fuel):
        moves = weak_moves(current)
        if not moves:
            return ("normal" if current.value else "stuck"), current
        current = rng.choice(moves)
    return "out-of-fuel", current


# -- suites --------------------------------------------------------------------------


def term_suites(cfg: GenConfig, cases: int) -> tuple[SuiteReport, SuiteReport, SuiteReport]:
    """Subject reduction, progress and successful matching over one corpus of
    `cases` generated terms, each walked once by `check_term`. A value must
    keep its typability and match a pattern of its own type."""
    sr, progress, match = (SuiteReport(name, cases) for name in ("subject-reduction", "progress", "successful-match"))
    checked = 0
    for seed in range(cfg.seed, cfg.seed + cases):
        term, ty = gen_typed_term(cfg.with_seed(seed))
        lost, stuck, value = check_term(term, ty)
        if lost is not None:
            sr.failures.append(Counterexample("subject-reduction", seed, pretty(term), pretty(ty), lost))
        if stuck is not None:
            progress.failures.append(Counterexample("progress", seed, pretty(term), pretty(ty), stuck))
        if value is None:
            continue
        try:
            value_ty = infer_type({}, value)
        except CapError as err:
            match.failures.append(
                Counterexample("successful-match", seed, pretty(value), None, f"value lost typability: {err.message}")
            )
            continue
        pattern, _bindings = pattern_of_type(random.Random(seed), value_ty, [0])
        outcome = match_pattern(pattern, value)
        checked += 1
        if not isinstance(outcome, Success):
            detail = f"pattern {pretty(pattern)} produced {type(outcome).__name__}"
            match.failures.append(Counterexample("successful-match", seed, pretty(value), pretty(value_ty), detail))
    match.extra["values_checked"] = checked
    return sr, progress, match


def confluence_suite(cfg: GenConfig, cases: int) -> SuiteReport:
    """Randomized redex order must agree with the deterministic strategy."""
    report = SuiteReport("confluence", cases)
    compared = 0
    small = replace(cfg, max_term_nodes=min(cfg.max_term_nodes, 12))
    for seed in range(cfg.seed, cfg.seed + cases):
        term, ty = gen_typed_term(small.with_seed(seed))
        cbv = evaluate(term, fuel=SUITE_FUEL)
        status, random_nf = random_order_normalize(random.Random(seed * 7 + 1), term, SUITE_FUEL)
        if cbv.status != "normal" or status == "out-of-fuel":
            continue
        compared += 1
        if status == "stuck":
            report.failures.append(
                Counterexample("confluence", seed, pretty(term), pretty(ty), f"random order got stuck at {pretty(random_nf)}")
            )
        elif not same_structure(random_nf, cbv.term):
            report.failures.append(
                Counterexample(
                    "confluence",
                    seed,
                    pretty(term),
                    pretty(ty),
                    f"normal forms differ: cbv {pretty(cbv.term)} vs random {pretty(random_nf)}",
                )
            )
    report.extra["compared"] = compared
    return report


@dataclass
class DifferentialReport:
    pairs: int
    kmax: int
    disagreements: list[Counterexample] = field(default_factory=list)
    inconclusive: list[Counterexample] = field(default_factory=list)
    engine_false: int = 0
    refuted_within_2k: int = 0
    reverified: int = 0
    antisymmetry_gaps: int = 0  # both-way subtyping without equivalence; observational only

    @property
    def ok(self) -> bool:
        limit = max(1, self.pairs) * 0.01
        return not self.disagreements and len(self.inconclusive) < limit

    def to_dict(self) -> dict:
        return {"name": "differential", **asdict(self), "ok": self.ok}


def _pair_failure(seed: int, first: MuType, second: MuType, detail: str) -> Counterexample:
    """A differential counterexample; the pair is rendered only when one is reported."""
    return Counterexample("differential", seed, f"{pretty(first)}  vs  {pretty(second)}", None, detail)


def run_differential(cfg: GenConfig, pairs: int, kmax: int) -> DifferentialReport:
    """Generate type pairs and compare engine verdicts against truncations."""
    report = DifferentialReport(pairs, kmax)
    rng = random.Random(cfg.seed ^ 0xD1FF)
    for i in range(pairs):
        first = gen_type(cfg.with_seed(cfg.seed + 2 * i))
        if rng.random() < 0.7:
            second = mutate_type(rng, first)
        else:
            second = gen_type(cfg.with_seed(cfg.seed + 2 * i + 1))
        oracle = PairOracle(first, second)
        both_sub = False
        for mode in (MODE_SUB, MODE_EQ):
            result = oracle.compare(kmax, mode, deep_limit=4 * kmax)
            if not result.agree:
                report.disagreements.append(_pair_failure(cfg.seed + 2 * i, first, second, f"{mode}: {result.to_dict()}"))
            if not result.engine:
                report.engine_false += 1
                if result.refuting_depth is not None and result.refuting_depth <= 2 * kmax:
                    report.refuted_within_2k += 1
                else:
                    report.reverified += 1
                    if result.refuting_depth is None:
                        report.inconclusive.append(
                            _pair_failure(cfg.seed + 2 * i, first, second, f"{mode}: no refutation to {4 * kmax}")
                        )
            if mode == MODE_SUB:
                # The reverse query matters only when the forward one holds.
                both_sub = result.engine and is_subtype(second, first)
            elif both_sub and not result.engine:
                report.antisymmetry_gaps += 1
    return report


@dataclass
class ConformanceSummary:
    seed: int
    reports: list[SuiteReport]
    differential: DifferentialReport

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports) and self.differential.ok

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "suites": [r.to_dict() for r in self.reports] + [self.differential.to_dict()],
            "ok": self.ok,
        }

    def failures(self) -> list[Counterexample]:
        out = [f for r in self.reports for f in r.failures]
        out += self.differential.disagreements + self.differential.inconclusive
        return out


FAILURE_DUMP = "cap_conform_failures.json"


def run_conformance(
    cfg: GenConfig,
    cases: int = 500,
    kmax: int = 8,
    pairs: int = 1000,
    dump_failures: bool = True,
) -> ConformanceSummary:
    """Run every suite; persist counterexamples so failures can be replayed."""
    reports = [*term_suites(cfg, cases), confluence_suite(cfg, min(cases, 200))]
    differential = run_differential(cfg, pairs, kmax)
    summary = ConformanceSummary(cfg.seed, reports, differential)
    if dump_failures and not summary.ok:
        Path(FAILURE_DUMP).write_text(
            json.dumps([f.to_dict() for f in summary.failures()], indent=2) + "\n", encoding="utf-8"
        )
    return summary
