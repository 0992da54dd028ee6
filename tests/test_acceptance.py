"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) in addition to asserting, so the suite doubles as a checklist.
"""

import random
import time
from pathlib import Path

from cap.conformance import confluence_suite, run_differential, term_suites
from cap.compatibility import PatternJudgement, compatible_pair
from cap.generators import GenConfig, gen_type, mutate_type
from cap.mu_types import AppT, Arrow, head_unfold, union_components, union_of
from cap.program import check_program
from cap.relations import is_equivalent, is_subtype
from cap.surface import parse_program, parse_term, parse_type, pretty
from cap.syntax import Matchable, PatternCompound, PatternConst
from cap.typecheck import infer_type

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

F_NAT = "rec a. Vl@Nat + a@a + Cons + Node + Nil"


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def run_corpus(name):
    program = parse_program((CORPUS / name).read_text(encoding="utf-8"))
    start = time.perf_counter()
    results = check_program(program)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    return results


def test_criterion_1_worked_example_corpus():
    ok = True
    details = []

    # upd checks at (Nat -> Nat) -> (F_Nat -> F_Nat), equality up to equivalence
    results = run_corpus("upd.cap")
    upd_ok = all(r.ok for r in results)
    stated = parse_type(f"(Nat -> Nat) -> (({F_NAT}) -> ({F_NAT}))")
    env = {"upd": stated}
    upd_term = parse_term(
        f"[f:Nat -> Nat] f => ([z:Nat] Vl z => Vl (f z)"
        f" | [x:{F_NAT}, y:{F_NAT}] x y => (upd f x) (upd f y)"
        f" | [w:Cons + Node + Nil] w => w)"
    )
    upd_ok = upd_ok and is_equivalent(infer_type(env, upd_term), stated)
    details.append(f"upd={'ok' if upd_ok else 'BAD'}")
    ok = ok and upd_ok

    # upd2 checks at its stated type
    upd2_ok = all(r.ok for r in run_corpus("upd2.cap"))
    details.append(f"upd2={'ok' if upd2_ok else 'BAD'}")
    ok = ok and upd2_ok

    # the two untypable applications are rejected with type errors
    bad_apps = run_corpus("untypable_app.cap")
    apps_ok = [not r.ok and r.diagnostic.code == "type" for r in bad_apps] == [True, True]
    details.append(f"untypable-apps={'ok' if apps_ok else 'BAD'}")
    ok = ok and apps_ok

    # the Bool/Nat branch pair is rejected for compatibility
    compat = run_corpus("compat_bool_nat.cap")
    compat_ok = len(compat) == 1 and not compat[0].ok and compat[0].diagnostic.code == "compatibility"
    details.append(f"compat-reject={'ok' if compat_ok else 'BAD'}")
    ok = ok and compat_ok

    # compound-head overlap demands exactly the engine's subtype verdict
    first = PatternJudgement(
        PatternCompound(PatternConst("Vl"), Matchable("z")),
        parse_type("Vl@Nat"),
    )
    obligation_ok = True
    for payload, file, expected in (
        ("Nat", "branch_overlap_ok.cap", True),
        ("True + False", "branch_overlap_bad.cap", False),
    ):
        second = PatternJudgement(
            PatternCompound(Matchable("x"), Matchable("y")),
            parse_type(f"Vl@({payload})"),
        )
        verdict = compatible_pair(first, second)
        engine = is_subtype(parse_type(f"Vl@({payload})"), parse_type("Vl@Nat"))
        obligation_ok = obligation_ok and verdict.requires_subtype and verdict.compatible == engine == expected
        file_results = run_corpus(file)
        obligation_ok = obligation_ok and (all(r.ok for r in file_results) == expected)
    details.append(f"overlap-obligation={'ok' if obligation_ok else 'BAD'}")
    ok = ok and obligation_ok

    # the two-step boolean program reaches the zero constant in 2 beta steps
    flip = run_corpus("bool_flip.cap")
    flip_ok = flip[0].ok and pretty(flip[0].evaluated.term) == "C0" and flip[0].evaluated.steps == 2
    details.append(f"eval-2-steps={'ok' if flip_ok else 'BAD'}")
    ok = ok and flip_ok

    report("1 worked-example corpus", ok, "; ".join(details))


def test_criterion_2_differential_oracle():
    start = time.perf_counter()
    result = run_differential(GenConfig(seed=2024, max_type_nodes=12), pairs=1000, kmax=8)
    elapsed = time.perf_counter() - start
    refutation_rate = (
        result.refuted_within_2k / result.engine_false if result.engine_false else 1.0
    )
    ok = (
        not result.disagreements
        and refutation_rate >= 0.99
        and not result.inconclusive
        and elapsed < 30.0
    )
    report(
        "2 differential oracle",
        ok,
        f"pairs=1000 kmax=8 engine_false={result.engine_false} "
        f"refuted<=16={result.refuted_within_2k} inconclusive={len(result.inconclusive)} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_3_metatheory_properties():
    start = time.perf_counter()
    cfg = GenConfig(seed=9090)
    sr, progress, match = term_suites(cfg, 500)
    confluence = confluence_suite(cfg, 200)
    elapsed = time.perf_counter() - start
    ok = sr.ok and progress.ok and match.ok and confluence.ok and elapsed < 60.0
    report(
        "3 metatheory properties",
        ok,
        f"sr=500/{len(sr.failures)}cex progress=500/{len(progress.failures)} "
        f"match={match.extra['values_checked']}/{len(match.failures)} "
        f"confluence={confluence.extra['compared']}/{len(confluence.failures)} time={elapsed:.1f}s",
    )


def test_criterion_4_relation_laws():
    violations = []
    rng = random.Random(404)
    for i in range(500):
        t = gen_type(GenConfig(seed=30_000 + i))
        if not is_subtype(t, t):
            violations.append(("refl", t))
        comps = union_components(t)
        mid = union_of(comps + [parse_type("ExtraOne")])
        top = union_of(union_components(mid) + [parse_type("ExtraTwo")])
        if not (is_subtype(t, mid) and is_subtype(mid, top) and is_subtype(t, top)):
            violations.append(("trans", t))
        other = gen_type(GenConfig(seed=60_000 + i, max_type_nodes=6))
        if not is_equivalent(union_of([t, t]), t):
            violations.append(("idem", t))
        if not is_equivalent(union_of([t, other]), union_of([other, t])):
            violations.append(("comm", t))
        third = parse_type("Nil")
        if not is_equivalent(
            union_of([union_of([t, other]), third]), union_of([t, union_of([other, third])])
        ):
            violations.append(("assoc", t))
        if not is_equivalent(t, head_unfold(t)):
            violations.append(("unfold", t))
        # invertibility on compound and arrow shapes
        widened = mutate_type(rng, other)
        compound_l, compound_r = AppT(parse_type("K"), other), AppT(parse_type("K"), widened)
        if is_subtype(compound_l, compound_r) and not is_subtype(other, widened):
            violations.append(("invert-@", other))
        arrow_l, arrow_r = Arrow(other, t), Arrow(widened, t)
        if is_subtype(arrow_l, arrow_r) and not is_subtype(widened, other):
            violations.append(("invert-arrow", other))
    report("4 relation laws", not violations, f"500 samples, {len(violations)} violations")


def test_criterion_5_strong_equivalence_discriminator():
    verdict = is_equivalent(parse_type("rec x. Nat -> Nat -> x"), parse_type("rec x. Nat -> x"))
    report("5 strong-vs-weak discriminator", verdict, "rec x. Nat -> Nat -> x == rec x. Nat -> x")
