import json
import random
import sys

from cap import conformance
from cap.conformance import (
    FAILURE_DUMP,
    Counterexample,
    SuiteReport,
    check_term,
    confluence_suite,
    pattern_of_type,
    random_order_normalize,
    run_conformance,
    run_differential,
    term_suites,
    weak_moves,
)
from cap.generators import GenConfig, gen_type, gen_typed_term
from cap.reduction import evaluate, small_step
from cap.relations import is_subtype
from cap.surface import parse_term, parse_type, validate_type
from cap.typecheck import check_type, infer_type

EX6 = parse_term("([ ] True => C1 | [ ] False => C0) (([ ] True => False | [ ] False => True) True)")


def test_gen_type_contract():
    from cap.mu_types import TypeConst

    tiny = gen_type(GenConfig(seed=5, max_type_nodes=1))
    assert isinstance(tiny, TypeConst)
    assert validate_type(tiny) == tiny
    for seed in range(30):
        cfg = GenConfig(seed=seed)
        t = gen_type(cfg)
        assert gen_type(cfg) == t
        assert validate_type(t) == t


def test_gen_typed_term_contract():
    from cap.mu_types import TypeConst
    from cap.syntax import Const

    term, ty = gen_typed_term(GenConfig(seed=5, max_term_nodes=1))
    assert isinstance(term, Const) and ty == TypeConst(term.name)
    for seed in range(30):
        cfg = GenConfig(seed=seed, max_term_nodes=14)
        term, ty = gen_typed_term(cfg)
        assert gen_typed_term(cfg) == (term, ty)
        check_type({}, term, ty)


def test_subject_reduction_on_example_six():
    lost, _, _ = check_term(EX6, infer_type({}, EX6))
    assert lost is None


def test_a_stuck_term_is_left_to_progress():
    stuck = parse_term("([ ] A => B) C")
    lost, detail, value = check_term(stuck, parse_type("B"))
    assert lost is None and value is None
    assert detail.startswith("stuck non-value")


def test_progress_on_example_six_and_values():
    assert check_term(EX6, infer_type({}, EX6))[1:] == (None, evaluate(EX6).term)
    nil = parse_term("Nil")
    assert check_term(nil, parse_type("Nil")) == (None, None, nil)


def test_check_term_reports_a_value_exactly_when_evaluate_does():
    # EX6 takes two steps: with fuel 2, `evaluate` stops out of fuel on the value.
    ty = infer_type({}, EX6)
    for fuel in range(1, 5):
        result = evaluate(EX6, fuel=fuel)
        _, _, value = check_term(EX6, ty, fuel)
        assert (value is not None) == (result.status == "normal")
        assert value is None or value == result.term
    assert [check_term(EX6, ty, fuel)[2] is not None for fuel in range(1, 5)] == [False, False, True, True]


def test_check_term_reports_the_first_reduct_that_lost_the_type():
    # both reducts lose C1; the walk goes on to the value but keeps the first
    lost, stuck, value = check_term(EX6, parse_type("C1"))
    assert lost.startswith("step 1: reduct ")
    assert "lost type C1" in lost
    assert stuck is None and value == parse_term("C0")


def test_weak_moves_and_random_order():
    moves = weak_moves(EX6)
    assert len(moves) == 1  # only the inner redex has a value argument
    status, nf = random_order_normalize(random.Random(0), EX6, 100)
    assert status == "normal" and nf == evaluate(EX6).term


def test_each_small_step_is_a_weak_move():
    # small_step and weak_moves both fire redexes through reduction.beta
    steps = 0
    for seed in range(2000):
        current, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))
        while (stepped := small_step(current)) is not None:
            assert stepped[0] in weak_moves(current)
            current = stepped[0]
            steps += 1
    assert steps > 1000


def test_pattern_of_type_matches_shape():
    rng = random.Random(1)
    ty = parse_type("Cons@Nil@(Nat -> Nat)")
    pattern, bindings = pattern_of_type(rng, ty, [0])
    from cap.typecheck import type_pattern

    assert type_pattern(dict(bindings), pattern) == ty


def test_suites_zero_failures_small():
    cfg = GenConfig(seed=123)
    assert all(report.ok for report in term_suites(cfg, 40))
    assert confluence_suite(cfg, 40).ok


def test_differential_small():
    report = run_differential(GenConfig(seed=321), pairs=60, kmax=8)
    assert report.ok
    assert not report.disagreements
    # deterministic per seed
    again = run_differential(GenConfig(seed=321), pairs=60, kmax=8)
    assert report.to_dict() == again.to_dict()


def test_run_conformance_summary(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    summary = run_conformance(GenConfig(seed=11), cases=20, kmax=6, pairs=30)
    assert summary.ok
    data = summary.to_dict()
    assert {s["name"] for s in data["suites"]} == {
        "subject-reduction",
        "progress",
        "successful-match",
        "confluence",
        "differential",
    }
    # no failure dump when everything passes
    assert not list(tmp_path.iterdir())


def test_a_failed_run_dumps_its_counterexamples(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    failure = Counterexample("confluence", 3, "A", "A", "normal forms differ")
    monkeypatch.setattr(conformance, "confluence_suite", lambda cfg, cases: SuiteReport("confluence", cases, [failure]))
    summary = run_conformance(GenConfig(seed=11), cases=4, kmax=4, pairs=4)
    assert not summary.ok and summary.failures() == [failure]
    dump = tmp_path / FAILURE_DUMP
    assert json.loads(dump.read_text(encoding="utf-8")) == [failure.to_dict()]
    dump.unlink()
    assert not run_conformance(GenConfig(seed=11), cases=4, kmax=4, pairs=4, dump_failures=False).ok
    assert not list(tmp_path.iterdir())


def _count_generated_terms(monkeypatch) -> list[int]:
    import cap.conformance as conformance

    calls = [0]
    original = conformance.gen_typed_term

    def counted(cfg):
        calls[0] += 1
        return original(cfg)

    monkeypatch.setattr(conformance, "gen_typed_term", counted)
    return calls


def test_run_conformance_generates_the_term_corpus_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    calls = _count_generated_terms(monkeypatch)
    run_conformance(GenConfig(seed=11), cases=20, kmax=6, pairs=10)
    # subject reduction, progress and successful matching share one corpus;
    # confluence draws its own, of smaller terms
    assert calls[0] == 20 + min(20, 200)


def test_term_suites_generate_the_corpus_once(monkeypatch):
    calls = _count_generated_terms(monkeypatch)
    sr, progress, match = term_suites(GenConfig(seed=11), 30)
    assert sr.to_dict() == {"name": "subject-reduction", "cases": 30, "failures": [], "ok": True}
    assert progress.to_dict() == {"name": "progress", "cases": 30, "failures": [], "ok": True}
    assert match.to_dict() == {
        "name": "successful-match",
        "cases": 30,
        "failures": [],
        "ok": True,
        "values_checked": 30,
    }
    assert calls[0] == 30


def test_gen_typed_term_type_is_the_inferred_type():
    # The generator's own type stands in for a re-inference in `term_suites`.
    for seed in range(2000):
        term, ty = gen_typed_term(GenConfig(seed=seed))
        assert infer_type({}, term) == ty, seed


def test_generators_never_infer(monkeypatch):
    # Each generator step types its term itself; a re-inference would raise here.
    def refuse(*args):
        raise AssertionError("a generator called infer_type")

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "cap" and hasattr(module, "infer_type"):
            monkeypatch.setattr(module, "infer_type", refuse)
    for seed in range(500):
        gen_typed_term(GenConfig(seed=seed))


def differential_of(monkeypatch, first, second):
    """`run_differential` over the one pair (first, second), counting its reverse `is_subtype` calls."""
    reverse = []

    def counting_is_subtype(a, b):
        reverse.append((a, b))
        return is_subtype(a, b)

    first, second = parse_type(first), parse_type(second)
    monkeypatch.setattr(conformance, "gen_type", lambda cfg: first if cfg.seed == 0 else second)
    monkeypatch.setattr(conformance, "mutate_type", lambda rng, t: second)
    monkeypatch.setattr(conformance, "is_subtype", counting_is_subtype)
    return run_differential(GenConfig(seed=0), pairs=1, kmax=4), reverse


def test_antisymmetry_gap_is_both_way_subtyping_without_equivalence(monkeypatch):
    report, reverse = differential_of(monkeypatch, "(A -> C) + (A + B -> C)", "A -> C")
    assert report.antisymmetry_gaps == 1
    assert len(reverse) == 1
    assert report.ok


def test_no_reverse_query_when_forward_subtyping_fails(monkeypatch):
    report, reverse = differential_of(monkeypatch, "A", "B")
    assert report.antisymmetry_gaps == 0
    assert reverse == []
    assert report.ok
