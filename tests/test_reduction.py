import pytest
from hypothesis import given, settings, strategies as st

from cap.generators import GenConfig, gen_typed_term
from cap.mu_types import TypeConst
from cap.reduction import (
    FAIL,
    WAIT,
    NonLinearPatternError,
    StuckMatch,
    Success,
    combine,
    evaluate,
    match_pattern,
    small_step,
)
from cap.surface import parse_term
from cap.syntax import (
    Abs,
    App,
    Branch,
    Const,
    Matchable,
    PatternCompound,
    PatternConst,
    Var,
    apply_substitution,
    is_matchable_form,
)


IDENTITY = Abs((Branch(Matchable("x"), (("x", TypeConst("A")),), Var("x")),))
EX6 = parse_term("([ ] True => C1 | [ ] False => C0) (([ ] True => False | [ ] False => True) True)")


def success(**bindings):
    return Success(tuple(bindings.items()))


def test_combine_table():
    some = success(x=Const("U"))
    assert combine(FAIL, WAIT) == FAIL
    assert combine(FAIL, some) == FAIL
    assert combine(some, FAIL) == FAIL
    assert combine(WAIT, some) == WAIT
    assert combine(some, WAIT) == WAIT
    assert combine(WAIT, WAIT) == WAIT
    merged = combine(success(x=Const("U")), success(y=Const("V")))
    assert merged.as_dict() == {"x": Const("U"), "y": Const("V")}


def test_combine_rejects_overlap():
    with pytest.raises(NonLinearPatternError):
        combine(success(x=Const("U")), success(x=Const("V")))


def test_match_clauses():
    assert match_pattern(Matchable("x"), EX6) == success(x=EX6)
    assert match_pattern(PatternConst("C"), Const("C")) == success()
    assert match_pattern(PatternConst("C"), IDENTITY) == FAIL
    assert match_pattern(PatternConst("C"), Const("D")) == FAIL
    assert match_pattern(PatternConst("C"), Var("x")) == WAIT
    cc = PatternCompound(PatternConst("C"), PatternConst("C"))
    assert match_pattern(cc, App(Const("C"), Const("C"))) == success()
    # A variable-headed application is not a matchable form, so the compound
    # clause cannot decompose it and the comparison stays undetermined.
    assert match_pattern(cc, App(Var("x"), Const("D"))) == WAIT


def test_match_fail_dominates_wait_inside_compounds():
    # decomposition of a constant-headed spine may mix fail with wait
    p = PatternCompound(PatternConst("C"), PatternConst("C"))
    u = App(Const("D"), App(Var("f"), Const("Z")))
    assert is_matchable_form(u)
    assert match_pattern(p, u) == FAIL


def test_match_decided_on_closed_values():
    # closed values are matchable forms all the way down the data spine, so
    # matching against them never comes back undetermined
    import random

    from cap.conformance import pattern_of_type
    from cap.typecheck import infer_type

    for seed in range(120):
        term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
        result = evaluate(term, fuel=500)
        if result.status != "normal":
            continue
        value = result.term
        assert is_matchable_form(value)
        rng = random.Random(seed)
        probes = [
            PatternConst("Zz"),
            _shape_pattern(value, [0]),
            pattern_of_type(rng, infer_type({}, value), [50])[0],
            PatternCompound(PatternConst("Zz"), Matchable("k")),
        ]
        for probe in probes:
            assert match_pattern(probe, value) != WAIT


def test_small_step_values_and_example_six():
    assert small_step(Const("Nil")) is None
    assert small_step(IDENTITY) is None
    stepped = small_step(EX6)
    assert stepped is not None
    mid, info = stepped
    assert mid == parse_term("([ ] True => C1 | [ ] False => C0) False")
    assert info.branch_index == 0
    final, info2 = small_step(mid)
    assert final == Const("C0")
    assert info2.branch_index == 1


def test_small_step_stuck_all_fail():
    term = App(Abs((Branch(PatternConst("Nil"), (), Const("C0")),)), Const("Cons"))
    with pytest.raises(StuckMatch) as err:
        small_step(term)
    assert err.value.kind == "all-fail"
    assert err.value.abstraction is term.fun
    assert evaluate(term).stuck.abstraction is term.fun


def test_small_step_stuck_undecided_on_open_argument():
    term = App(Abs((Branch(PatternConst("Nil"), (), Const("C0")),)), App(Var("g"), Const("C")))
    with pytest.raises(StuckMatch) as err:
        small_step(term)
    assert err.value.kind == "undecided"
    assert err.value.abstraction is term.fun
    assert evaluate(term).stuck.abstraction is term.fun


def test_evaluate_example_six():
    result = evaluate(EX6, trace=True)
    assert result.status == "normal"
    assert result.term == Const("C0")
    assert result.steps == 2
    assert [info.branch_index for _, info in result.trace] == [0, 1]


def test_evaluate_value_is_identity():
    result = evaluate(Const("Nil"))
    assert result.status == "normal" and result.term == Const("Nil") and result.steps == 0


def test_evaluate_out_of_fuel_on_self_application():
    omega_half = Abs((Branch(Matchable("x"), (("x", TypeConst("A")),), App(Var("x"), Var("x"))),))
    omega = App(omega_half, omega_half)
    result = evaluate(omega, fuel=50)
    assert result.status == "out-of-fuel"


def _shape_pattern(value, counter, depth=0):
    # mirror the data spine of a value, abstracting some leaves
    if isinstance(value, Const) and depth % 2 == 0:
        return PatternConst(value.name)
    if isinstance(value, App) and is_matchable_form(value) and depth < 4:
        left = _shape_pattern(value.fun, counter, depth + 1)
        right = _shape_pattern(value.arg, counter, depth + 2)
        return PatternCompound(left, right)
    counter[0] += 1
    return Matchable(f"h{counter[0]}")


def _pattern_as_term(p):
    if isinstance(p, Matchable):
        return Var(p.name)
    if isinstance(p, PatternConst):
        return Const(p.name)
    return App(_pattern_as_term(p.left), _pattern_as_term(p.right))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_successful_match_reproduces_term(seed):
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
    result = evaluate(term, fuel=500)
    if result.status != "normal":
        return
    value = result.term
    pattern = _shape_pattern(value, [0])
    outcome = match_pattern(pattern, value)
    assert isinstance(outcome, Success)
    assert apply_substitution(outcome.as_dict(), _pattern_as_term(pattern)) == value
