"""`evaluate` (the focused machine) against the reference: `small_step` iterated from the root."""

from dataclasses import replace
from pathlib import Path

import pytest

import cap.reduction as reduction
from cap.generators import GenConfig, gen_typed_term
from cap.mu_types import TypeConst
from cap.program import SessionState, process_decl
from cap.reduction import DEFAULT_FUEL, EvalResult, StuckMatch, evaluate, small_step
from cap.surface import Eval, parse_program, parse_term
from cap.syntax import Abs, App, Branch, Const, Matchable, PatternConst, Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
FUELS = (1, 2, 3, DEFAULT_FUEL)
IDENTITY = Abs((Branch(Matchable("x"), (("x", TypeConst("A")),), Var("x")),))
ONLY_NIL = Abs((Branch(PatternConst("Nil"), (), Const("C0")),))


def reference(t, fuel):
    """Step from the root until a value, a stuck match or `fuel` steps."""
    events = []
    for step in range(fuel):
        try:
            stepped = small_step(t)
        except StuckMatch as stuck:
            return EvalResult("stuck", t, step, stuck=stuck, trace=events)
        if stepped is None:
            return EvalResult("normal", t, step, trace=events)
        t, info = stepped
        events.append((step + 1, info))
    return EvalResult("out-of-fuel", t, fuel, trace=events)


def assert_same(t, fuel):
    """Status, term, steps, stuck match (abstraction, argument, kind) and the full trace."""
    expected = reference(t, fuel)
    assert evaluate(t, fuel=fuel, trace=True) == expected
    assert evaluate(t, fuel=fuel) == replace(expected, trace=[])
    return expected.status


def test_generated_terms_in_contexts():
    seen = set()
    for seed in range(300):
        term, _ = gen_typed_term(GenConfig(seed=seed))
        # The plain term; the same under a match that fails unless it yields Nil,
        # next to an evaluated left sibling; and next to an open, undecided argument.
        shapes = (
            term,
            App(App(Const("K"), term), App(ONLY_NIL, term)),
            App(App(ONLY_NIL, App(Var("g"), term)), term),
        )
        for shape in shapes:
            for fuel in FUELS:
                seen.add(assert_same(shape, fuel))
    assert seen == {"normal", "stuck", "out-of-fuel"}


@pytest.mark.parametrize(
    "text, kind",
    [
        ("K (([ ] Nil => C0) Cons) (([ ] A => B) A)", "all-fail"),
        ("([ ] A => B) (([x:A] x => x) A) (([ ] Nil => C0) (Cons Nil))", "all-fail"),
        ("K A (([ ] Nil => C0 | [ ] Cons => C1) (g C))", "undecided"),
        ("([y:A] y => y) (([ ] A => B | [ ] x => x) (g A))", "undecided"),
    ],
)
def test_stuck_inside_a_context(text, kind):
    term = parse_term(text)
    for fuel in FUELS:
        assert_same(term, fuel)
    result = evaluate(term)
    assert result.status == "stuck" and result.stuck.kind == kind


def _eval_terms(text):
    state = SessionState()
    terms = []
    for decl in parse_program(text).decls:
        if isinstance(decl, Eval):
            terms.append(state.resolve(decl.term))
        process_decl(state, decl)
    return terms


def _id_chain_text(n):
    arg = "id A"
    for _ in range(n - 1):
        arg = f"id ({arg})"
    return f"def id = [x:A + B] x => x;\neval {arg};"


def _list_map_text(items):
    text = "Nil"
    for x in reversed(items):
        text = f"Cons (f {x}) ({text})"
    return f"def f = [ ] A => B | [ ] B => C | [ ] C => A;\neval {text};"


def test_corpus_and_benchmark_shapes():
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.cap"))]
    texts += [_id_chain_text(n) for n in (1, 2, 50, 200)]
    texts += [_list_map_text(items) for items in ("A", "ABC", "CABBAC" * 10)]
    terms = [t for text in texts for t in _eval_terms(text)]
    assert len(terms) == 8
    for term in terms:
        for fuel in FUELS:
            assert_same(term, fuel)


def test_fuel_boundaries():
    with pytest.raises(ValueError):
        evaluate(Const("A"), fuel=0)
    value = evaluate(Const("A"), fuel=1)
    assert (value.status, value.steps) == ("normal", 0)
    # A run that uses up its fuel is out of fuel even when it ends on a value.
    result = evaluate(App(IDENTITY, Const("A")), fuel=1)
    assert (result.status, result.term, result.steps) == ("out-of-fuel", Const("A"), 1)


READS: list[str] = []


class WatchedApp(App):
    """An application that records each read of its fields in `READS`."""

    __slots__ = ()

    def __getattribute__(self, name):
        if name in ("fun", "arg", "value"):
            READS.append(name)
        return object.__getattribute__(self, name)


def test_evaluate_never_enters_an_application_known_to_be_a_value():
    # id applied 100 times to a list of 20 cells, the 11th of them watched
    cells = Const("Nil")
    for i in range(20):
        cells = (WatchedApp if i == 10 else App)(App(Const("Cons"), Const("A")), cells)
    term = cells
    for _ in range(100):
        term = App(IDENTITY, term)
    READS.clear()  # building the cells above it read the watched cell's fields
    result = evaluate(term)
    assert READS == []
    assert (result.status, result.term is cells, result.steps) == ("normal", True, 100)


def test_deep_id_chain_runs_without_the_reference(monkeypatch):
    def forbidden(*_):
        raise AssertionError("evaluate must not search from the root")

    monkeypatch.setattr(reduction, "small_step", forbidden)
    n = 10_000
    term = Const("A")
    for _ in range(n):
        term = App(IDENTITY, term)
    result = evaluate(term, trace=True)
    assert (result.status, result.term, result.steps) == ("normal", Const("A"), n)
    assert [step for step, _ in result.trace] == list(range(1, n + 1))
