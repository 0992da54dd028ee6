import pytest
from hypothesis import given, strategies as st

from cap import syntax
from cap.generators import GenConfig, gen_typed_term
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
    free_matchables,
    free_vars,
    is_linear,
    is_matchable_form,
    is_value,
)
from cap.mu_types import TypeConst
from cap.surface import parse_term, pretty

from conftest import InvalidPositionError, positions, subterm_at


def abs1(pattern, bindings, body):
    return Abs((Branch(pattern, bindings, body),))


IDENTITY = abs1(Matchable("x"), (("x", TypeConst("A")),), Var("x"))


def test_free_matchables():
    p = PatternCompound(Matchable("x"), Matchable("y"))
    assert free_matchables(p) == {"x", "y"}


def test_free_vars_binder_removes():
    assert free_vars(IDENTITY) == frozenset()
    assert free_vars(App(Var("f"), Const("C"))) == {"f"}


def test_linearity():
    assert is_linear(PatternCompound(Matchable("x"), Matchable("y")))
    assert not is_linear(PatternCompound(Matchable("x"), Matchable("x")))


def test_positions_and_subterm():
    p = PatternCompound(PatternConst("Vl"), Matchable("z"))
    assert positions(p) == {(), (1,), (2,)}
    assert subterm_at(p, (1,)) == PatternConst("Vl")
    with pytest.raises(InvalidPositionError):
        subterm_at(Var("x"), (1,))


def test_position_composition():
    t = App(App(Var("f"), Const("C")), Var("y"))
    for pos in positions(t):
        for split in range(len(pos) + 1):
            assert subterm_at(t, pos) == subterm_at(subterm_at(t, pos[:split]), pos[split:])


def test_substitution_basics():
    u = Const("U")
    assert apply_substitution({"x": u}, Var("x")) == u
    assert apply_substitution({}, IDENTITY) == IDENTITY
    # bound occurrences are untouched
    assert apply_substitution({"x": u}, IDENTITY) == IDENTITY


def test_substitution_example():
    t = App(Const("Vl"), Var("z"))
    assert apply_substitution({"z": Const("False")}, t) == App(Const("Vl"), Const("False"))


def test_substitution_avoids_capture():
    # x is free in the body under a branch binding y; substituting x := y must
    # not let the binder capture it.
    body = App(Var("x"), Var("y"))
    branch_term = Abs((Branch(Matchable("y"), (("y", TypeConst("A")),), body),))
    out = apply_substitution({"x": Var("y")}, branch_term)
    assert isinstance(out, Abs)
    renamed = out.branches[0]
    assert renamed.pattern != Matchable("y")
    binder = renamed.bindings[0][0]
    assert free_vars(out) == {"y"}
    assert renamed.body == App(Var("y"), Var(binder))



def test_substitution_renames_a_binder_inside_a_compound_pattern():
    out = apply_substitution({"z": Var("n")}, parse_term("[y: A, n: B] y n => z"))
    assert pretty(out) == "[y:A, n_1:B] y n_1 => n"


def test_classify_examples():
    def classify(t):
        return is_value(t), is_matchable_form(t)

    assert classify(Const("Nil")) == (True, True)
    redex = App(IDENTITY, Const("C"))
    assert classify(redex) == (False, False)
    # data structure whose argument is still reducible: matchable form, not a value
    t = App(Const("Cons"), App(IDENTITY, Const("Nil")))
    assert classify(t) == (False, True)
    assert classify(IDENTITY) == (True, True)
    # variable-headed spines of values are values but not matchable forms
    assert classify(App(Var("x"), Const("C"))) == (True, False)


@given(st.integers(min_value=0, max_value=500))
def test_identity_substitution_on_generated_terms(seed):
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
    assert apply_substitution({}, term) == term


@given(st.integers(min_value=0, max_value=300))
def test_positions_law_on_generated_terms(seed):
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
    for pos in positions(term):
        assert subterm_at(term, pos) is not None


def _nested_abstractions(n: int, t=Var("f")):
    """n abstractions deep, each body `(previous) x_i`, with `t` at the bottom."""
    for i in range(n):
        t = abs1(Matchable(f"x{i}"), ((f"x{i}", TypeConst("A")),), App(t, Var(f"x{i}")))
    return t


def test_substitution_is_linear_in_the_nesting_depth(monkeypatch):
    visits = []
    original = syntax._free_vars
    monkeypatch.setattr(syntax, "_free_vars", lambda t, memo: visits.append(t) or original(t, memo))
    counts = []
    for n in (100, 200):
        visits.clear()
        out = apply_substitution({"f": Const("C")}, _nested_abstractions(n))
        counts.append(len(visits))
        assert pretty(out) == pretty(_nested_abstractions(n, Const("C")))
    assert counts[1] <= 2.2 * counts[0]
