import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from cap import syntax
from cap.generators import GenConfig, gen_typed_term
from cap.reduction import small_step
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
)
from cap.mu_types import REPR_LIMIT, TypeConst, same_structure
from cap.surface import parse_term, pretty

from conftest import (
    InvalidPositionError,
    counting,
    positions,
    reference_apply_substitution,
    reference_is_value,
    subterm_at,
)


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
        return t.value, is_matchable_form(t)

    assert classify(Const("Nil")) == (True, True)
    redex = App(IDENTITY, Const("C"))
    assert classify(redex) == (False, False)
    # data structure whose argument is still reducible: matchable form, not a value
    t = App(Const("Cons"), App(IDENTITY, Const("Nil")))
    assert classify(t) == (False, True)
    assert classify(IDENTITY) == (True, True)
    # variable-headed spines of values are values but not matchable forms
    assert classify(App(Var("x"), Const("C"))) == (True, False)


def _subterms(t):
    """Every term node of `t`, branch bodies included."""
    stack, out = [t], []
    while stack:
        t = stack.pop()
        out.append(t)
        match t:
            case App(f, a):
                stack += (f, a)
            case Abs(branches):
                stack += (b.body for b in branches)
    return out


def test_the_value_flag_agrees_with_its_recursive_definition():
    terms = []
    for seed in range(3000):
        term, _ = gen_typed_term(GenConfig(seed=seed))
        for _ in range(50):
            terms.append(term)
            stepped = small_step(term)
            if stepped is None:
                break
            term = stepped[0]
    for term in terms:
        for t in _subterms(term):
            assert t.value == reference_is_value(t), pretty(t)


@pytest.mark.parametrize(
    "text",
    [
        "C " + " ".join(f"x{i}" for i in range(10**4)),
        "".join(f"Cons x{i} (" for i in range(10**4)) + "Nil" + ")" * 10**4,
    ],
    ids=["spine", "list"],
)
def test_a_term_over_many_distinct_names_holds_memory_linear_in_its_size(text):
    # no node keeps a set of the names below it, which would hold n²/2 names
    tracemalloc.start()
    try:
        term = parse_term(text)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 400 * 10**4


def test_substitution_keeps_a_subterm_it_leaves_unchanged():
    closed, open_ = parse_term("Cons A Nil"), parse_term("f y")
    out = apply_substitution({"x": Const("B")}, App(App(Var("x"), closed), open_))
    assert out == App(App(Const("B"), closed), open_)
    assert out.fun.arg is closed and out.arg is open_
    assert apply_substitution({"x": Const("B")}, open_) is open_


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


def _term_nodes(t):
    """Every term node of `t`, branch bodies included, walked as a tree."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        out.append(x)
        match x:
            case App(f, a):
                stack += (f, a)
            case Abs(branches):
                stack += (b.body for b in branches)
    return out


def _binders(t):
    return {n for x in _term_nodes(t) if isinstance(x, Abs) for b in x.branches for n in free_matchables(b.pattern)}


def test_substitution_agrees_with_the_reference_on_generated_terms():
    # every subterm, under a substitution of its free names and one name it
    # lacks, by values that mention the binders below it, so that binders
    # are captured and renamed
    rng = random.Random(0)
    renamed = 0
    for seed in range(300):
        term, _ = gen_typed_term(GenConfig(seed=seed))
        for node in _term_nodes(term):
            names = sorted(_binders(node)) or ["y"]
            values = [Var(rng.choice(names)), App(Const("C"), Var(rng.choice(names))), Const("K"), term]
            sub = {x: rng.choice(values) for x in [*sorted(free_vars(node)), "unused"]}
            out = apply_substitution(sub, node)
            assert same_structure(out, reference_apply_substitution(sub, node)), (seed, pretty(node))
            renamed += _binders(out) != _binders(node)
    assert renamed > 100


def test_substitution_renames_captured_binders_one_substitution_at_a_time():
    # renaming `b_1` in the same walk as substituting `w` would make the inner
    # binder avoid the old name `b_1` as well, and pick `b_2`
    a = TypeConst("A")
    inner = abs1(Matchable("b"), (("b", a),), App(Var("b_1"), Var("w")))
    outer = abs1(Matchable("b_1"), (("b_1", a),), App(inner, Var("v")))
    sub = {"w": Var("b"), "v": Var("b_1")}
    out = apply_substitution(sub, outer)
    assert pretty(out) == "[b_1_1:A] b_1_1 => ([b_1:A] b_1 => b_1_1 b) b_1"
    assert same_structure(out, reference_apply_substitution(sub, outer))


def test_substitution_meets_a_shared_subterm_once():
    # as a tree, this term has 2^40 occurrences of x
    t = Var("x")
    for _ in range(40):
        t = App(App(Const("Cons"), t), t)
    with counting(syntax, "_substitute", 4 * 40 + 1):
        out = apply_substitution({"x": Const("A")}, t)
    for _ in range(40):
        assert out.fun.arg is out.arg
        out = out.arg
    assert out == Const("A")


def test_same_term_compares_deep_terms_without_recursion():
    a, b = _nested_abstractions(1000), _nested_abstractions(1000)
    assert a is not b and same_structure(a, b)
    assert not same_structure(a, _nested_abstractions(1000, Const("C")))


def test_same_term_is_structural_equality():
    terms = [gen_typed_term(GenConfig(seed=seed))[0] for seed in range(300)]
    terms += [
        parse_term("[x:A] x => x"),
        parse_term("[x:B] x => x"),
        parse_term("[y:A] y => y"),
        parse_term("[x:A] x => x | [ ] C => C"),
        parse_term("[x:A, y:B] x y => x"),
        parse_term("[x:A] x y => x"),
    ]
    for t in terms:
        copy = parse_term(pretty(t))
        assert same_structure(t, copy) and same_structure(copy, t)
    for s, t in zip(terms, terms[1:]):
        assert same_structure(s, t) is (s == t)


def _dataclass_repr(x) -> str:
    """Reference: the repr `dataclass` writes, from the fields it shows."""
    if isinstance(x, tuple):
        inner = ", ".join(map(_dataclass_repr, x))
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    if dataclasses.is_dataclass(x):
        shown = ", ".join(f"{f.name}={_dataclass_repr(getattr(x, f.name))}" for f in dataclasses.fields(x) if f.repr)
        return f"{type(x).__qualname__}({shown})"
    return repr(x)


def _nodes(t):
    """`t`, and each branch, pattern and subterm under it."""
    yield t
    match t:
        case App(fun, arg):
            yield from _nodes(fun)
            yield from _nodes(arg)
        case Abs(branches):
            for b in branches:
                yield from (b, b.pattern)
                yield from _nodes(b.body)


def test_a_node_prints_its_dataclass_repr_up_to_the_limit():
    whole = 0
    for seed in range(200):
        term, ty = gen_typed_term(GenConfig(seed=seed))
        for node in [ty, *_nodes(term)]:
            want = _dataclass_repr(node)
            if len(want) <= REPR_LIMIT:
                assert repr(node) == want
                whole += 1
            else:
                assert repr(node) == want[:REPR_LIMIT] + "..."
    assert whole > 1000
