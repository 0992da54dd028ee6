import random

import pytest
from hypothesis import given, settings, strategies as st

import cap.mu_types as mu_types
import cap.surface as surface
from cap.diagnostics import CapError
from cap.generators import GenConfig, gen_type, gen_typed_term
from cap.mu_types import (
    AppT,
    Arrow,
    BULLET_NAME,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    is_datatype,
)
from cap.surface import (
    parse_program,
    parse_term,
    parse_type,
    pretty,
    tokenize,
    validate_type,
)
from cap.syntax import Abs, App, Const, Var

from conftest import F_NAT, LIST_A, TREE_A


def test_union_binds_tighter_than_arrow_and_app_tightest():
    t = parse_type("Vl@Nat + Cons@a")
    assert isinstance(t, Union)
    assert isinstance(t.left, AppT) and isinstance(t.right, AppT)
    t = parse_type("D@A -> B + C")
    assert isinstance(t, Arrow)
    assert isinstance(t.dom, AppT)
    assert isinstance(t.cod, Union)


def test_arrow_right_associative():
    t = parse_type("A -> B -> C")
    assert t == Arrow(TypeConst("A"), Arrow(TypeConst("B"), TypeConst("C")))


def test_application_parses_left_associative():
    t = parse_term("([x:Nat] Vl x => x) (Vl Zero)")
    assert isinstance(t, App)
    assert isinstance(t.fun, Abs)
    assert t.arg == App(Const("Vl"), Const("Zero"))
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


def test_comments_and_spans():
    program = parse_program("-- nothing here\neval Nil; -- trailing\n")
    assert len(program.decls) == 1
    assert program.decls[0].span.line == 2


def test_parse_failure_has_span():
    with pytest.raises(CapError) as err:
        parse_program("eval ;")
    assert err.value.span.line == 1
    assert err.value.span.col == 6


def test_an_error_needs_a_known_diagnostic_code():
    with pytest.raises(ValueError):
        CapError("nope", "x")


def test_rec_binders_get_sorts():
    t = parse_type("rec a. Vl@Nat + a@a + Nil")
    assert isinstance(t, Rec)
    assert is_datatype(t)
    assert t.body.left.right == AppT(TypeVar("a"), TypeVar("a"))
    assert not is_datatype(parse_type("rec x. Nat -> x"))
    assert is_datatype(TypeVar("a"), frozenset({"a"})) and not is_datatype(TypeVar("a"))


def test_validate_type_returns_its_argument():
    t = Rec("a", Union(AppT(TypeVar("a"), TypeConst("Z")), TypeConst("Nil")))
    assert validate_type(t) is t
    assert parse_type(pretty(t)) == t


# The retry-based sort resolution that validation used before sorts were
# computed by `is_datatype`: each `rec` is tried as a datatype first and, when
# its body is not one (or is ill-sorted under that assumption), as a type.
# It returns the sort of `t` and records the sort it settled on for each binder.


def reference_sort(t, env, binder_sorts):
    match t:
        case TypeConst(name):
            if name == BULLET_NAME:
                raise CapError("sort", "reserved")
            return "data"
        case TypeVar(name):
            return env.get(name, "type")
        case AppT(left, right):
            if reference_sort(left, env, binder_sorts) != "data":
                raise CapError("sort", "left argument of @ must be a datatype")
            reference_sort(right, env, binder_sorts)
            return "data"
        case Arrow(dom, cod):
            reference_sort(dom, env, binder_sorts)
            reference_sort(cod, env, binder_sorts)
            return "type"
        case Union(left, right):
            sorts = {reference_sort(left, env, binder_sorts), reference_sort(right, env, binder_sorts)}
            return "data" if sorts == {"data"} else "type"
        case Rec(var, body):
            try:
                if reference_sort(body, {**env, var: "data"}, binder_sorts) == "data":
                    binder_sorts[id(t)] = "data"
                    return "data"
            except CapError:
                pass
            reference_sort(body, {**env, var: "type"}, binder_sorts)
            binder_sorts[id(t)] = "type"
            return "type"
    raise TypeError(t)


def reference_validate(t):
    binder_sorts = {}
    sort = reference_sort(t, {}, binder_sorts)
    surface._check_contractive(t, frozenset())
    return sort, binder_sorts


def random_raw_type(rng, budget):
    """Raw types over constants, a few variable names (free, bound and
    shadowed), @, ->, + and rec, with `budget` nodes at most."""
    if budget <= 1:
        return rng.choice([TypeConst(rng.choice("ABZ")), TypeVar(rng.choice("abc"))])
    pick = rng.choice(["leaf", "app", "app", "arrow", "union", "union", "rec", "rec"])
    if pick == "leaf":
        return random_raw_type(rng, 1)
    if pick == "rec":
        return Rec(rng.choice("abc"), random_raw_type(rng, budget - 1))
    split = rng.randint(1, budget - 2) if budget > 2 else 1
    left, right = random_raw_type(rng, split), random_raw_type(rng, max(1, budget - 1 - split))
    return {"app": AppT, "arrow": Arrow, "union": Union}[pick](left, right)


def binder_data_vars(t, data_vars, binder_sorts):
    """Each binder of `t` with the datatype variables in scope at it."""
    match t:
        case AppT(l, r) | Arrow(l, r) | Union(l, r):
            yield from binder_data_vars(l, data_vars, binder_sorts)
            yield from binder_data_vars(r, data_vars, binder_sorts)
        case Rec(var, body):
            yield t, data_vars
            inner = data_vars | {var} if binder_sorts[id(t)] == "data" else data_vars - {var}
            yield from binder_data_vars(body, inner, binder_sorts)


# Shadowing that random types of this size rarely reach: an inner binder of
# the other sort reusing the outer binder's name.
SHADOWING = [
    "rec a. a@(rec a. a@Z -> A)",
    "rec a. a@(rec a. a@Z + A)",
    "rec a. A -> (rec a. a@Z + a@a)",
    "rec a. A -> a@(rec a. a@Z)",
    "rec a. (rec a. a -> A)@a",
    "rec a. rec b. a@(rec a. b@a -> a)",
]


def raw_type(text):
    return surface._Parser(tokenize(text)).parse_type()


def test_sort_rule_matches_the_retry_based_reference():
    rng = random.Random(5)
    outcomes = {"accepted": 0, "sort": 0, "contractiveness": 0}
    shadowing = [raw_type(text) for text in SHADOWING]
    for _ in range(4000):
        t = shadowing.pop() if shadowing else random_raw_type(rng, rng.randint(1, 10))
        try:
            expected_sort, binder_sorts = reference_validate(t)
        except CapError as err:
            with pytest.raises(CapError) as got:
                validate_type(t)
            assert got.value.code == err.code, pretty(t)
            outcomes[err.code] += 1
            continue
        assert validate_type(t) is t
        assert is_datatype(t) == (expected_sort == "data"), pretty(t)
        for binder, data_vars in binder_data_vars(t, frozenset(), binder_sorts):
            assert is_datatype(binder, data_vars) == (binder_sorts[id(binder)] == "data"), pretty(t)
        outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_a_type_with_several_sort_errors_names_the_first_under_the_computed_sorts():
    with pytest.raises(CapError) as err:
        parse_type("rec a. a@Z + (X -> Y)@a")
    assert (err.value.code, err.value.actual) == ("sort", "X -> Y")
    assert (err.value.span.line, err.value.span.col) == (1, 1)


def rec_chain(n):
    return "".join(f"rec a{i}. " for i in range(n)) + "A -> a0"


def test_sort_validation_is_polynomial(monkeypatch):
    calls = 0
    original = mu_types.is_datatype

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    # recursive calls go through the module global, so they are counted too
    monkeypatch.setattr(mu_types, "is_datatype", counted)
    monkeypatch.setattr(surface, "is_datatype", counted)
    counts = {}
    for n in (20, 40):
        calls = 0
        parse_type(rec_chain(n))
        counts[n] = calls
    assert counts[20] >= 20
    assert counts[40] <= 4 * counts[20], counts


def test_a_long_rec_chain_parses():
    t = parse_type(rec_chain(200))
    assert isinstance(t, Rec) and pretty(t) == rec_chain(200)


@pytest.mark.parametrize(
    "text",
    [
        F_NAT,
        LIST_A,
        TREE_A,
        "True + False",
        "rec x. x -> x",
        "rec x. Nat -> x",
        "rec a. Vl@Nat + Vl2@(Nat -> Nat) + a@a + Cons + Node + Nil",
    ],
)
def test_validate_accepts(text):
    parse_type(text)


@pytest.mark.parametrize(
    "text,code",
    [
        ("rec x. x + Nil", "contractiveness"),
        ("rec x. x", "contractiveness"),
        ("(A -> B) @ C", "sort"),
        ("x @ C", "sort"),
    ],
)
def test_validate_rejects(text, code):
    with pytest.raises(CapError) as err:
        parse_type(text)
    assert err.value.code == code


def test_bullet_atom_is_reserved():
    with pytest.raises(CapError) as err:
        validate_type(TypeConst(BULLET_NAME))
    assert err.value.code == "sort"


def test_lexer_rejects_stray_characters():
    with pytest.raises(CapError):
        tokenize("Nat # Bool")


def test_pretty_examples():
    assert pretty(parse_type("True + False")) == "True + False"
    assert pretty(parse_type(F_NAT)) == F_NAT


def test_roundtrip_example_six():
    text = "([ ] True => C1 | [ ] False => C0) (([ ] True => False | [ ] False => True) True)"
    term = parse_term(text)
    assert parse_term(pretty(term)) == term


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_generated_types(seed):
    t = gen_type(GenConfig(seed=seed))
    assert parse_type(pretty(t)) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_roundtrip_generated_terms(seed):
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))
    assert parse_term(pretty(term)) == term


def test_roundtrip_corpus_bulk():
    # a fixed 1000-sample corpus of types and terms survives print-then-parse
    for seed in range(500):
        t = gen_type(GenConfig(seed=seed))
        assert parse_type(pretty(t)) == t
    for seed in range(500):
        term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
        assert parse_term(pretty(term)) == term



# Every token the lexer knows, a few names of each case, and the comment and
# line breaks it skips.
TOKENS = (
    "(", ")", "[", "]", ",", ";", ":", "=", "|", "+", "@", ".", "->", "=>",
    "assume", "def", "check", "eval", "rec",
    "A", "B", "Cons", "Nil", "Vl", "x", "y", "a",
    "--", "\n",
)
TOKEN_LISTS = st.lists(st.sampled_from(TOKENS), max_size=24).map(" ".join)


def _phrase(pattern, *parts):
    return st.tuples(*parts).map(lambda p: pattern.format(*p))


# Type- and term-shaped phrases, so that many inputs parse and reach the round trip.
TYPE_PHRASES = st.recursive(
    st.sampled_from(("A", "B", "Cons", "Nil", "Vl")),
    lambda inner: st.one_of(
        _phrase("{} {} {}", inner, st.sampled_from(("+", "@", "->")), inner),
        _phrase("( {} {} {} )", inner, st.sampled_from(("+", "@", "->")), inner),
        _phrase("rec a . {} + Cons @ a", inner),
    ),
    max_leaves=10,
)
TERM_PHRASES = st.recursive(
    st.sampled_from(("A", "Cons", "Nil", "x")),
    lambda inner: st.one_of(
        _phrase("{} {}", inner, inner),
        _phrase("( {} {} )", inner, inner),
        _phrase("( [ x : {} ] x => {} )", TYPE_PHRASES, inner),
        _phrase("[ ] Cons => {} | [ y : {} ] y => {}", inner, TYPE_PHRASES, inner),
    ),
    max_leaves=6,
)
PROGRAM_PHRASES = _phrase("def x = {} ; check x : {} ; eval x ;", TERM_PHRASES, TYPE_PHRASES)


@settings(max_examples=400, deadline=None)
@given(st.one_of(TOKEN_LISTS, TYPE_PHRASES, TERM_PHRASES, PROGRAM_PHRASES))
def test_parsers_round_trip_or_raise_parse_failure(text):
    for parse in (parse_type, parse_term):
        try:
            parsed = parse(text)
        except CapError as err:
            assert err.span is not None
            continue
        assert parse(pretty(parsed)) == parsed
    try:
        parse_program(text)
    except CapError as err:
        assert err.span is not None
