import pytest
from hypothesis import given, settings, strategies as st

from cap.diagnostics import CapError
from cap.generators import GenConfig, gen_type, gen_typed_term
from cap.mu_types import (
    SORT_DATA,
    AppT,
    Arrow,
    BULLET_NAME,
    DataVar,
    Rec,
    TypeConst,
    Union,
)
from cap.surface import (
    ParseFailure,
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
    with pytest.raises(ParseFailure) as err:
        parse_program("eval ;")
    assert err.value.span.line == 1
    assert err.value.span.col == 6


def test_rec_binders_get_sorts():
    t = parse_type("rec a. Vl@Nat + a@a + Nil")
    assert isinstance(t, Rec)
    assert t.sort == SORT_DATA
    assert t.body.left.right == AppT(DataVar("a"), DataVar("a"))


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
    with pytest.raises(ParseFailure) as err:
        parse_type(text)
    assert err.value.code == code


def test_bullet_atom_is_reserved():
    with pytest.raises(CapError) as err:
        validate_type(TypeConst(BULLET_NAME))
    assert err.value.code == "sort"


def test_lexer_rejects_stray_characters():
    with pytest.raises(ParseFailure):
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
