import random
import sys
import time
import timeit
from dataclasses import astuple
from functools import partial
from pathlib import Path

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
    KEYWORDS,
    PUNCT,
    parse_program,
    parse_term,
    parse_type,
    pretty,
    validate_type,
)
from cap.syntax import Abs, App, Const, Var

from conftest import (
    F_NAT,
    LIST_A,
    TREE_A,
    reference_check_contractive,
    reference_pretty_term,
    reference_pretty_type,
    reference_tokenize,
    reference_validate_type,
)


def test_union_binds_tighter_than_arrow_and_app_tightest():
    t = parse_type("Vl@Nat + Cons@a")
    assert isinstance(t, Union)
    assert len(t.parts) == 2 and all(isinstance(part, AppT) for part in t.parts)
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
    assert t.body.parts[1] == AppT(TypeVar("a"), TypeVar("a"))
    assert not is_datatype(parse_type("rec x. Nat -> x"))
    assert is_datatype(TypeVar("a"), frozenset({"a"})) and not is_datatype(TypeVar("a"))


def test_validate_type_returns_its_argument():
    t = Rec("a", Union(AppT(TypeVar("a"), TypeConst("Z")), TypeConst("Nil")))
    assert validate_type(t) is t
    assert parse_type(pretty(t)) == t


MAP_TREE = "rec a. Vl@Nat + a@a + Leaf"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_a_repeated_type_text_is_one_object_validated_once(monkeypatch):
    calls = []
    monkeypatch.setattr(surface, "validate_type", lambda t: calls.append(t) or validate_type(t))
    text = f"""assume f : Nat -> Nat;
    def g = [x : Nat] x => f x;
    check g : Nat->Nat;
    assume l : {MAP_TREE};
    assume m : {MAP_TREE};
    assume n : ({MAP_TREE});"""
    f, g, check, l, m, n = parse_program(text).decls
    # the texts are `Nat -> Nat` (its tokens, however spaced), `Nat` and the
    # tree; the tree in parentheses is read to the tree's object, validated before
    assert len(calls) == 3
    assert check.type is f.type and l.type is m.type and n.type is l.type
    assert g.term.branches[0].bindings[0][1] is f.type.dom
    # each program reads its own types
    assert parse_program(f"assume l : {MAP_TREE};").decls[0].type is not l.type


def test_equal_nested_types_are_one_object():
    t = parse_type("(A + B)@(A + B)")
    assert t.left is t.right
    # only equal types are one: order and binder names count
    for t in map(parse_type, ("(A + B)@(B + A)", "(B + A)@(A + B)")):
        assert t.left.parts == t.right.parts[::-1]
    t = parse_type("(rec a. Vl@Nat)@(rec b. Vl@Nat)")
    assert (t.left.var, t.right.var) == ("a", "b")
    # a union is keyed on the parts it holds, so `(A + B) + C` is `A + B + C`
    u = parse_type("(A + B + C) -> ((A + B) + C) -> A + (B + C)")
    assert u.dom is u.cod.dom and u.cod.cod != u.dom
    upd = parse_program((CORPUS / "upd.cap").read_text(encoding="utf-8"))
    sig, check = upd.decls[0].type, upd.decls[1]
    f, (_, x), (_, y) = sig.cod.dom, *check.term.branches[0].body.branches[1].bindings
    assert sig.cod.cod is f and x is f and y is f
    assert check.type is sig and check.term.branches[0].bindings[0][1] is sig.dom


@pytest.mark.parametrize(
    "text,code,message,span",
    [
        # a valid prefix read before does not hide the error after it
        ("assume f : B -> C;\nassume g : (B -> C)@D;", "sort", "left argument of @ must be a datatype", (2, 12)),
        ("assume f : Vl@Nat;\nassume g : Vl@Nat@;", "parse", "expected a type, found ';'", (2, 19)),
        ("assume f : A;\ncheck f : A B;", "parse", "expected ';', found 'B'", (2, 13)),
        # a type that stops early is the object of the equal type read before
        ("assume f : A -> A;\nassume g : (A -> A) B;", "parse", "expected ';', found 'B'", (2, 21)),
        # a type that fails is never kept, so it fails where it first occurs
        ("assume f : rec x. x;\nassume g : rec x. x;", "contractiveness", None, (1, 12)),
    ],
)
def test_a_malformed_repeat_of_a_type_raises_at_its_own_span(text, code, message, span):
    with pytest.raises(CapError) as err:
        parse_program(text)
    assert err.value.code == code
    assert message is None or err.value.message == message
    assert astuple(err.value.span) == span


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
        case Union(parts):
            sorts = {reference_sort(part, env, binder_sorts) for part in parts}
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
    reference_check_contractive(t, frozenset())
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
        case AppT(l, r) | Arrow(l, r):
            yield from binder_data_vars(l, data_vars, binder_sorts)
            yield from binder_data_vars(r, data_vars, binder_sorts)
        case Union(parts):
            for part in parts:
                yield from binder_data_vars(part, data_vars, binder_sorts)
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
    return surface._Parser(text).raw_type()


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
            with pytest.raises(CapError) as two_walks:
                reference_validate_type(t)
            assert got.value.code == err.code, pretty(t)
            assert (got.value.message, got.value.actual) == (two_walks.value.message, two_walks.value.actual), pretty(t)
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


def id_chain(n):
    return "eval " + "id (" * n + "x" + ")" * n + ";"


def cons_list(n):
    return "eval " + "Cons A (" * n + "Nil" + ")" * n + ";"


@pytest.mark.parametrize("deep", [id_chain, cons_list])
def test_a_deep_term_parses(deep):
    term = parse_program(deep(10**5)).decls[0].term
    depth = 0
    while isinstance(term, App):
        term, depth = term.arg, depth + 1
    assert depth == 10**5 and term in (Var("x"), Const("Nil"))


@pytest.mark.parametrize("deep", [id_chain, cons_list])
def test_parse_time_grows_about_linearly(deep):
    # the best of runs taken in turns, so a slow spell of the machine hits
    # both sizes; timeit turns the collector off while it times, so a
    # collection of the whole heap, which a run may or may not cross, is not
    # charged to it
    runs = {n: partial(parse_program, deep(n)) for n in (10_000, 40_000)}
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(7):
        for n, run in runs.items():
            best[n] = min(best[n], timeit.timeit(run, number=1))
    assert best[40_000] <= 2.5**2 * best[10_000], best  # at most 2.5 times per doubling


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The parser's tokens of `text`, ending in one "eof" token, in the
    reference's form: (kind, text, line, col)."""
    parser = surface._Parser(text)
    kinds = ("keyword" if k in KEYWORDS else "punct" if k in PUNCT else k for k in parser.kinds)
    return [(kind, t, *astuple(parser.span(i))) for i, (kind, t) in enumerate(zip(kinds, parser.texts))]


def test_lexer_rejects_stray_characters():
    with pytest.raises(CapError):
        tokenize("Nat # Bool")


def _tokens_or_error(lexer, text):
    try:
        return lexer(text)
    except CapError as err:
        return err.message, err.span


def test_lexer_agrees_with_the_character_loop():
    texts = [path.read_text(encoding="utf-8") for path in sorted(Path(__file__).parent.parent.glob("corpus/*.cap"))]
    for seed in range(2000):
        term, ty = gen_typed_term(GenConfig(seed=seed))
        texts.append(f"check {pretty(term)} : {pretty(ty)};")
    rng = random.Random(19)
    pieces = [*"aZé²½_09 \t\r\n#-=>()[],;:|+@.", "->", "=>", "--", "-- c", "-- c\n", "rec", "check", "Xy_2"]
    for _ in range(4000):
        texts.append("".join(rng.choice(pieces) for _ in range(rng.randint(0, 12))))
    outcomes = {"tokens": 0, "error": 0}
    for text in texts:
        got = _tokens_or_error(tokenize, text)
        assert got == _tokens_or_error(reference_tokenize, text), repr(text)
        outcomes["tokens" if isinstance(got, list) else "error"] += 1
    assert min(outcomes.values()) > 500


@pytest.mark.parametrize(
    "text, token",
    [
        ("check A : -- c", ("eof", "", 1, 11)),  # the eof token sits where the final comment starts
        ("check A : -- c\n", ("eof", "", 2, 1)),
        ("a\tb\r c", ("lower", "c", 1, 6)),  # a tab and a carriage return are one column each
        ("Xy_2é", ("upper", "Xy_2é", 1, 1)),
    ],
)
def test_lexer_positions(text, token):
    assert token in tokenize(text)


@pytest.mark.parametrize("text, col", [("a ²", 3), ("½", 1), ("_x", 1), ("2x", 1), ("a - b", 3), ("\xa0", 1)])
def test_lexer_rejects_what_does_not_start_a_word(text, col):
    with pytest.raises(CapError) as err:
        tokenize(text)
    assert err.value.message == f"unexpected character {text[col - 1]!r}"
    assert (err.value.span.line, err.value.span.col) == (1, col)


def test_pretty_examples():
    assert pretty(parse_type("True + False")) == "True + False"
    assert pretty(parse_type(F_NAT)) == F_NAT


def test_pretty_type_agrees_with_the_reference_on_shared_types():
    # every generated type, and as both sides of a binary constructor, which
    # puts one node object at two levels: a union's sides sit at levels 1
    # and 2, an arrow's at 1 and 0 and an application's at 2 and 3
    for seed in range(3000):
        t = gen_type(GenConfig(seed=seed))
        assert pretty(t) == reference_pretty_type(t)
        for shared in (Union(t, t), Arrow(t, t), AppT(t, t)):
            assert pretty(shared) == reference_pretty_type(shared)
    union = parse_type("A + B")
    assert pretty(Union(union, union)) == "A + B + (A + B)"


def test_pretty_type_agrees_with_the_reference_on_the_chained_def_type():
    # the type of `d_i = Cons d_(i-1) d_(i-1)`, with d_(i-1)'s type shared
    ty = TypeConst("A")
    for _ in range(14):
        ty = AppT(AppT(TypeConst("Cons"), ty), ty)
    assert pretty(ty) == reference_pretty_type(ty)


def test_pretty_agrees_with_the_reference_on_generated_terms():
    for seed in range(2000):
        term, _ = gen_typed_term(GenConfig(seed=seed))
        assert pretty(term) == reference_pretty_term(term)


def _chained_value(n: int) -> tuple[App, str]:
    """The value of `d_n` over `def d0 = A; def d_i = Cons d_(i-1) d_(i-1);`,
    holding `d_(i-1)` twice as the same object, and its text."""
    term, text = Const("A"), "A"
    for _ in range(n):
        term, text = App(App(Const("Cons"), term), term), f"Cons {text} {text}" if text == "A" else f"Cons ({text}) ({text})"
    return term, text


def test_pretty_of_a_shared_value_copies_each_shared_text():
    # walking the 2.4 MB text of d18 as a tree takes about 0.87 s
    term, text = _chained_value(18)
    start = time.perf_counter()
    got = pretty(term)
    elapsed = time.perf_counter() - start
    assert got == text and len(got) == 2_359_286
    assert elapsed < 0.2


def test_pretty_cuts_every_text_at_the_limit():
    # a shared value, a branch list over bindings and a pattern, and a
    # union, each cut at every length from 0 past its end
    term, _ = _chained_value(4)
    shown = [term, parse_term("[x: rec t. A + Cons@t@t, y: B] Pair x (Box y) => [z:C] z => Wrap x z"), parse_type(F_NAT)]
    for x in shown:
        full = pretty(x)
        for limit in range(len(full) + 2):
            assert pretty(x, limit) == (full if len(full) <= limit else full[:limit] + "...")


def test_a_deep_term_and_type_print_without_recursion():
    n = 10**5
    assert sys.getrecursionlimit() < n
    term = Const("Nil")
    for _ in range(n):
        term = App(App(Const("Cons"), Const("A")), term)
    ty = TypeConst("A")
    for _ in range(n):
        ty = AppT(TypeConst("Cons"), ty)
    text = "Cons A (" * (n - 1) + "Cons A Nil" + ")" * (n - 1)
    assert pretty(term) == text
    assert pretty(ty) == "Cons@(" * (n - 1) + "Cons@A" + ")" * (n - 1)
    assert pretty(term, 20) == "Cons A (Cons A (Cons..."
    # the list twice: its second place copies the text of its first, which
    # is not built again node by node
    assert pretty(App(App(Const("Pair"), term), term)) == f"Pair ({text}) ({text})"


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
