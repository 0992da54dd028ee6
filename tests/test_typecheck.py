import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cap import mu_types, relations, typecheck
from cap.diagnostics import CapError
from cap.generators import GenConfig, gen_type, gen_typed_term, mutate_type
from cap.mu_types import AppT, Arrow, TypeConst, Union, is_datatype, same_structure, union_components
from cap.program import SessionState, process_decl
from cap.reduction import StuckMatch, evaluate, small_step
from cap.relations import is_equivalent, is_subtype
from cap.surface import parse_program, parse_term, parse_type, pretty
from cap.syntax import (
    Abs,
    App,
    Branch,
    Const,
    Matchable,
    PatternCompound,
    PatternConst,
    Var,
    is_data_structure,
)
from cap.typecheck import check_type, infer_type, type_pattern

from conftest import F_NAT, counting, reference_check_type, reference_infer_type, reference_pretty_type


def test_type_pattern_examples():
    assert type_pattern({"z": parse_type("Nat")}, PatternCompound(PatternConst("Vl"), Matchable("z"))) == parse_type("Vl@Nat")
    fa = parse_type(F_NAT)
    assert type_pattern({"x": fa, "y": fa}, PatternCompound(Matchable("x"), Matchable("y"))) == AppT(fa, fa)
    with pytest.raises(CapError):
        type_pattern({}, Matchable("x"))
    with pytest.raises(CapError) as err:
        type_pattern({"x": parse_type("Nat -> Nat")}, PatternCompound(Matchable("x"), Matchable("y")))
    assert err.value.code == "sort"


def test_infer_basics():
    assert infer_type({}, Const("Nil")) == TypeConst("Nil")
    assert infer_type({"x": parse_type("Nat")}, Var("x")) == parse_type("Nat")
    with pytest.raises(CapError):
        infer_type({}, Var("missing"))


def test_infer_data_application():
    t = parse_term("Cons Nil")
    assert infer_type({}, t) == parse_type("Cons@Nil")
    # a recursive datatype in function position still forms a compound
    env = {"x": parse_type(F_NAT), "y": parse_type(F_NAT)}
    ty = infer_type(env, parse_term("x y"))
    assert ty == AppT(parse_type(F_NAT), parse_type(F_NAT))


def test_infer_upd_inner_abstraction():
    fa = F_NAT
    env = {
        "upd": parse_type(f"(Nat -> Nat) -> (({fa}) -> ({fa}))"),
        "f": parse_type("Nat -> Nat"),
    }
    inner = parse_term(
        f"[z:Nat] Vl z => Vl (f z)"
        f" | [x:{fa}, y:{fa}] x y => (upd f x) (upd f y)"
        f" | [w:Cons + Node + Nil] w => w"
    )
    inferred = infer_type(env, inner)
    assert is_equivalent(inferred, parse_type(f"({fa}) -> ({fa})"))


def test_infer_rejects_bad_payload():
    term = parse_term("([x:rec n. Zero + Succ@n] Vl x => x) (Vl True)")
    with pytest.raises(CapError) as err:
        infer_type({}, term)
    assert err.value.code == "type"


def test_infer_rejects_unhandled_constant():
    term = parse_term("([ ] Nil => C0) Cons")
    with pytest.raises(CapError):
        infer_type({}, term)


def test_infer_accepts_union_typed_argument():
    # the argument's union type need not fit a single maximal component
    term = parse_term("([ ] True => C1 | [ ] False => C0) (([ ] True => False | [ ] False => True) True)")
    assert is_equivalent(infer_type({}, term), parse_type("C1 + C0"))


def test_an_application_asks_one_subtype_query(monkeypatch):
    calls = []

    def counting(sub, sup):
        calls.append((sub, sup))
        return is_subtype(sub, sup)

    monkeypatch.setattr(typecheck, "is_subtype", counting)
    env = {"f": parse_type("A + B -> C"), "x": parse_type("B")}
    assert infer_type(env, parse_term("f x")) == parse_type("C")
    assert calls == [(parse_type("B"), parse_type("A + B"))]


def test_infer_rejects_union_of_arrows():
    env = {"f": parse_type("(Nat -> Nat) + (True -> False)")}
    with pytest.raises(CapError) as err:
        infer_type(env, parse_term("f Nat"))
    assert "neither a datatype nor a single arrow" in err.value.message


def test_branch_annotations_must_cover_matchables():
    with pytest.raises(CapError) as err:
        infer_type({}, parse_term("[ ] Vl x => x"))
    assert "annotations" in err.value.message
    with pytest.raises(CapError):
        infer_type({}, parse_term("[x:Nat, extra:Nat] Vl x => x"))


def test_a_matchable_annotated_twice_is_rejected():
    # built without the parser: the typer itself rejects it
    x = Matchable("x")
    twice = Abs((Branch(x, (("x", parse_type("A")), ("x", parse_type("B"))), Var("x")),))
    with pytest.raises(CapError) as err:
        infer_type({}, twice)
    assert err.value.code == "type"
    assert err.value.message == "branch 1: matchable 'x' is annotated twice"
    with pytest.raises(CapError) as err:
        infer_type({}, parse_term("[ ] A => A | [y:Nat, x:A, y:Nat] Vl x y => x"))
    assert err.value.message == "branch 2: matchable 'y' is annotated twice"


def test_body_join_uses_union_when_needed():
    term = parse_term("[ ] True => Nil | [ ] False => Cons")
    ty = infer_type({}, term)
    assert is_equivalent(ty, parse_type("True + False -> Nil + Cons"))
    same = parse_term("[ ] True => Nil | [ ] False => Nil")
    assert infer_type({}, same) == parse_type("True + False -> Nil")


def test_body_join_collapses_equivalent_types():
    term = parse_term(
        "[ ] True => ([x:Nil + Cons] x => x) | [ ] False => ([y:Cons + Nil] y => y)"
    )
    ty = infer_type({}, term)
    # bodies are equivalent but not identical; the first one is the join
    assert ty == parse_type("True + False -> ((Nil + Cons) -> Nil + Cons)")


def test_check_type_examples():
    check_type({}, Const("True"), parse_type("True + False"))
    with pytest.raises(CapError) as err:
        check_type({}, Const("True"), parse_type("False"))
    assert err.value.expected == "False"
    with pytest.raises(CapError) as err:
        check_type(
            {},
            parse_term("[x:True + False] Vl x => x | [y:rec n. Zero + Succ@n] Vl y => y"),
            parse_type("Vl@(True + False) -> True + False"),
        )
    assert err.value.code == "compatibility"


def test_a_chained_def_is_checked_by_one_query_that_makes_no_canonical_step(monkeypatch):
    # d8's type is a DAG whose tree has 2**9 - 1 nodes; the one subtype
    # question on it is answered by the clauses of `relations`, on the DAG
    state, _ = _resolved_chain(8)
    asked = []

    def asking(sub, sup):
        asked.append(sub)
        return is_subtype(sub, sup)

    monkeypatch.setattr(typecheck, "is_subtype", asking)
    with counting(mu_types, "_canonical", 0):
        assert process_decl(state, parse_program("check d8 : rec t. A + Cons@t@t;").decls[0]).ok
    assert len(asked) == 1 and same_structure(asked[0], state.env["d8"])


def test_a_constructed_term_reports_its_first_inference_error():
    # the first argument misses its component, which must not hide the
    # ill-typed redex in the second
    term = parse_term("Cons B (([x:A] x => x) C)")
    with pytest.raises(CapError) as err:
        check_type({}, term, parse_type("Cons@A@A + Nil"))
    assert err.value.message == "argument type fits no part of the function domain"
    assert (err.value.expected, err.value.actual) == ("A", "C")
    # with no inference error, a miss reports the whole inferred type
    with pytest.raises(CapError) as err:
        check_type({}, parse_term("Cons B (Vl C)"), parse_type("Cons@A@(Vl@C) + Nil"))
    assert err.value.message == "term does not have the expected type"
    assert err.value.actual == "Cons@B@(Vl@C)"


def _check_outcome(check, env, t, expected):
    try:
        check(env, t, expected)
    except CapError as err:
        return err.code, err.message, err.expected, err.actual
    return None


def _assert_same_checks(queries) -> list:
    """Compare `check_type` with the reference on each (env, term, type) query;
    returns the reference outcomes."""
    outcomes = []
    for env, t, expected in queries:
        want = _check_outcome(reference_check_type, env, t, expected)
        assert _check_outcome(check_type, env, t, expected) == want, (pretty(t), pretty(expected))
        outcomes.append(want)
    return outcomes


def _against_related_types(rng, seed, ty):
    """A type, two mutations of it and an unrelated type."""
    return [ty, mutate_type(rng, ty), mutate_type(rng, ty), gen_type(GenConfig(seed=seed + 1))]


def test_check_type_agrees_with_the_reference_on_terms_and_reducts():
    queries = []
    for seed in range(260):
        term, ty = gen_typed_term(GenConfig(seed=seed))
        terms = [term]
        try:
            while len(terms) < 6 and (stepped := small_step(terms[-1])) is not None:
                terms.append(stepped[0])
        except StuckMatch:
            pass
        types = _against_related_types(random.Random(seed), seed, ty)
        queries += [({}, t, expected) for t in terms for expected in types]
    outcomes = _assert_same_checks(queries)
    assert len(queries) > 1900
    assert 0 < outcomes.count(None) < len(outcomes)


def _open_subterms(env, t):
    """The subterms of `t` that sit under an abstraction, each with the typing
    environment it sees, and each redex of `t` with its abstraction named by
    a variable `h` of the abstraction's type."""
    match t:
        case App(Abs() as fun, arg):
            yield {**env, "h": infer_type(env, fun)}, App(Var("h"), arg)
    if env:
        yield env, t
    match t:
        case App(fun, arg):
            yield from _open_subterms(env, fun)
            yield from _open_subterms(env, arg)
        case Abs(branches):
            for branch in branches:
                yield from _open_subterms({**env, **branch.binding_map()}, branch.body)


def test_check_type_agrees_with_the_reference_on_open_subterms():
    # spines headed by a variable occur here: a matchable of datatype type,
    # or `h`, whose type is an arrow
    queries = []
    for seed in range(120):
        term, _ = gen_typed_term(GenConfig(seed=seed))
        rng = random.Random(seed)
        for env, sub in _open_subterms({}, term):
            types = _against_related_types(rng, seed, infer_type(env, sub))
            queries += [(env, sub, expected) for expected in types]
    outcomes = _assert_same_checks(queries)
    heads = {(t.fun.name, is_datatype(env[t.fun.name])) for env, t, _ in queries if isinstance(t, App) and isinstance(t.fun, Var)}
    assert ("h", False) in heads and any(datatype for _, datatype in heads)
    assert 0 < outcomes.count(None) < len(outcomes)


def test_check_type_agrees_with_the_reference_on_ill_typed_spines():
    # `h (f a) (g b)` over generated terms, headed by a constant or by a
    # variable of a generated type (a datatype or not): the spine or either
    # argument may fail to type, so verdicts and the first error must match
    pool = [gen_typed_term(GenConfig(seed=seed, max_term_nodes=8)) for seed in range(24)]
    rng = random.Random(0)
    queries = []
    for _ in range(150):
        (f, f_ty), (a, a_ty), (g, g_ty), (b, b_ty) = rng.sample(pool, 4)
        env = {"h": rng.choice(pool)[1]}
        head = rng.choice((Const("Cons"), Var("h")))
        term = App(App(head, App(f, a)), App(g, b))
        component = AppT(AppT(TypeConst("Cons"), f_ty), rng.choice((a_ty, g_ty, b_ty)))
        types = [component, mutate_type(rng, component)]
        try:
            types.append(infer_type(env, term))
        except CapError:
            pass
        queries += [(env, term, expected) for expected in types]
    outcomes = _assert_same_checks(queries)
    messages = {outcome[1] for outcome in outcomes if outcome is not None}
    assert "argument type fits no part of the function domain" in messages
    assert "function position is neither a datatype nor a single arrow" in messages
    assert "term does not have the expected type" in messages
    assert None in outcomes


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reduct_keeps_checking_at_inferred_type(seed):
    term, ty = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))
    check_type({}, term, ty)
    stepped = small_step(term)
    if stepped is not None:
        check_type({}, stepped[0], ty)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_app_inference_matches_shape_cases(seed):
    # every inferred application sits in the datatype or single-arrow case
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))

    def walk(t, env):
        if isinstance(t, App):
            fun_ty = infer_type(env, t.fun)
            comps = union_components(fun_ty)
            assert is_datatype(fun_ty) or (len(comps) == 1 and isinstance(comps[0], Arrow))
            walk(t.fun, env)
            walk(t.arg, env)
        elif isinstance(t, Abs):
            for b in t.branches:
                walk(b.body, {**env, **b.binding_map()})

    walk(term, {})


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_data_structures_admit_non_union_datatype(seed):
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))
    result = evaluate(term, fuel=500)
    if result.status != "normal" or not is_data_structure(result.term):
        return
    ty = infer_type({}, result.term)
    comps = union_components(ty)
    assert any(is_datatype(c) and is_subtype(c, ty) for c in comps)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_substitution_preserves_types(seed):
    # beta-firing substitutions keep the body typed at a subtype
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=12))
    current = term
    for _ in range(40):
        if not isinstance(current, App) or not isinstance(current.fun, Abs):
            stepped = small_step(current)
            if stepped is None:
                return
            current = stepped[0]
            continue
        from cap.reduction import StuckMatch, beta

        if not (current.fun.value and current.arg.value):
            stepped = small_step(current)
            if stepped is None:
                return
            current = stepped[0]
            continue
        try:
            index, substituted = beta(current.fun, current.arg)
        except StuckMatch:
            return
        branch = current.fun.branches[index]
        body_env = {**branch.binding_map()}
        body_ty = infer_type(body_env, branch.body)
        assert is_subtype(infer_type({}, substituted), body_ty)
        return


# -- shared subterms: each walk memoizes on node identity ------------------------


def _infer_outcome(infer, env, t):
    try:
        return infer(env, t)
    except CapError as err:
        return err.code, err.message, err.expected, err.actual


def _assert_same_inference(env, t):
    """`infer_type` and the tree-walking reference give equal types, printed
    alike, or the same first error."""
    got, want = _infer_outcome(infer_type, env, t), _infer_outcome(reference_infer_type, env, t)
    assert got == want, pretty(t)
    if not isinstance(want, tuple):
        assert pretty(got) == reference_pretty_type(want)


def _chain(n: int) -> str:
    return "\n".join(["def d0 = A;"] + [f"def d{i} = Cons d{i - 1} d{i - 1};" for i in range(1, n + 1)])


def _resolved_chain(n: int) -> tuple[SessionState, list]:
    """A session holding `d0 … dn`, and the resolved terms `d0 … dn`, each
    holding the one before it twice as the same object."""
    state = SessionState()
    for decl in parse_program(_chain(n)).decls:
        assert process_decl(state, decl).ok
    return state, [state.resolve(Var(f"d{i}")) for i in range(n + 1)]


def test_typing_agrees_with_the_reference_on_chained_defs():
    state, terms = _resolved_chain(10)
    assert terms[10].fun.arg is terms[10].arg is terms[9]
    types = [parse_type(text) for text in ("rec t. A + Cons@t@t", "rec t. B + Cons@t@t", "Cons@A@A + A", "rec t. A + Cons@t@A")]
    for t in terms:
        _assert_same_inference(state.env, t)
        _assert_same_checks([(state.env, t, expected) for expected in types])


def _subterms(t):
    yield t
    match t:
        case App(fun, arg):
            yield from _subterms(fun)
            yield from _subterms(arg)
        case Abs(branches):
            for branch in branches:
                yield from _subterms(branch.body)


def test_typing_agrees_with_the_reference_on_a_subterm_used_twice():
    # one subterm object at two positions: beside the term it comes from, or
    # as both sides of an application; a subterm from under an abstraction
    # meets an environment where its matchables are unbound
    pool = [gen_typed_term(GenConfig(seed=seed, max_term_nodes=10)) for seed in range(60)]
    rng = random.Random(3)
    queries = []
    for term, ty in pool:
        for sub in _subterms(term):
            for shared in (App(App(Const("Cons"), term), sub), App(App(Const("Cons"), sub), sub), App(sub, sub)):
                _assert_same_inference({}, shared)
                queries += [({}, shared, AppT(AppT(TypeConst("Cons"), ty), rng.choice((ty, mutate_type(rng, ty))))), ({}, shared, ty)]
    outcomes = _assert_same_checks(queries)
    messages = {outcome[1] for outcome in outcomes if outcome is not None}
    assert None in outcomes and "term does not have the expected type" in messages
    assert any(message.startswith("unbound variable") for message in messages)


def test_one_variable_object_typed_under_two_environments():
    # `x` is the same object inside the branch body, where it is the bound
    # matchable of type A, and outside it, where it is assumed of type B; a
    # memo keyed on the node alone would give both occurrences one type
    x = Var("x")
    ident = Abs((Branch(Matchable("x"), (("x", parse_type("A")),), x),))
    env = {"x": parse_type("B")}
    inner_first = App(App(Const("Cons"), App(ident, Const("A"))), x)
    outer_first = App(App(Const("Cons"), x), App(ident, Const("A")))
    assert infer_type(env, inner_first) == parse_type("Cons@A@B")
    assert infer_type(env, outer_first) == parse_type("Cons@B@A")
    types = [parse_type(text) for text in ("Cons@A@B", "Cons@B@A", "Cons@A@A", "Cons@B@B")]
    for t in (inner_first, outer_first):
        _assert_same_inference(env, t)
        outcomes = _assert_same_checks([(env, t, expected) for expected in types])
        assert outcomes.count(None) == 1


def test_chained_defs_type_and_check_in_linear_time():
    # `d_i` is a DAG of 2i applications whose tree has 2**(i+1) - 2; a count
    # past its bound fails at once, so an exponential walk does not hang
    n = 48
    decls = parse_program(_chain(n) + f"\ncheck d{n} : rec t. A + Cons@t@t;").decls
    state = SessionState()
    for i, decl in enumerate(decls):
        # a definition relates no type; the check infers `d_n` once and
        # relates its type by the clauses, which split the `rec` on the right
        # once for each of the n + 1 levels of the DAG of `d_n`'s type
        visits, splits = (2 * i, 0) if i <= n else (2 * n, n + 1)
        with counting(typecheck, "_infer_app", visits), counting(relations, "split", splits):
            assert process_decl(state, decl).ok


def test_an_argument_checks_against_the_domain_in_linear_time():
    # the type of `d_n` is related to the domain by the clauses, on the DAG;
    # the search would walk its tree of 2**(n+1) - 1 nodes in `canonical`
    n = 48
    text = f"def id = [x: rec t. A + Cons@t@t] x => x;\n{_chain(n)}\ncheck id d{n} : rec t. A + Cons@t@t;"
    state = SessionState()
    with counting(mu_types, "_canonical", 0):
        assert all(process_decl(state, decl).ok for decl in parse_program(text).decls)


def test_merging_equivalent_chained_def_codomains_is_linear():
    # `d_n` and `e_n` have equivalent types that are not equal as structures:
    # the codomain merge asks `is_equivalent` on two DAGs, whose trees the
    # search would walk in `canonical`
    n = 48
    chains = "\n".join(f"def {x}{i} = Cons {x}{i - 1} {x}{i - 1};" for i in range(1, n + 1) for x in "de")
    state = SessionState()
    setup = f"assume a : A + B; assume b : B + A; def d0 = a; def e0 = b;\n{chains}"
    assert all(process_decl(state, decl).ok for decl in parse_program(setup).decls)
    merges = (
        f"def f = [ ] C => d{n} | [ ] D => e{n};"
        f"def g = [ ] C => d{n} | [ ] D => Cons d{n} e{n};"
        "check f C : rec t. A + B + Cons@t@t;"
        # an arrow left side is related by the clauses too, its DAG codomain included
        "check f : C + D -> rec t. A + B + Cons@t@t;"
    )
    with counting(mu_types, "_canonical", 0):
        assert all(process_decl(state, decl).ok for decl in parse_program(merges).decls)
    assert isinstance(state.env["f"].cod, AppT) and isinstance(state.env["g"].cod, Union)


def test_an_arrow_is_checked_against_an_arrow_by_the_clauses():
    # the domains are related contravariantly and the codomains covariantly, each by the clauses
    decl = parse_program("check ([x:A + B] x => x | [y:A] y => y) : A + B -> A + B;").decls[0]
    with counting(mu_types, "_canonical", 0):
        assert process_decl(SessionState(), decl).ok


def test_a_rejected_chained_def_prints_its_type_up_to_the_bound():
    n = 12
    state, _ = _resolved_chain(n)
    actual = "A"
    for _ in range(n):
        actual = f"Cons@{actual}@{actual}" if actual == "A" else f"Cons@({actual})@({actual})"
    result = process_decl(state, parse_program(f"check d{n} : rec t. B + Cons@t@t;").decls[0])
    diag = result.diagnostic
    assert (diag.code, diag.message, diag.expected) == ("type", "term does not have the expected type", "rec t. B + Cons@t@t")
    assert actual == reference_pretty_type(reference_infer_type(state.env, state.resolve(Var(f"d{n}"))))
    assert len(actual) == 36_854 and diag.actual == actual[: typecheck.SHOWN] + "..."


def test_a_deep_rejected_chained_def_is_shown_without_writing_its_whole_type():
    # the text of `d_n`'s type doubles per level: 61 430 characters at n = 12,
    # 15.7 MB at n = 20 and past any memory at n = 40. n = 20 comes first, so
    # a printer that wrote the whole text and cut it after fails there on the
    # memory it held instead of exhausting it at n = 40
    for n in (20, 40):
        chains = "\n".join(f"def d{i} = Cons d{i - 1} d{i - 1};" for i in range(1, n + 1))
        text = f"assume a : A + B; def d0 = a;\n{chains}\ncheck d{n} : rec t. A + Cons@t@t;"
        state = SessionState()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            *defined, checked = (process_decl(state, decl) for decl in parse_program(text).decls)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000 and elapsed < 1.0
        assert all(r.ok for r in defined) and checked.diagnostic.code == "type"
        actual = checked.diagnostic.actual
        assert len(actual) == typecheck.SHOWN + 3 and actual.startswith("Cons@(Cons@(") and actual.endswith("...")


def test_checking_a_left_nested_term_against_two_components_is_linear():
    # both `Cons` components fit the left argument; the second one must not
    # relate it again, which would cost 2**n
    n = 12
    term = Const("Nil")
    for _ in range(n):
        term = App(App(Const("Cons"), term), Const("B"))
    with counting(relations, "split", 8 * n):
        check_type({}, term, parse_type("rec t. Nil + Cons@t@A + Cons@t@B"))


def _deep_list(depth: int):
    term = Const("Nil")
    for _ in range(depth):
        term = App(App(Const("Cons"), Const("A")), term)
    return term


def test_a_deep_right_nested_list_types():
    # the memo adds no frame per level of the term
    depth = 450
    ty = infer_type({}, _deep_list(depth))
    for _ in range(depth):
        assert ty.left == parse_type("Cons@A")
        ty = ty.right
    assert ty == TypeConst("Nil")


def test_a_deep_right_nested_list_checks():
    # inference, and then the clauses of `relations`, take two frames per level
    term = _deep_list(450)
    check_type({}, term, parse_type("rec t. Nil + Cons@A@t"))
    with pytest.raises(CapError) as err:
        check_type({}, term, parse_type("rec t. Nil + Cons@B@t"))
    assert err.value.actual.count("Cons@A@") == 450


def test_a_chained_def_has_a_bounded_repr():
    # a failing assertion reprs its operands; a repr that walked the DAG as
    # a tree of 2**17 - 1 nodes held megabytes
    state, terms = _resolved_chain(16)
    assert len(repr(state.env["d16"])) < 1000 and len(repr(terms[16])) < 1000
