import collections
import random

import pytest
from hypothesis import given, settings, strategies as st

from cap import mu_types, relations
from cap.generators import CONSTS, GenConfig, gen_type, gen_typed_term, mutate_type
from cap.mu_types import (
    BULLET,
    AppT,
    Arrow,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    head_unfold,
    truncate,
    union_components,
    union_of,
)
from cap.relations import (
    MODE_EQ,
    MODE_SUB,
    PairOracle,
    finite_tree_rel,
    is_equivalent,
    is_subtype,
    oracle_compare,
)
from cap.program import SessionState, process_decl
from cap.reduction import StuckMatch, small_step
from cap.surface import parse_program, parse_type, pretty
from cap.typecheck import infer_type

from conftest import F_NAT, counting, reference_is_equivalent, reference_is_subtype, unfolding_substitutions


def test_subtype_examples():
    assert not is_subtype(parse_type("Vl@Nat"), parse_type("Vl@Bool"))
    assert is_subtype(parse_type("True"), parse_type("True + False"))
    assert is_subtype(parse_type("rec a. Cons@a"), parse_type("rec b. Cons@b + Nil"))


def test_two_different_flat_unions_are_related_without_recursion():
    # union_components walks the parts on a stack; it used to recurse once per component
    consts = [TypeConst(f"C{i}") for i in range(1200)]
    left, right = union_of(consts), union_of([*consts, TypeConst("D")])
    assert is_subtype(left, right) and not is_subtype(right, left)
    assert not is_equivalent(left, right)
    assert union_components(right) == [*consts, TypeConst("D")]


def test_two_different_wide_unions_under_a_rec_are_related():
    # 1100 parts are past the recursion limit for a walk that recursed once
    # per part, as `canonical` and the unfolding of the `rec` did
    consts = " + ".join(f"C{i}" for i in range(1100))
    a, b = parse_type(f"rec t. {consts} + Cons@t"), parse_type(f"rec t. {consts} + D + Cons@t")
    assert is_subtype(a, b) and not is_equivalent(a, b)


def test_equivalence_examples():
    assert is_equivalent(parse_type("rec x. Nat -> Nat -> x"), parse_type("rec x. Nat -> x"))
    assert is_equivalent(parse_type("True + False"), parse_type("False + True"))
    assert not is_equivalent(parse_type("Vl@Nat"), parse_type("Vl@Bool"))


def test_arrow_variance():
    narrow, wide = parse_type("True"), parse_type("True + False")
    assert is_subtype(Arrow(wide, narrow), Arrow(narrow, wide))
    assert not is_subtype(Arrow(narrow, narrow), Arrow(wide, narrow))


def test_finite_tree_rel_examples():
    assert finite_tree_rel(BULLET, BULLET, MODE_SUB)
    arrow = Arrow(TypeConst("A"), TypeConst("B"))
    assert finite_tree_rel(arrow, arrow, MODE_EQ)
    assert finite_tree_rel(TypeConst("True"), Union(TypeConst("True"), TypeConst("False")), MODE_SUB)
    assert not finite_tree_rel(BULLET, TypeConst("A"), MODE_SUB)



@pytest.mark.parametrize(
    "left, right",
    [
        (TypeConst("A"), TypeConst("A")),
        (TypeVar("x"), TypeVar("x")),
        (TypeConst("A"), TypeConst("B")),
        (TypeVar("x"), TypeVar("y")),
        (TypeVar("A"), TypeConst("A")),  # one name, but a rigid variable is no constant
    ],
    ids=["const", "var", "const-const", "var-var", "var-const"],
)
def test_atoms_are_related_only_to_themselves(left, right):
    related = left == right
    for mode, engine in ((MODE_SUB, is_subtype), (MODE_EQ, is_equivalent)):
        for a, b in ((left, right), (right, left)):
            assert engine(a, b) is related
            report = oracle_compare(a, b, 2, mode)
            assert report.engine is related and report.agree
            assert report.per_depth == [True, related, related]


def test_oracle_examples():
    report = oracle_compare(parse_type("Vl@Nat"), parse_type("Vl@Bool"), 4, MODE_SUB)
    assert report.engine is False
    assert report.agree
    assert report.refuting_depth == 2  # atoms differ two constructors down
    assert report.per_depth == [True, True, False, False, False]

    same = parse_type(F_NAT)
    report = oracle_compare(same, same, 4, MODE_EQ)
    assert report.engine and report.agree and all(report.per_depth)

    report = oracle_compare(parse_type("True"), parse_type("True + False"), 2, MODE_SUB)
    assert report.engine and report.agree and all(report.per_depth)


def test_oracle_confirms_recursive_subtyping():
    report = oracle_compare(parse_type("rec a. Cons@a"), parse_type("rec b. Cons@b + Nil"), 8, MODE_SUB)
    assert report.engine and report.agree and all(report.per_depth)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_reflexivity(seed):
    # the entry points answer an equal copy by structure, so the engine is
    # asked directly as well
    t = gen_type(GenConfig(seed=seed))
    copy = parse_type(pretty(t))
    assert copy == t and copy is not t
    assert is_subtype(t, copy) and is_subtype(copy, t)
    assert is_equivalent(t, copy)
    assert is_subtype(t, t) and is_equivalent(t, t)
    for mode in (MODE_SUB, MODE_EQ):
        assert relations._Engine(mode).rel(t, copy) and relations._Engine(mode).rel(copy, t)


def test_a_type_against_itself_builds_no_engine(monkeypatch):
    monkeypatch.setattr(relations, "_Engine", None)
    t = parse_type(F_NAT)
    assert is_subtype(t, t) and is_equivalent(t, t)


def test_a_type_against_an_equal_copy_builds_no_engine(monkeypatch):
    monkeypatch.setattr(relations, "_Engine", None)
    for seed in range(200):
        t = gen_type(GenConfig(seed=seed))
        copy = parse_type(pretty(t))
        assert is_subtype(t, copy) and is_subtype(copy, t) and is_equivalent(t, copy)


# the map's type of the programs benchmark's widest `upd` program
UPD_W9 = "rec a. Vl@Nat + a@a + Cons + Node + Nil + Leaf + Pair + Tip + Bin + Fork + Unit"


def test_constants_are_looked_up_in_a_union_without_canonical(monkeypatch):
    calls = []
    original = relations.canonical
    monkeypatch.setattr(relations, "canonical", lambda t: calls.append(t) or original(t))
    leaves = parse_type("Unit + Fork + Bin + Tip + Pair + Leaf + Nil + Node + Cons")
    target = parse_type(UPD_W9)
    assert is_subtype(leaves, target)
    assert not is_subtype(parse_type(f"{pretty(leaves)} + Stray"), target)
    assert calls == []
    # a compound component is still tried against each candidate
    assert not is_subtype(target, leaves) and not is_equivalent(leaves, target)
    assert calls


def test_a_rigid_variable_is_looked_up_like_a_constant():
    assert is_subtype(parse_type("x + A"), parse_type("A + B + x"))
    assert not is_subtype(parse_type("x + A"), parse_type("A + B + X"))
    assert not is_subtype(parse_type("X + A"), parse_type("A + B + x"))
    assert is_equivalent(parse_type("x + A + x"), parse_type("A + x"))
    assert not is_equivalent(parse_type("x + A"), parse_type("A + x + y"))


def _engine_pairs(seeds):
    """Generated pairs: a type against a mutation, a fresh type, or an equal copy."""
    for seed in seeds:
        rng = random.Random(seed)
        a = gen_type(GenConfig(seed=seed))
        b = (mutate_type(rng, a), gen_type(GenConfig(seed=seed + 100_000)), parse_type(pretty(a)))[seed % 3]
        yield a, b
        yield b, a


def test_the_engine_agrees_with_the_reference_engine():
    pairs = list(_engine_pairs(range(800)))
    assert len(pairs) >= 1500
    for a, b in pairs:
        assert is_subtype(a, b) is reference_is_subtype(a, b), (pretty(a), pretty(b))
        assert is_equivalent(a, b) is reference_is_equivalent(a, b), (pretty(a), pretty(b))


def _assert_agrees_both_ways(a, b):
    for x, y in ((a, b), (b, a)):
        assert is_subtype(x, y) is reference_is_subtype(x, y), (pretty(x), pretty(y))
        assert is_equivalent(x, y) is reference_is_equivalent(x, y), (pretty(x), pretty(y))


def test_the_clauses_agree_with_the_reference_on_typing_queries():
    # the inferred types of generated terms and of up to five reducts each,
    # against the term's type, two mutations of it and an unrelated type
    queries = 0
    for seed in range(600):
        term, ty = gen_typed_term(GenConfig(seed=seed))
        terms = [term]
        try:
            while len(terms) < 6 and (stepped := small_step(terms[-1])) is not None:
                terms.append(stepped[0])
        except StuckMatch:
            pass
        rng = random.Random(seed)
        types = [ty, mutate_type(rng, ty), mutate_type(rng, ty), gen_type(GenConfig(seed=seed + 1))]
        for t in terms:
            actual = infer_type({}, t)
            for expected in types:
                _assert_agrees_both_ways(actual, expected)
                queries += 1
    assert queries > 4800


def test_the_clauses_agree_with_the_reference_on_chained_def_types():
    # DAG types: `d_i` over `A + B` and `e_i` over `B + A` are equivalent but
    # not equal as structures, and `c_i` over `A` is a subtype of both
    n = 10
    chains = "\n".join(f"def {x}{i} = Cons {x}{i - 1} {x}{i - 1};" for i in range(1, n + 1) for x in "dec")
    state = SessionState()
    text = f"assume a : A + B; assume b : B + A; def d0 = a; def e0 = b; def c0 = A;\n{chains}"
    assert all(process_decl(state, decl).ok for decl in parse_program(text).decls)
    targets = [parse_type(t) for t in ("rec t. A + B + Cons@t@t", "rec t. A + Cons@t@t", "rec t. B + Cons@t@t + Cons@t@A")]
    for i in range(n + 1):
        d, e, c = (state.env[f"{x}{i}"] for x in "dec")
        # the reference walks each DAG as a tree, so past i = 7 only `d_i` against `e_i`
        pairs = [(d, e)] if i > 7 else [(d, e), (d, c), (c, e), *((x, t) for x in (d, e, c) for t in targets)]
        if 0 < i <= 7:
            pairs.append((d, AppT(AppT(TypeConst("Cons"), state.env[f"d{i - 1}"]), state.env[f"e{i - 1}"])))
        for a, b in pairs:
            _assert_agrees_both_ways(a, b)


def test_the_clauses_agree_with_the_reference_on_arrow_left_sides():
    # arrow-headed generated types against their mutations and unrelated arrows, both ways
    arrows = [t for t in map(gen_type, map(GenConfig, range(4000))) if isinstance(t, Arrow)]
    pairs = []
    for i, a in enumerate(arrows):
        rng = random.Random(i)
        pairs += [(a, mutate_type(rng, a)), (a, mutate_type(rng, a)), (a, arrows[(i * 7 + 1) % len(arrows)])]
    assert sum(isinstance(x, Arrow) for a, b in pairs for x in (a, b)) >= 1500
    for a, b in pairs:
        _assert_agrees_both_ways(a, b)
    stream, unfolded = parse_type("rec t. A -> t"), parse_type("A -> rec t. A -> t")
    assert is_equivalent(stream, unfolded) and is_subtype(unfolded, stream)
    wide, narrow = parse_type("A + B -> C"), parse_type("A -> C")
    assert is_subtype(wide, narrow) and not is_subtype(narrow, wide) and not is_equivalent(wide, narrow)
    rigid = parse_type("x -> x")
    assert is_subtype(rigid, parse_type("x -> x + A")) and not is_subtype(rigid, parse_type("x + A -> x"))
    assert not is_subtype(rigid, parse_type("X -> X"))
    hand = [(stream, unfolded), (wide, narrow), (rigid, parse_type("x -> x + A")), (rigid, parse_type("x + A -> x"))]
    for a, b in hand:
        _assert_agrees_both_ways(a, b)


def test_the_clauses_agree_with_the_reference_where_a_domain_swaps_the_sides():
    # under `sub` a domain puts the right side's part on the left, and a `rec`
    # there is unfolded: `(rec p. (p -> A) -> A) -> A` against
    # `((rec q. (q -> A) -> A) -> A) -> A` meets one constructed pair again
    # while its clause runs, which the search then answers
    recs = ["rec p. (p -> A) -> A", "rec q. (q -> A) -> A", "rec q. (q -> B) -> A", "rec q. (q -> A + B) -> A"]
    wrappers = ["{}", "({}) -> A", "(({}) -> A) -> A", "((({}) -> A) -> A) -> A"]
    types = [parse_type(w.format(r)) for r in recs for w in wrappers]
    for a in types:
        for b in types:
            _assert_agrees_both_ways(a, b)
    assert is_subtype(types[1], types[6]) and is_equivalent(types[1], types[6])


@pytest.mark.parametrize("build", [AppT, Arrow])
def test_one_constructor_over_the_same_parts_is_related_without_canonical(build):
    left, right = parse_type("Cons@(rec a. Vl@Nat + a@a)"), parse_type("rec a. Vl@Nat + a@a + Leaf")
    a, b = build(left, right), build(left, right)
    assert a is not b
    with counting(mu_types, "_canonical", 0):
        for mode in (MODE_SUB, MODE_EQ):
            assert relations._Engine(mode).rel(a, b)
            # an atom part may be another object with the same name
            assert relations._Engine(mode).rel(build(TypeConst("K"), right), build(TypeConst("K"), right))


def test_each_rec_object_is_unfolded_once_across_queries(monkeypatch):
    # a `rec` keeps its unfolding, so every split of a type, in any query,
    # meets the same objects
    substituted = unfolding_substitutions(monkeypatch)
    unfold, returned = mu_types.unfold_once, []
    monkeypatch.setattr(mu_types, "unfold_once", lambda r: returned.append((r, unfold(r))) or returned[-1][1])
    t = parse_type("rec a. Vl@Nat + a@a + Leaf + Nil")
    queries = [(t, head_unfold(t)), (head_unfold(t), t), (t, parse_type("rec b. Vl@Nat + b@b + Nil + Leaf"))]
    for a, b in queries:
        for mode in (MODE_SUB, MODE_EQ):
            relations._Engine(mode).query(a, b)
    recs = {id(r): r for r, _ in returned}
    assert len(returned) > len(recs) >= 2  # both binders, each met more than once
    assert sorted(map(id, substituted)) == sorted(recs)  # one substitution for each `rec` object
    assert len({(id(r), id(out)) for r, out in returned}) == len(recs)  # the same unfolding at every call


def test_each_union_object_is_split_once_across_queries(monkeypatch):
    # a union keeps its split, so however often the queries split it, only the
    # first split reads its parts; the unions split here are the unfoldings,
    # whose parts nothing else reads (`canonical` walks the `rec` bodies)
    t, other = parse_type("rec a. Vl@Nat + a@a + Leaf + Nil"), parse_type("rec b. Vl@Nat + b@b + Nil + Leaf")
    unions = [head_unfold(t), head_unfold(other)]
    queries = [(t, unions[0]), (unions[0], t), (t, other)]
    reads, met = collections.Counter(), collections.Counter()
    parts, unfold = Union.__dict__["parts"], mu_types.head_unfold

    def read(u):
        reads[id(u)] += 1
        return parts.__get__(u)

    def head_unfold_counted(x):  # every split starts with a head unfolding
        out = unfold(x)
        met[id(out)] += 1
        return out

    monkeypatch.setattr(Union, "parts", property(read, parts.__set__))
    monkeypatch.setattr(mu_types, "head_unfold", head_unfold_counted)
    for a, b in queries:
        for mode in (MODE_SUB, MODE_EQ):
            relations._Engine(mode).query(a, b)
    assert all(met[id(u)] > 1 for u in unions)  # each union is split more than once
    assert [reads[id(u)] for u in unions] == [1, 1]  # and walked once


def _rebuilt(rng, a, kind):
    """`a` with its union components shuffled, one of them duplicated or a
    constant added, or `a` unfolded at the head: the second sides of the
    built family of the `relations` benchmark workload, which share `a`'s
    component objects."""
    if kind == "unfold":
        return head_unfold(a)
    comps = union_components(a)
    if kind == "shuffle":
        rng.shuffle(comps)
    elif kind == "duplicate":
        comps.append(rng.choice(comps))
    else:
        comps.append(TypeConst(rng.choice(CONSTS)))
    return union_of(comps)


def _built_family(rng):
    """The built family of the `relations` benchmark workload, made as
    `bench/workloads.py` makes it, with the verdicts its construction fixes:
    every query holds but the two reverse ones of a widening, which hold
    when the added constant is among the first side's components."""
    for i in range(240):
        a = gen_type(GenConfig(seed=30_000 + i))
        kind = ("shuffle", "duplicate", "unfold", "widen")[i % 4]
        if kind == "shuffle" and len(union_components(a)) == 1 or kind == "unfold" and not isinstance(a, Rec):
            kind = "duplicate"
        b = _rebuilt(rng, a, kind)
        held = kind != "widen" or union_components(b)[-1] in union_components(a)
        yield kind, a, b, (True, held, held)


@pytest.mark.parametrize("family", ["duplicate", "widen", "shuffle", "unfold", "upd-w9"])
def test_a_shared_component_is_related_without_canonical(family):
    # each component is one of the other side's component objects, or an
    # atom; without the identity answers the engine built canonical forms
    # 1914, 1116, 1052, 25 and 164 times for these five families
    if family == "upd-w9":
        t = parse_type(UPD_W9)
        pairs = [(t, head_unfold(t), (True, True, True))]
    else:
        pairs = [(a, b, verdicts) for kind, a, b, verdicts in _built_family(random.Random(1)) if kind == family]
    assert pairs
    with counting(mu_types, "_canonical", 0):
        for a, b, verdicts in pairs:
            assert (is_subtype(a, b), is_subtype(b, a), is_equivalent(a, b)) == verdicts, (pretty(a), pretty(b))


def _rebuilt_twin(a):
    """The union of `a`'s components in reverse order, each a new node: one
    constructor over the same part objects, or an atom with the same name.
    The reverse order keeps `same_structure` from answering first."""
    def fresh(c):
        if isinstance(c, (AppT, Arrow)):
            return type(c)(*(getattr(c, name) for name in c.__match_args__))
        return type(c)(c.name)

    return union_of([fresh(c) for c in reversed(mu_types.split(a))])


def test_a_rebuilt_twin_is_related_by_its_key():
    # each component of the twin is a new object, so identity does not find
    # it; without the key, 150 of these seeds reach the search, and the
    # `upd` type alone builds canonical forms 876 times
    types = [gen_type(GenConfig(seed=seed, rec_probability=0.5)) for seed in range(500)] + [parse_type(UPD_W9)]
    with counting(mu_types, "_canonical", 0):
        for a in types:
            b = _rebuilt_twin(a)
            assert is_subtype(a, b) and is_subtype(b, a) and is_equivalent(a, b), pretty(a)


def test_the_key_tells_atom_classes_apart():
    # a constant and a rigid variable of one name are different parts
    A, C = TypeConst("A"), TypeConst("C")
    left, right = Union(Arrow(TypeConst("X"), A), C), Union(C, Arrow(TypeVar("X"), A))
    assert not is_subtype(left, right) and not is_subtype(right, left)
    assert not is_equivalent(left, right)


def _shared_pairs(seeds):
    """Generated types against mutations that reuse their parts and against
    the built family's second sides, which share their component objects."""
    for seed in seeds:
        rng = random.Random(seed)
        a = gen_type(GenConfig(seed=seed, rec_probability=0.6))
        mutations = [mutate_type(rng, a), mutate_type(rng, a)]
        for b in mutations + [_rebuilt(rng, a, kind) for kind in ("shuffle", "duplicate", "widen", "unfold")]:
            yield a, b
            yield b, a


def test_the_engine_agrees_with_the_references_on_shared_parts():
    pairs = list(_shared_pairs(range(400)))
    assert sum(isinstance(a, Rec) for a, _ in pairs) >= 300
    for a, b in pairs:
        sub, eq = reference_is_subtype(a, b), reference_is_equivalent(a, b)
        assert is_subtype(a, b) is sub and is_equivalent(a, b) is eq, (pretty(a), pretty(b))
        # the search alone, with no structural-equality answer and no clauses
        assert relations._Engine(MODE_SUB).rel(a, b) is sub and relations._Engine(MODE_EQ).rel(a, b) is eq
    for a, b in pairs:
        oracle = PairOracle(a, b)
        for mode in (MODE_SUB, MODE_EQ):
            assert oracle.compare(4, mode).agree, (pretty(a), pretty(b), mode)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_equivalence_implies_mutual_subtyping(seed):
    rng = random.Random(seed)
    a = gen_type(GenConfig(seed=seed))
    b = mutate_type(rng, a)
    if is_equivalent(a, b):
        assert is_subtype(a, b) and is_subtype(b, a)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_transitivity_on_widening_chains(seed):
    base = gen_type(GenConfig(seed=seed))
    mid = union_of(union_components(base) + [parse_type("Extra1")])
    top = union_of(union_components(mid) + [parse_type("Extra2")])
    assert is_subtype(base, mid) and is_subtype(mid, top)
    assert is_subtype(base, top)


def test_union_laws():
    a, b, c = parse_type("Vl@Nat"), parse_type("Nil"), parse_type("Nat -> Nat")
    assert is_equivalent(union_of([a, a]), a)
    assert is_equivalent(union_of([a, b]), union_of([b, a]))
    assert is_equivalent(union_of([union_of([a, b]), c]), union_of([a, union_of([b, c])]))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_unfolding_preserves_equivalence(seed):
    t = gen_type(GenConfig(seed=seed, rec_probability=0.9))
    from cap.mu_types import head_unfold

    assert is_equivalent(t, head_unfold(t))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_invertibility_on_composite_shapes(seed):
    rng = random.Random(seed ^ 0xBEEF)
    d = gen_type(GenConfig(seed=seed, max_type_nodes=5))
    a = gen_type(GenConfig(seed=seed + 1, max_type_nodes=5))
    d2 = mutate_type(rng, d)
    a2 = mutate_type(rng, a)
    left, right = AppT(parse_type("K"), a), AppT(parse_type("K"), a2)
    if is_subtype(left, right):
        assert is_subtype(a, a2)
    f1, f2 = Arrow(d, a), Arrow(d2, a2)
    if is_subtype(f1, f2):
        assert is_subtype(d2, d)
        assert is_subtype(a, a2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_oracle_agreement_on_mutated_pairs(seed):
    rng = random.Random(seed)
    a = gen_type(GenConfig(seed=seed))
    b = mutate_type(rng, a)
    for mode in (MODE_SUB, MODE_EQ):
        report = oracle_compare(a, b, 6, mode)
        assert report.agree
        if not report.engine:
            assert report.refuting_depth is not None or report.inconclusive


def test_assumed_pairs_are_structural_components():
    # the assumption set only ever holds non-union, non-recursive-headed
    # canonical components
    from cap.mu_types import Rec, Union as UnionT
    from cap.relations import _Engine

    class Checked(_Engine):
        def component(self, a, b):
            for side in (a, b):
                assert not isinstance(side, (UnionT, Rec))
            return super().component(a, b)

    engine = Checked(MODE_SUB)
    assert engine.rel(parse_type("rec a. Cons@a"), parse_type("rec b. Cons@b + Nil"))
    engine = Checked(MODE_EQ)
    assert engine.rel(parse_type("rec x. Nat -> Nat -> x"), parse_type("rec x. Nat -> x"))


def test_contravariant_self_reference_rejected():
    # a naive same-binder unfolding rule would accept this pair; the
    # coinductive reading demands mutual subtyping through the domain and
    # must reject both directions
    f = parse_type("rec x. x -> Nat")
    g = parse_type("rec x. x -> (Nat + Extra)")
    assert not is_subtype(f, g)
    assert not is_subtype(g, f)
    report = oracle_compare(f, g, 8, MODE_SUB)
    assert report.agree and report.refuting_depth == 3


def test_equivalence_across_shifted_recursion():
    a = parse_type("rec x. Nat -> Bool -> x")
    b = parse_type("Nat -> rec x. Bool -> Nat -> x")
    assert is_equivalent(a, b)
    assert not is_equivalent(a, parse_type("rec x. Bool -> Nat -> x"))
    report = oracle_compare(a, b, 10, MODE_EQ)
    assert report.engine and report.agree and all(report.per_depth)


def test_equivalence_of_nested_recursions():
    c = parse_type("rec x. Cons@(rec y. Nil + Node@x@y)")
    d = parse_type("rec x. Cons@(Nil + Node@x@(rec y. Nil + Node@x@y))")
    assert is_equivalent(c, d)
    report = oracle_compare(c, d, 10, MODE_EQ)
    assert report.engine and report.agree and all(report.per_depth)


def test_oracle_handles_contravariant_domains():
    wide_dom = parse_type("(True + False) -> C")
    narrow_dom = parse_type("True -> C")
    good = oracle_compare(wide_dom, narrow_dom, 6, MODE_SUB)
    assert good.engine and good.agree and all(good.per_depth)
    bad = oracle_compare(narrow_dom, wide_dom, 6, MODE_SUB)
    assert not bad.engine and bad.agree and bad.refuting_depth == 2


def test_truncations_of_equivalent_recursions_agree():
    a = parse_type("rec x. Nat -> Nat -> x")
    b = parse_type("rec x. Nat -> x")
    for k in range(9):
        assert finite_tree_rel(truncate(a, k), truncate(b, k), MODE_EQ)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=6))
def test_engines_agree_with_the_tree_relation_on_truncations(seed, k):
    # a truncation is a finite type, so the coinductive engines decide it too
    rng = random.Random(seed)
    a = gen_type(GenConfig(seed=seed))
    b = mutate_type(rng, a) if rng.random() < 0.7 else gen_type(GenConfig(seed=seed + 1))
    left, right = truncate(a, k), truncate(b, k)
    for x, y in ((left, right), (right, left)):
        assert is_subtype(x, y) == finite_tree_rel(x, y, MODE_SUB)
        assert is_equivalent(x, y) == finite_tree_rel(x, y, MODE_EQ)
