import copy
import dataclasses
import operator
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

import cap.mu_types as mu_types
import cap.syntax as syntax
from cap.generators import GenConfig, gen_type
from cap.mu_types import (
    BULLET,
    SYM_APP,
    SYM_ARROW,
    AppT,
    Arrow,
    MuType,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    admitted_symbols,
    canonical,
    head_unfold,
    same_structure,
    split,
    truncate,
    truncations,
    unfold_once,
    union_components,
    union_of,
)
from cap.relations import MODE_EQ, MODE_SUB, is_equivalent, oracle_compare
from cap.surface import parse_type, pretty

from conftest import (
    F_NAT,
    LIST_A,
    positions,
    reference_admitted_symbols,
    reference_truncate,
    unfolding_substitutions,
)


def _copying_subst_type(t: MuType, name: str, replacement: MuType) -> MuType:
    """Capture-avoiding substitution that rebuilds every node it passes."""
    match t:
        case TypeConst():
            return t
        case TypeVar(n):
            return replacement if n == name else t
        case AppT(l, r) | Arrow(l, r):
            return type(t)(_copying_subst_type(l, name, replacement), _copying_subst_type(r, name, replacement))
        case Union(parts):
            return Union(*[_copying_subst_type(part, name, replacement) for part in parts])
        case Rec(var, body):
            if var == name:
                return t
            if var in mu_types.free_type_vars(replacement) and name in mu_types.free_type_vars(body):
                fresh = mu_types._fresh_name(var, mu_types.free_type_vars(replacement) | mu_types.free_type_vars(body) | {name})
                body = _copying_subst_type(body, var, TypeVar(fresh))
                var = fresh
            return Rec(var, _copying_subst_type(body, name, replacement))
    raise TypeError(f"not a type: {t!r}")


def test_unfolding_renames_a_binder_that_would_capture():
    # the inner `rec x` would capture the free `x` of the type substituted for `a`
    t = parse_type("rec a. Cons@x@(rec x. a@x)")
    unfolded = unfold_once(t)
    assert pretty(unfolded) == "Cons@x@(rec x_1. (rec a. Cons@x@(rec x. a@x))@x_1)"
    assert unfolded == _copying_subst_type(t.body, t.var, t)
    for mode in (MODE_SUB, MODE_EQ):
        report = oracle_compare(t, unfolded, 8, mode)
        assert report.engine and report.agree


def test_unfolding_shares_what_does_not_mention_the_binder():
    t = parse_type("rec t. (A -> B@(rec u. Nil + Cons@u)) + Cons@t")
    unfolded = unfold_once(t)
    (arrow, app), (body_arrow, body_app) = unfolded.parts, t.body.parts
    assert arrow is body_arrow
    assert app.left is body_app.left and app.right is t
    inner = parse_type("rec u. Nil + Cons@u")
    assert mu_types.subst_type(inner, "t", t) is inner


def test_unfolding_walks_a_wide_union_in_a_loop():
    # 1500 parts are past the recursion limit for a walk that recursed once
    # per part; the unchanged parts come back as the same objects
    t = parse_type("rec t. " + " + ".join(f"C{i}" for i in range(1500)) + " + Cons@t")
    unfolded = unfold_once(t)
    assert all(map(operator.is_, unfolded.parts[:-1], t.body.parts[:-1])) and unfolded.parts[-1].right is t
    assert mu_types.free_type_vars(t.body) == {"t"} and mu_types.free_type_vars(t) == frozenset()
    assert mu_types.subst_type(t.body, "u", t) is t.body


def test_unfolding_equals_the_copying_substitution():
    for seed in range(3000):
        stack = [gen_type(GenConfig(seed=seed))]
        while stack:
            match stack.pop():
                case Rec(var, body) as t:
                    assert unfold_once(t) == _copying_subst_type(body, var, t), pretty(t)
                    stack.append(body)
                case AppT(l, r) | Arrow(l, r):
                    stack += (l, r)
                case Union(parts):
                    stack += parts


def test_union_takes_in_a_first_part_that_is_a_union():
    a, b, c = TypeConst("A"), TypeConst("B"), TypeConst("C")
    for parts in ((), (a,)):
        with pytest.raises(TypeError):
            Union(*parts)
    assert Union(Union(a, b), c) == Union(a, b, c) and Union(Union(a, b), c).parts == (a, b, c)
    later = Union(a, Union(b, c))
    assert later.parts == (a, Union(b, c)) and pretty(later) == "A + (B + C)"
    assert union_of([a]) is a and union_of([a, b, c]).parts == (a, b, c)


def test_canonical_of_a_wide_union_under_a_rec():
    # 1100 parts are past the recursion limit for a walk that recursed once per part
    t = parse_type("rec t. " + " + ".join(f"C{i}" for i in range(1100)) + " + Cons@t")
    assert canonical(t) == Rec("#0", Union(*t.body.parts[:-1], AppT(TypeConst("Cons"), TypeVar("#0"))))


def test_head_unfold_one_step():
    t = parse_type("rec a. Vl@a")
    assert head_unfold(t) == AppT(parse_type("Vl"), t)
    assert head_unfold(parse_type("Nil")) == parse_type("Nil")
    t2 = parse_type("rec a. Cons@a + Nil")
    unfolded = head_unfold(t2)
    assert unfolded == Union(AppT(parse_type("Cons"), t2), parse_type("Nil"))


def test_the_kept_unfolding_cannot_be_seen():
    r = parse_type("rec a. Nil + Cons@A@a")
    fresh = Rec(r.var, r.body)
    unfolded = unfold_once(r)
    assert unfold_once(r) is unfolded
    assert r == fresh and fresh == r and hash(r) == hash(fresh)
    assert repr(r) == repr(fresh) and pretty(r) == pretty(fresh)
    assert same_structure(r, fresh) and same_structure(fresh, r)
    assert Rec.__match_args__ == ("var", "body")
    # a copy, of a `rec` unfolded or not, builds its own unfolding
    for t in (r, fresh):
        for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert copied == t and unfold_once(copied) == unfolded


def test_the_kept_split_cannot_be_seen():
    u = parse_type("Nil + Cons@A@(rec a. Nil + Cons@A@a) + B")
    fresh = Union(*u.parts)
    kept = split(u)
    assert split(u) is kept and kept == tuple(union_components(u))
    assert u == fresh and fresh == u and hash(u) == hash(fresh)
    assert repr(u) == repr(fresh) and pretty(u) == pretty(fresh)
    assert same_structure(u, fresh) and same_structure(fresh, u)
    assert Union.__match_args__ == ("parts",)
    # a copy, of a union split or not, splits itself
    for t in (u, fresh):
        for copied in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert copied == t and split(copied) == kept


def test_a_caller_cannot_change_the_kept_split():
    r = parse_type("rec a. Nil + Cons@A@a")
    comps = union_components(r)
    comps.append(TypeConst("B"))
    comps[0] = TypeConst("C")
    assert union_components(r) == [parse_type("Nil"), parse_type("Cons@A@(rec a. Nil + Cons@A@a)")]
    # the split of a `rec` is kept on the union it unfolds to
    assert split(r) is split(head_unfold(r)) is head_unfold(r).split


@pytest.mark.parametrize(
    "t, cycle",
    [(Rec("t", TypeVar("t")), 1), (Rec("t", Rec("s", TypeVar("t"))), 2)],
    ids=["variable-body", "binder-body"],
)
def test_head_unfold_stops_on_a_non_contractive_type(t, cycle):
    # built by hand, since the parser rejects both; the unfoldings each keeps
    # lead back to `t`, so head unfolding would loop on a cycle of objects
    with pytest.raises(RuntimeError, match="non-contractive"):
        head_unfold(t)
    u = t
    for _ in range(cycle):
        u = unfold_once(u)
    assert u is t


def _reachable(t: MuType, split: bool, limit: int = 20_000) -> int | None:
    """The number of objects reachable from `t` through the children of `@`
    and `->` and, for a union or `rec`, through `union_components` when
    `split`, else through its fields; None past `limit`: the set does not close."""
    seen: dict[int, MuType] = {}  # keeps each object alive, so no id is reused
    stack = [t]
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        if len(seen) == limit:
            return None
        seen[id(x)] = x
        match x:
            case AppT(l, r) | Arrow(l, r):
                stack += (l, r)
            case Union() | Rec() if split:
                stack += union_components(x)
            case Union(parts):
                stack += parts
            case Rec(_, body):
                stack.append(body)
    return len(seen)


def test_the_objects_met_by_splitting_a_type_are_finitely_many():
    # each `rec` keeps its one unfolding, so splitting a type and descending
    # through its constructors meets finitely many objects: the reachable
    # component graph of Kozen, Palsberg and Schwartzbach ("Efficient
    # recursive subtyping", 1995), on which identity keys can stand
    assert _reachable(parse_type("rec t1. Nil@(t1 + C + Cons + t1)"), split=True) == 6
    for seed in range(2000):
        t = gen_type(GenConfig(seed=seed, rec_probability=0.6, max_type_nodes=20))
        closure = _reachable(t, split=True)
        assert closure is not None and closure <= _reachable(t, split=False), pretty(t)
        assert all(map(operator.is_, union_components(t), union_components(t))), pretty(t)


def test_union_components_examples():
    assert union_components(parse_type("True + False")) == [parse_type("True"), parse_type("False")]
    arrow = parse_type("Nat -> Nat")
    assert union_components(arrow) == [arrow]
    fa = parse_type("rec a. Vl@Nat + a@a + Nil")
    comps = union_components(fa)
    assert comps == [parse_type("Vl@Nat"), AppT(fa, fa), parse_type("Nil")]
    # duplicates are kept
    assert len(union_components(parse_type("A + A"))) == 2


def test_canonical_alpha_equivalence():
    a = parse_type("rec a. Cons@a")
    b = parse_type("rec b. Cons@b")
    assert a != b
    assert canonical(a) == canonical(b)


def test_admitted_symbols_examples():
    assert admitted_symbols(parse_type("Vl@A"), (1,)) == {"Vl"}
    fa = parse_type(F_NAT)
    assert admitted_symbols(fa, ()) == {SYM_APP, "Cons", "Node", "Nil"}
    assert "Vl" not in admitted_symbols(fa, ())
    e = parse_type("Cons + Node + Nil")
    assert admitted_symbols(e, ()) == {"Cons", "Node", "Nil"}
    assert SYM_APP not in admitted_symbols(e, ())
    # exhausted positions contribute nothing
    assert admitted_symbols(parse_type("Nil"), (1, 2)) == frozenset()
    assert admitted_symbols(parse_type("A -> B"), ()) == {SYM_ARROW}


def test_admitted_symbols_invariant_under_unfold():
    fa = parse_type(F_NAT)
    for pos in [(), (1,), (2,), (1, 2)]:
        assert admitted_symbols(fa, pos) == admitted_symbols(head_unfold(fa), pos)


def test_admitted_symbols_matches_the_guarded_reference():
    types = [gen_type(GenConfig(seed=seed)) for seed in range(2000)]
    types += [
        parse_type("rec a. rec b. Cons@a@b + Node@(rec a. Vl@a + b) + Nil"),
        parse_type("rec a. (rec b. Vl@a@b + Nil) -> rec c. c@a + Cons"),
    ]
    for t in types:
        for pos in [(), (1,), (2,), (1, 1), (2, 1), (1, 2), (2, 2)]:
            assert admitted_symbols(t, pos) == reference_admitted_symbols(t, pos)


def test_truncate_examples():
    assert truncate(parse_type(F_NAT), 0) == BULLET
    assert truncate(parse_type("Nat -> Nat"), 1) == Arrow(BULLET, BULLET)
    stream = parse_type("rec a. Cons@a")
    assert truncate(stream, 2) == AppT(TypeConst("Cons"), AppT(BULLET, BULLET))


def test_truncate_union_does_not_consume_depth():
    t = parse_type("True + False")
    assert truncate(t, 1) == Union(TypeConst("True"), TypeConst("False"))


def cut_tree(t: MuType, depth: int) -> MuType:
    """Reference: truncate an already-truncated type at the given constructor depth."""
    if depth == 0:
        return BULLET
    match t:
        case TypeConst() | TypeVar():
            return t
        case Union(parts):
            return Union(*[cut_tree(part, depth) for part in parts])
        case AppT(l, r) | Arrow(l, r):
            return type(t)(cut_tree(l, depth - 1), cut_tree(r, depth - 1))
    raise TypeError(f"not a truncation: {t!r}")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=50_000), st.integers(min_value=0, max_value=5))
def test_truncate_prefix_property(seed, k):
    t = gen_type(GenConfig(seed=seed))
    assert cut_tree(truncate(t, k + 1), k) == truncate(t, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_truncations_match_the_reference_at_every_depth(seed):
    t = gen_type(GenConfig(seed=seed))
    at = truncations(t)
    for k in range(13):
        assert at(k) == reference_truncate(t, k) == truncate(t, k)


def test_truncations_share_subtrees_across_depths():
    # `rec a. Vl@Nat + a@a` truncated at k holds the truncation at k - 1 of
    # the same type twice; one truncator must hand out that very object.
    t = parse_type("rec a. Vl@Nat + a@a")
    at = truncations(t)
    for k in range(2, 13):
        app = at(k).parts[1]
        assert isinstance(app, AppT)
        assert app.left is app.right is at(k - 1)
    # fresh truncators build equal trees, but not the same objects
    assert truncations(t)(5) == at(5) and truncations(t)(5) is not at(5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_truncations_give_one_object_per_subterm_and_depth(seed):
    t = gen_type(GenConfig(seed=seed))
    table: dict = {}
    at = truncations(t, table)
    seen: dict[tuple[MuType, int], MuType] = {}

    def walk(t: MuType, k: int, tree: MuType) -> None:
        # follow the truncation's own descent, tree and type side by side
        if k == 0:
            return
        if (t, k) in seen:
            assert seen[t, k] is tree
            return
        seen[t, k] = tree
        match t, tree:
            case (AppT(l, r), AppT(tl, tr)) | (Arrow(l, r), Arrow(tl, tr)):
                walk(l, k - 1, tl)
                walk(r, k - 1, tr)
            case (Union(parts), Union(held)):
                # a first part that truncates to a union has its parts taken in;
                # through the same table, that union is one object holding them
                taken = len(held) - len(parts) + 1
                if taken > 1:
                    first = truncations(parts[0], table)(k)
                    assert all(map(operator.is_, first.parts, held[:taken]))
                    held = (first, *held[taken:])
                for part, part_tree in zip(parts, held):
                    walk(part, k, part_tree)
            case (Rec(), _):
                walk(unfold_once(t), k, tree)
            case (TypeConst() | TypeVar(), _):
                pass
            case _:
                raise AssertionError(f"{tree!r} does not follow {t!r}")

    for k in (8, 3, 12, 0, 5, 11):
        walk(t, k, at(k))


def test_truncations_hash_cons_a_union_on_the_parts_it_holds():
    # `rec u. A + B` truncates to a union, which the union around it takes in,
    # so through one table `(rec u. A + B) + C` truncates to the object `A + B + C` does
    table: dict = {}
    nested = truncations(parse_type("(rec u. A + B) + C"), table)
    flat = truncations(parse_type("A + B + C"), table)
    for k in (1, 2, 3):
        assert nested(k) is flat(k)


def _rec_under_two_parents() -> MuType:
    # one `rec` object below three parent objects, two of them equal
    stream = parse_type("rec a. Cons@a")
    return union_of([AppT(TypeConst("K"), stream), AppT(TypeConst("L"), stream), AppT(TypeConst("K"), stream)])


def _equal_but_distinct_components() -> MuType:
    # the `duplicate` mutation, with the repeated component a separate object
    return union_of(union_components(parse_type(F_NAT)) + union_components(parse_type(F_NAT))[1:2])


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_type("rec a. rec b. a@b + C"),
        lambda: parse_type("rec a. (rec b. Cons@b@a + Nil) + Leaf"),
        _rec_under_two_parents,
        _equal_but_distinct_components,
        lambda: parse_type(LIST_A),
    ],
    ids=["nested-binders", "inner-binder-under-union", "rec-under-two-parents", "equal-distinct-components", "list"],
)
def test_truncations_match_the_reference_in_any_depth_order(make):
    # the memo is keyed on object ids: shapes where equal subterms are
    # distinct objects, or one object has several parents, must not confuse it
    t = make()
    depths = list(range(13))
    random.Random(7).shuffle(depths)
    at = truncations(t)
    for k in depths:
        assert at(k) == reference_truncate(t, k), k


def test_truncation_nodes_grow_linearly_with_the_depth(monkeypatch):
    substituted = unfolding_substitutions(monkeypatch)
    counts = {}
    for depth in (32, 64):
        substituted.clear()
        table: dict = {}
        at = truncations(parse_type(F_NAT), table)
        for k in range(depth + 1):
            at(k)
        counts[depth] = len(table)  # one hash-cons entry per distinct truncated subterm
        assert len(substituted) == 1  # the one binder, unfolded by one substitution for every depth
    assert counts[32] >= 32
    assert counts[64] <= 2 * counts[32], counts


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_union_components_reassemble_equivalently(seed):
    t = gen_type(GenConfig(seed=seed))
    assert is_equivalent(union_of(union_components(t)), t)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_components_have_structural_heads(seed):
    t = gen_type(GenConfig(seed=seed))
    for comp in union_components(t):
        assert not isinstance(comp, (Union, Rec))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_admitted_symbols_nonempty_at_typed_pattern_positions(seed):
    import random

    from cap.conformance import pattern_of_type
    from cap.typecheck import type_pattern

    rng = random.Random(seed)
    ty = gen_type(GenConfig(seed=seed, max_type_nodes=8))
    pattern, bindings = pattern_of_type(rng, ty, [0])
    pattern_ty = type_pattern(dict(bindings), pattern)
    for pos in positions(pattern):
        assert admitted_symbols(pattern_ty, pos)


def test_pretty_of_tree_debug_forms():
    assert pretty(truncate(parse_type("Nat -> Nat"), 1)) == "• -> •"


def test_every_node_class_matches_on_the_fields_it_compares():
    # `same_structure` walks `__match_args__`, so for every node class those
    # must be the fields `==` compares, in order
    classes = [
        cls
        for module in (mu_types, syntax)
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    ]
    assert {cls.__name__ for cls in classes} == {
        *("TypeConst", "TypeVar", "AppT", "Arrow", "Union", "Rec"),
        *("Matchable", "PatternConst", "PatternCompound", "Var", "Const", "App", "Branch", "Abs"),
    }
    for cls in classes:
        assert cls.__match_args__ == tuple(f.name for f in dataclasses.fields(cls) if f.compare), cls.__name__


def test_same_type_is_structural_equality():
    types = [gen_type(GenConfig(seed=seed)) for seed in range(300)]
    types += [parse_type("rec a. A + Cons@a"), parse_type("rec b. A + Cons@b"), TypeVar("x"), TypeConst("X")]
    for t in types:
        copy = parse_type(pretty(t))
        assert same_structure(t, copy) and same_structure(copy, t)
    for s, t in zip(types, types[1:]):
        assert same_structure(s, t) is (s == t)
    # the binder names count: here a free `b` against a bound one
    assert not same_structure(parse_type("rec a. Cons@b"), parse_type("rec b. Cons@b"))
    with pytest.raises(TypeError):
        same_structure(AppT(TypeConst("A"), 1), AppT(TypeConst("A"), 2))


def test_same_type_relates_deep_unions_without_recursion():
    n = 10_000
    a = union_of([TypeConst(f"C{i}") for i in range(n)])
    b = union_of([TypeConst(f"C{i}") for i in range(n)])
    c = union_of([TypeConst(f"C{i}") for i in range(n - 1)] + [TypeConst("D")])
    assert a is not b
    assert same_structure(a, b) and not same_structure(a, c) and not same_structure(c, b)


class _CountedApp(AppT):
    """An application that counts the reads of its left side, and stops a
    walk at 10 000 of them, so a walk over the tree fails instead of hanging."""

    __slots__ = ()
    reads = 0

    def __getattribute__(self, name):
        if name == "left":
            _CountedApp.reads += 1
            if _CountedApp.reads > 10_000:
                raise RuntimeError("the walk does not share")
        return super().__getattribute__(name)


def _doubling_dag(n: int) -> MuType:
    """T_i = T_{i-1}@T_{i-1}: n + 1 distinct nodes, a tree of 2^n leaves."""
    t = TypeConst("A")
    for _ in range(n):
        t = _CountedApp(t, t)
    return t


def test_same_type_compares_each_pair_of_shared_nodes_once():
    reads = []
    for n in (20, 40):
        a, b = _doubling_dag(n), _doubling_dag(n)
        _CountedApp.reads = 0
        assert same_structure(a, b)
        reads.append(_CountedApp.reads)
    assert reads[1] <= 4 * 40 + 4
    assert reads[1] <= 2.2 * reads[0]
    assert not same_structure(_doubling_dag(40), _CountedApp(_doubling_dag(39), TypeConst("B")))
