import random

import pytest
from hypothesis import given, settings, strategies as st

import cap.mu_types as mu_types
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
    truncate,
    truncations,
    unfold_once,
    union_components,
    union_of,
)
from cap.relations import MODE_EQ, MODE_SUB, is_equivalent, oracle_compare
from cap.surface import parse_type, pretty

from conftest import F_NAT, LIST_A, positions, reference_admitted_symbols, reference_truncate


def test_unfolding_renames_a_binder_that_would_capture():
    # the inner `rec x` would capture the free `x` of the type substituted for `a`
    t = parse_type("rec a. Cons@x@(rec x. a@x)")
    unfolded = unfold_once(t)
    assert pretty(unfolded) == "Cons@x@(rec x_1. (rec a. Cons@x@(rec x. a@x))@x_1)"
    for mode in (MODE_SUB, MODE_EQ):
        report = oracle_compare(t, unfolded, 8, mode)
        assert report.engine and report.agree


def test_head_unfold_one_step():
    t = parse_type("rec a. Vl@a")
    assert head_unfold(t) == AppT(parse_type("Vl"), t)
    assert head_unfold(parse_type("Nil")) == parse_type("Nil")
    t2 = parse_type("rec a. Cons@a + Nil")
    unfolded = head_unfold(t2)
    assert unfolded == Union(AppT(parse_type("Cons"), t2), parse_type("Nil"))


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
        case Union(l, r):
            return Union(cut_tree(l, depth), cut_tree(r, depth))
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
        app = at(k).right
        assert isinstance(app, AppT)
        assert app.left is app.right is at(k - 1)
    # fresh truncators build equal trees, but not the same objects
    assert truncations(t)(5) == at(5) and truncations(t)(5) is not at(5)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=50_000))
def test_truncations_give_one_object_per_subterm_and_depth(seed):
    t = gen_type(GenConfig(seed=seed))
    at = truncations(t)
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
            case (Union(l, r), Union(tl, tr)):
                walk(l, k, tl)
                walk(r, k, tr)
            case (Rec(), _):
                walk(unfold_once(t), k, tree)
            case (TypeConst() | TypeVar(), _):
                pass
            case _:
                raise AssertionError(f"{tree!r} does not follow {t!r}")

    for k in (8, 3, 12, 0, 5, 11):
        walk(t, k, at(k))


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
    calls = {"unfold_once": 0}
    original = mu_types.unfold_once

    def counted(t):
        calls["unfold_once"] += 1
        return original(t)

    # `truncations` looks the name up in the module when it calls it
    monkeypatch.setattr(mu_types, "unfold_once", counted)
    counts = {}
    for depth in (32, 64):
        calls["unfold_once"] = 0
        table: dict = {}
        at = truncations(parse_type(F_NAT), table)
        for k in range(depth + 1):
            at(k)
        counts[depth] = len(table)  # one hash-cons entry per distinct truncated subterm
        assert calls["unfold_once"] == 1  # the one binder, unfolded once for every depth
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
