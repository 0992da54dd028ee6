import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from cap.compatibility import (
    IncompatiblePair,
    PatternJudgement,
    check_branch_compatibility,
    compatible_pair,
    mismatch_positions,
    subsumes,
)
from cap import typecheck
from cap.diagnostics import CapError
from cap.generators import GenConfig, gen_typed_term
from cap.mu_types import AppT
from cap.reduction import FAIL, Success, evaluate, match_pattern
from cap.relations import is_subtype
from cap.surface import parse_type
from cap.syntax import Matchable, PatternCompound, PatternConst, positions
from cap.typecheck import infer_type

from conftest import F_NAT, maximal_positions, reference_mismatch_positions

VL_Z = PatternCompound(PatternConst("Vl"), Matchable("z"))
XY = PatternCompound(Matchable("x"), Matchable("y"))
W = Matchable("w")


def judgement(pattern, ty):
    return PatternJudgement(pattern, parse_type(ty))


def test_subsumes_examples():
    assert subsumes(Matchable("x"), PatternCompound(PatternConst("Vl"), PatternConst("True")))
    assert subsumes(VL_Z, PatternCompound(PatternConst("Vl"), PatternCompound(PatternConst("Cons"), Matchable("x"))))
    assert not subsumes(VL_Z, XY)
    assert not subsumes(PatternConst("C"), PatternConst("D"))


def test_subsumes_reflexive_transitive_and_positions():
    patterns = [VL_Z, XY, W, PatternConst("Nil"), PatternCompound(VL_Z, W)]
    for p in patterns:
        assert subsumes(p, p)
    for p in patterns:
        for q in patterns:
            for r in patterns:
                if subsumes(p, q) and subsumes(q, r):
                    assert subsumes(p, r)
            if subsumes(p, q):
                assert positions(p) <= positions(q)
                assert mismatch_positions(p, q) == frozenset()


def test_maximal_positions():
    assert maximal_positions(frozenset({(), (1,), (2,), (1, 1)})) == {(1, 1), (2,)}


def test_mismatch_positions_examples():
    assert mismatch_positions(VL_Z, XY) == {(1,)}
    assert mismatch_positions(VL_Z, W) == {()}
    for p in (VL_Z, XY, W):
        assert mismatch_positions(p, p) == frozenset()
    for p in (VL_Z, XY, W):
        for q in (VL_Z, XY, W):
            assert mismatch_positions(p, q) == reference_mismatch_positions(p, q)


def random_pattern(rng: random.Random, depth: int):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return Matchable(rng.choice("xyz")) if roll < 0.15 else PatternConst(rng.choice(("A", "B", "Vl")))
    return PatternCompound(random_pattern(rng, depth - 1), random_pattern(rng, depth - 1))


def test_mismatch_walk_matches_the_position_scan():
    rng = random.Random(20160)
    sizes = set()
    for _ in range(20_000):
        p, q = random_pattern(rng, rng.randint(0, 6)), random_pattern(rng, rng.randint(0, 6))
        found = mismatch_positions(p, q)
        assert found == reference_mismatch_positions(p, q), (p, q)
        assert (not found) == subsumes(p, q), (p, q)  # what `compatible_pair` decides "subsumed" by
        sizes.add(len(found))
    assert {0, 1, 2, 3} <= sizes


def test_pair_requires_subtype_on_subsumption():
    first = judgement(PatternCompound(PatternConst("Vl"), Matchable("x")), "Vl@(True + False)")
    second = judgement(PatternCompound(PatternConst("Vl"), Matchable("y")), "Vl@(rec n. Zero + Succ@n)")
    verdict = compatible_pair(first, second)
    assert verdict.reason == "subsumed"
    assert not verdict.compatible
    later, earlier = verdict.obligation
    assert verdict.compatible == is_subtype(later, earlier)


def test_upd_branch_pairs_are_disjoint():
    fa = F_NAT
    jp = judgement(VL_Z, "Vl@Nat")
    jq = judgement(XY, f"({fa})@({fa})")
    jr = judgement(W, "Cons + Node + Nil")
    assert compatible_pair(jp, jq).reason == "disjoint"
    assert compatible_pair(jq, jr).reason == "disjoint"
    assert compatible_pair(jp, jr).reason == "disjoint"
    check_branch_compatibility([jp, jq, jr])


def test_compound_head_obligation_tracks_subtyping():
    first = judgement(VL_Z, "Vl@Nat")
    good = judgement(XY, "Vl@Nat")
    bad = judgement(XY, "Vl@(True + False)")
    v_good = compatible_pair(first, good)
    v_bad = compatible_pair(first, bad)
    assert v_good.reason == v_bad.reason == "overlap"
    assert v_good.compatible and not v_bad.compatible
    for verdict in (v_good, v_bad):
        assert verdict.compatible == is_subtype(*verdict.obligation)
    # a recursive head admitting Vl triggers the same obligation
    c2 = parse_type("rec c. Vl + c@c")
    recursive = PatternJudgement(XY, AppT(c2, parse_type("Nat")))
    v_rec = compatible_pair(first, recursive)
    assert v_rec.reason == "overlap"
    assert v_rec.compatible == is_subtype(*v_rec.obligation)


def test_list_reports_first_failing_pair():
    ok = judgement(VL_Z, "Vl@Nat")
    clash = judgement(PatternCompound(PatternConst("Vl"), Matchable("y")), "Vl@(True + False)")
    with pytest.raises(IncompatiblePair) as err:
        check_branch_compatibility([ok, clash, ok])
    assert (err.value.first_index, err.value.second_index) == (0, 1)


def test_an_incompatible_list_raises_a_compatibility_error():
    ok = judgement(VL_Z, "Vl@Nat")
    clash = judgement(PatternCompound(PatternConst("Vl"), Matchable("y")), "Vl@(True + False)")
    bad = judgement(XY, "Vl@(True + False)")
    expected = {
        (0, 1): "branch 1 subsumes branch 2, so 'Vl@(True + False)' must be a subtype of 'Vl@Nat'; it does not hold",
        (0, 2): "branches 1 and 3 may overlap, so 'Vl@(True + False)' must be a subtype of 'Vl@Nat'; "
        "it does not hold [shared head symbols at [1]: ['Vl']]",
    }
    for judgements, indices in (([ok, clash, ok], (0, 1)), ([ok, ok, bad], (0, 2))):
        with pytest.raises(CapError) as err:
            check_branch_compatibility(judgements)
        assert isinstance(err.value, IncompatiblePair)
        assert err.value.code == "compatibility"
        assert (err.value.first_index, err.value.second_index) == indices
        assert err.value.message == str(err.value) == expected[indices]
        assert err.value.verdict.obligation is not None


def test_typing_checks_each_branch_list_once(monkeypatch):
    # Count every call, through whichever module imported the function.
    counts = {"abs": 0, "compat": 0}
    abs_type, check = typecheck.abs_type, check_branch_compatibility

    def counting_abs(*args):
        counts["abs"] += 1
        return abs_type(*args)

    def counting_check(*args):
        counts["compat"] += 1
        return check(*args)

    for module in list(sys.modules.values()):
        if module is None or not module.__name__.startswith("cap."):
            continue
        for name, counting in (("abs_type", counting_abs), ("check_branch_compatibility", counting_check)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    for seed in range(200):
        gen_typed_term(GenConfig(seed=seed))
    assert counts["abs"] > 200
    assert counts["compat"] == counts["abs"]


def test_explain_collects_all_shared_symbols():
    first = judgement(VL_Z, "Vl@Nat")
    other = judgement(XY, "Vl@Nat")
    verdict = compatible_pair(first, other)
    assert verdict.reason == "overlap"
    assert set(verdict.shared_symbols) == set(verdict.mismatches)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_mismatch_lemma_on_generated_values(seed):
    # a failing match against a typed pattern rules out the subtype relation
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
    result = evaluate(term, fuel=500)
    if result.status != "normal":
        return
    value = result.term
    value_ty = infer_type({}, value)
    rng = random.Random(seed)
    from cap.conformance import pattern_of_type

    probe_ty = parse_type(rng.choice(["Nil", "Cons@Nat", "Vl@(True + False)", "Zz"]))
    pattern, _ = pattern_of_type(rng, probe_ty, [0])
    if match_pattern(pattern, value) == FAIL:
        assert not is_subtype(value_ty, probe_ty)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_compatibility_lemma_on_generated_values(seed):
    # successful matches witness the shared-symbol condition against the
    # argument's own type
    term, _ = gen_typed_term(GenConfig(seed=seed, max_term_nodes=10))
    result = evaluate(term, fuel=500)
    if result.status != "normal":
        return
    value = result.term
    value_ty = infer_type({}, value)
    rng = random.Random(seed)
    from cap.conformance import pattern_of_type

    pattern, bindings = pattern_of_type(rng, value_ty, [0])
    outcome = match_pattern(pattern, value)
    assert isinstance(outcome, Success)
    from cap.typecheck import type_pattern

    pattern_ty = type_pattern(dict(bindings), pattern)
    own = PatternJudgement(pattern, pattern_ty)
    probe, probe_bind = pattern_of_type(rng, value_ty, [100])
    other = PatternJudgement(probe, type_pattern(dict(probe_bind), probe))
    from cap.mu_types import admitted_symbols

    for pos in mismatch_positions(pattern, probe):
        assert admitted_symbols(own.type, pos) & admitted_symbols(other.type, pos)
