"""The pair oracle against the one-query-at-a-time oracle it replaced.

`reference_oracle_compare` truncates both sides afresh and compares them at
every depth and in every mode; `PairOracle` shares one set of truncations per
pair and reads every depth's verdict from the first refuting one. Their
reports must be identical, including the default 2·kmax search and the
4·kmax one that `run_differential` asks for. The lemma that
reading rests on, monotonicity of truncation verdicts in the depth, is
checked here too.
"""

import json
import random

import pytest

from cap import relations
from cap.cli import main
from cap.conformance import run_differential
from cap.generators import GenConfig, gen_type, mutate_type
from cap.mu_types import BULLET, AppT, Arrow, TypeConst, TypeVar, Union
from cap.relations import (
    MODE_EQ,
    MODE_SUB,
    OracleReport,
    PairOracle,
    finite_tree_rel,
    is_equivalent,
    is_subtype,
    oracle_compare,
)
from cap.surface import parse_type

from conftest import F_NAT, LIST_A, reference_truncate


def reference_oracle_compare(a, b, kmax: int, mode: str, deep_limit: int | None = None) -> OracleReport:
    engine = is_subtype(a, b) if mode == MODE_SUB else is_equivalent(a, b)
    per_depth = [finite_tree_rel(reference_truncate(a, k), reference_truncate(b, k), mode) for k in range(kmax + 1)]
    if engine:
        return OracleReport(mode, True, per_depth, agree=all(per_depth), searched_to=kmax)
    refuting = next((k for k, ok in enumerate(per_depth) if not ok), None)
    searched = kmax
    if refuting is None:
        limit = deep_limit if deep_limit is not None else 2 * kmax
        for k in range(kmax + 1, limit + 1):
            searched = k
            if not finite_tree_rel(reference_truncate(a, k), reference_truncate(b, k), mode):
                refuting = k
                break
    return OracleReport(
        mode, False, per_depth, agree=True, refuting_depth=refuting, inconclusive=refuting is None, searched_to=searched
    )


def assert_same_reports(a, b, kmax: int) -> None:
    """Both modes on one pair oracle, with the default search and with the 4·kmax one of `run_differential`."""
    oracle = PairOracle(a, b)
    for mode in (MODE_SUB, MODE_EQ):
        got = oracle.compare(kmax, mode)
        assert got.to_dict() == reference_oracle_compare(a, b, kmax, mode).to_dict()
        deeper = oracle.compare(kmax, mode, deep_limit=4 * kmax)
        assert deeper.to_dict() == reference_oracle_compare(a, b, kmax, mode, deep_limit=4 * kmax).to_dict()
        assert oracle_compare(a, b, kmax, mode).to_dict() == got.to_dict()


def generated_pairs(seed: int, count: int):
    """The type pairs `run_differential` draws at this seed."""
    cfg = GenConfig(seed=seed)
    rng = random.Random(seed ^ 0xD1FF)
    for i in range(count):
        first = gen_type(cfg.with_seed(seed + 2 * i))
        second = mutate_type(rng, first) if rng.random() < 0.7 else gen_type(cfg.with_seed(seed + 2 * i + 1))
        yield first, second


@pytest.mark.parametrize("seed", [0, 1000, 7777])
def test_pair_oracle_matches_the_reference_on_generated_pairs(seed):
    for first, second in generated_pairs(seed, 300):
        oracle = PairOracle(first, second)
        for mode in (MODE_SUB, MODE_EQ):
            assert oracle.compare(8, mode).to_dict() == reference_oracle_compare(first, second, 8, mode).to_dict()


@pytest.mark.parametrize("seed", [0, 1000, 7777])
def test_pair_oracle_answers_the_same_in_any_query_order(seed):
    # the memos of one mode must not depend on which depths another query
    # asked for first: eq, then both deep re-checks, then sub
    for first, second in generated_pairs(seed, 300):
        oracle = PairOracle(first, second)
        for mode, deep_limit in ((MODE_EQ, None), (MODE_EQ, 32), (MODE_SUB, 32), (MODE_SUB, None)):
            got = oracle.compare(8, mode, deep_limit)
            assert got.to_dict() == reference_oracle_compare(first, second, 8, mode, deep_limit).to_dict()


def structure_numbering():
    """Number finite trees so that two get one number exactly when they are structurally equal.

    Linear in the shared size of each tree. The memo keeps every tree it has
    numbered, so their ids stay valid.
    """
    number: dict[int, tuple] = {}
    shapes: dict[tuple, int] = {}

    def go(t) -> int:
        got = number.get(id(t))
        if got is None:
            match t:
                case AppT(left, right) | Arrow(left, right):
                    shape = (type(t), go(left), go(right))
                case Union(parts):
                    shape = (Union, *map(go, parts))
                case TypeConst(name) | TypeVar(name):
                    shape = (type(t), name)
                case _:
                    raise TypeError(f"not a truncation: {t!r}")
            got = number[id(t)] = (t, shapes.setdefault(shape, len(shapes)))
        return got[1]

    return go, number, shapes


def structural_classes(roots) -> tuple[int, int]:
    """(reachable tree objects, classes of structurally equal ones) below `roots`."""
    go, number, shapes = structure_numbering()
    for root in roots:
        go(root)
    return len(number), len(shapes)


@pytest.mark.parametrize("seed", [0, 1000, 7777])
def test_pair_oracle_builds_one_object_per_tree(seed):
    # hash-consing: any two trees of one oracle that are equal are the same object
    pairs = list(generated_pairs(seed, 60))
    pairs += [(parse_type(F_NAT), parse_type(F_NAT)), (parse_type(STREAM), parse_type(LIST_A))]
    for first, second in pairs:
        oracle = PairOracle(first, second)
        oracle.compare(4, MODE_EQ, deep_limit=8)
        roots = [side(k) for k in range(13) for side in (oracle._left, oracle._right)]
        objects, classes = structural_classes(roots)
        assert objects == classes


def _conses(n: int) -> str:
    text = "Nil"
    for _ in range(n):
        text = f"Cons@({text})"
    return text


STREAM = "rec a. Cons@a"


DEEP_SEARCHES = [
    # refuted within kmax
    ("Vl@Nat", "Vl@Bool", 2, 2, 2),
    # engine true: every depth holds, no search
    ("rec x. Nat -> Nat -> x", "rec x. Nat -> x", 3, None, None),
    # refuted in the 2·kmax search
    (STREAM, _conses(3), 2, 4, 4),
    # inconclusive at 2·kmax, refuted by the 4·kmax re-check
    (STREAM, _conses(5), 2, None, 6),
    (_conses(6), STREAM, 2, None, 7),
    # inconclusive even at 4·kmax
    (STREAM, _conses(9), 2, None, None),
]


@pytest.mark.parametrize(
    "left, right, kmax, refuted_at, deep_refuted_at",
    DEEP_SEARCHES,
    ids=["within-kmax", "engine-true", "2kmax-search", "4kmax-recheck", "4kmax-recheck-reversed", "inconclusive"],
)
def test_pair_oracle_matches_the_reference_on_deep_searches(left, right, kmax, refuted_at, deep_refuted_at):
    a, b = parse_type(left), parse_type(right)
    assert_same_reports(a, b, kmax)
    oracle = PairOracle(a, b)
    assert oracle.compare(kmax, MODE_SUB).refuting_depth == refuted_at
    assert oracle.compare(kmax, MODE_SUB, deep_limit=4 * kmax).refuting_depth == deep_refuted_at


def test_pair_oracle_answers_the_deep_re_check_after_the_first_query():
    # the re-check reuses the trees of the first query, whatever the order
    a, b = parse_type(STREAM), parse_type(_conses(5))
    oracle = PairOracle(a, b)
    deep = oracle.compare(2, MODE_EQ, deep_limit=8)
    shallow = oracle.compare(2, MODE_EQ)
    assert deep.refuting_depth == 6 and deep.searched_to == 6
    assert shallow.inconclusive and shallow.searched_to == 4
    assert shallow.to_dict() == reference_oracle_compare(a, b, 2, MODE_EQ).to_dict()


def test_run_differential_asks_the_oracle_and_the_engine_once_per_pair_and_mode(monkeypatch):
    compared, queries = [], []
    compare = PairOracle.compare
    monkeypatch.setattr(PairOracle, "compare", lambda self, *args, **kw: compared.append(args[1]) or compare(self, *args, **kw))
    monkeypatch.setattr(relations, "is_subtype", lambda a, b: queries.append(MODE_SUB) or is_subtype(a, b))
    monkeypatch.setattr(relations, "is_equivalent", lambda a, b: queries.append(MODE_EQ) or is_equivalent(a, b))
    # at this seed and kmax the run refutes pairs within 2·kmax, beyond it, and not at all
    report = run_differential(GenConfig(seed=245), pairs=120, kmax=1)
    assert report.refuted_within_2k and report.reverified > len(report.inconclusive) > 0
    assert compared == queries == [MODE_SUB, MODE_EQ] * 120


def test_pair_oracle_needs_every_depth_to_agree_with_a_true_engine(monkeypatch):
    # an engine that wrongly says true must be caught by the depths that refute the pair
    a, b = parse_type("Vl@Nat"), parse_type("Vl@Bool")
    expected = reference_oracle_compare(a, b, 2, MODE_SUB).per_depth
    monkeypatch.setattr(relations, "is_subtype", lambda a, b: True)
    report = PairOracle(a, b).compare(2, MODE_SUB)
    assert report.engine is True
    assert report.per_depth[0] and not all(report.per_depth)
    assert report.per_depth == expected
    assert report.agree is False


def test_pair_oracle_searches_no_further_than_kmax_when_deep_limit_is_shorter():
    # no depth up to 8 refutes the pair; a deep limit below kmax searches nothing beyond it
    a, b = parse_type(STREAM), parse_type(_conses(9))
    oracle = PairOracle(a, b)
    for mode in (MODE_SUB, MODE_EQ):
        got = oracle.compare(8, mode, deep_limit=4)
        assert got.searched_to == 8 and got.inconclusive and got.refuting_depth is None
        assert got.to_dict() == reference_oracle_compare(a, b, 8, mode, deep_limit=4).to_dict()


def _counting_tree_relation(monkeypatch) -> list:
    """The mode of every comparison made through a relation that `tree_relation` returns."""
    compared = []
    original = relations.tree_relation

    def counting(mode):
        rel = original(mode)
        return lambda x, y: compared.append(mode) or rel(x, y)

    monkeypatch.setattr(relations, "tree_relation", counting)
    return compared


@pytest.mark.parametrize("left, right", [(F_NAT, F_NAT), ("rec x. Nat -> Nat -> x", "rec x. Nat -> x")])
def test_pair_oracle_compares_an_engine_true_pair_once_per_mode(monkeypatch, left, right):
    a, b = parse_type(left), parse_type(right)
    expected = [reference_oracle_compare(a, b, 8, mode).to_dict() for mode in (MODE_SUB, MODE_EQ)]
    compared = _counting_tree_relation(monkeypatch)
    oracle = PairOracle(a, b)
    assert [oracle.compare(8, mode).to_dict() for mode in (MODE_SUB, MODE_EQ)] == expected
    assert all(report["engine"] for report in expected)
    assert compared == [MODE_SUB, MODE_EQ]


@pytest.mark.parametrize(
    "left, right, kmax, refuted_at",
    [("Vl@Nat", "Vl@Bool", 8, 2), (STREAM, _conses(3), 2, 4), ("rec a. Cons@a", "rec b. Cons@b + Nil", 8, 1)],
    ids=["within-kmax", "beyond-kmax", "at-depth-1"],
)
def test_pair_oracle_compares_a_refuted_pair_up_to_its_refuting_depth(monkeypatch, left, right, kmax, refuted_at):
    a, b = parse_type(left), parse_type(right)
    expected = reference_oracle_compare(a, b, kmax, MODE_EQ).to_dict()
    compared = _counting_tree_relation(monkeypatch)
    got = PairOracle(a, b).compare(kmax, MODE_EQ)
    assert got.to_dict() == expected and got.refuting_depth == refuted_at
    assert len(compared) == refuted_at


def cut(t, depth: int):
    """A finite type cut at constructor depth `depth`, as truncation cuts it."""
    memo: dict[tuple[int, int], object] = {}

    def go(t, k: int):
        if k == 0:
            return BULLET
        key = (id(t), k)
        if key not in memo:
            match t:
                case AppT(left, right) | Arrow(left, right):
                    memo[key] = type(t)(go(left, k - 1), go(right, k - 1))
                case Union(parts):
                    memo[key] = Union(*[go(part, k) for part in parts])
                case _:
                    memo[key] = t
        return memo[key]

    return go(t, depth)


@pytest.mark.parametrize("seed", [0, 1000, 7777, "deep-search"])
def test_truncation_verdicts_are_monotone_in_the_depth(seed):
    # the lemma the oracle's sweep rests on: a truncation at a shallower depth
    # is the deeper one cut, and cutting keeps related truncations related, so
    # the verdicts over depths 0..12 read True...True False...False
    if seed == "deep-search":
        pairs = [(parse_type(left), parse_type(right)) for left, right, *_ in DEEP_SEARCHES]
    else:
        pairs = list(generated_pairs(seed, 300))
    for first, second in pairs:
        lefts = [reference_truncate(first, k) for k in range(13)]
        rights = [reference_truncate(second, k) for k in range(13)]
        shape, _, _ = structure_numbering()
        for trees in (lefts, rights):
            for k, tree in enumerate(trees):
                assert all(shape(cut(tree, shallower)) == shape(trees[shallower]) for shallower in range(k + 1))
        for mode in (MODE_SUB, MODE_EQ):
            verdicts = [finite_tree_rel(x, y, mode) for x, y in zip(lefts, rights)]
            assert verdicts[0] and verdicts == sorted(verdicts, reverse=True)


def test_pair_oracle_rejects_what_oracle_compare_rejects():
    oracle = PairOracle(parse_type("A"), parse_type("A"))
    with pytest.raises(ValueError):
        oracle.compare(0, MODE_SUB)
    assert oracle.compare(1, MODE_SUB).per_depth == [True, True]  # 1 is the least kmax
    with pytest.raises(ValueError):
        oracle.compare(2, "both")


README_TEXT = """\
mode sub: engine=false agree=True
  depth  0: true
  depth  1: true
  depth  2: false
  depth  3: false
  depth  4: false
  depth  5: false
  depth  6: false
  depth  7: false
  depth  8: false
  refuted at depth 2
mode eq: engine=false agree=True
  depth  0: true
  depth  1: true
  depth  2: false
  depth  3: false
  depth  4: false
  depth  5: false
  depth  6: false
  depth  7: false
  depth  8: false
  refuted at depth 2
"""

STREAM_TEXT = """\
mode sub: engine=true agree=True
  depth  0: true
  depth  1: true
  depth  2: true
  depth  3: true
  depth  4: true
  depth  5: true
  depth  6: true
  depth  7: true
  depth  8: true
mode eq: engine=false agree=True
  depth  0: true
  depth  1: false
  depth  2: false
  depth  3: false
  depth  4: false
  depth  5: false
  depth  6: false
  depth  7: false
  depth  8: false
  refuted at depth 1
"""

INCONCLUSIVE_TEXT = """\
mode sub: engine=false agree=True
  depth  0: true
  depth  1: true
  depth  2: true
  inconclusive up to depth 4
mode eq: engine=false agree=True
  depth  0: true
  depth  1: true
  depth  2: true
  inconclusive up to depth 4
"""


def _report(mode, engine, per_depth, refuting_depth=None, inconclusive=False, searched_to=8):
    return {
        "mode": mode,
        "engine": engine,
        "per_depth": per_depth,
        "agree": True,
        "refuting_depth": refuting_depth,
        "inconclusive": inconclusive,
        "searched_to": searched_to,
    }


@pytest.mark.parametrize(
    "argv, text, payload",
    [
        (
            ["Vl@Nat", "Vl@Bool", "--kmax", "8"],
            README_TEXT,
            {
                "left": "Vl@Nat",
                "right": "Vl@Bool",
                "reports": [
                    _report("sub", False, [True, True] + [False] * 7, refuting_depth=2),
                    _report("eq", False, [True, True] + [False] * 7, refuting_depth=2),
                ],
            },
        ),
        (
            ["rec a. Cons@a", "rec b. Cons@b + Nil"],
            STREAM_TEXT,
            {
                "left": "rec a. Cons@a",
                "right": "rec b. Cons@b + Nil",
                "reports": [
                    _report("sub", True, [True] * 9),
                    _report("eq", False, [True] + [False] * 8, refuting_depth=1),
                ],
            },
        ),
        (
            [STREAM, "Cons@(Cons@(Cons@(Cons@(Cons@Nil))))", "--kmax", "2"],
            INCONCLUSIVE_TEXT,
            {
                "left": STREAM,
                "right": "Cons@(Cons@(Cons@(Cons@(Cons@Nil))))",
                "reports": [
                    _report("sub", False, [True] * 3, inconclusive=True, searched_to=4),
                    _report("eq", False, [True] * 3, inconclusive=True, searched_to=4),
                ],
            },
        ),
    ],
    ids=["readme-example", "stream-vs-list", "inconclusive"],
)
def test_oracle_command_output_is_unchanged(capsys, argv, text, payload):
    assert main(["oracle", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out == text and captured.err == ""
    assert main(["oracle", *argv, "--json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == json.dumps(payload) + "\n" and captured.err == ""
