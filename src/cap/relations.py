"""Subtyping and equivalence of recursive union types, plus a truncation oracle.

Both relations are decided by coinductive descent: a pair under scrutiny is
assumed to hold while its premises are checked, so cycles through recursive
types succeed (the greatest-fixpoint reading). The reachable set of canonical
component pairs is finite, which bounds every descent path. Nothing is
memoized: an assumption is discarded when its check returns, so sibling goals
prove the same pairs again, and nested unions take time exponential in their
depth.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

from .mu_types import (
    AppT,
    Arrow,
    MuType,
    TypeConst,
    TypeVar,
    Union,
    canonical,
    truncations,
    union_components,
)

MODE_SUB = "sub"
MODE_EQ = "eq"


class _Engine:
    """One relation query; owns its assumption set."""

    def __init__(self, mode: str):
        if mode not in (MODE_SUB, MODE_EQ):
            raise ValueError(f"bad mode {mode!r}")
        self.mode = mode
        self.assumed: set[tuple[MuType, MuType]] = set()

    def rel(self, a: MuType, b: MuType) -> bool:
        lefts = union_components(a)
        rights = union_components(b)
        if len(lefts) == 1 and len(rights) == 1:
            return self.component(lefts[0], rights[0])
        forward = all(any(self.component(l, r) for r in rights) for l in lefts)
        if self.mode == MODE_SUB or not forward:
            return forward
        return all(any(self.component(l, r) for l in lefts) for r in rights)

    def component(self, a: MuType, b: MuType) -> bool:
        key = (canonical(a), canonical(b))
        if key[0] == key[1]:
            return True
        if key in self.assumed:
            return True
        self.assumed.add(key)
        try:
            return self._structural(a, b)
        finally:
            self.assumed.discard(key)

    def _structural(self, a: MuType, b: MuType) -> bool:
        # Equal atoms, rigid variables included, are caught by `component`'s
        # reflexive shortcut; distinct atoms are never related.
        match a, b:
            case (AppT(l1, r1), AppT(l2, r2)):
                return self.rel(l1, l2) and self.rel(r1, r2)
            case (Arrow(d1, c1), Arrow(d2, c2)):
                if self.mode == MODE_SUB:
                    return self.rel(d2, d1) and self.rel(c1, c2)
                return self.rel(d1, d2) and self.rel(c1, c2)
        return False


def is_subtype(a: MuType, b: MuType) -> bool:
    return _Engine(MODE_SUB).rel(a, b)

def is_equivalent(a: MuType, b: MuType) -> bool:
    return _Engine(MODE_EQ).rel(a, b)


def tree_relation(mode: str) -> Callable[[MuType, MuType], bool]:
    """Structural subtyping/equivalence of truncations, for one mode.

    The independent route for checking the coinductive engines: plain
    recursion on finite types, which must hold no `rec`. It shares no code
    with the engine. Its memo, on the ids of the types, is for speed only and
    lasts across calls, so every type given must outlive it.
    """
    if mode not in (MODE_SUB, MODE_EQ):
        raise ValueError(f"bad mode {mode!r}")
    memo: dict[tuple[int, int], bool] = {}
    comps: dict[int, list[MuType]] = {}

    def components(t: MuType) -> list[MuType]:
        got = comps.get(id(t))
        if got is None:
            got = comps[id(t)] = components(t.left) + components(t.right) if isinstance(t, Union) else [t]
        return got

    def rel(x: MuType, y: MuType) -> bool:
        key = (id(x), id(y))
        got = memo.get(key)
        if got is None:
            got = memo[key] = compute(x, y)
        return got

    def compute(x: MuType, y: MuType) -> bool:
        xs = components(x)
        ys = components(y)
        if len(xs) == 1 and len(ys) == 1:
            return structural(xs[0], ys[0])
        forward = all(any(rel(xi, yj) for yj in ys) for xi in xs)
        if mode == MODE_SUB or not forward:
            return forward
        return all(any(rel(xi, yj) for xi in xs) for yj in ys)

    def structural(x: MuType, y: MuType) -> bool:
        match x, y:
            case (TypeConst(n1), TypeConst(n2)) | (TypeVar(n1), TypeVar(n2)):
                return n1 == n2
            case (AppT(a1, b1), AppT(a2, b2)):
                return rel(a1, a2) and rel(b1, b2)
            case (Arrow(a1, b1), Arrow(a2, b2)):
                if mode == MODE_SUB:
                    return rel(a2, a1) and rel(b1, b2)
                return rel(a1, a2) and rel(b1, b2)
        return False

    return rel


def finite_tree_rel(t1: MuType, t2: MuType, mode: str) -> bool:
    """`tree_relation(mode)(t1, t2)`, for a single comparison of truncations."""
    return tree_relation(mode)(t1, t2)


@dataclass
class OracleReport:
    """Engine verdict vs truncation verdicts for one pair of types."""

    mode: str
    engine: bool
    per_depth: list[bool]
    agree: bool
    refuting_depth: int | None = None
    inconclusive: bool = False
    searched_to: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class PairOracle:
    """The truncation oracle for one pair of types.

    Both sides' truncations share one hash-cons table and are built once for
    every depth and both modes; each `compare` asks the engine once and keeps
    one tree relation. Truncation verdicts are monotone in the depth: the
    truncation at k' < k is the one at k cut at k', and cutting both sides to
    one depth keeps them related (unions consume no depth). So they read
    True...True False...False from depth 0, which always holds, and the first
    refuting depth decides them all: a true engine verdict is checked once, at
    kmax, and otherwise the depths are scanned upward from 1 to the first
    refuting one.
    """

    def __init__(self, a: MuType, b: MuType):
        self.a, self.b = a, b
        table: dict = {}
        self._left, self._right = truncations(a, table), truncations(b, table)

    def compare(self, kmax: int, mode: str, deep_limit: int | None = None) -> OracleReport:
        """Cross-check the engine against truncation verdicts for depths 0..kmax.

        A positive engine verdict must be matched by every truncation depth.
        A negative one must be witnessed by some refuting depth; the search
        extends to `deep_limit` (default twice kmax) before the pair is
        flagged inconclusive-but-consistent.
        """
        if kmax < 1:
            raise ValueError("kmax must be at least 1")
        rel = tree_relation(mode)  # a bad mode raises before any work
        engine = is_subtype(self.a, self.b) if mode == MODE_SUB else is_equivalent(self.a, self.b)

        def refutes(k: int) -> bool:
            return not rel(self._left(k), self._right(k))

        limit = kmax if engine else max(kmax, 2 * kmax if deep_limit is None else deep_limit)
        holds = engine and not refutes(kmax)
        refuting = None if holds else next((k for k in range(1, limit + 1) if refutes(k)), None)
        per_depth = [refuting is None or k < refuting for k in range(kmax + 1)]
        if engine:
            return OracleReport(mode, True, per_depth, agree=refuting is None, searched_to=kmax)
        searched = max(kmax, limit if refuting is None else refuting)
        return OracleReport(
            mode, False, per_depth, agree=True, refuting_depth=refuting, inconclusive=refuting is None, searched_to=searched
        )


def oracle_compare(a: MuType, b: MuType, kmax: int, mode: str, deep_limit: int | None = None) -> OracleReport:
    """`PairOracle(a, b).compare(kmax, mode, deep_limit)`, for a single query."""
    return PairOracle(a, b).compare(kmax, mode, deep_limit)
