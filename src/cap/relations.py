"""Subtyping and equivalence of recursive union types, plus a truncation oracle.

Both relations are decided by coinductive descent: a pair under scrutiny is
assumed to hold while its premises are checked, so cycles through recursive
types succeed (the greatest-fixpoint reading). The reachable set of canonical
component pairs is finite, which bounds every descent path. Nothing is
memoized: an assumption is discarded when its check returns, so sibling goals
prove the same pairs again, and nested unions take time exponential in their
depth.

Four questions are answered before that search, and each answer is exact:

- Two sides that are one object are related at once, at every step: both
  relations are reflexive, since the greatest fixpoint contains the identity.
- `is_subtype` and `is_equivalent` hold at once when the two types are equal
  as structures (`same_structure`, linear in their shared size): equal types
  have equal canonical forms, which the engine relates at its first step.
- A constructed left side (a constant, a rigid variable, an `@` or a `->`) is
  related by clauses the greatest fixpoint satisfies as equations: it fits
  some union component of the right side (`sub`) or every one (`eq`), where an
  atom fits an equal component, `D@A` fits `D'@A'` when `D` and `A` are
  related to `D'` and `A'`, and `D -> A` fits `D' -> A'` when `A` is related
  to `A'` and, with the domain contravariant, `D'` to `D` (`D` to `D'` under
  `eq`). The clauses add no assumption and never run inside the search, which
  relates every other left side from an empty assumption set, so each verdict
  is exact. The `@` clause descends only the left side's finite spine, but
  under `sub` a domain moves part of the right side to the left, where a
  `rec` was unfolded, so a constructed pair can be met again while its own
  clause runs (`(rec p. (p -> A) -> A) -> A` against
  `((rec q. (q -> A) -> A) -> A) -> A`); the search answers it there. A query
  memoizes the clauses on identity, so the pairs it meets are finitely many
  and each runs its clause once.
- In the union clause, a component is related when it is one of the other
  side's component objects, an atom (a constant or a rigid variable) equal
  to one, or has the hash-cons key of one: its class and its two parts, an
  atom part by class and name and any other by identity. Components with
  equal keys are equal as structures, and both relations are reflexive. A
  pass collects the other side's ids, then their keys, at its first
  component that needs them; only the rest go to the search, which relates
  a pair with equal keys the same way, before it builds canonical forms.
  The engine relates an atom only to the same atom, and never assumes a
  pair holding one while another check runs, because `_structural` does not
  descend.

A `rec` object is unfolded once, on the object (`unfold_once`), and the
unfolding keeps the `rec` where its variable was. A union is split once, on
the object (`split`), and keeps its components, so only its first split walks
it and a type splits into the same component objects at every call, which
its head unfolding shares.
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
    same_structure,
    split,
    truncations,
)

MODE_SUB = "sub"
MODE_EQ = "eq"

_ATOMS = (TypeConst, TypeVar)
_CONSTRUCTED = (TypeConst, TypeVar, AppT, Arrow)


class _Engine:
    """One relation query; owns its assumption set and the memo of `query`."""

    def __init__(self, mode: str):
        if mode not in (MODE_SUB, MODE_EQ):
            raise ValueError(f"bad mode {mode!r}")
        self.mode = mode
        self.assumed: set[tuple[MuType, MuType]] = set()
        self.fitted: dict[tuple[int, int], tuple[MuType, MuType, bool | None]] = {}

    def query(self, a: MuType, b: MuType) -> bool:
        """The verdict on `a` and `b`: by the clauses (see the module docstring)
        when `a` is constructed, else by the search. Its memo keeps its keys alive."""
        if a is b:
            return True
        if not isinstance(a, _CONSTRUCTED):
            return self.rel(a, b)
        got = self.fitted.get((id(a), id(b)))
        if got is not None:
            # `None` while the pair's clause runs: met again, it is on a cycle (see the module docstring)
            return self.rel(a, b) if got[2] is None else got[2]
        self.fitted[id(a), id(b)] = (a, b, None)
        # `sub` stops at the first component that fits, `eq` at the first miss; unlike `any`, a loop adds no frame
        verdict = self.mode == MODE_EQ
        for c in (b,) if isinstance(b, _CONSTRUCTED) else split(b):
            if isinstance(a, AppT):
                fits = isinstance(c, AppT) and self.query(a.left, c.left) and self.query(a.right, c.right)
            elif isinstance(a, Arrow):
                # the domain is contravariant under `sub`
                fits = isinstance(c, Arrow) and (
                    self.query(c.dom, a.dom) if self.mode == MODE_SUB else self.query(a.dom, c.dom)
                ) and self.query(a.cod, c.cod)
            else:
                fits = a == c
            if fits != verdict:
                verdict = fits
                break
        self.fitted[id(a), id(b)] = (a, b, verdict)
        return verdict

    def rel(self, a: MuType, b: MuType) -> bool:
        if a is b:
            return True
        lefts = (a,) if isinstance(a, _CONSTRUCTED) else split(a)
        rights = (b,) if isinstance(b, _CONSTRUCTED) else split(b)
        if len(lefts) == 1 and len(rights) == 1:
            return self.component(lefts[0], rights[0])
        # one of the other side's component objects, an atom equal to one, or a
        # component with the key of one is related (see the module docstring)
        ids = keys = None
        forward = all(
            l in rights if isinstance(l, _ATOMS)
            else id(l) in (ids := ids or {id(r) for r in rights})
            or _key(l) in (keys := keys or {_key(r) for r in rights})
            or any(self.component(l, r) for r in rights)
            for l in lefts
        )
        if self.mode == MODE_SUB or not forward:
            return forward
        ids = keys = None
        return all(
            r in lefts if isinstance(r, _ATOMS)
            else id(r) in (ids := ids or {id(l) for l in lefts})
            or _key(r) in (keys := keys or {_key(l) for l in lefts})
            or any(self.component(l, r) for l in lefts)
            for r in rights
        )

    def component(self, a: MuType, b: MuType) -> bool:
        if a is b or _key(a) == _key(b):
            return True
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


def _key(t: MuType) -> tuple:
    """The hash-cons key of a union component: its class and name for an atom,
    else its class and its two parts, an atom part by class and name and any
    other by its `id`. Equal keys mean equal structures while the parts live."""
    if isinstance(t, _ATOMS):
        return type(t), t.name
    left, right = (t.left, t.right) if type(t) is AppT else (t.dom, t.cod)
    return (
        type(t),
        (type(left), left.name) if isinstance(left, _ATOMS) else id(left),
        (type(right), right.name) if isinstance(right, _ATOMS) else id(right),
    )


def is_subtype(a: MuType, b: MuType) -> bool:
    return same_structure(a, b) or _Engine(MODE_SUB).query(a, b)


def is_equivalent(a: MuType, b: MuType) -> bool:
    return same_structure(a, b) or _Engine(MODE_EQ).query(a, b)


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
            if isinstance(t, Union):
                got = [c for part in t.parts for c in components(part)]
            else:
                got = [t]
            comps[id(t)] = got
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
        # equivalence is symmetric, so its backward half is `covers` with the sides swapped
        return covers(xs, ys) and (mode == MODE_SUB or covers(ys, xs))

    def covers(xs: list[MuType], ys: list[MuType]) -> bool:
        """Each of `xs` is related to one of `ys`: an atom exactly when it is among them."""
        atoms = {y for y in ys if isinstance(y, _ATOMS)}
        return all(x in atoms if isinstance(x, _ATOMS) else any(rel(x, y) for y in ys) for x in xs)

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
