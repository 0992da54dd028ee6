import pytest

from cap.compatibility import subsumes
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
    canonical,
    unfold_once,
)
from cap.surface import parse_term, parse_type
from cap.syntax import App, Pattern, PatternCompound, Position, Term


@pytest.fixture
def ty():
    return parse_type


@pytest.fixture
def tm():
    return parse_term


F_NAT = "rec a. Vl@Nat + a@a + Cons + Node + Nil"
LIST_A = "rec a. Nil + Cons@A@a"
TREE_A = "rec a. Nil + Node@A@a@a"


def reference_truncate(t: MuType, depth: int) -> MuType:
    """Reference: one truncation, memoized on alpha-normal subterms within that depth only."""
    memo: dict[tuple[MuType, int], MuType] = {}

    def go(t: MuType, k: int) -> MuType:
        if k == 0:
            return BULLET
        key = (canonical(t), k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        match t:
            case TypeConst() | TypeVar():
                out = t
            case AppT(l, r):
                out = AppT(go(l, k - 1), go(r, k - 1))
            case Arrow(l, r):
                out = Arrow(go(l, k - 1), go(r, k - 1))
            case Union(l, r):
                out = Union(go(l, k), go(r, k))
            case Rec():
                out = go(unfold_once(t), k)
        memo[key] = out
        return out

    return go(t, depth)


def reference_admitted_symbols(t: MuType, pos: tuple[int, ...]) -> frozenset[str]:
    """Reference: admitted symbols with a loop guard on (alpha-normal subterm, position)."""
    active: set[tuple[MuType, tuple[int, ...]]] = set()

    def go(t: MuType, pos: tuple[int, ...]) -> frozenset[str]:
        match t:
            case TypeConst(name) | TypeVar(name):
                return frozenset((name,)) if pos == () else frozenset()
            case AppT(l, r):
                if pos == ():
                    return frozenset((SYM_APP,))
                return go((l, r)[pos[0] - 1], pos[1:])
            case Arrow(l, r):
                if pos == ():
                    return frozenset((SYM_ARROW,))
                return go((l, r)[pos[0] - 1], pos[1:])
            case Union(l, r):
                return go(l, pos) | go(r, pos)
            case Rec():
                key = (canonical(t), pos)
                if key in active:
                    return frozenset()
                active.add(key)
                try:
                    return go(unfold_once(t), pos)
                finally:
                    active.discard(key)

    return go(t, pos)


class InvalidPositionError(Exception):
    pass


def positions(x: Term | Pattern) -> frozenset[Position]:
    """Positions descend only through applications and pattern compounds."""
    out: set[Position] = set()

    def go(x, at: Position) -> None:
        out.add(at)
        match x:
            case App(f, a):
                go(f, at + (1,))
                go(a, at + (2,))
            case PatternCompound(l, r):
                go(l, at + (1,))
                go(r, at + (2,))

    go(x, ())
    return frozenset(out)


def subterm_at(x: Term | Pattern, pos: Position) -> Term | Pattern:
    for step in pos:
        if step not in (1, 2):
            raise InvalidPositionError(f"bad step {step} in {pos}")
        match x:
            case App(f, a) | PatternCompound(f, a):
                x = f if step == 1 else a
            case _:
                raise InvalidPositionError(f"no subterm at {pos}")
    return x


def maximal_positions(pos_set: frozenset[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
    """Positions in the set with no proper extension in the set."""
    return frozenset(p for p in pos_set if not any(q != p and q[: len(p)] == p for q in pos_set))


def reference_mismatch_positions(p: Pattern, q: Pattern) -> frozenset[tuple[int, ...]]:
    """Reference: the maximal common positions of p and q where p's subpattern does not subsume q's."""
    common = positions(p) & positions(q)
    return frozenset(pos for pos in maximal_positions(common) if not subsumes(subterm_at(p, pos), subterm_at(q, pos)))
