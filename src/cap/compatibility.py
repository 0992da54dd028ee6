"""Pattern subsumption, mismatching positions, and the branch compatibility check.

A later branch is only reachable for arguments the earlier ones reject, so a
pair of annotated patterns either has to be provably disjoint (some common
position where the two types admit no shared head symbol) or the later type
must be a subtype of the earlier one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import CapError
from .mu_types import MuType, admitted_symbols
from .relations import is_subtype
from .surface import SHOWN, pretty
from .syntax import Matchable, Pattern, PatternCompound, PatternConst, Position


@dataclass(frozen=True)
class PatternJudgement:
    """An annotated, typed pattern as it occurs in an abstraction branch."""

    pattern: Pattern
    type: MuType


def subsumes(p: Pattern, q: Pattern) -> bool:
    """Whether some substitution of matchables turns p into q."""
    match p, q:
        case (Matchable(), _):
            return True
        case (PatternConst(a), PatternConst(b)):
            return a == b
        case (PatternCompound(p1, p2), PatternCompound(q1, q2)):
            return subsumes(p1, q1) and subsumes(p2, q2)
    return False


def mismatch_positions(p: Pattern, q: Pattern) -> frozenset[Position]:
    """Maximal common positions where subsumption of q by p breaks down.

    One walk over both patterns: it descends while both sides are compounds,
    so the first node where one side is not is a maximal common position.
    """
    match p, q:
        case (PatternCompound(p1, p2), PatternCompound(q1, q2)):
            return frozenset(
                (step,) + pos
                for step, (left, right) in enumerate(((p1, q1), (p2, q2)), start=1)
                for pos in mismatch_positions(left, right)
            )
    return frozenset() if subsumes(p, q) else frozenset({()})


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of checking one ordered pair of branches.

    `reason` is one of:
      - "subsumed":   p subsumes q, so the subtype obligation applies;
      - "overlap":    some mismatching position shares an admitted symbol,
                      so the subtype obligation applies;
      - "disjoint":   a mismatching position admits no common symbol.
    """

    compatible: bool
    reason: str
    mismatches: frozenset[Position]
    obligation: tuple[MuType, MuType] | None = None  # (later, earlier) subtype goal
    # symbols both types admit, at each mismatching position up to the first
    # one that admits none, which witnesses disjointness
    shared_symbols: dict[Position, frozenset[str]] = field(default_factory=dict)

    @property
    def requires_subtype(self) -> bool:
        return self.reason in ("subsumed", "overlap")


def compatible_pair(first: PatternJudgement, second: PatternJudgement) -> PairVerdict:
    """Check one ordered branch pair."""
    p, a = first.pattern, first.type
    q, b = second.pattern, second.type
    mismatches = mismatch_positions(p, q)
    if not mismatches:  # exactly when p subsumes q
        holds = is_subtype(b, a)
        return PairVerdict(holds, "subsumed", mismatches, obligation=(b, a))
    shared: dict[Position, frozenset[str]] = {}
    for pos in sorted(mismatches):
        shared[pos] = admitted_symbols(a, pos) & admitted_symbols(b, pos)
        if not shared[pos]:
            return PairVerdict(True, "disjoint", mismatches, shared_symbols=shared)
    holds = is_subtype(b, a)
    return PairVerdict(holds, "overlap", mismatches, obligation=(b, a), shared_symbols=shared)


class IncompatiblePair(CapError):
    """A `compatibility` error: an ordered branch pair fails its subtype obligation."""

    def __init__(self, first_index: int, second_index: int, verdict: PairVerdict):
        self.first_index = first_index
        self.second_index = second_index
        self.verdict = verdict
        i, j = first_index + 1, second_index + 1
        later, earlier = verdict.obligation
        obligation = f"'{pretty(later, SHOWN)}' must be a subtype of '{pretty(earlier, SHOWN)}'"
        if verdict.reason == "subsumed":
            message = f"branch {i} subsumes branch {j}, so {obligation}; it does not hold"
        else:
            message = f"branches {i} and {j} may overlap, so {obligation}; it does not hold"
            if verdict.shared_symbols:
                shared = "; ".join(
                    f"at {list(pos)}: {sorted(symbols)}" for pos, symbols in sorted(verdict.shared_symbols.items())
                )
                message += f" [shared head symbols {shared}]"
        super().__init__("compatibility", message)


def check_branch_compatibility(judgements: list[PatternJudgement]) -> None:
    """Require every ordered pair of branch judgements to be compatible."""
    for i in range(len(judgements)):
        for j in range(i + 1, len(judgements)):
            verdict = compatible_pair(judgements[i], judgements[j])
            if not verdict.compatible:
                raise IncompatiblePair(i, j, verdict)
