"""Pattern matching, the beta rule, one-step reduction and a fuel-bounded evaluator."""

from __future__ import annotations

from dataclasses import dataclass, field

from .syntax import (
    Abs,
    App,
    Const,
    Matchable,
    Pattern,
    PatternCompound,
    PatternConst,
    Substitution,
    Term,
    apply_substitution,
    is_matchable_form,
)


class MatchOutcome:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Success(MatchOutcome):
    substitution: tuple[tuple[str, Term], ...]

    def as_dict(self) -> Substitution:
        return dict(self.substitution)


@dataclass(frozen=True, slots=True)
class Fail(MatchOutcome):
    pass


@dataclass(frozen=True, slots=True)
class Wait(MatchOutcome):
    pass


FAIL = Fail()
WAIT = Wait()


class NonLinearPatternError(Exception):
    """Overlapping domains when combining successes; unreachable on linear patterns."""


def combine(first: MatchOutcome, second: MatchOutcome) -> MatchOutcome:
    """Disjoint union of outcomes; failure wins over an undetermined side."""
    if isinstance(first, Fail) or isinstance(second, Fail):
        return FAIL
    if isinstance(first, Success) and isinstance(second, Success):
        left = first.as_dict()
        right = second.as_dict()
        overlap = set(left) & set(right)
        if overlap:
            raise NonLinearPatternError(f"matchables bound twice: {sorted(overlap)}")
        return Success(tuple(left.items()) + tuple(right.items()))
    return WAIT


def match_pattern(p: Pattern, u: Term) -> MatchOutcome:
    """Match a term against a pattern.

    Clauses, first applicable wins: a matchable binds anything; equal
    constants succeed; a compound decomposes a compound in matchable form;
    any other term in matchable form fails; everything else is undetermined.
    """
    match p:
        case Matchable(name):
            return Success(((name, u),))
        case PatternConst(c) if isinstance(u, Const) and u.name == c:
            return Success(())
        case PatternCompound(pl, pr) if isinstance(u, App) and is_matchable_form(u):
            return combine(match_pattern(pl, u.fun), match_pattern(pr, u.arg))
    if is_matchable_form(u):
        return FAIL
    return WAIT


@dataclass
class StuckMatch(Exception):
    """Beta attempt that cannot fire: every branch failed, or one is undetermined."""

    abstraction: Abs
    argument: Term
    kind: str  # "all-fail" | "undecided"

    def __str__(self) -> str:
        return f"stuck match ({self.kind})"


def beta(fun: Abs, arg: Term) -> tuple[int, Term]:
    """The beta rule: the index of the first branch of `fun` whose pattern
    matches `arg`, provided all earlier ones fail, and that branch's body
    under the match's substitution."""
    for index, branch in enumerate(fun.branches):
        outcome = match_pattern(branch.pattern, arg)
        if isinstance(outcome, Success):
            return index, apply_substitution(outcome.as_dict(), branch.body)
        if isinstance(outcome, Wait):
            raise StuckMatch(fun, arg, "undecided")
    raise StuckMatch(fun, arg, "all-fail")


@dataclass
class StepInfo:
    branch_index: int
    n_branches: int
    argument: Term


def small_step(t: Term) -> tuple[Term, StepInfo | None] | None:
    """One weak call-by-value step; None when the term is a value.

    Function position first, then the argument, then beta. Raises StuckMatch
    when a beta attempt is decided against every branch or undecidable. The
    reference semantics that `evaluate` is tested against.
    """
    if t.value:
        return None
    assert isinstance(t, App)
    if not t.fun.value:
        stepped = small_step(t.fun)
        assert stepped is not None
        return App(stepped[0], t.arg), stepped[1]
    if not t.arg.value:
        stepped = small_step(t.arg)
        assert stepped is not None
        return App(t.fun, stepped[0]), stepped[1]
    # Both sides are values and the whole is not: the head must be an abstraction.
    assert isinstance(t.fun, Abs)
    index, reduct = beta(t.fun, t.arg)
    return reduct, StepInfo(index, len(t.fun.branches), t.arg)


@dataclass
class EvalResult:
    status: str  # "normal" | "stuck" | "out-of-fuel"
    term: Term
    steps: int
    stuck: StuckMatch | None = None
    trace: list[tuple[int, StepInfo]] = field(default_factory=list)


DEFAULT_FUEL = 100_000


def evaluate(t: Term, fuel: int = DEFAULT_FUEL, trace: bool = False) -> EvalResult:
    """Run at most `fuel` beta steps; the same result as iterating `small_step`.

    A machine derived by refocusing (Danvy & Nielsen, 2004): the context of the
    focus is a stack of frames, `(node, None)` for a hole in the function position
    of `node` and `(node, fun)` for one in its argument position, the function
    evaluated to `fun`. After a step the search for the next redex goes on from
    the reduct in place, and an application whose `value` flag is set is a leaf,
    never entered, so a step costs time in the part of its reduct that is not
    yet a value, not in the size of the whole term.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    events: list[tuple[int, StepInfo]] = []
    stack: list[tuple[App, Term | None]] = []
    steps = 0
    focus = t
    while True:
        while not focus.value:
            stack.append((focus, None))
            focus = focus.fun
        # The focus is a value: plug it in until an argument is left to evaluate or a redex forms.
        while stack:
            node, fun = stack.pop()
            if fun is None:
                stack.append((node, focus))
                focus = node.arg
                break
            if isinstance(fun, Abs):
                try:
                    index, reduct = beta(fun, focus)
                except StuckMatch as stuck:
                    return EvalResult("stuck", _plug(stack, App(fun, focus)), steps, stuck=stuck, trace=events)
                arg, focus = focus, reduct
                steps += 1
                if trace:
                    events.append((steps, StepInfo(index, len(fun.branches), arg)))
                if steps == fuel:
                    return EvalResult("out-of-fuel", _plug(stack, focus), steps, trace=events)
                break
            focus = node if fun is node.fun and focus is node.arg else App(fun, focus)
        else:
            return EvalResult("normal", focus, steps, trace=events)


def _plug(stack: list[tuple[App, Term | None]], term: Term) -> Term:
    """The whole term: `term` put back into the context the frames describe."""
    for node, fun in reversed(stack):
        term = App(term, node.arg) if fun is None else App(fun, term)
    return term
