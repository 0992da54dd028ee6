"""Terms and patterns: abstract syntax, free names, substitution.

An application stores whether it is a value, set from its children when it is
built and left out of `==`, hashing and `repr`. Free variables are not stored,
since a spine over n distinct names would hold n²/2 of them; a substitution
computes them for the branch bodies it enters, and visits each node once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mu_types import MuType, _fresh_name, node_repr


class Pattern:
    __slots__ = ()
    __repr__ = node_repr


@dataclass(frozen=True, slots=True, repr=False)
class Matchable(Pattern):
    """Pattern variable, bound by the enclosing branch."""

    name: str


@dataclass(frozen=True, slots=True, repr=False)
class PatternConst(Pattern):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class PatternCompound(Pattern):
    left: Pattern
    right: Pattern


class Term:
    __slots__ = ()
    __repr__ = node_repr
    value = True  # an application stores its own flag; every other term is a value


@dataclass(frozen=True, slots=True, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Const(Term):
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class App(Term):
    fun: Term
    arg: Term
    value: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        fun = self.fun
        object.__setattr__(self, "value", fun.value and self.arg.value and not isinstance(fun, Abs))


@dataclass(frozen=True, slots=True, repr=False)
class Branch:
    """One alternative of an abstraction: pattern, matchable annotations, body."""

    pattern: Pattern
    bindings: tuple[tuple[str, MuType], ...]
    body: Term

    __repr__ = node_repr

    def binding_map(self) -> dict[str, MuType]:
        return dict(self.bindings)


@dataclass(frozen=True, slots=True, repr=False)
class Abs(Term):
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("abstraction needs at least one branch")


Position = tuple[int, ...]

Substitution = dict[str, Term]


def matchables(p: Pattern) -> list[str]:
    """The matchables of `p`, left to right, with repeats."""
    match p:
        case Matchable(name):
            return [name]
        case PatternConst():
            return []
        case PatternCompound(l, r):
            return matchables(l) + matchables(r)
    raise TypeError(f"not a pattern: {p!r}")


def free_matchables(p: Pattern) -> frozenset[str]:
    return frozenset(matchables(p))


def is_linear(p: Pattern) -> bool:
    """No matchable name occurs twice."""
    names = matchables(p)
    return len(names) == len(set(names))


def free_vars(t: Term) -> frozenset[str]:
    return _free_vars(t, {})


def _free_vars(t: Term, memo: dict[int, tuple[Term, frozenset[str]]]) -> frozenset[str]:
    """`free_vars`, computed once per node: `memo` holds each node it has seen,
    keyed on its id, so the ids stay valid for as long as the memo lives."""
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    match t:
        case Var(name):
            out = frozenset((name,))
        case Const():
            out = frozenset()
        case App(f, a):
            out = _free_vars(f, memo) | _free_vars(a, memo)
        case Abs(branches):
            out = frozenset()
            for b in branches:
                out |= _free_vars(b.body, memo) - free_matchables(b.pattern)
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = (t, out)
    return out


def rename_matchable(p: Pattern, old: str, new: str) -> Pattern:
    match p:
        case Matchable(name):
            return Matchable(new) if name == old else p
        case PatternConst():
            return p
        case PatternCompound(l, r):
            return PatternCompound(rename_matchable(l, old, new), rename_matchable(r, old, new))
    raise TypeError(f"not a pattern: {p!r}")


def apply_substitution(sub: Substitution, t: Term) -> Term:
    """Simultaneous capture-avoiding replacement of free variables.

    Each node, shared or not, is substituted once, and free variables are
    computed once per node, so the cost is linear in the DAG size of `t`,
    however deeply its abstractions nest. A subterm that comes out unchanged
    is kept as it is, so closed subterms are shared rather than copied.
    """
    return _substitute(sub, t, {}, {}) if sub else t


def _substitute(sub: Substitution, t: Term, fv: dict, memo: dict[int, tuple[Term, Term]]) -> Term:
    """`memo` holds each node `sub` has substituted, keyed on its id, beside the node."""
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    match t:
        case Var(name):
            return sub.get(name, t)
        case Const():
            return t
        case App(f, a):
            fun, arg = _substitute(sub, f, fv, memo), _substitute(sub, a, fv, memo)
            out = t if fun is f and arg is a else App(fun, arg)
        case Abs(branches):
            new = tuple(_subst_branch(sub, b, fv) for b in branches)
            out = t if all(n is b for n, b in zip(new, branches)) else Abs(new)
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = (t, out)
    return out


def _subst_branch(sub: Substitution, b: Branch, fv: dict) -> Branch:
    binders = free_matchables(b.pattern)
    body_vars = _free_vars(b.body, fv)
    live = {x: sub[x] for x in body_vars if x in sub and x not in binders}
    if not live:
        return b
    range_vars: set[str] = set()
    for u in live.values():
        range_vars |= _free_vars(u, fv)
    captured = sorted(binders & range_vars)
    pattern, bindings, body = b.pattern, b.bindings, b.body
    if captured:
        avoid = set(range_vars) | set(body_vars) | set(binders) | set(live)
        for old in captured:
            new = _fresh_name(old, avoid)
            avoid.add(new)
            pattern = rename_matchable(pattern, old, new)
            bindings = tuple((new if n == old else n, ty) for n, ty in bindings)
            body = _substitute({old: Var(new)}, body, fv, {})
    return Branch(pattern, bindings, _substitute(live, body, fv, {}))


# --- Classification ---------------------------------------------------------


def is_data_structure(t: Term) -> bool:
    """A constant applied to zero or more arbitrary arguments."""
    while isinstance(t, App):
        t = t.fun
    return isinstance(t, Const)


def is_matchable_form(t: Term) -> bool:
    return isinstance(t, Abs) or is_data_structure(t)
