from contextlib import contextmanager

import pytest

from cap import mu_types
from cap.compatibility import PatternJudgement, subsumes
from cap.diagnostics import CapError, Span
from cap.mu_types import (
    BULLET,
    BULLET_NAME,
    SYM_APP,
    SYM_ARROW,
    AppT,
    Arrow,
    MuType,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    _fresh_name,
    canonical,
    is_datatype,
    unfold_once,
    union_components,
)
from cap.relations import MODE_EQ, MODE_SUB
from cap.surface import KEYWORDS, parse_term, parse_type
from cap.syntax import (
    Abs,
    App,
    Branch,
    Const,
    Matchable,
    Pattern,
    PatternCompound,
    PatternConst,
    Position,
    Substitution,
    Term,
    Var,
    free_matchables,
    free_vars,
    rename_matchable,
)
from cap.typecheck import TypeEnv, abs_type, branch_bindings, type_pattern


@contextmanager
def counting(owner, name: str, bound: int):
    """Patch `owner.name` inside the block to count its calls. A call past
    `bound` fails the test at once with a plain message that shows no
    argument, so an exponential walk neither hangs nor prints its DAG. At the
    end of the block the test fails if the name was never called, since a
    patch that counts nothing passes vacuously; a bound of 0 asserts that it
    is not reached at all."""
    real = getattr(owner, name)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > bound:
            pytest.fail(f"{owner.__name__}.{name} was called more than {bound} times", pytrace=False)
        return real(*args)

    setattr(owner, name, counted)
    try:
        yield
    finally:
        setattr(owner, name, real)
    if bound and not calls:
        pytest.fail(f"{owner.__name__}.{name} was never called, so its bound shows nothing", pytrace=False)


def unfolding_substitutions(monkeypatch) -> list[Rec]:
    """Patch `mu_types.subst_type` to record each `rec` it unfolds: each call
    that puts a `rec` in for its variable in its own body. `unfold_once` looks
    the name up in the module, so it records one entry per unfolding built."""
    real = mu_types.subst_type
    unfolded: list[Rec] = []

    def counted(t, name, replacement):
        if isinstance(replacement, Rec) and t is replacement.body:
            unfolded.append(replacement)
        return real(t, name, replacement)

    monkeypatch.setattr(mu_types, "subst_type", counted)
    return unfolded


def unshared(t: MuType) -> MuType:
    """`t` rebuilt as a tree: a new object at every node, so no two places of it are one object."""
    match t:
        case TypeConst(name) | TypeVar(name):
            return type(t)(name)
        case AppT(l, r) | Arrow(l, r):
            return type(t)(unshared(l), unshared(r))
        case Union(parts):
            return Union(*map(unshared, parts))
        case Rec(var, body):
            return Rec(var, unshared(body))
    raise TypeError(f"not a type: {t!r}")


@pytest.fixture
def ty():
    return parse_type


@pytest.fixture
def tm():
    return parse_term


F_NAT = "rec a. Vl@Nat + a@a + Cons + Node + Nil"
LIST_A = "rec a. Nil + Cons@A@a"
TREE_A = "rec a. Nil + Node@A@a@a"


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """Reference: the lexer as a loop over characters, giving each token as
    (kind, text, line, col) with kind "lower", "upper", "punct", "keyword" or
    "eof"."""
    tokens: list[tuple[str, str, int, int]] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i) or text.startswith("=>", i):
            tokens.append(("punct", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],;:=|+@.":
            tokens.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            width = i - start
            if word in KEYWORDS:
                tokens.append(("keyword", word, line, col))
            elif word[0].isupper():
                tokens.append(("upper", word, line, col))
            else:
                tokens.append(("lower", word, line, col))
            col += width
            continue
        raise CapError("parse", f"unexpected character {ch!r}", span=Span(line, col))
    tokens.append(("eof", "", line, col))
    return tokens


class ReferenceEngine:
    """Reference: the relation engine without early answers. Every component
    pair, atoms included, goes through `canonical` and the assumption set."""

    def __init__(self, mode: str):
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
        match a, b:
            case (AppT(l1, r1), AppT(l2, r2)):
                return self.rel(l1, l2) and self.rel(r1, r2)
            case (Arrow(d1, c1), Arrow(d2, c2)):
                if self.mode == MODE_SUB:
                    return self.rel(d2, d1) and self.rel(c1, c2)
                return self.rel(d1, d2) and self.rel(c1, c2)
        return False


def reference_is_subtype(a: MuType, b: MuType) -> bool:
    """Reference: only the same object is answered before the engine."""
    return a is b or ReferenceEngine(MODE_SUB).rel(a, b)


def reference_is_equivalent(a: MuType, b: MuType) -> bool:
    return a is b or ReferenceEngine(MODE_EQ).rel(a, b)


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
            case Union(parts):
                out = Union(*[go(part, k) for part in parts])
            case Rec():
                out = go(unfold_once(t), k)
        memo[key] = out
        return out

    return go(t, depth)


def reference_pretty_type(t: MuType, level: int = 0) -> str:
    """Reference: the printer walks the type as a tree, with no memo."""
    match t:
        case TypeConst(name) | TypeVar(name):
            return name
        case Rec(var, body):
            text = f"rec {var}. {reference_pretty_type(body, 0)}"
            return f"({text})" if level > 0 else text
        case Arrow(dom, cod):
            text = f"{reference_pretty_type(dom, 1)} -> {reference_pretty_type(cod, 0)}"
            return f"({text})" if level > 0 else text
        case Union(parts):
            text = " + ".join([reference_pretty_type(parts[0], 1), *(reference_pretty_type(p, 2) for p in parts[1:])])
            return f"({text})" if level > 1 else text
        case AppT(left, right):
            text = f"{reference_pretty_type(left, 2)}@{reference_pretty_type(right, 3)}"
            return f"({text})" if level > 2 else text
    raise TypeError(f"not a type: {t!r}")


def reference_pretty_term(x: Term | Pattern, atom: bool = False) -> str:
    """Reference: a term or a pattern printed as a tree, with no memo. Both
    are application spines (`App` or `PatternCompound`) over names; only a
    term has abstractions."""
    match x:
        case Var(name) | Const(name) | Matchable(name) | PatternConst(name):
            return name
        case App(left, right) | PatternCompound(left, right):
            text = f"{reference_pretty_term(left, atom=isinstance(left, Abs))} {reference_pretty_term(right, atom=True)}"
        case Abs(branches):
            parts = []
            for b in branches:
                bindings = ", ".join(f"{n}:{reference_pretty_type(ty)}" for n, ty in b.bindings)
                # parenthesize abstraction bodies, else a following "|" would
                # attach to the innermost branch list when re-parsed
                body = reference_pretty_term(b.body, atom=isinstance(b.body, Abs))
                parts.append(f"[{bindings}] {reference_pretty_term(b.pattern)} => {body}")
            text = " | ".join(parts)
        case _:
            raise TypeError(f"cannot pretty-print {x!r}")
    return f"({text})" if atom else text


def reference_apply_substitution(sub: Substitution, t: Term) -> Term:
    """Reference: the substitution walks the term as a tree, with no memo. A
    branch takes its live names from the whole of `sub`, and renames each
    captured binder in a walk of its own before it substitutes them."""
    if not sub:
        return t
    match t:
        case Var(name):
            return sub.get(name, t)
        case Const():
            return t
        case App(f, a):
            return App(reference_apply_substitution(sub, f), reference_apply_substitution(sub, a))
        case Abs(branches):
            return Abs(tuple(_reference_subst_branch(sub, b) for b in branches))
    raise TypeError(f"not a term: {t!r}")


def _reference_subst_branch(sub: Substitution, b: Branch) -> Branch:
    binders = free_matchables(b.pattern)
    body_vars = free_vars(b.body)
    live = {x: u for x, u in sub.items() if x not in binders and x in body_vars}
    if not live:
        return b
    range_vars: set[str] = set()
    for u in live.values():
        range_vars |= free_vars(u)
    pattern, bindings, body = b.pattern, b.bindings, b.body
    avoid = range_vars | body_vars | binders | set(live)
    for old in sorted(binders & range_vars):
        new = _fresh_name(old, avoid)
        avoid.add(new)
        pattern = rename_matchable(pattern, old, new)
        bindings = tuple((new if n == old else n, ty) for n, ty in bindings)
        body = reference_apply_substitution({old: Var(new)}, body)
    return Branch(pattern, bindings, reference_apply_substitution(live, body))


def reference_validate_type(t: MuType) -> MuType:
    """Reference: the sort rule in one recursive walk, then contractiveness in
    another, so a type with both errors reports the sort error."""
    reference_check_sorts(t, frozenset())
    reference_check_contractive(t, frozenset())
    return t


def reference_check_sorts(t: MuType, data_vars: frozenset[str]) -> None:
    match t:
        case TypeConst(name):
            if name == BULLET_NAME:
                raise CapError("sort", "the truncation marker is reserved and cannot appear in types")
        case TypeVar():
            return
        case AppT(left, right):
            reference_check_sorts(left, data_vars)
            if not is_datatype(left, data_vars):
                raise CapError("sort", "left argument of @ must be a datatype", actual=reference_pretty_type(left))
            reference_check_sorts(right, data_vars)
        case Arrow(l, r):
            reference_check_sorts(l, data_vars)
            reference_check_sorts(r, data_vars)
        case Union(parts):
            for part in parts:
                reference_check_sorts(part, data_vars)
        case Rec(var, body):
            inner = data_vars | {var} if is_datatype(t, data_vars) else data_vars - {var}
            reference_check_sorts(body, inner)
        case _:
            raise TypeError(f"not a type: {t!r}")


def reference_check_contractive(t: MuType, unguarded: frozenset[str]) -> None:
    match t:
        case TypeConst():
            return
        case TypeVar(name):
            if name in unguarded:
                raise CapError("contractiveness", f"recursion variable '{name}' must occur under @ or ->")
        case AppT(l, r) | Arrow(l, r):
            reference_check_contractive(l, frozenset())
            reference_check_contractive(r, frozenset())
        case Union(parts):
            for part in parts:
                reference_check_contractive(part, unguarded)
        case Rec(var, body):
            reference_check_contractive(body, unguarded | {var})


def reference_is_value(t: Term) -> bool:
    """Reference for the `value` flag: a variable or constant applied to values,
    or an abstraction."""
    match t:
        case Var() | Const() | Abs():
            return True
        case App(f, a):
            return not isinstance(f, Abs) and reference_is_value(f) and reference_is_value(a)
    raise TypeError(f"not a term: {t!r}")


def reference_infer_type(env: TypeEnv, t: Term) -> MuType:
    """Reference: the typing walk over the term as a tree, with no memo, so a
    shared subterm is typed once per occurrence, and subsumption asks the
    reference engine."""
    match t:
        case Var(name):
            ty = env.get(name)
            if ty is None:
                raise CapError("type", f"unbound variable '{name}'")
            return ty
        case Const(name):
            return TypeConst(name)
        case App(fun, arg):
            fun_ty = reference_infer_type(env, fun)
            if is_datatype(fun_ty):
                return AppT(fun_ty, reference_infer_type(env, arg))
            components = union_components(fun_ty)
            if len(components) == 1 and isinstance(components[0], Arrow):
                arg_ty = reference_infer_type(env, arg)
                if reference_is_subtype(arg_ty, components[0].dom):
                    return components[0].cod
                raise CapError(
                    "type",
                    "argument type fits no part of the function domain",
                    expected=reference_pretty_type(components[0].dom),
                    actual=reference_pretty_type(arg_ty),
                )
            raise CapError(
                "type",
                "function position is neither a datatype nor a single arrow",
                actual=reference_pretty_type(fun_ty),
            )
        case Abs(branches):
            judgements: list[PatternJudgement] = []
            body_types: list[MuType] = []
            for i, branch in enumerate(branches):
                bindings = branch_bindings(i, branch)
                judgements.append(PatternJudgement(branch.pattern, type_pattern(bindings, branch.pattern)))
                body_types.append(reference_infer_type({**env, **bindings}, branch.body))
            return abs_type(judgements, body_types)
    raise TypeError(f"not a term: {t!r}")


def reference_check_type(env: TypeEnv, t: Term, expected: MuType) -> None:
    """Reference: infer the whole type of `t`, then one subtype query against `expected`."""
    actual = reference_infer_type(env, t)
    if not reference_is_subtype(actual, expected):
        raise CapError(
            "type",
            "term does not have the expected type",
            expected=reference_pretty_type(expected),
            actual=reference_pretty_type(actual),
        )


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
            case Union(parts):
                return frozenset().union(*(go(part, pos) for part in parts))
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
