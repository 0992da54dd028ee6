"""Deterministic, seeded generators for types and well-typed closed terms.

Terms are built by running the typing rules generatively rather than by
filtering random syntax; abstraction branch lists are kept compatible by
construction where possible and by bounded rejection sampling otherwise.
Each step types the term it builds exactly once, with the typechecker's own
rules: a compound by `AppT`, an abstraction by `abs_type` over its branch
judgements and body types, a redex by `apply_arrow`. `infer_type` is never
called here.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from .compatibility import PatternJudgement
from .diagnostics import CapError
from .mu_types import (
    AppT,
    Arrow,
    MuType,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    head_unfold,
    is_datatype,
    union_components,
    union_of,
)
from .surface import validate_type
from .syntax import (
    Abs,
    App,
    Branch,
    Const,
    Matchable,
    Pattern,
    PatternCompound,
    PatternConst,
    Term,
    Var,
)
from .typecheck import TypeEnv, abs_type, apply_arrow, type_pattern


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_type_nodes: int = 12
    max_term_nodes: int = 20
    max_union_width: int = 4
    rec_probability: float = 0.25

    def __post_init__(self) -> None:
        if min(self.max_type_nodes, self.max_term_nodes, self.max_union_width) < 1:
            raise ValueError("size bounds must be positive")
        if not 0.0 <= self.rec_probability <= 1.0:
            raise ValueError("rec_probability must lie in [0, 1]")

    def with_seed(self, seed: int) -> "GenConfig":
        return dataclasses.replace(self, seed=seed)


# Sorts the type generator aims for; validation computes them from structure.
SORT_DATA = "data"
SORT_TYPE = "type"

# Type and term constants share one namespace (the constant `A` has type `A`).
CONSTS = ("A", "B", "C", "Nil", "Cons", "Vl")
TYPE_CONSTS = CONSTS  # the name bench/workloads.py reads


class GenerationExhausted(Exception):
    pass


class _TypeGen:
    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"t{self.counter}"

    def gen(self, budget: int, sort: str, scope: tuple[tuple[str, str, bool], ...]) -> MuType:
        # Scope entries are (name, sort, guarded); a recursion variable is
        # usable only once an @ or -> has been crossed since its binder.
        rng = self.rng
        usable = [n for n, s, guarded in scope if guarded and (s == SORT_DATA or sort == SORT_TYPE)]
        if budget <= 1:
            if usable and rng.random() < 0.4:
                return TypeVar(rng.choice(usable))
            return TypeConst(rng.choice(CONSTS))
        choices = ["const", "app"]
        if usable:
            choices.append("var")
        if sort == SORT_TYPE:
            choices.append("arrow")
        if budget >= 3:
            choices.append("union")
        if budget >= 3 and rng.random() < self.cfg.rec_probability:
            choices.append("rec")
        pick = rng.choice(choices)
        guarded_scope = tuple((n, s, True) for n, s, _ in scope)
        if pick == "const":
            return TypeConst(rng.choice(CONSTS))
        if pick == "var":
            return TypeVar(rng.choice(usable))
        if pick == "app":
            split = max(1, (budget - 1) // 2)
            return AppT(
                self.gen(split, SORT_DATA, guarded_scope),
                self.gen(budget - 1 - split, SORT_TYPE, guarded_scope),
            )
        if pick == "arrow":
            split = max(1, (budget - 1) // 2)
            return Arrow(
                self.gen(split, SORT_TYPE, guarded_scope),
                self.gen(budget - 1 - split, SORT_TYPE, guarded_scope),
            )
        if pick == "union":
            width = rng.randint(2, self.cfg.max_union_width)
            per = max(1, (budget - width + 1) // width)
            return union_of([self.gen(per, sort, scope) for _ in range(width)])
        var = self.fresh()
        body = self.gen(budget - 1, sort, scope + ((var, sort, False),))
        return Rec(var, body)


def gen_type(cfg: GenConfig) -> MuType:
    """A sorted, contractive type; deterministic per configuration."""
    rng = random.Random(cfg.seed)
    gen = _TypeGen(rng, cfg)
    sort = SORT_DATA if rng.random() < 0.5 else SORT_TYPE
    raw = gen.gen(cfg.max_type_nodes, sort, ())
    return validate_type(raw)


# -- typed terms -----------------------------------------------------------------


class _TermGen:
    def __init__(self, rng: random.Random, cfg: GenConfig):
        self.rng = rng
        self.cfg = cfg
        self.counter = 0
        self.type_gen = _TypeGen(rng, cfg)

    def fresh(self) -> str:
        self.counter += 1
        return f"x{self.counter}"

    def gen(self, env: TypeEnv, budget: int, depth: int = 0) -> tuple[Term, MuType]:
        rng = self.rng
        if budget <= 1 or depth > 6:
            return self.leaf(env)
        choices = ["leaf", "data", "data"]
        if depth < 4:
            choices += ["abs", "redex", "redex"]
        pick = rng.choice(choices)
        if pick == "leaf":
            return self.leaf(env)
        if pick == "data":
            return self.gen_data(env, budget, depth)
        if pick == "abs":
            term, ty, _ = self.gen_abs_for(env, None, None, budget, depth)
            return term, ty
        return self.gen_redex(env, budget, depth)

    def leaf(self, env: TypeEnv) -> tuple[Term, MuType]:
        rng = self.rng
        names = sorted(env)
        if names and rng.random() < 0.5:
            name = rng.choice(names)
            return Var(name), env[name]
        c = rng.choice(CONSTS)
        return Const(c), TypeConst(c)

    def gen_data(self, env: TypeEnv, budget: int, depth: int) -> tuple[Term, MuType]:
        """A compound typed by type application: datatype head, arbitrary args."""
        rng = self.rng
        data_vars = [n for n in sorted(env) if is_datatype(env[n])]
        if budget <= 2:
            c = rng.choice(CONSTS)
            return Const(c), TypeConst(c)
        if data_vars and rng.random() < 0.3:
            name = rng.choice(data_vars)
            head: Term = Var(name)
            head_ty: MuType = env[name]
        else:
            c = rng.choice(CONSTS)
            head, head_ty = Const(c), TypeConst(c)
        term, ty = head, head_ty
        remaining = budget - 1
        for _ in range(rng.randint(1, 2)):
            arg_budget = max(1, remaining // 2)
            arg, arg_ty = self.gen(env, arg_budget, depth + 1)
            remaining -= arg_budget
            term = App(term, arg)
            ty = AppT(ty, arg_ty)
        return term, ty

    def pattern_for(self, u: Term, ty: MuType) -> tuple[Pattern, tuple[tuple[str, MuType], ...]]:
        """A pattern the value of `u` (generated with type `ty`) is guaranteed
        to match, with annotations."""
        rng = self.rng
        if isinstance(u, Const) and rng.random() < 0.5:
            return PatternConst(u.name), ()
        # An application headed by an abstraction is a redex and gets a
        # matchable; any other one comes from `gen_data`, typed `AppT(head, arg)`.
        if isinstance(u, App) and rng.random() < 0.7 and not isinstance(u.fun, Abs):
            assert isinstance(ty, AppT)
            left, left_bind = self.pattern_for(u.fun, ty.left)
            right, right_bind = self.pattern_for(u.arg, ty.right)
            return PatternCompound(left, right), left_bind + right_bind
        name = self.fresh()
        return Matchable(name), ((name, ty),)

    def _spine_head_const(self, u: Term) -> str | None:
        while isinstance(u, App):
            u = u.fun
        return u.name if isinstance(u, Const) else None

    def gen_abs_for(
        self,
        env: TypeEnv,
        argument: Term | None,
        argument_ty: MuType | None,
        budget: int,
        depth: int,
    ) -> tuple[Abs, MuType, int]:
        """An abstraction; when an argument is supplied, some branch matches it.

        Returns the term, its type, and the index of the matching branch
        (0 when no argument was supplied).
        """
        rng = self.rng
        for _ in range(8):
            if argument is None:
                name = self.fresh()
                ann = validate_type(self.type_gen.gen(min(5, self.cfg.max_type_nodes), SORT_TYPE, ()))
                pattern: Pattern = Matchable(name)
                bindings: tuple[tuple[str, MuType], ...] = ((name, ann),)
            else:
                assert argument_ty is not None
                pattern, bindings = self.pattern_for(argument, argument_ty)
            # Every matchable name comes from `fresh()`, so each pattern is
            # linear and annotates each of its matchables exactly once.
            first_ty = type_pattern(dict(bindings), pattern)
            body_env = {**env, **dict(bindings)}
            body, body_ty = self.gen(body_env, max(1, budget // 2), depth + 1)
            branches = [Branch(pattern, bindings, body)]
            judgements = [PatternJudgement(pattern, first_ty)]
            body_types = [body_ty]
            match_index = 0
            # A leading constant branch that is bound to fail exercises the
            # fail-then-select side of beta.
            head = self._spine_head_const(argument) if argument is not None else None
            if argument is not None and not isinstance(argument, Var) and rng.random() < 0.35:
                other = rng.choice([c for c in CONSTS if c != head])
                decoy_body, decoy_ty = self.gen(env, 1, depth + 1)
                branches.insert(0, Branch(PatternConst(other), (), decoy_body))
                judgements.insert(0, PatternJudgement(PatternConst(other), TypeConst(other)))
                body_types.insert(0, decoy_ty)
                match_index = 1
            if rng.random() < 0.4:
                name = self.fresh()
                catch_body, catch_ty = self.gen({**env, name: first_ty}, 1, depth + 1)
                branches.append(Branch(Matchable(name), ((name, first_ty),), catch_body))
                judgements.append(PatternJudgement(Matchable(name), first_ty))
                body_types.append(catch_ty)
            try:
                ty = abs_type(judgements, body_types)
            except CapError:
                continue
            return Abs(tuple(branches)), ty, match_index
        raise GenerationExhausted("no compatible branch list found")

    def gen_redex(self, env: TypeEnv, budget: int, depth: int) -> tuple[Term, MuType]:
        arg, arg_ty = self.gen(env, max(1, budget // 3), depth + 1)
        fun, fun_ty, _ = self.gen_abs_for(env, arg, arg_ty, budget - 1, depth)
        return App(fun, arg), apply_arrow(fun_ty, arg_ty)


def gen_typed_term(cfg: GenConfig) -> tuple[Term, MuType]:
    """A closed term and the type its generator built, which is `infer_type({}, term)`.

    Each step types its term once, with `infer_type`'s own rules (`AppT` for
    compounds, `abs_type` for abstractions, `apply_arrow` for redexes), and
    never calls `infer_type`. Deterministic per config."""
    rng = random.Random(cfg.seed ^ 0x5EED)
    gen = _TermGen(rng, cfg)
    for _ in range(16):
        try:
            return gen.gen({}, cfg.max_term_nodes)
        except (GenerationExhausted, CapError):
            continue
    raise GenerationExhausted(f"seed {cfg.seed}: no term within retry budget")


# -- mutations for the differential suite ------------------------------------------


def mutate_type(rng: random.Random, t: MuType) -> MuType:
    """A second type related to the first in an interesting way.

    Some mutations preserve equivalence (reassociation, duplication, one-step
    unfolding), some widen (extra union component), some break the relation.
    With some probability the mutation lands at a random subtree rather than
    the head; ill-sorted results fall back to a head mutation.
    """
    if rng.random() < 0.4:
        deep = _mutate_subtree(rng, t)
        try:
            return validate_type(deep)
        except CapError:
            pass
    return _mutate_head(rng, t)


def _mutate_head(rng: random.Random, t: MuType) -> MuType:
    kind = rng.choice(
        ["shuffle", "duplicate", "unfold", "widen", "narrow", "rename", "wrap", "fresh"]
    )
    components = union_components(t)
    if kind == "shuffle" and len(components) > 1:
        shuffled = components[:]
        rng.shuffle(shuffled)
        return union_of(shuffled)
    if kind == "duplicate":
        return union_of(components + [rng.choice(components)])
    if kind == "unfold":
        return head_unfold(t) if isinstance(t, Rec) else union_of(components)
    if kind == "widen":
        return union_of(components + [TypeConst(rng.choice(CONSTS))])
    if kind == "narrow" and len(components) > 1:
        keep = rng.randint(1, len(components) - 1)
        return union_of(components[:keep])
    if kind == "rename":
        return _rename_one_const(rng, t)
    if kind == "wrap":
        return Rec("unused_w", t)
    return gen_type(GenConfig(seed=rng.randrange(1 << 30)))


def _mutate_subtree(rng: random.Random, t: MuType) -> MuType:
    """Apply a head mutation somewhere below the root."""
    match t:
        case AppT(l, r) if rng.random() < 0.75:
            return AppT(l, _mutate_subtree(rng, r)) if rng.random() < 0.7 else AppT(_mutate_subtree(rng, l), r)
        case Arrow(l, r) if rng.random() < 0.75:
            return Arrow(_mutate_subtree(rng, l), r) if rng.random() < 0.5 else Arrow(l, _mutate_subtree(rng, r))
        case Union(parts) if rng.random() < 0.6:  # its sides as `(A + B) + C` reads: all parts but the last, and the last
            init, last = union_of(parts[:-1]), parts[-1]
            return Union(_mutate_subtree(rng, init), last) if rng.random() < 0.5 else Union(init, _mutate_subtree(rng, last))
        case Rec(var, body) if rng.random() < 0.75:
            return Rec(var, _mutate_subtree(rng, body))
    return _mutate_head(rng, t)


def _rename_one_const(rng: random.Random, t: MuType) -> MuType:
    target = rng.choice(CONSTS)
    replacement = rng.choice([c for c in CONSTS if c != target])

    def go(t: MuType) -> MuType:
        match t:
            case TypeConst(name):
                return TypeConst(replacement) if name == target else t
            case TypeVar():
                return t
            case AppT(l, r):
                return AppT(go(l), go(r))
            case Arrow(l, r):
                return Arrow(go(l), go(r))
            case Union(parts):
                return Union(*map(go, parts))
            case Rec(var, body):
                return Rec(var, go(body))
        raise TypeError(f"not a type: {t!r}")

    return go(t)
