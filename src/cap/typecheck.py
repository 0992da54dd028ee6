"""Pattern typing, term type synthesis with subsumption, and type checking.

`infer_type` synthesizes a term's type. Subsumption is one `is_subtype`
question at each application (the argument's type against the function's
domain) and in `check_type` (the term's type against the expected one);
every subtype clause lives in `relations`.

Terms are DAGs: `SessionState.resolve` puts one definition body at every
place its name occurs, so `def d_i = Cons d_{i-1} d_{i-1}` holds `d_{i-1}`
twice as the same object. Typing meets each node once per environment (see
`_infer`), and `relations` and `surface.pretty` walk the inferred type, a
DAG as well, once per node. Every type, term or pattern a diagnostic shows
is printed by `pretty(x, SHOWN)`, cut past `SHOWN` characters.
"""

from __future__ import annotations

from .compatibility import PatternJudgement, check_branch_compatibility
from .diagnostics import CapError
from .mu_types import (
    AppT,
    Arrow,
    MuType,
    TypeConst,
    is_datatype,
    split,
    union_of,
)
from .relations import is_equivalent, is_subtype
from .surface import SHOWN, pretty
from .syntax import (
    Abs,
    App,
    Const,
    Matchable,
    Pattern,
    PatternCompound,
    PatternConst,
    Term,
    Var,
    free_matchables,
    is_linear,
)

TypeEnv = dict[str, MuType]


def type_pattern(bindings: TypeEnv, p: Pattern) -> MuType:
    """Syntax-directed pattern typing. The pattern must be linear."""
    match p:
        case Matchable(name):
            ty = bindings.get(name)
            if ty is None:
                raise CapError("type", f"matchable '{name}' has no type annotation")
            return ty
        case PatternConst(name):
            return TypeConst(name)
        case PatternCompound(left, right):
            fun_ty = type_pattern(bindings, left)
            if not is_datatype(fun_ty):
                raise CapError(
                    "sort",
                    f"pattern '{pretty(left, SHOWN)}' heads a compound but its type is not a datatype",
                    actual=pretty(fun_ty, SHOWN),
                )
            return AppT(fun_ty, type_pattern(bindings, right))
    raise TypeError(f"not a pattern: {p!r}")


def infer_type(env: TypeEnv, t: Term) -> MuType:
    """Synthesize a minimal-intent type. Branch annotations must already be
    validated types, as `parse_*` and the generators produce them; they are
    not checked again here."""
    return _infer(env, {}, t, {})


def _infer(env: TypeEnv, local: TypeEnv, t: Term, memo: dict) -> MuType:
    """`infer_type` under `local`, the matchables of the enclosing branches,
    over `env`, with the memo of that scope, keyed on node identity for one
    top-level call and keeping its nodes alive: a node met again, as a shared
    subterm is, returns the type it got the first time. Each branch body is
    typed with its bindings put into `local`, not into a copy, and starts a
    fresh memo, so one `Var` object can be a bound matchable inside a body and
    an assumed name outside it. The memo is looked up here, in the recursive
    function, so it adds no frame per level of the term, and the type and the
    first error are those of walking every occurrence."""
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    match t:
        case Var(name):
            ty = local.get(name) or env.get(name)
            if ty is None:
                raise CapError("type", f"unbound variable '{name}'")
        case Const(name):
            ty = TypeConst(name)
        case App(fun, arg):
            ty = _infer_app(env, local, fun, arg, memo)
        case Abs(branches):
            ty = _infer_abs(env, local, branches)
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = (t, ty)
    return ty


def _infer_app(env: TypeEnv, local: TypeEnv, fun: Term, arg: Term, memo: dict) -> MuType:
    fun_ty = _infer(env, local, fun, memo)
    if is_datatype(fun_ty):
        return AppT(fun_ty, _infer(env, local, arg, memo))
    components = split(fun_ty)
    if len(components) == 1 and isinstance(components[0], Arrow):
        return apply_arrow(components[0], _infer(env, local, arg, memo))
    raise CapError(
        "type",
        "function position is neither a datatype nor a single arrow",
        actual=pretty(fun_ty, SHOWN),
    )


def apply_arrow(arrow: Arrow, arg_ty: MuType) -> MuType:
    """The type of applying a function of type `arrow` to an argument of type
    `arg_ty`: the codomain, once the argument fits the domain by subsumption."""
    if is_subtype(arg_ty, arrow.dom):
        return arrow.cod
    raise CapError(
        "type",
        "argument type fits no part of the function domain",
        expected=pretty(arrow.dom, SHOWN),
        actual=pretty(arg_ty, SHOWN),
    )


def _infer_abs(env: TypeEnv, local: TypeEnv, branches) -> MuType:
    judgements: list[PatternJudgement] = []
    body_types: list[MuType] = []
    for i, branch in enumerate(branches):
        bindings = branch_bindings(i, branch)
        judgements.append(PatternJudgement(branch.pattern, type_pattern(bindings, branch.pattern)))
        # an error ends the whole call, so only a typed body gives its names back
        shadowed = {name: local[name] for name in bindings if name in local}
        local.update(bindings)
        body_types.append(_infer(env, local, branch.body, {}))
        for name in bindings:
            del local[name]
        local.update(shadowed)
    return abs_type(judgements, body_types)


def branch_bindings(i: int, branch) -> TypeEnv:
    """The annotations of the `i`-th branch (from 0) as a map, once its
    pattern is linear and they annotate each of its matchables exactly once."""
    if not is_linear(branch.pattern):
        raise CapError("type", f"branch {i + 1}: pattern is not linear")
    bindings = branch.binding_map()
    if len(bindings) != len(branch.bindings):
        names = [name for name, _ in branch.bindings]
        twice = next(name for name in names if names.count(name) > 1)
        raise CapError("type", f"branch {i + 1}: matchable '{twice}' is annotated twice")
    declared = set(bindings)
    used = set(free_matchables(branch.pattern))
    if declared != used:
        missing = sorted(used - declared)
        extra = sorted(declared - used)
        detail = []
        if missing:
            detail.append(f"missing {missing}")
        if extra:
            detail.append(f"unused {extra}")
        raise CapError(
            "type",
            f"branch {i + 1}: annotations must cover exactly the pattern matchables ({', '.join(detail)})",
        )
    return bindings


def abs_type(judgements: list[PatternJudgement], body_types: list[MuType]) -> Arrow:
    """The type of an abstraction whose branches, in order, have the given
    pattern judgements and body types; each branch must already be linear and
    annotate exactly its matchables. Raises `CapError` on incompatible branches."""
    check_branch_compatibility(judgements)
    domain = union_of([j.type for j in judgements])
    if all(is_equivalent(body_types[0], ty) for ty in body_types[1:]):
        codomain = body_types[0]
    else:
        codomain = union_of(body_types)
    return Arrow(domain, codomain)


def check_type(env: TypeEnv, t: Term, expected: MuType) -> None:
    """Require `t` to infer a subtype of `expected`; both carry validated
    types, as for `infer_type`."""
    actual = infer_type(env, t)
    if not is_subtype(actual, expected):
        raise CapError(
            "type",
            "term does not have the expected type",
            expected=pretty(expected, SHOWN),
            actual=pretty(actual, SHOWN),
        )
