"""Pattern typing, term type synthesis with subsumption, and type checking.

`infer_type` synthesizes a term's type; subsumption is applied only at
application arguments and at checking boundaries, and both go through one
walk, `_checks`: `check_type` is the checking direction, and an argument is
checked against its function's domain the same way. A constructed term (a
constant, or an application spine headed by a constant or by a variable
whose type is a datatype) synthesizes a single `TypeConst` or `AppT`, and
for such a left side the fixpoint clauses of the subtype relation are: it is
a subtype of a union exactly when it is a subtype of one of the union's
components, a constant is a subtype of a component only when that is the
same constant, and `D@A <= D'@A'` holds exactly when `D <= D'` and
`A <= A'`. `check_type` applies those clauses to the term itself, pushing each
component's sides into the function and the argument, so it reaches the
verdict of `is_subtype(infer_type(env, t), expected)` without building or
walking the whole inferred type. Every other subterm, and every other term,
is inferred and compared with `is_subtype`. An argument that fails its
domain is inferred whole, only to report its type.

Terms are DAGs: `SessionState.resolve` puts one definition body at every
place its name occurs, so `def d_i = Cons d_{i-1} d_{i-1}` holds `d_{i-1}`
twice as the same object. Each walk memoizes on node identity, in a memo
that lives for one top-level call and keeps the nodes it is keyed on alive:

- `infer_type` keys its memo on the term node. A memo serves one typing
  environment: each branch body, typed under `{**env, **bindings}`, starts a
  fresh one, so one `Var` object can be a bound matchable inside a body and
  an assumed name outside it.
- `_checks` keys its verdicts on the pair (term node, expected type), in a
  memo for one `check_type` call or one application's argument, and shares
  the inference memo of its environment.
- `surface.pretty_type`, which prints `actual`, keys its memo on the pair
  (type node, precedence level).

Each memo is looked up inside the recursive function itself, so the memo
adds no Python frame per level of the term, and the traversal order is the
one of a tree walk: the verdicts and the first error are those of walking
every occurrence.
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
    union_components,
    union_of,
)
from .relations import is_equivalent, is_subtype
from .surface import pretty
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
                    f"pattern '{pretty(left)}' heads a compound but its type is not a datatype",
                    actual=pretty(fun_ty),
                )
            return AppT(fun_ty, type_pattern(bindings, right))
    raise TypeError(f"not a pattern: {p!r}")


def infer_type(env: TypeEnv, t: Term) -> MuType:
    """Synthesize a minimal-intent type; subsumption is applied only at
    application arguments and explicit checking boundaries.

    Branch annotations must already be validated types, as `parse_*` and the
    generators produce them; they are not checked again here.
    """
    return _infer(env, t, {})


def _infer(env: TypeEnv, t: Term, memo: dict) -> MuType:
    """`infer_type` with the memo of `env`: a node met again, as a shared
    subterm is, returns the type it got the first time."""
    got = memo.get(id(t))
    if got is not None:
        return got[1]
    match t:
        case Var(name):
            ty = env.get(name)
            if ty is None:
                raise CapError("type", f"unbound variable '{name}'")
        case Const(name):
            ty = TypeConst(name)
        case App(fun, arg):
            ty = _infer_app(env, fun, arg, memo)
        case Abs(branches):
            ty = _infer_abs(env, branches)
        case _:
            raise TypeError(f"not a term: {t!r}")
    memo[id(t)] = (t, ty)
    return ty


def _infer_app(env: TypeEnv, fun: Term, arg: Term, memo: dict) -> MuType:
    fun_ty = _infer(env, fun, memo)
    if is_datatype(fun_ty):
        return AppT(fun_ty, _infer(env, arg, memo))
    components = union_components(fun_ty)
    if len(components) == 1 and isinstance(components[0], Arrow):
        arrow = components[0]
        if _checks(env, arg, arrow.dom, memo, {}):
            return arrow.cod
        return apply_arrow(arrow, _infer(env, arg, memo))
    raise CapError(
        "type",
        "function position is neither a datatype nor a single arrow",
        actual=pretty(fun_ty),
    )


def apply_arrow(arrow: Arrow, arg_ty: MuType) -> MuType:
    """The type of applying a function of type `arrow` to an argument of type
    `arg_ty`: the codomain, once the argument fits the domain by subsumption."""
    if is_subtype(arg_ty, arrow.dom):
        return arrow.cod
    raise CapError(
        "type",
        "argument type fits no part of the function domain",
        expected=pretty(arrow.dom),
        actual=pretty(arg_ty),
    )


def _infer_abs(env: TypeEnv, branches) -> MuType:
    judgements: list[PatternJudgement] = []
    body_types: list[MuType] = []
    for i, branch in enumerate(branches):
        bindings = branch_bindings(i, branch)
        judgements.append(PatternJudgement(branch.pattern, type_pattern(bindings, branch.pattern)))
        body_types.append(_infer({**env, **bindings}, branch.body, {}))
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
    types, as for `infer_type`.

    A constructed term (see `_is_constructed`) is checked against the union
    components of `expected` one by one, by the fixpoint clauses in the
    module docstring, without inferring its whole type; any other term
    infers its type and asks `is_subtype`. Both ways give the same verdict
    and raise the same first inference error. A failure reports the whole
    inferred type as `actual`, which a constructed term infers only then.
    """
    inferred: dict = {}
    if _checks(env, t, expected, inferred, {}):
        return
    actual = _infer(env, t, inferred)
    raise CapError(
        "type",
        "term does not have the expected type",
        expected=pretty(expected),
        actual=pretty(actual),
    )


def _is_constructed(env: TypeEnv, t: Term) -> bool:
    """Whether `t` is a constant, or an application spine headed by a
    constant or by a variable whose type is a datatype: the terms
    `infer_type` types as a `TypeConst` or as an `AppT` down their spine."""
    head = t
    while isinstance(head, App):
        head = head.fun
    if isinstance(head, Const):
        return True
    return head is not t and isinstance(head, Var) and head.name in env and is_datatype(env[head.name])


def _checks(env: TypeEnv, t: Term, expected: MuType, inferred: dict, checked: dict) -> bool:
    """The verdict of `is_subtype(infer_type(env, t), expected)`, raising the
    first inference error of `t` that it reaches. `inferred` is the memo of
    `_infer` for `env`, and `checked` holds the verdicts already reached."""
    key = (id(t), id(expected))
    got = checked.get(key)
    if got is not None:
        return got[2]
    if _is_constructed(env, t):
        for component in union_components(expected):
            if _fits(env, t, component, inferred, checked):
                verdict = True
                break
        else:
            verdict = False
    else:
        verdict = is_subtype(_infer(env, t, inferred), expected)
    checked[key] = (t, expected, verdict)
    return verdict


def _fits(env: TypeEnv, t: Term, component: MuType, inferred: dict, checked: dict) -> bool:
    """Whether a constructed term's type is a subtype of one union component,
    by the fixpoint clauses in the module docstring. The function is checked
    before the argument, so the first inference error reached is the one
    `infer_type` raises first."""
    match t, component:
        case Const(name), TypeConst(expected_name):
            return name == expected_name
        case App(fun, arg), AppT(left, right):
            return _checks(env, fun, left, inferred, checked) and _checks(env, arg, right, inferred, checked)
    return False
