"""Recursive union types: representation, unfolding, decomposition, truncation.

What is derived from a type node is derived once and kept on the node: a
`rec` keeps its one unfolding (`unfold_once`) and a union its maximal
components (`split`). Neither slot is compared, hashed or printed, so a type
that holds them equals one that does not."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

# Constructor symbols as they appear in admitted-symbol sets.
SYM_APP = "@"
SYM_ARROW = "->"

# Reserved atom marking truncation frontiers; never a legal user type constant.
BULLET_NAME = "•"


REPR_LIMIT = 400


def node_repr(node: object) -> str:
    """The dataclass `repr` of a type, term, pattern or branch, cut with `...`
    past `REPR_LIMIT` characters. Like `same_structure`, it reads fields from
    `__match_args__` on a stack, which stops at the limit: a DAG is never printed as a tree."""
    text = ""
    stack = [node]  # nodes and tuples to write out, and text written as it is
    while stack and len(text) <= REPR_LIMIT:
        x = stack.pop()
        if type(x) is not str:
            if type(x) is tuple:
                fields = [("", value) for value in x]
            else:
                fields = [(f"{name}=", getattr(x, name)) for name in type(x).__match_args__]
            stack.append(",)" if type(x) is tuple and len(x) == 1 else ")")
            for i in reversed(range(len(fields))):
                label, value = fields[i]
                shown = value if type(value) is tuple or hasattr(type(value), "__match_args__") else repr(value)
                stack += (shown, (", " if i else "") + label)
            x = "(" if type(x) is tuple else f"{type(x).__qualname__}("
        text += x
    return text if len(text) <= REPR_LIMIT else text[:REPR_LIMIT] + "..."


class MuType:
    """Base class for type expressions."""

    __slots__ = ()
    __repr__ = node_repr


@dataclass(frozen=True, slots=True, repr=False)
class TypeConst(MuType):
    """Atomic type constant, shared namespace with term constants."""

    name: str


@dataclass(frozen=True, slots=True, repr=False)
class TypeVar(MuType):
    """Recursion variable, or a free rigid variable; its sort is computed."""

    name: str


@dataclass(frozen=True, slots=True, repr=False)
class AppT(MuType):
    """Type application D @ A; the left side must be datatype-sorted."""

    left: MuType
    right: MuType


@dataclass(frozen=True, slots=True, repr=False)
class Arrow(MuType):
    """Function type A -> B."""

    dom: MuType
    cod: MuType


@dataclass(frozen=True, slots=True, repr=False, init=False)
class Union(MuType):
    """Union of two or more parts, A + B + ...: a union given as the first part
    has its parts taken in, as `A + B + C` reads `(A + B) + C`, and one given as
    a later part stays one part, so `A + (B + C)` has two."""

    parts: tuple[MuType, ...]
    split: tuple[MuType, ...] = field(init=False, compare=False, repr=False)  # set by the first `split`

    def __init__(self, *parts: MuType):
        if len(parts) < 2:
            raise TypeError(f"a union has at least two parts, not {len(parts)}")
        if type(parts[0]) is Union:
            parts = parts[0].parts + parts[1:]
        object.__setattr__(self, "parts", parts)

    def __reduce__(self):  # a copy or a pickle splits itself, when it needs to
        return Union, self.parts


@dataclass(frozen=True, slots=True, repr=False)
class Rec(MuType):
    """Recursive type binding `var` in `body`; see `is_datatype` for its sort."""

    var: str
    body: MuType
    unfolded: MuType = field(init=False, compare=False, repr=False)  # set by the first `unfold_once`

    def __reduce__(self):  # a copy or a pickle builds its own unfolding, when it needs one
        return Rec, (self.var, self.body)


def union_of(components: list[MuType]) -> MuType:
    """The union of a nonempty component list, or its one component."""
    if not components:
        raise ValueError("empty union")
    return Union(*components) if len(components) > 1 else components[0]


def free_type_vars(t: MuType) -> frozenset[str]:
    """The free names of `t`."""
    match t:
        case TypeConst():
            return frozenset()
        case TypeVar(name):
            return frozenset((name,))
        case Union(parts):
            return frozenset().union(*map(free_type_vars, parts))
        case AppT(l, r) | Arrow(l, r):
            return free_type_vars(l) | free_type_vars(r)
        case Rec(var, body):
            return free_type_vars(body) - {var}
    raise TypeError(f"not a type: {t!r}")


def _fresh_name(base: str, avoid: frozenset[str]) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def subst_type(t: MuType, name: str, replacement: MuType) -> MuType:
    """Capture-avoiding substitution of a recursion variable by a type. A
    subterm without `name` free comes back as the same object, and so does
    `replacement` at every place it is put: they are shared, not copied."""
    match t:
        case TypeConst():
            return t
        case TypeVar(n):
            return replacement if n == name else t
        case Union(parts):
            new = [subst_type(p, name, replacement) for p in parts]
            return t if all(map(operator.is_, new, parts)) else Union(*new)
        case AppT(l, r) | Arrow(l, r):
            left, right = subst_type(l, name, replacement), subst_type(r, name, replacement)
            return t if left is l and right is r else type(t)(left, right)
        case Rec(var, body):
            if var == name:
                return t
            new = subst_type(body, name, replacement)
            if new is body:
                return t
            if var in free_type_vars(replacement):
                fresh = _fresh_name(var, free_type_vars(replacement) | free_type_vars(body) | {name})
                new = subst_type(subst_type(body, var, TypeVar(fresh)), name, replacement)
                var = fresh
            return Rec(var, new)
    raise TypeError(f"not a type: {t!r}")


def unfold_once(t: Rec) -> MuType:
    """`t.body` with `t` itself for `t.var`, built on the first call and the same object after."""
    if not hasattr(t, "unfolded"):
        object.__setattr__(t, "unfolded", subst_type(t.body, t.var, t))
    return t.unfolded


HEAD_UNFOLD_LIMIT = 10_000  # stops the loop on a non-contractive type built by hand


def head_unfold(t: MuType) -> MuType:
    """Unfold recursion binders at the head until a structural constructor shows."""
    steps = 0
    while isinstance(t, Rec):
        t = unfold_once(t)
        steps += 1
        if steps > HEAD_UNFOLD_LIMIT:
            raise RuntimeError("non-contractive type: head unfolding does not terminate")
    return t


def split(t: MuType) -> tuple[MuType, ...]:
    """The maximal union components of a type, in order, duplicates kept.

    Every component has a non-union, non-recursive head. A union, or the
    union a `rec` unfolds to, is walked on its first split, on a stack, so
    its width and depth add no recursion; it keeps the components, and every
    later split returns that same tuple."""
    t = head_unfold(t)
    if not isinstance(t, Union):
        return (t,)
    if not hasattr(t, "split"):
        out, stack = [], [t]
        while stack:
            u = stack.pop()
            if isinstance(u, Rec):
                u = head_unfold(u)
            if isinstance(u, Union):
                stack += reversed(u.parts)
            else:
                out.append(u)
        object.__setattr__(t, "split", tuple(out))
    return t.split


def union_components(t: MuType) -> list[MuType]:
    """`split(t)` as a new list, which the caller may change."""
    return list(split(t))


def same_structure(a: object, b: object) -> bool:
    """Structural equality of types, terms or patterns, `a == b`, in time
    linear in the shared size.

    A node is compared by the fields of its class's `__match_args__`, the
    fields `==` compares; names by value, tuples element by element, and any
    other object raises `TypeError`. The walk keeps an explicit stack, so no
    depth raises `RecursionError`, and compares each pair of compound nodes
    once, so a DAG is not walked as a tree. Binder names count."""
    seen: set[tuple[int, int]] = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        cls = type(x)
        if cls is not type(y):
            return False
        if cls is str:
            if x != y:
                return False
            continue
        key = (id(x), id(y))
        if key in seen:
            continue
        seen.add(key)
        if cls is tuple:
            if len(x) != len(y):
                return False
            stack += zip(x, y)
            continue
        try:
            fields = cls.__match_args__
        except AttributeError:
            raise TypeError(f"not a type, term or pattern: {x!r}") from None
        for f in fields:
            stack.append((getattr(x, f), getattr(y, f)))
    return True


def canonical(t: MuType) -> MuType:
    """Alpha-normal form: recursion binders renamed by binding depth.

    Structural equality of canonical forms coincides with alpha-equivalence,
    which makes them usable as memo keys.
    """
    return _canonical(t, 0, {})


def _canonical(t: MuType, depth: int, env: dict[str, str]) -> MuType:
    match t:
        case TypeConst():
            return t
        case TypeVar(n):
            return TypeVar(env.get(n, n))
        case AppT(l, r) | Arrow(l, r):
            return type(t)(_canonical(l, depth, env), _canonical(r, depth, env))
        case Union(parts):
            return Union(*[_canonical(p, depth, env) for p in parts])
        case Rec(var, body):
            new = f"#{depth}"
            return Rec(new, _canonical(body, depth + 1, {**env, var: new}))
    raise TypeError(f"not a type: {t!r}")


def is_datatype(t: MuType, data_vars: frozenset[str] = frozenset()) -> bool:
    """The sort rule: whether `t` is a datatype, given the datatype variables.

    Constants and applications are datatypes, arrows are not, a union is one
    when all its parts are, and a variable when it is in `data_vars`. A `rec`
    binder is datatype-sorted when its body is a datatype under that
    assumption, so sorts are computed from structure and never stored.
    """
    match t:
        case TypeConst() | AppT():
            return True
        case Arrow():
            return False
        case TypeVar(name):
            return name in data_vars
        case Union(parts):
            return all(is_datatype(part, data_vars) for part in parts)
        case Rec(var, body):
            return is_datatype(body, data_vars | {var})
    raise TypeError(f"not a type: {t!r}")


def admitted_symbols(t: MuType, pos: tuple[int, ...]) -> frozenset[str]:
    """Head symbols the type exhibits at a pattern position.

    Unions contribute every part, recursive types are unfolded, and a branch
    that bottoms out in an atom before the position is consumed contributes
    nothing. The type must be validated, as `parse_*` and the generators
    produce it: contractiveness puts an `@` or `->` between every binder and
    its recurrences, and each of those ends the walk or consumes a step of the
    position, so the recursion terminates.
    """
    match t:
        case TypeConst(name) | TypeVar(name):
            return frozenset((name,)) if pos == () else frozenset()
        case AppT(l, r):
            if pos == ():
                return frozenset((SYM_APP,))
            return admitted_symbols((l, r)[pos[0] - 1], pos[1:])
        case Arrow(l, r):
            if pos == ():
                return frozenset((SYM_ARROW,))
            return admitted_symbols((l, r)[pos[0] - 1], pos[1:])
        case Union(parts):
            return frozenset().union(*(admitted_symbols(part, pos) for part in parts))
        case Rec():
            return admitted_symbols(unfold_once(t), pos)
    raise TypeError(f"not a type: {t!r}")


# --- Truncations ------------------------------------------------------------

BULLET = TypeConst(BULLET_NAME)


def truncations(t: MuType, table: dict | None = None) -> Callable[[int], MuType]:
    """The truncations of one type, as a function of the depth.

    The returned function cuts the infinite-tree reading of `t` at
    constructor depth `depth`, giving a finite type whose frontier is
    `BULLET`; unions do not consume depth. Its memo is keyed on (id of
    subterm, depth) and shared by every depth; a `rec` keeps its one
    unfolding, so those ids stay valid. Truncations are hash-consed
    through `table` (fresh by default): equal truncations built through one
    table, by one truncator or several, are one object.
    """
    table = {} if table is None else table
    memo: dict[tuple[int, int], MuType] = {}

    def node(cls: type, left: MuType, right: MuType) -> MuType:
        key = (cls, id(left), id(right))
        return table.get(key) or table.setdefault(key, cls(left, right))

    def go(t: MuType, k: int) -> MuType:
        if k == 0:
            return BULLET
        key = (id(t), k)
        cached = memo.get(key)
        if cached is not None:
            return cached
        match t:
            case TypeConst(name) | TypeVar(name):
                leaf = (type(t), name)
                out = table.get(leaf) or table.setdefault(leaf, t)
            case AppT(l, r) | Arrow(l, r):
                out = node(type(t), go(l, k - 1), go(r, k - 1))
            case Union(parts):
                # keyed on the parts it holds: a first part may truncate to a union, which it takes in
                out = Union(*[go(p, k) for p in parts])
                held = (Union, *map(id, out.parts))
                out = table.get(held) or table.setdefault(held, out)
            case Rec():
                out = go(unfold_once(t), k)
            case _:
                raise TypeError(f"not a type: {t!r}")
        memo[key] = out
        return out

    return lambda depth: go(t, depth)


def truncate(t: MuType, depth: int) -> MuType:
    """Cut the infinite-tree reading of a type at constructor depth `depth`."""
    return truncations(t)(depth)
