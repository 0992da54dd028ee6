"""Concrete syntax: lexer, parser, pretty-printer and the .cap program format.

Grammar sketch (see README for the full version):

    program  := { decl }
    decl     := "assume" lowerIdent ":" type ";" | "def" lowerIdent "=" term ";"
              | "check" term ":" type ";"       | "eval" term ";"
    term     := branches | app
    branches := branch { "|" branch }
    branch   := "[" [ binding {"," binding} ] "]" pattern "=>" term
    type     := name | "rec" lowerIdent "." type | type ("@" | "+" | "->") type

Type application binds tighter than union, union tighter than the
right-associative arrow, and a `rec x.` body extends as far right as it can.
Upper-case identifiers are constants, lower-case ones are variables,
matchables or recursion binders. Comments run from "--" to end of line.

The lexer runs one `re.findall` per line and keeps the tokens as bare
strings, with parallel lists of their kinds and line numbers; a column is
computed only for a span. The parser reads a type by operator precedence
(Pratt, "Top down operator precedence", POPL 1973) and a term or pattern as
an application spine, each in one loop over an explicit stack, so no nesting
depth makes it recurse. Each type node of a program is hash-consed as it is
read, so equal types, whole or nested, are one object however they are spaced
or parenthesized; a type text met again is looked up before it is parsed, and
each distinct whole type of a program is validated once.

`pretty`, the one printer of types, terms and patterns, lays out each node
class as text pieces (Wadler, "A prettier printer", 1998) and writes them in
one loop; a diagnostic's text stops at `SHOWN` characters.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left
from dataclasses import dataclass

from .diagnostics import CapError, Span, as_diagnostic
from .mu_types import (
    BULLET_NAME,
    AppT,
    Arrow,
    MuType,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    is_datatype,
)
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

KEYWORDS = ("assume", "def", "check", "eval", "rec")


PUNCT = frozenset(("(", ")", "[", "]", ",", ";", ":", "=", "|", "+", "@", ".", "->", "=>"))

# The lexemes of one line, tried in order at each character that is not a
# blank: "--" starts a comment before it could start "->". A word starts with
# a letter and goes on with letters, digits or "_"; `[^\W\d_]` also admits
# numerals such as "²", so a word's first character is checked with
# `str.isalpha`. Any other character is a lexeme of its own, and an error.
_LEXEME = re.compile(r"--.*|[-=]>|[()\[\],;:=|+@.]|[^\W\d_]\w*|[^ \t\r]")

# Type operators by precedence. "@" and "+" are left-associative, so each
# reduces the operators of its own level; "->" reduces only tighter ones.
_PREC = {"@": 3, "+": 2, "->": 1}
_BUILD = {"@": AppT, "->": Arrow}
# the kinds of the tokens a type is written with
_TYPE_KINDS = frozenset(("upper", "lower", "rec", ".", "(", ")", *_PREC))


class _Parser:
    def __init__(self, text: str):
        self.src = text.split("\n")
        self.texts: list[str] = []
        self.lines: list[int] = []
        self.cols: dict[int, list[int]] = {}
        self.types: dict[tuple[str, ...], MuType] = {}  # each valid type by its tokens
        self.nodes: dict = {}  # each type node by its class and its parts' names or ids
        self.valid: set[int] = set()  # the ids of the whole types validated
        self.i = 0
        for line, src in enumerate(self.src, 1):
            found = _LEXEME.findall(src)
            if found and found[-1][:2] == "--":
                found.pop()
            self.texts += found
            self.lines += [line] * len(found)
        # a distinct lexeme's kind: itself if punctuation or a keyword, "upper" or "lower" if a name, else None
        kinds = {
            t: t if t in PUNCT or t in KEYWORDS else None if not t[0].isalpha() else "upper" if t[0].isupper() else "lower"
            for t in set(self.texts)
        }
        if None in kinds.values():
            i = min(self.texts.index(t) for t, kind in kinds.items() if kind is None)
            raise CapError("parse", f"unexpected character {self.texts[i][0]!r}", span=self.span(i))
        kinds[""] = "eof"
        self.texts.append("")
        self.lines.append(len(self.src))
        self.kinds = list(map(kinds.__getitem__, self.texts))

    def span(self, i: int) -> Span:
        """Where token `i` starts, a tab or a carriage return being one column. The
        eof token sits at the end of the last line, or where its comment starts."""
        line = self.lines[i]
        src = self.src[line - 1]
        k = i - bisect_left(self.lines, line)
        if k == 0:  # the first lexeme of a line starts at its first non-blank
            return Span(line, len(src) - len(src.lstrip(" \t\r")) + 1)
        if line not in self.cols:
            self.cols[line] = [m.start() + 1 for m in _LEXEME.finditer(src)] + [len(src) + 1]
        return Span(line, self.cols[line][k])

    def unexpected(self, i: int, want: str) -> CapError:
        found = repr(self.texts[i]) if self.texts[i] else "end of input"
        return CapError("parse", f"expected {want}, found {found}", span=self.span(i))

    def expect(self, i: int, kind: str) -> None:
        if self.kinds[i] != kind:
            raise self.unexpected(i, repr(kind))

    def eat(self, kind: str) -> None:
        self.expect(self.i, kind)
        self.i += 1

    def valid_type(self) -> MuType:
        """A whole type, validated with its nested types. The run of type tokens
        is looked up first, and a text read before gives its object unparsed; a
        text that parses to an object validated before is not validated again."""
        kinds, start = self.kinds, self.i
        end = start
        while kinds[end] in _TYPE_KINDS:
            end += 1
        key = tuple(self.texts[start:end])
        got = self.types.get(key)
        if got is not None:
            self.i = end
            return got
        t = self.raw_type()
        if id(t) not in self.valid:
            try:
                validate_type(t)
            except (CapError, RecursionError) as err:  # the walk recurses once per nesting level
                err = as_diagnostic(err)
                err.span = self.span(start)
                raise err
            self.valid.add(id(t))
        self.types[key[: self.i - start]] = t  # the tokens read, if the type stops before an error
        return t

    def raw_type(self) -> MuType:
        """Operator precedence over `ops`, the operators, open parentheses and `rec`
        binders not yet reduced; only a ")" or the end of the type reduces a binder.
        Each node is hash-consed through `nodes` (Filliâtre and Conchon, "Type-safe
        modular hash-consing", 2006): a name is keyed on itself, a compound on its
        class and its parts' ids or a binder's name, and a union on the parts it
        holds once it is whole, so within one parser equal types are one object,
        however they are spaced or parenthesized."""
        texts, kinds, nodes, i = self.texts, self.kinds, self.nodes, self.i
        ops: list[str] = []  # "@", "+", "->", "(" or a binder's name
        out: list[MuType | list[MuType]] = []  # operands, and the parts of each open union
        depth = 0
        while True:
            kind = kinds[i]
            if kind == "rec":
                self.expect(i + 1, "lower")
                self.expect(i + 2, ".")
                ops.append(texts[i + 1])
                i += 3
                continue
            if kind == "(":
                ops.append(kind)
                depth, i = depth + 1, i + 1
                continue
            if kind != "upper" and kind != "lower":
                raise self.unexpected(i, "a type")
            leaf = TypeConst if kind == "upper" else TypeVar
            out.append(nodes.get(texts[i]) or nodes.setdefault(texts[i], leaf(texts[i])))
            i += 1
            while True:  # reduce what `kind` ends: all down to the innermost "(" unless it is an operator
                kind = kinds[i]
                floor = _PREC[kind] + (kind == "->") if kind in _PREC else 0
                while ops and ops[-1] != "(" and _PREC.get(ops[-1], 0) >= floor:
                    op, right = ops.pop(), self.closed(out.pop())
                    if op == "+":  # a union stays a list of its parts until an operand is taken from it
                        if type(out[-1]) is list:
                            out[-1].append(right)
                        else:
                            out[-1] = [out[-1], right]
                        continue
                    if op in _BUILD:
                        cls, left = _BUILD[op], self.closed(out.pop())
                        parts, key = (left, right), (cls, id(left), id(right))
                    else:
                        cls, parts, key = Rec, (op, right), (Rec, op, id(right))
                    out.append(nodes.get(key) or nodes.setdefault(key, cls(*parts)))
                if kind != ")" or not depth:
                    break
                ops.pop()
                depth, i = depth - 1, i + 1
            if kind in _PREC:
                ops.append(kind)
                i += 1
            elif depth:
                raise self.unexpected(i, "')'")
            else:
                self.i = i
                return self.closed(out[0])

    def closed(self, t: MuType | list[MuType]) -> MuType:
        """`t`, or the union of the parts in it if it is a list, keyed on them."""
        if type(t) is not list:
            return t
        key = (Union, *map(id, t))
        return self.nodes.get(key) or self.nodes.setdefault(key, Union(*t))

    def spine(self, var, const, node, what: str) -> tuple:
        """A term (Var, Const, App) or a pattern (Matchable, PatternConst,
        PatternCompound), and the lower-case names in it, on a stack of frames.
        An open parenthesis holds the spine before it. In a term, an open
        branch list holds its branches and the head of the branch whose body is
        read, and a "|" joins the innermost open branch list."""
        texts, kinds, i = self.texts, self.kinds, self.i
        frames: list = []
        names: list[str] = []
        spine = None
        while True:
            kind = kinds[i]
            if kind == "lower":
                names.append(texts[i])
                atom = var(texts[i])
            elif kind == "upper":
                atom = const(texts[i])
            elif kind == "(":
                frames.append(spine)
                spine, i = None, i + 1
                continue
            elif kind == "[" and spine is None and node is App:
                frames.append([[], *self.branch_head(i)])
                i = self.i
                continue
            elif kind == "|" and spine is not None and frames and type(frames[-1]) is list:
                frame = frames[-1]
                frame[0].append(Branch(frame[1], frame[2], spine))
                frame[1:] = self.branch_head(i + 1)
                i, spine = self.i, None
                continue
            elif spine is None:
                raise self.unexpected(i, f"a {what}")
            else:  # the spine ends, and so do the branch lists it ends
                while frames and type(frames[-1]) is list:
                    branches, pattern, bindings = frames.pop()
                    spine = Abs((*branches, Branch(pattern, bindings, spine)))
                if not frames:
                    self.i = i
                    return spine, names
                if kind != ")":
                    raise self.unexpected(i, "')'")
                spine, atom = frames.pop(), spine
            i += 1
            spine = atom if spine is None else node(spine, atom)

    def term(self) -> Term:
        return self.spine(Var, Const, App, "term")[0]

    def branch_head(self, opening: int) -> tuple[Pattern, tuple[tuple[str, MuType], ...]]:
        """`[ bindings ] pattern =>` from token `opening`; the pattern binds each matchable once."""
        i = opening
        self.expect(i, "[")
        bindings: list[tuple[str, MuType]] = []
        if self.kinds[i + 1] == "]":
            i += 1
        while i == opening or self.kinds[i] == ",":
            self.expect(i + 1, "lower")
            self.expect(i + 2, ":")
            self.i = i + 3
            bindings.append((self.texts[i + 1], self.valid_type()))
            i = self.i
        self.i = i
        self.eat("]")
        pattern, names = self.spine(Matchable, PatternConst, PatternCompound, "pattern")
        if len(set(names)) < len(names):
            raise CapError("parse", "pattern binds a matchable twice", span=self.span(opening))
        self.eat("=>")
        return pattern, tuple(bindings)

    def program(self) -> "Program":
        decls: list[Decl] = []
        while self.kinds[self.i] != "eof":
            kind, span, name = self.kinds[self.i], self.span(self.i), self.texts[self.i + 1]
            if kind not in ("assume", "def", "check", "eval"):
                raise CapError("parse", "expected a declaration (assume, def, check or eval)", span=span)
            self.i += 1
            if kind == "assume" or kind == "def":
                self.eat("lower")
                self.eat(":" if kind == "assume" else "=")
                decls.append(Assume(name, self.valid_type(), span) if kind == "assume" else Def(name, self.term(), span))
            elif kind == "check":
                term = self.term()
                self.eat(":")
                decls.append(Check(term, self.valid_type(), span))
            else:
                decls.append(Eval(self.term(), span))
            self.eat(";")
        return Program(tuple(decls))


@dataclass(frozen=True)
class Assume:
    name: str
    type: MuType
    span: Span

    def label(self) -> str:
        return f"assume {self.name}"


@dataclass(frozen=True)
class Def:
    name: str
    term: Term
    span: Span

    def label(self) -> str:
        return f"def {self.name}"


@dataclass(frozen=True)
class Check:
    term: Term
    type: MuType
    span: Span

    def label(self) -> str:
        return "check"


@dataclass(frozen=True)
class Eval:
    term: Term
    span: Span

    def label(self) -> str:
        return "eval"


Decl = Assume | Def | Check | Eval


@dataclass(frozen=True)
class Program:
    decls: tuple[Decl, ...]


def _parse_all(text: str, production):
    """Parse all of `text` with `production`, a `_Parser` method."""
    parser = _Parser(text)
    out = production(parser)
    if parser.kinds[parser.i] != "eof":
        raise CapError("parse", f"trailing input starting at {parser.texts[parser.i]!r}", span=parser.span(parser.i))
    return out


def parse_program(text: str) -> Program:
    return _parse_all(text, _Parser.program)


def parse_term(text: str) -> Term:
    return _parse_all(text, _Parser.term)


def parse_type(text: str) -> MuType:
    return _parse_all(text, _Parser.valid_type)


# -- validation ---------------------------------------------------------------


def validate_type(t: MuType) -> MuType:
    """Check the well-formedness rules and return `t` unchanged.

    A binder's sort is computed from its body by `is_datatype`. The left
    argument of @ must be a datatype, and every binder must occur only under
    a type constructor. Free lower-case names are rigid type variables. Sorts
    are checked before contractiveness, so a type with both errors reports
    `sort`.
    """
    name = _validate(t, frozenset(), frozenset())
    if name is not None:
        raise CapError("contractiveness", f"recursion variable '{name}' must occur under @ or ->")
    return t


def _validate(t: MuType, data_vars: frozenset[str], unguarded: frozenset[str]) -> str | None:
    """One walk for both rules: raise the first sort error of `t`, left to
    right, and return the first recursion variable that occurs in `t` outside
    any @ or ->, counting the binders in `unguarded`, or None."""
    match t:
        case TypeConst(name):
            if name == BULLET_NAME:
                raise CapError("sort", "the truncation marker is reserved and cannot appear in types")
            return None
        case TypeVar(name):
            return name if name in unguarded else None
        case AppT(left, right):
            found = [_validate(left, data_vars, frozenset())]
            if not is_datatype(left, data_vars):
                raise CapError("sort", "left argument of @ must be a datatype", actual=pretty(left, SHOWN))
            found.append(_validate(right, data_vars, frozenset()))
        case Arrow(dom, cod):
            found = [_validate(dom, data_vars, frozenset()), _validate(cod, data_vars, frozenset())]
        case Union(parts):
            found = [_validate(part, data_vars, unguarded) for part in parts]
        case Rec(var, body):
            inner = data_vars | {var} if is_datatype(t, data_vars) else data_vars - {var}
            return _validate(body, inner, unguarded | {var})
        case _:
            raise TypeError(f"not a type: {t!r}")
    return next(filter(None, found), None)


# -- pretty printing ------------------------------------------------------------

# a diagnostic shows a type, term or pattern up to this many characters: a DAG's text can double per level
SHOWN = 10_000

_ATOMS = frozenset((TypeConst, TypeVar, Var, Const, Matchable, PatternConst))  # each written as its name


def _union(t: Union) -> list:
    pieces: list = []
    for part in t.parts:  # each at level 2, so a union as a later part is written in parentheses
        pieces += (" + ", (part, 2))
    del pieces[0]
    return pieces


def _abs(t: Abs) -> list:
    pieces: list = []
    for b in t.branches:
        pieces.append(" | [" if pieces else "[")
        for k, (name, ty) in enumerate(b.bindings):
            pieces += (f", {name}:" if k else f"{name}:", (ty, 0))
        pieces += ("] ", (b.pattern, 0), " => ", (b.body, 1))
    return pieces


# Each compound node class: the highest precedence level it is written at
# without parentheses, and its text as strings and the (child, level) pairs
# between them. Type levels: arrow and `rec` 0, union 1, @ 2, atom 3. Term and
# pattern levels: abstraction 0, application 1, atom 2; a branch body sits at
# 1, else a "|" after it would join its innermost branch list when re-read.
_LAYOUTS = {
    AppT: (2, lambda t: [(t.left, 2), "@", (t.right, 3)]),
    Union: (1, _union),
    Arrow: (0, lambda t: [(t.dom, 1), " -> ", (t.cod, 0)]),
    Rec: (0, lambda t: [f"rec {t.var}. ", (t.body, 0)]),
    App: (1, lambda t: [(t.fun, 1), " ", (t.arg, 2)]),
    PatternCompound: (1, lambda p: [(p.left, 1), " ", (p.right, 2)]),
    Abs: (0, _abs),
}


def _layout(node, level: int) -> list:
    """The pieces of `node` at precedence `level`."""
    try:
        top, layout = _LAYOUTS[type(node)]
    except KeyError:
        raise TypeError(f"cannot pretty-print {node!r}") from None
    pieces = layout(node)
    return ["(", *pieces, ")"] if level > top else pieces


def pretty(x, limit: int | None = None) -> str:
    """A type, term or pattern in concrete syntax, cut with `...` past `limit`
    characters. One loop writes the pieces left to right from a stack, so no
    depth adds a Python frame. A (node, level) met again, as a shared subterm
    is, copies the text its first visit wrote instead of walking it again, and
    writing stops at `limit + 1` characters, so a DAG whose text doubles per
    level is never written out whole."""
    cut = sys.maxsize if limit is None else limit + 1
    # by (node id, level): where its first text starts in `out`, (start, end)
    # once it ends, and the text once it is met again; `x` keeps the nodes alive
    spans: dict[tuple[int, int], int | tuple[int, int] | str] = {}
    out: list[str] = []
    # `x` itself is met once, so it needs no span
    size, stack = 0, [x.name] if type(x) in _ATOMS else [*reversed(_layout(x, 0))]
    while stack and size < cut:
        item = stack.pop()
        if type(item) is str:
            text = item
        elif item[0] is None:  # the first text of the key `item[1]` ends
            spans[item[1]] = (spans[item[1]], len(out))
            continue
        elif type(item[0]) in _ATOMS:
            text = item[0].name
        else:
            key = (id(item[0]), item[1])
            text = spans.get(key)
            if text is None:
                spans[key] = len(out)
                stack.append((None, key))
                stack += reversed(_layout(*item))
                continue
            if type(text) is tuple:
                text = spans[key] = "".join(out[text[0] : text[1]])[:cut]
        out.append(text)
        size += len(text)
    text = "".join(out)
    return text if len(text) < cut else text[: cut - 1] + "..."
