"""Concrete syntax: lexer, parser, pretty-printer and the .cap program format.

Grammar sketch (see README for the full version):

    program  := { decl }
    decl     := "assume" lowerIdent ":" type ";" | "def" lowerIdent "=" term ";"
              | "check" term ":" type ";"       | "eval" term ";"
    term     := branches | app
    branches := branch { "|" branch }
    branch   := "[" [ binding {"," binding} ] "]" pattern "=>" term
    type     := untype [ "->" type ]            -- arrow is right-associative
    untype   := apptype { "+" apptype }
    apptype  := tatom { "@" tatom }

Type application binds tighter than union, union tighter than arrow.
Upper-case identifiers are constants, lower-case ones are variables,
matchables or recursion binders. Comments run from "--" to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .diagnostics import CapError, Span
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
    union_spine,
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
    is_linear,
)

KEYWORDS = ("assume", "def", "check", "eval", "rec")


class Token(NamedTuple):
    kind: str  # "lower", "upper", "punct", "keyword", "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


# The lexemes of one line, each after optional blanks, tried in order: "--"
# starts a comment before it could start "->". A word starts with a letter and
# goes on with letters, digits or "_"; `\w` is `str.isalnum` or "_", and the
# first character is checked with `str.isalpha`, because `[^\W\d_]` also
# admits numerals such as "²" that are not letters.
_LEXEME = re.compile(
    r"[ \t\r]*(?:(?P<comment>--.*)|(?P<punct>[-=]>|[()\[\],;:=|+@.])|(?P<word>[^\W\d_]\w*)|(?P<bad>.))"
)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending in one "eof" token. Columns count
    characters from 1: a tab or a carriage return is one column, and only a
    line feed ends a line. The eof token sits at the end of the last line, or
    where its comment starts if it has one."""
    tokens: list[Token] = []
    append = tokens.append
    for line, src in enumerate(text.split("\n"), 1):
        end = len(src) + 1
        # trailing blanks would make every failed match rescan them
        for m in _LEXEME.finditer(src.rstrip(" \t\r")):
            kind = m.lastgroup
            word = m[kind]
            col = m.end() - len(word) + 1
            if kind == "comment":
                end = col
                break
            if kind == "punct":
                append(Token("punct", word, line, col))
            elif kind == "word" and word[0].isalpha():
                if word in KEYWORDS:
                    append(Token("keyword", word, line, col))
                else:
                    append(Token("upper" if word[0].isupper() else "lower", word, line, col))
            else:
                raise CapError("parse", f"unexpected character {word[0]!r}", span=Span(line, col))
    append(Token("eof", "", line, end))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> CapError:
        return CapError("parse", message, span=self.peek().span)

    def unexpected(self, want: str) -> CapError:
        """`fail` with "expected `want`, found" the next token or end of input."""
        text = self.peek().text
        return self.fail(f"expected {want}, found {text!r}" if text else f"expected {want}, found end of input")

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.unexpected(repr(text or kind))
        return self.next()

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def eat_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.next()
            return True
        return False

    # -- types ---------------------------------------------------------------

    def parse_valid_type(self) -> MuType:
        """A whole type, validated once; nested types are checked with it."""
        start = self.peek().span
        t = self.parse_type()
        try:
            return validate_type(t)
        except CapError as err:
            err.span = start
            raise

    def parse_type(self) -> MuType:
        left = self.parse_union_type()
        if self.eat_punct("->"):
            return Arrow(left, self.parse_type())
        return left

    def parse_union_type(self) -> MuType:
        out = self.parse_app_type()
        while self.eat_punct("+"):
            out = Union(out, self.parse_app_type())
        return out

    def parse_app_type(self) -> MuType:
        out = self.parse_type_atom()
        while self.eat_punct("@"):
            out = AppT(out, self.parse_type_atom())
        return out

    def parse_type_atom(self) -> MuType:
        tok = self.peek()
        if tok.kind == "upper":
            self.next()
            return TypeConst(tok.text)
        if tok.kind == "lower":
            self.next()
            return TypeVar(tok.text)
        if tok.kind == "keyword" and tok.text == "rec":
            self.next()
            var = self.expect("lower")
            self.expect("punct", ".")
            return Rec(var.text, self.parse_type())
        if self.eat_punct("("):
            inner = self.parse_type()
            self.expect("punct", ")")
            return inner
        raise self.unexpected("a type")

    # -- terms and patterns ----------------------------------------------------

    def parse_term(self) -> Term:
        if self.at_punct("["):
            return self.parse_branches()
        return self.parse_spine(Var, Const, App, self.parse_term, "term")

    def parse_pattern(self) -> Pattern:
        return self.parse_spine(Matchable, PatternConst, PatternCompound, self.parse_pattern, "pattern")

    def parse_spine(self, var, const, node, inner, what: str):
        """A left-nested application spine of atoms, joined by `node`: the one
        grammar of terms (`App`) and patterns (`PatternCompound`)."""
        out = self.parse_atom(var, const, inner, what)
        while self.peek().kind in ("lower", "upper") or self.at_punct("("):
            out = node(out, self.parse_atom(var, const, inner, what))
        return out

    def parse_atom(self, var, const, inner, what: str):
        """A lower-case name as `var`, an upper-case one as `const`, or `inner` in parentheses."""
        tok = self.peek()
        if tok.kind == "lower":
            self.next()
            return var(tok.text)
        if tok.kind == "upper":
            self.next()
            return const(tok.text)
        if self.eat_punct("("):
            out = inner()
            self.expect("punct", ")")
            return out
        raise self.unexpected(f"a {what}")

    def parse_branches(self) -> Abs:
        branches = [self.parse_branch()]
        while self.eat_punct("|"):
            branches.append(self.parse_branch())
        return Abs(tuple(branches))

    def parse_branch(self) -> Branch:
        opening = self.expect("punct", "[")
        bindings: list[tuple[str, MuType]] = []
        if not self.at_punct("]"):
            bindings.append(self.parse_binding())
            while self.eat_punct(","):
                bindings.append(self.parse_binding())
        self.expect("punct", "]")
        pattern = self.parse_pattern()
        if not is_linear(pattern):
            raise CapError("parse", "pattern binds a matchable twice", span=opening.span)
        self.expect("punct", "=>")
        body = self.parse_term()
        return Branch(pattern, tuple(bindings), body)

    def parse_binding(self) -> tuple[str, MuType]:
        name = self.expect("lower")
        self.expect("punct", ":")
        return name.text, self.parse_valid_type()

    # -- programs --------------------------------------------------------------

    def parse_program(self) -> "Program":
        decls: list[Decl] = []
        while self.peek().kind != "eof":
            decls.append(self.parse_decl())
        return Program(tuple(decls))

    def parse_decl(self) -> "Decl":
        tok = self.peek()
        if tok.kind != "keyword" or tok.text == "rec":
            raise self.fail("expected a declaration (assume, def, check or eval)")
        self.next()
        span = tok.span
        if tok.text == "assume":
            name = self.expect("lower")
            self.expect("punct", ":")
            ty = self.parse_valid_type()
            self.expect("punct", ";")
            return Assume(name.text, ty, span)
        if tok.text == "def":
            name = self.expect("lower")
            self.expect("punct", "=")
            term = self.parse_term()
            self.expect("punct", ";")
            return Def(name.text, term, span)
        if tok.text == "check":
            term = self.parse_term()
            self.expect("punct", ":")
            ty = self.parse_valid_type()
            self.expect("punct", ";")
            return Check(term, ty, span)
        term = self.parse_term()
        self.expect("punct", ";")
        return Eval(term, span)


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
    parser = _Parser(tokenize(text))
    out = production(parser)
    if parser.peek().kind != "eof":
        raise parser.fail(f"trailing input starting at {parser.peek().text!r}")
    return out


def parse_program(text: str) -> Program:
    return _parse_all(text, _Parser.parse_program)


def parse_term(text: str) -> Term:
    return _parse_all(text, _Parser.parse_term)


def parse_type(text: str) -> MuType:
    return _parse_all(text, _Parser.parse_valid_type)


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
    any @ or ->, counting the binders in `unguarded`, or None. A left-nested
    union is walked as one spine, so its width adds no recursion."""
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
                raise CapError("sort", "left argument of @ must be a datatype", actual=pretty(left))
            found.append(_validate(right, data_vars, frozenset()))
        case Arrow(dom, cod):
            found = [_validate(dom, data_vars, frozenset()), _validate(cod, data_vars, frozenset())]
        case Union():
            found = [_validate(part, data_vars, unguarded) for part in union_spine(t)]
        case Rec(var, body):
            inner = data_vars | {var} if is_datatype(t, data_vars) else data_vars - {var}
            return _validate(body, inner, unguarded | {var})
        case _:
            raise TypeError(f"not a type: {t!r}")
    return next(filter(None, found), None)


# -- pretty printing ------------------------------------------------------------

# Precedence levels: arrow 0, union 1, application 2, atom 3.


def pretty_type(t: MuType, level: int = 0) -> str:
    return _pretty_type(t, level, {})


def _pretty_type(t: MuType, level: int, memo: dict) -> str:
    """`pretty_type` with a memo of the text of each (node, level) pair, so a
    shared subterm is rendered once."""
    if isinstance(t, (TypeConst, TypeVar)):
        return t.name
    key = (id(t), level)
    got = memo.get(key)
    if got is not None:
        return got[1]
    match t:
        case Rec(var, body):
            text = f"rec {var}. {_pretty_type(body, 0, memo)}"
            text = f"({text})" if level > 0 else text
        case Arrow(dom, cod):
            text = f"{_pretty_type(dom, 1, memo)} -> {_pretty_type(cod, 0, memo)}"
            text = f"({text})" if level > 0 else text
        case Union():
            first, *rest = union_spine(t)
            text = " + ".join([_pretty_type(first, 1, memo), *(_pretty_type(part, 2, memo) for part in rest)])
            text = f"({text})" if level > 1 else text
        case AppT(left, right):
            text = f"{_pretty_type(left, 2, memo)}@{_pretty_type(right, 3, memo)}"
            text = f"({text})" if level > 2 else text
        case _:
            raise TypeError(f"not a type: {t!r}")
    memo[key] = (t, text)
    return text


def _pretty_syntax(x: Term | Pattern, atom: bool = False) -> str:
    """A term or a pattern. Both are application spines (`App` or
    `PatternCompound`) over names; only a term has abstractions."""
    match x:
        case Var(name) | Const(name) | Matchable(name) | PatternConst(name):
            return name
        case App(left, right) | PatternCompound(left, right):
            text = f"{_pretty_syntax(left, atom=isinstance(left, Abs))} {_pretty_syntax(right, atom=True)}"
        case Abs(branches):
            parts = []
            for b in branches:
                bindings = ", ".join(f"{n}:{pretty_type(ty)}" for n, ty in b.bindings)
                # parenthesize abstraction bodies, else a following "|" would
                # attach to the innermost branch list when re-parsed
                body = _pretty_syntax(b.body, atom=isinstance(b.body, Abs))
                parts.append(f"[{bindings}] {_pretty_syntax(b.pattern)} => {body}")
            text = " | ".join(parts)
        case _:
            raise TypeError(f"cannot pretty-print {x!r}")
    return f"({text})" if atom else text


def pretty(x) -> str:
    """Render a term, pattern or type back to concrete syntax."""
    return pretty_type(x) if isinstance(x, MuType) else _pretty_syntax(x)
