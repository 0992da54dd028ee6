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

from dataclasses import dataclass

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

@dataclass(frozen=True)
class Token:
    kind: str  # "lower", "upper", "punct", "keyword", "eof"
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(Token("punct", text[i : i + 2], line, col))
            i += 2
            col += 2
            continue
        if ch in "()[],;:=|+@.":
            tokens.append(Token("punct", ch, line, col))
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
                tokens.append(Token("keyword", word, line, col))
            elif word[0].isupper():
                tokens.append(Token("upper", word, line, col))
            else:
                tokens.append(Token("lower", word, line, col))
            col += width
            continue
        raise CapError("parse", f"unexpected character {ch!r}", span=Span(line, col))
    tokens.append(Token("eof", "", line, col))
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

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise self.fail(f"expected {want!r}, found {tok.text!r}" if tok.text else f"expected {want!r}, found end of input")
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
        raise self.fail(f"expected a type, found {tok.text!r}")

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
        raise self.fail(f"expected a {what}, found {tok.text!r}")

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
    _check_sorts(t, frozenset())
    _check_contractive(t, frozenset())
    return t


def _check_sorts(t: MuType, data_vars: frozenset[str]) -> None:
    match t:
        case TypeConst(name):
            if name == BULLET_NAME:
                raise CapError("sort", "the truncation marker is reserved and cannot appear in types")
        case TypeVar():
            return
        case AppT(left, right):
            _check_sorts(left, data_vars)
            if not is_datatype(left, data_vars):
                raise CapError("sort", "left argument of @ must be a datatype", actual=pretty(left))
            _check_sorts(right, data_vars)
        case Arrow(l, r) | Union(l, r):
            _check_sorts(l, data_vars)
            _check_sorts(r, data_vars)
        case Rec(var, body):
            inner = data_vars | {var} if is_datatype(t, data_vars) else data_vars - {var}
            _check_sorts(body, inner)
        case _:
            raise TypeError(f"not a type: {t!r}")


def _check_contractive(t: MuType, unguarded: frozenset[str]) -> None:
    match t:
        case TypeConst():
            return
        case TypeVar(name):
            if name in unguarded:
                raise CapError(
                    "contractiveness",
                    f"recursion variable '{name}' must occur under @ or ->",
                )
        case AppT(l, r) | Arrow(l, r):
            _check_contractive(l, frozenset())
            _check_contractive(r, frozenset())
        case Union(l, r):
            _check_contractive(l, unguarded)
            _check_contractive(r, unguarded)
        case Rec(var, body):
            _check_contractive(body, unguarded | {var})


# -- pretty printing ------------------------------------------------------------

# Precedence levels: arrow 0, union 1, application 2, atom 3.


def pretty_type(t: MuType, level: int = 0) -> str:
    match t:
        case TypeConst(name) | TypeVar(name):
            return name
        case Rec(var, body):
            text = f"rec {var}. {pretty_type(body, 0)}"
            return f"({text})" if level > 0 else text
        case Arrow(dom, cod):
            text = f"{pretty_type(dom, 1)} -> {pretty_type(cod, 0)}"
            return f"({text})" if level > 0 else text
        case Union(left, right):
            text = f"{pretty_type(left, 1)} + {pretty_type(right, 2)}"
            return f"({text})" if level > 1 else text
        case AppT(left, right):
            text = f"{pretty_type(left, 2)}@{pretty_type(right, 3)}"
            return f"({text})" if level > 2 else text
    raise TypeError(f"not a type: {t!r}")


def pretty_pattern(p: Pattern, atom: bool = False) -> str:
    match p:
        case Matchable(name):
            return name
        case PatternConst(name):
            return name
        case PatternCompound(left, right):
            text = f"{pretty_pattern(left)} {pretty_pattern(right, atom=True)}"
            return f"({text})" if atom else text
    raise TypeError(f"not a pattern: {p!r}")


def pretty_term(t: Term, atom: bool = False) -> str:
    match t:
        case Var(name) | Const(name):
            return name
        case App(fun, arg):
            text = f"{pretty_term(fun, atom=isinstance(fun, Abs))} {pretty_term(arg, atom=True)}"
            return f"({text})" if atom else text
        case Abs(branches):
            parts = []
            for b in branches:
                bindings = ", ".join(f"{n}:{pretty_type(ty)}" for n, ty in b.bindings)
                # parenthesize abstraction bodies, else a following "|" would
                # attach to the innermost branch list when re-parsed
                body = pretty_term(b.body, atom=isinstance(b.body, Abs))
                parts.append(f"[{bindings}] {pretty_pattern(b.pattern)} => {body}")
            text = " | ".join(parts)
            return f"({text})" if atom else text
    raise TypeError(f"not a term: {t!r}")


def pretty(x) -> str:
    """Render a term, pattern or type back to concrete syntax."""
    if isinstance(x, MuType):
        return pretty_type(x)
    if isinstance(x, Pattern):
        return pretty_pattern(x)
    if isinstance(x, Term):
        return pretty_term(x)
    raise TypeError(f"cannot pretty-print {x!r}")
