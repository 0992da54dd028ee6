"""Structured, position-carrying error reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field


# Every diagnostic code and the CLI exit code it ends in. The order is the
# precedence: a file whose declarations report several codes exits with the
# earliest one's exit code.
EXIT_CODES = {"parse": 2, "sort": 2, "contractiveness": 2, "type": 1, "compatibility": 1, "runtime": 3, "resource": 5}


@dataclass
class Span:
    line: int = 1
    col: int = 1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Diagnostic:
    code: str
    message: str
    span: Span = field(default_factory=Span)
    decl: str | None = None
    expected: str | None = None
    actual: str | None = None

    def __post_init__(self) -> None:
        if self.code not in EXIT_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def to_dict(self) -> dict:
        out = {
            "decl": self.decl,
            "code": self.code,
            "span": self.span.to_dict(),
            "message": self.message,
        }
        if self.expected is not None:
            out["expected"] = self.expected
        if self.actual is not None:
            out["actual"] = self.actual
        return out

    def render(self) -> str:
        head = f"{self.span.line}:{self.span.col}: error[{self.code}]"
        if self.decl:
            head += f" in {self.decl}"
        text = f"{head}: {self.message}"
        if self.expected is not None:
            text += f"\n  expected: {self.expected}"
        if self.actual is not None:
            text += f"\n  actual:   {self.actual}"
        return text


class CapError(Exception):
    """Internal error carrying the fields of a diagnostic."""

    def __init__(self, code: str, message: str, expected: str | None = None, actual: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.expected = expected
        self.actual = actual

    def to_diagnostic(self, span: Span | None = None, decl: str | None = None) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            message=self.message,
            span=span or Span(),
            decl=decl,
            expected=self.expected,
            actual=self.actual,
        )
