"""Structured, position-carrying error reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass


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


@dataclass(slots=True)
class CapError(Exception):
    """A diagnostic, raised where the failure is found: a code from
    `EXIT_CODES` and a message, located by `span` and `decl` once those are
    known. An unset span is reported as 1:1. Its fields live in slots, so a
    stored error holds no per-instance `__dict__`."""

    code: str
    message: str
    expected: str | None = None
    actual: str | None = None
    span: Span | None = None
    decl: str | None = None

    def __post_init__(self) -> None:
        if self.code not in EXIT_CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")
        # slots=True rebuilds the class, which breaks zero-argument super()
        Exception.__init__(self, self.message)

    def to_dict(self) -> dict:
        out = {
            "decl": self.decl,
            "code": self.code,
            "span": (self.span or Span()).to_dict(),
            "message": self.message,
        }
        if self.expected is not None:
            out["expected"] = self.expected
        if self.actual is not None:
            out["actual"] = self.actual
        return out

    def render(self) -> str:
        span = self.span or Span()
        head = f"{span.line}:{span.col}: error[{self.code}]"
        if self.decl:
            head += f" in {self.decl}"
        text = f"{head}: {self.message}"
        if self.expected is not None:
            text += f"\n  expected: {self.expected}"
        if self.actual is not None:
            text += f"\n  actual:   {self.actual}"
        return text


def as_diagnostic(err: CapError | RecursionError) -> CapError:
    """`err` itself, or a `resource` error for a recursion too deep."""
    return err if isinstance(err, CapError) else CapError("resource", "input is nested too deeply to process")
