"""Declaration-by-declaration processing of parsed programs."""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import CapError
from .mu_types import MuType
from .reduction import DEFAULT_FUEL, EvalResult, evaluate
from .surface import Assume, Check, Def, Eval, Program, pretty
from .syntax import Term, apply_substitution, free_vars
from .typecheck import TypeEnv, check_type, infer_type


@dataclass
class DeclResult:
    label: str
    diagnostic: CapError | None = None
    inferred: MuType | None = None
    evaluated: EvalResult | None = None

    @property
    def ok(self) -> bool:
        return self.diagnostic is None


@dataclass
class SessionState:
    """Typing environment plus unfolded definition bodies, grown declaration
    by declaration; reused directly by the interactive loop."""

    env: TypeEnv = field(default_factory=dict)
    definitions: dict[str, Term] = field(default_factory=dict)

    def resolve(self, term: Term) -> Term:
        free = free_vars(term)
        live = {n: self.definitions[n] for n in free if n in self.definitions}
        return apply_substitution(live, term) if live else term


def process_decl(state: SessionState, decl, fuel: int = DEFAULT_FUEL, trace: bool = False) -> DeclResult:
    label = decl.label()
    try:
        match decl:
            case Assume(name=name, type=ty):
                state.env[name] = ty
                state.definitions.pop(name, None)
                return DeclResult(label, inferred=ty)
            case Def(name=name, term=term):
                resolved = state.resolve(term)
                ty = infer_type(state.env, resolved)
                state.env[name] = ty
                state.definitions[name] = resolved
                return DeclResult(label, inferred=ty)
            case Check(term=term, type=ty):
                check_type(state.env, state.resolve(term), ty)
                return DeclResult(label, inferred=ty)
            case Eval(term=term):
                resolved = state.resolve(term)
                ty = infer_type(state.env, resolved)
                result = evaluate(resolved, fuel=fuel, trace=trace)
                if result.status != "normal":
                    detail = str(result.stuck) if result.stuck else "step budget exhausted"
                    message = f"evaluation did not reach a value: {detail}"
                    diag = CapError("runtime", message, actual=pretty(result.term), span=decl.span, decl=label)
                    return DeclResult(label, diagnostic=diag, inferred=ty, evaluated=result)
                return DeclResult(label, inferred=ty, evaluated=result)
    except CapError as err:
        # the result keeps the error, but not the frames its traceback holds
        err.span, err.decl = decl.span, label
        return DeclResult(label, diagnostic=err.with_traceback(None))
    raise TypeError(f"not a declaration: {decl!r}")


def check_program(program: Program, fuel: int = DEFAULT_FUEL, trace: bool = False) -> list[DeclResult]:
    """Process declarations in order, collecting one result per declaration.

    A failing declaration is reported and skipped; processing continues so
    every declaration gets a verdict.
    """
    state = SessionState()
    return [process_decl(state, decl, fuel=fuel, trace=trace) for decl in program.decls]
