"""Typed pattern calculus with path polymorphism: terms, recursive union
types, coinductive subtyping, compatibility checking and a small-step
evaluator."""

from .mu_types import (
    AppT,
    Arrow,
    MuType,
    Rec,
    TypeConst,
    TypeVar,
    Union,
    admitted_symbols,
    head_unfold,
    truncate,
    truncations,
    union_components,
)
from .reduction import Fail, MatchOutcome, Success, Wait, evaluate, match_pattern, small_step
from .relations import PairOracle, is_equivalent, is_subtype, oracle_compare
from .surface import parse_program, parse_term, parse_type, pretty, validate_type
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
    apply_substitution,
)
from .typecheck import check_type, infer_type, type_pattern

__version__ = "0.1.0"

__all__ = [
    "Abs",
    "App",
    "AppT",
    "Arrow",
    "Branch",
    "Const",
    "Fail",
    "MatchOutcome",
    "Matchable",
    "MuType",
    "PairOracle",
    "Pattern",
    "PatternCompound",
    "PatternConst",
    "Rec",
    "Success",
    "Term",
    "TypeConst",
    "TypeVar",
    "Union",
    "Var",
    "Wait",
    "admitted_symbols",
    "apply_substitution",
    "check_type",
    "evaluate",
    "head_unfold",
    "infer_type",
    "is_equivalent",
    "is_subtype",
    "match_pattern",
    "oracle_compare",
    "parse_program",
    "parse_term",
    "parse_type",
    "pretty",
    "small_step",
    "truncate",
    "truncations",
    "type_pattern",
    "union_components",
    "validate_type",
]
