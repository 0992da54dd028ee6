"""The names that the benchmark under `bench/` reads from `cap`, pinned.

`bench/workloads.py`, `bench/scaling.py`, `bench/setup_once.py` and
`bench/tracer.py` reach the program through its modules, by attribute and by
keyword. A name that nothing in `src/cap` uses can still be one of them, and
deleting it would pass every other test while the benchmark's set-up breaks.
The lists below are read off those four files by hand; nothing here imports
from `bench/`, so a test run does not depend on it.
"""

import dataclasses
import importlib
import inspect

import pytest

# Every module `workloads.load_cap` imports.
MODULES = (
    "diagnostics",
    "mu_types",
    "syntax",
    "surface",
    "relations",
    "compatibility",
    "typecheck",
    "reduction",
    "program",
    "generators",
    "conformance",
)

# (module, attribute, positional arguments, keywords) of every call the
# benchmark makes; the call must bind to the signature.
CALLS = [
    ("surface", "parse_program", 1, ()),
    ("surface", "parse_type", 1, ()),
    ("program", "SessionState", 0, ()),
    ("program", "process_decl", 2, ()),
    ("syntax", "App", 2, ()),
    ("syntax", "Const", 1, ()),
    ("mu_types", "AppT", 2, ()),
    ("mu_types", "Union", 2, ()),
    ("mu_types", "TypeConst", 1, ()),
    ("mu_types", "head_unfold", 1, ()),
    ("mu_types", "union_components", 1, ()),
    ("mu_types", "union_of", 1, ()),
    ("mu_types", "truncate", 2, ()),
    ("generators", "GenConfig", 0, ("seed", "max_type_nodes", "max_union_width", "rec_probability")),
    ("generators", "GenConfig.with_seed", 2, ()),
    ("generators", "gen_type", 1, ()),
    ("generators", "mutate_type", 2, ()),
    ("relations", "is_subtype", 2, ()),
    ("relations", "is_equivalent", 2, ()),
    ("relations", "oracle_compare", 4, ()),
    ("relations", "finite_tree_rel", 3, ()),
    ("conformance", "run_conformance", 1, ("cases", "pairs", "dump_failures")),
]

# Names read but not called with arguments of the benchmark's own: constants,
# a class tested with `isinstance`, and the functions `tracer.TARGETS` wraps.
# The tracer skips a target the program no longer has; `surface.parse_raw_type`
# and `surface.validate_term` are such targets and are left out here.
NAMES = [
    ("mu_types", "Rec"),
    ("generators", "TYPE_CONSTS"),
    ("relations", "MODE_SUB"),
    ("relations", "MODE_EQ"),
    ("surface", "parse_term"),
    ("surface", "validate_type"),
    ("surface", "pretty"),
    ("program", "SessionState.resolve"),
    ("typecheck", "infer_type"),
    ("typecheck", "check_type"),
    ("compatibility", "check_branch_compatibility"),
    ("compatibility", "compatible_pair"),
    ("mu_types", "canonical"),
    ("mu_types", "admitted_symbols"),
    ("reduction", "evaluate"),
    ("reduction", "small_step"),
    ("reduction", "match_pattern"),
    ("syntax", "apply_substitution"),
    ("generators", "gen_typed_term"),
]

# (module, class, fields) the benchmark reads off the results of those calls.
FIELDS = [
    ("program", "DeclResult", ("ok", "diagnostic", "evaluated")),
    ("reduction", "EvalResult", ("status", "steps", "term")),
    ("diagnostics", "CapError", ("code",)),
    ("surface", "Program", ("decls",)),
    ("mu_types", "AppT", ("left", "right")),
    ("relations", "OracleReport", ("engine", "agree")),
    ("conformance", "ConformanceSummary", ("ok", "reports", "differential")),
    ("conformance", "SuiteReport", ("cases",)),
    ("conformance", "DifferentialReport", ("pairs", "disagreements")),
    ("compatibility", "PairVerdict", ("reason", "requires_subtype")),
]


def lookup(module: str, path: str):
    owner = importlib.import_module(f"cap.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"cap.{module}.{path} is gone"
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module", MODULES)
def test_every_module_the_benchmark_loads_imports(module):
    importlib.import_module(f"cap.{module}")


@pytest.mark.parametrize("module, path, positional, keywords", CALLS, ids=[f"{m}.{p}" for m, p, *_ in CALLS])
def test_every_call_the_benchmark_makes_binds(module, path, positional, keywords):
    signature = inspect.signature(lookup(module, path))
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("module, path", NAMES, ids=[f"{m}.{p}" for m, p in NAMES])
def test_every_name_the_benchmark_reads_exists(module, path):
    lookup(module, path)


@pytest.mark.parametrize("module, cls, fields", FIELDS, ids=[f"{m}.{c}" for m, c, _ in FIELDS])
def test_every_result_field_the_benchmark_reads_exists(module, cls, fields):
    owner = lookup(module, cls)
    declared = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else set()
    for name in fields:
        assert name in declared or hasattr(owner, name), f"cap.{module}.{cls}.{name} is gone"
