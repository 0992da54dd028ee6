"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each listed public function of `cap` with a wrapper
wherever the function is bound: in its own module, in every `cap` module
that imported it by name (for example `typecheck.is_subtype`) and on the
class for methods. A wrapper times the call, charges the time to the
enclosing span, and counts one call at every entry, recursive ones included.
Spans are aggregated in memory per (caller span, span) edge; nothing is
written until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name). An attribute "Class.method" names a method.
TARGETS = (
    ("surface", "parse_program", "surface.parse"),
    ("surface", "parse_term", "surface.parse"),
    ("surface", "parse_raw_type", "surface.parse"),
    ("surface", "validate_type", "surface.validate"),
    ("surface", "validate_term", "surface.validate"),
    ("surface", "pretty", "surface.pretty"),
    ("program", "process_decl", "program.decl"),
    ("program", "SessionState.resolve", "program.resolve"),
    ("typecheck", "infer_type", "typecheck.infer"),
    ("typecheck", "check_type", "typecheck.check"),
    ("compatibility", "check_branch_compatibility", "compatibility.check"),
    ("compatibility", "compatible_pair", "compatibility.pair"),
    ("relations", "is_subtype", "relations.sub"),
    ("relations", "is_equivalent", "relations.eq"),
    ("relations", "finite_tree_rel", "relations.finite_tree_rel"),
    ("relations", "oracle_compare", "relations.oracle"),
    ("mu_types", "canonical", "mu_types.canonical"),
    ("mu_types", "union_components", "mu_types.union_components"),
    ("mu_types", "admitted_symbols", "mu_types.admitted_symbols"),
    ("mu_types", "truncate", "mu_types.truncate"),
    ("reduction", "evaluate", "reduction.evaluate"),
    ("reduction", "small_step", "reduction.small_step"),
    ("reduction", "match_pattern", "reduction.match"),
    ("syntax", "apply_substitution", "syntax.subst"),
    ("generators", "gen_type", "generators.gen"),
    ("generators", "gen_typed_term", "generators.gen"),
    ("generators", "mutate_type", "generators.gen"),
    ("conformance", "run_conformance", "conformance.run"),
)

# Counters read from return values: span name -> function(counters, result).
def _count_steps(counters, result) -> None:
    counters["reduction.steps"] += result.steps


def _count_pair(counters, result) -> None:
    counters["compatibility.disjoint_pairs"] += result.reason == "disjoint"
    counters["compatibility.subtype_obligations"] += result.requires_subtype


OBSERVERS = {"reduction.evaluate": _count_steps, "compatibility.pair": _count_pair}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span name, time spent in child spans]
        self.spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        stack, spans, counters = self.stack, self.spans, self.counters
        observe = OBSERVERS.get(span)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = spans[(stack[-1][0] if stack else "", span)]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def install(self, cap) -> None:
        modules = [m for name, m in sys.modules.items() if name == "cap" or name.startswith("cap.")]
        for module_name, attr, span in TARGETS:
            owner = getattr(cap, module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner, attr = getattr(owner, cls_name), method
            original = getattr(owner, attr, None)
            if original is None:  # the function is gone from this version of the program
                continue
            wrapper = self.wrap(span, original)
            for place in [owner] if isinstance(owner, type) else modules:
                for name, value in list(vars(place).items()):
                    if value is original:
                        self._patched.append((place, name, original))
                        setattr(place, name, wrapper)

    def uninstall(self) -> None:
        for place, name, original in reversed(self._patched):
            setattr(place, name, original)
        self._patched.clear()

    def take(self) -> tuple[dict, dict]:
        """Return and reset the spans and counters gathered so far."""
        spans, counters = dict(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def totals(spans: dict) -> dict[str, list[float]]:
    """Calls, total and self seconds per span name, summed over callers."""
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for (_, span), (calls, total, self_s) in spans.items():
        row = out[span]
        row[0] += calls
        row[1] += total
        row[2] += self_s
    return out


SRC = Path(__file__).resolve().parent.parent / "src" / "cap"
SRC_MODULES = (
    "cli", "compatibility", "conformance", "diagnostics", "generators", "mu_types", "program",
    "reduction", "relations", "surface", "syntax", "typecheck",
)


def src_lines() -> dict[str, int]:
    """Line count of every module in src/cap; the package's __init__ is reported as `init`."""
    out = {}
    for name in (*SRC_MODULES, "__init__"):
        path = SRC / f"{name}.py"
        count = len(path.read_text(encoding="utf-8").splitlines()) if path.exists() else 0
        out["init" if name == "__init__" else name] = count
    return out


def layer_metrics(setup: tuple[dict, dict], passes: tuple[dict, dict], n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures for one set-up plus one timed pass (pass spans averaged over the passes)."""
    setup_t, setup_c = totals(setup[0]), setup[1]
    pass_t, pass_c = totals(passes[0]), passes[1]

    def calls(*spans: str) -> float:
        return sum(setup_t[s][0] + pass_t[s][0] / n_passes for s in spans)

    def self_s(*spans: str) -> float:
        return sum(setup_t[s][2] + pass_t[s][2] / n_passes for s in spans)

    def counter(name: str) -> float:
        return setup_c.get(name, 0) + pass_c.get(name, 0) / n_passes

    steps, descents = counter("reduction.steps"), calls("reduction.small_step")
    out = {
        "surface.parse_s": (self_s("surface.parse"), "s"),
        "surface.parse_calls": (calls("surface.parse"), "count"),
        "surface.validate_s": (self_s("surface.validate"), "s"),
        "surface.validate_calls": (calls("surface.validate"), "count"),
        "surface.pretty_s": (self_s("surface.pretty"), "s"),
        "program.decls": (calls("program.decl"), "count"),
        "program.resolve_s": (self_s("program.resolve"), "s"),
        "program.resolve_calls": (calls("program.resolve"), "count"),
        "typecheck.infer_s": (self_s("typecheck.infer"), "s"),
        "typecheck.infer_calls": (calls("typecheck.infer"), "count"),
        "typecheck.check_s": (self_s("typecheck.check"), "s"),
        "compatibility.check_s": (self_s("compatibility.check", "compatibility.pair"), "s"),
        "compatibility.branch_pairs": (calls("compatibility.pair"), "count"),
        "compatibility.disjoint_pairs": (counter("compatibility.disjoint_pairs"), "count"),
        "compatibility.subtype_obligations": (counter("compatibility.subtype_obligations"), "count"),
        "relations.sub_s": (self_s("relations.sub"), "s"),
        "relations.sub_calls": (calls("relations.sub"), "count"),
        "relations.eq_s": (self_s("relations.eq"), "s"),
        "relations.eq_calls": (calls("relations.eq"), "count"),
        "relations.finite_tree_rel_s": (self_s("relations.finite_tree_rel"), "s"),
        "relations.finite_tree_rel_calls": (calls("relations.finite_tree_rel"), "count"),
        "mu_types.canonical_s": (self_s("mu_types.canonical"), "s"),
        "mu_types.canonical_calls": (calls("mu_types.canonical"), "count"),
        "mu_types.union_components_s": (self_s("mu_types.union_components"), "s"),
        "mu_types.union_components_calls": (calls("mu_types.union_components"), "count"),
        "mu_types.admitted_symbols_s": (self_s("mu_types.admitted_symbols"), "s"),
        "mu_types.truncate_s": (self_s("mu_types.truncate"), "s"),
        "mu_types.truncate_calls": (calls("mu_types.truncate"), "count"),
        "reduction.evaluate_s": (self_s("reduction.evaluate", "reduction.small_step"), "s"),
        "reduction.steps": (steps, "count"),
        "reduction.small_step_calls": (descents, "count"),
        "reduction.steps_per_descent": (steps / descents if descents else 0.0, "ratio"),
        "reduction.match_s": (self_s("reduction.match"), "s"),
        "reduction.match_calls": (calls("reduction.match"), "count"),
        "syntax.subst_s": (self_s("syntax.subst"), "s"),
        "syntax.subst_calls": (calls("syntax.subst"), "count"),
        "generators.gen_s": (self_s("generators.gen"), "s"),
        "generators.gen_calls": (calls("generators.gen"), "count"),
    }
    for module, lines in src_lines().items():
        out[f"{module}.src_lines"] = (lines, "lines")
    return out
