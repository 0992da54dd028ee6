"""Command-line entry point: check, eval, type, sub, equiv, oracle, conform, repl."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .conformance import GenConfig, run_conformance
from .diagnostics import CapError, Diagnostic
from .program import DeclResult, SessionState, check_program, process_decl
from .reduction import DEFAULT_FUEL
from .relations import MODE_EQ, MODE_SUB, PairOracle, is_equivalent, is_subtype
from .surface import ParseFailure, parse_program, parse_term, parse_type, pretty
from .typecheck import infer_type

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_SYNTAX = 2
EXIT_RUNTIME = 3
EXIT_CONFORMANCE = 4
EXIT_RESOURCE = 5

_SYNTAX_CODES = ("parse", "sort", "contractiveness")


def _color_enabled() -> bool:
    if os.environ.get("CAP_COLOR", "") == "0":
        return False
    return sys.stderr.isatty()


def _print_diagnostic(diag: Diagnostic, as_json: bool) -> None:
    if as_json:
        print(json.dumps(diag.to_dict()))
        return
    text = diag.render()
    if _color_enabled():
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _exit_code(results: list[DeclResult]) -> int:
    codes = {r.diagnostic.code for r in results if r.diagnostic is not None}
    if codes & set(_SYNTAX_CODES):
        return EXIT_SYNTAX
    if codes & {"type", "compatibility"}:
        return EXIT_TYPE
    if "runtime" in codes:
        return EXIT_RUNTIME
    return EXIT_OK


def _load_program(path: str, as_json: bool):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        _print_diagnostic(Diagnostic(code="parse", message=f"cannot read {path}: {err}"), as_json)
        return None
    try:
        return parse_program(text)
    except ParseFailure as failure:
        _print_diagnostic(failure.to_diagnostic(), as_json)
        return None


def _report_results(results: list[DeclResult], as_json: bool, show_values: bool) -> int:
    if as_json:
        payload = []
        for r in results:
            entry: dict = {"decl": r.label, "ok": r.ok}
            if r.inferred is not None:
                entry["type"] = pretty(r.inferred)
            if r.evaluated is not None:
                entry["value"] = pretty(r.evaluated.term)
                entry["steps"] = r.evaluated.steps
            if r.diagnostic is not None:
                entry["diagnostic"] = r.diagnostic.to_dict()
            payload.append(entry)
        print(json.dumps({"results": payload}, indent=2))
    else:
        for r in results:
            if r.diagnostic is not None:
                _print_diagnostic(r.diagnostic, as_json=False)
            elif show_values and r.evaluated is not None:
                print(pretty(r.evaluated.term))
                for step, info in r.evaluated.trace:
                    print(
                        f"  step {step}: branch {info.branch_index + 1}/{info.n_branches} "
                        f"matched {pretty(info.argument)}",
                        file=sys.stderr,
                    )
            elif not show_values:
                print(r.summary())
    return _exit_code(results)


def _cmd_file(args, show_values: bool) -> int:
    program = _load_program(args.file, args.json)
    if program is None:
        return EXIT_SYNTAX
    results = check_program(program, fuel=args.max_steps, trace=args.trace)
    return _report_results(results, args.json, show_values)


def _parse_inline_type(text: str, as_json: bool):
    try:
        return parse_type(text)
    except ParseFailure as failure:
        _print_diagnostic(failure.to_diagnostic(), as_json)
        return None


def cmd_type(args) -> int:
    try:
        term = parse_term(args.term)
        ty = infer_type({}, term)
    except CapError as err:
        _print_diagnostic(err.to_diagnostic(), args.json)
        return EXIT_SYNTAX if err.code in _SYNTAX_CODES else EXIT_TYPE
    if args.json:
        print(json.dumps({"term": pretty(term), "type": pretty(ty)}))
    else:
        print(pretty(ty))
    return EXIT_OK


def _cmd_relation(args, mode: str) -> int:
    left = _parse_inline_type(args.left, args.json)
    right = _parse_inline_type(args.right, args.json)
    if left is None or right is None:
        return EXIT_SYNTAX
    verdict = is_subtype(left, right) if mode == MODE_SUB else is_equivalent(left, right)
    if args.json:
        print(json.dumps({"left": pretty(left), "right": pretty(right), "mode": mode, "verdict": verdict}))
    else:
        print("true" if verdict else "false")
    return EXIT_OK


def cmd_oracle(args) -> int:
    left = _parse_inline_type(args.left, args.json)
    right = _parse_inline_type(args.right, args.json)
    if left is None or right is None:
        return EXIT_SYNTAX
    modes = [MODE_SUB, MODE_EQ] if args.mode == "both" else [args.mode]
    oracle = PairOracle(left, right)
    reports = [oracle.compare(args.kmax, mode) for mode in modes]
    if args.json:
        print(json.dumps({"left": pretty(left), "right": pretty(right), "reports": [r.to_dict() for r in reports]}))
    else:
        for report in reports:
            print(f"mode {report.mode}: engine={'true' if report.engine else 'false'} agree={report.agree}")
            for depth, verdict in enumerate(report.per_depth):
                print(f"  depth {depth:>2}: {'true' if verdict else 'false'}")
            if report.refuting_depth is not None:
                print(f"  refuted at depth {report.refuting_depth}")
            if report.inconclusive:
                print(f"  inconclusive up to depth {report.searched_to}")
    return EXIT_OK


def cmd_conform(args) -> int:
    cfg = GenConfig(seed=args.seed)
    summary = run_conformance(cfg, cases=args.cases, kmax=args.kmax, pairs=args.pairs)
    if args.json:
        print(json.dumps(summary.to_dict(), indent=2))
    else:
        for suite in summary.to_dict()["suites"]:
            status = "ok" if suite["ok"] else "FAILED"
            label = suite["name"]
            unit = "cases" if "cases" in suite else "pairs"
            print(f"{label:>20} [{suite[unit]} {unit}]: {status}")
        print("conformance:", "ok" if summary.ok else "FAILED")
    return EXIT_OK if summary.ok else EXIT_CONFORMANCE


def cmd_repl(args) -> int:
    state = SessionState()
    print("cap interactive session; declarations end with ';', :q quits")
    buffer = ""
    while True:
        prompt = "cap> " if not buffer else "...> "
        try:
            line = input(prompt)
        except EOFError:
            print()
            return EXIT_OK
        if line.strip() in (":q", ":quit"):
            return EXIT_OK
        buffer += line + "\n"
        if ";" not in line:
            continue
        source, buffer = buffer, ""
        try:
            program = parse_program(source)
            for decl in program.decls:
                result = process_decl(state, decl, fuel=args.max_steps, trace=args.trace)
                _report_results([result], as_json=False, show_values=False)
        except ParseFailure as failure:
            _print_diagnostic(failure.to_diagnostic(), as_json=False)
        except RecursionError:
            _print_diagnostic(_too_deep(), as_json=False)


def _too_deep() -> Diagnostic:
    return Diagnostic(code="resource", message="input is nested too deeply to process")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cap", description="Typed pattern calculus toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, trace: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="structured output")
        if trace:
            p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_FUEL, metavar="N")
            p.add_argument("--trace", action="store_true", help="report branch selections")

    p = sub.add_parser("check", help="type-check every declaration in a file")
    p.add_argument("file")
    common(p, trace=True)
    p.set_defaults(func=lambda args: _cmd_file(args, show_values=False))

    p = sub.add_parser("eval", help="run the eval declarations of a file")
    p.add_argument("file")
    common(p, trace=True)
    p.set_defaults(func=lambda args: _cmd_file(args, show_values=True))

    p = sub.add_parser("type", help="infer the type of an inline term")
    p.add_argument("term")
    common(p)
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("sub", help="decide subtyping of two inline types")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=lambda args: _cmd_relation(args, MODE_SUB))

    p = sub.add_parser("equiv", help="decide equivalence of two inline types")
    p.add_argument("left")
    p.add_argument("right")
    common(p)
    p.set_defaults(func=lambda args: _cmd_relation(args, MODE_EQ))

    p = sub.add_parser("oracle", help="compare engine verdicts against truncations")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--kmax", type=_positive_int, default=8)
    p.add_argument("--mode", choices=(MODE_SUB, MODE_EQ, "both"), default="both")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("conform", help="run the metatheory and differential suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cases", type=_positive_int, default=500)
    p.add_argument("--pairs", type=_positive_int, default=1000)
    p.add_argument("--kmax", type=_positive_int, default=8)
    common(p)
    p.set_defaults(func=cmd_conform)

    p = sub.add_parser("repl", help="interactive declaration loop")
    p.add_argument("--max-steps", type=_positive_int, default=DEFAULT_FUEL, metavar="N")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_repl)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RecursionError:
        _print_diagnostic(_too_deep(), getattr(args, "json", False))
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
