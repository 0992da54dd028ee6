"""Command-line entry point: check, eval, type, sub, equiv, oracle, conform, repl."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .conformance import FAILURE_DUMP, GenConfig, run_conformance
from .diagnostics import EXIT_CODES, CapError, as_diagnostic
from .program import DeclResult, SessionState, check_program, process_decl
from .reduction import DEFAULT_FUEL
from .relations import MODE_EQ, MODE_SUB, PairOracle, is_equivalent, is_subtype
from .surface import parse_program, parse_term, parse_type, pretty
from .typecheck import infer_type

EXIT_OK = 0
EXIT_CONFORMANCE = 4


def _print_diagnostic(diag: CapError, as_json: bool) -> None:
    if as_json:
        print(json.dumps(diag.to_dict()))
        return
    text = diag.render()
    if os.environ.get("CAP_COLOR") != "0" and sys.stderr.isatty():
        text = f"\x1b[31m{text}\x1b[0m"
    print(text, file=sys.stderr)


def _exit_code(results: list[DeclResult]) -> int:
    """The exit code of the earliest code in `EXIT_CODES` that some result reports."""
    codes = {r.diagnostic.code for r in results if r.diagnostic is not None}
    return next((exit_code for code, exit_code in EXIT_CODES.items() if code in codes), EXIT_OK)


def _report_results(results: list[DeclResult], args, show_values: bool) -> int:
    """Render declaration results as one JSON document, or as text with the
    diagnostics and the `--trace` step lines on stderr."""
    if args.json:
        payload = []
        for r in results:
            entry: dict = {"decl": r.label, "ok": r.ok}
            if r.inferred is not None:
                entry["type"] = pretty(r.inferred)
            if r.evaluated is not None:
                if r.evaluated.status == "normal":  # else the diagnostic shows the term, cut
                    entry["value"] = pretty(r.evaluated.term)
                entry["steps"] = r.evaluated.steps
                if args.trace:
                    entry["trace"] = [
                        {"step": n, "branch": i.branch_index + 1, "branches": i.n_branches, "argument": pretty(i.argument)}
                        for n, i in r.evaluated.trace
                    ]
            if r.diagnostic is not None:
                entry["diagnostic"] = r.diagnostic.to_dict()
            payload.append(entry)
        print(json.dumps({"results": payload}, indent=2))
        return _exit_code(results)
    for r in results:
        evaluated = r.evaluated
        if r.diagnostic is not None:
            _print_diagnostic(r.diagnostic, as_json=False)
        elif not show_values:
            if evaluated is not None:
                print(f"{r.label}: {pretty(evaluated.term)}  [{evaluated.steps} steps]")
            else:  # every declaration that succeeds has a type
                print(f"{r.label}: {pretty(r.inferred)}")
        elif evaluated is not None:
            print(pretty(evaluated.term))
        if evaluated is not None:
            for n, i in evaluated.trace:
                print(f"  step {n}: branch {i.branch_index + 1}/{i.n_branches} matched {pretty(i.argument)}", file=sys.stderr)
    return _exit_code(results)


def _cmd_file(args, show_values: bool) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise CapError("parse", f"cannot read {args.file}: {err}") from None
    results = check_program(parse_program(text), fuel=args.max_steps, trace=args.trace)
    return _report_results(results, args, show_values)


def cmd_type(args) -> int:
    term = parse_term(args.term)
    ty = infer_type({}, term)
    if args.json:
        print(json.dumps({"term": pretty(term), "type": pretty(ty)}))
    else:
        print(pretty(ty))
    return EXIT_OK


def _cmd_relation(args, mode: str) -> int:
    left, right = parse_type(args.left), parse_type(args.right)
    verdict = is_subtype(left, right) if mode == MODE_SUB else is_equivalent(left, right)
    if args.json:
        print(json.dumps({"left": pretty(left), "right": pretty(right), "mode": mode, "verdict": verdict}))
    else:
        print("true" if verdict else "false")
    return EXIT_OK


def cmd_oracle(args) -> int:
    left, right = parse_type(args.left), parse_type(args.right)
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
    if not summary.ok:  # `run_conformance` dumps the counterexamples of a failed run
        print(f"conformance: counterexamples written to {FAILURE_DUMP}", file=sys.stderr)
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
        if ";" not in line.split("--", 1)[0]:  # a ';' in a comment ends nothing
            continue
        source, buffer = buffer, ""
        try:
            for decl in parse_program(source).decls:
                result = process_decl(state, decl, fuel=args.max_steps, trace=args.trace)
                _report_results([result], args, show_values=False)
        except (CapError, RecursionError) as err:
            _print_diagnostic(as_diagnostic(err), as_json=False)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
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
    p.set_defaults(func=cmd_repl, json=False)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CapError, RecursionError) as err:
        diag = as_diagnostic(err)
        _print_diagnostic(diag, args.json)
        return EXIT_CODES[diag.code]


if __name__ == "__main__":
    sys.exit(main())
