import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cap.cli import main
from cap.diagnostics import EXIT_CODES

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

DIAG_KEYS = {"decl", "code", "span", "message"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sub_command(capsys):
    code, out, _ = run(capsys, "sub", "Vl@Nat", "Vl@Bool")
    assert code == 0
    assert out.strip() == "false"
    code, out, _ = run(capsys, "sub", "True", "True + False")
    assert out.strip() == "true"


def test_equiv_command(capsys):
    code, out, _ = run(capsys, "equiv", "rec x. Nat -> Nat -> x", "rec x. Nat -> x")
    assert code == 0 and out.strip() == "true"


def test_type_command(capsys):
    code, out, _ = run(capsys, "type", "[x:Nat] Vl x => x")
    assert code == 0
    assert out.strip() == "Vl@Nat -> Nat"
    code, out, err = run(capsys, "type", "missing")
    assert code == 1


def test_a_matchable_annotated_twice_is_a_type_error(capsys):
    code, out, err = run(capsys, "type", "[x:A, x:B] x => x")
    assert code == 1 and out == ""
    assert err.strip() == "1:1: error[type]: branch 1: matchable 'x' is annotated twice"
    code, out, _ = run(capsys, "type", "[x:A, x:B] x => x", "--json")
    assert code == 1
    assert json.loads(out) == {
        "decl": None,
        "code": "type",
        "span": {"line": 1, "col": 1},
        "message": "branch 1: matchable 'x' is annotated twice",
    }


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "type", "((")
    assert code == 2


def test_eval_corpus_file(capsys):
    code, out, _ = run(capsys, "eval", str(CORPUS / "bool_flip.cap"))
    assert code == 0
    assert out.strip() == "C0"


def test_check_corpus_files(capsys):
    assert run(capsys, "check", str(CORPUS / "upd.cap"))[0] == 0
    assert run(capsys, "check", str(CORPUS / "upd2.cap"))[0] == 0
    assert run(capsys, "check", str(CORPUS / "branch_overlap_ok.cap"))[0] == 0
    assert run(capsys, "check", str(CORPUS / "compat_bool_nat.cap"))[0] == 1
    assert run(capsys, "check", str(CORPUS / "branch_overlap_bad.cap"))[0] == 1
    assert run(capsys, "check", str(CORPUS / "untypable_app.cap"))[0] == 1


def test_missing_file_is_parse_diagnostic(capsys):
    code, _, err = run(capsys, "check", "no/such/file.cap")
    assert code == 2


def test_sort_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cap"
    bad.write_text("assume x : (A -> B) @ C;\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("1:12: error[sort]")


def test_ill_formed_type_rejects_the_whole_file(tmp_path, capsys):
    bad = tmp_path / "bad.cap"
    bad.write_text("assume n : Nat;\nassume x : (A -> B) @ C;\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(bad), "--json")
    assert code == 2
    diag = json.loads(out)
    assert diag["code"] == "sort"
    assert diag["span"] == {"line": 2, "col": 12}
    assert diag["actual"] == "A -> B"


def test_non_contractive_type_is_a_contractiveness_error(tmp_path, capsys):
    bad = tmp_path / "bad.cap"
    bad.write_text("assume x : rec y. y;\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error[contractiveness]" in err


def test_type_command_rejects_ill_sorted_annotation(capsys):
    code, out, err = run(capsys, "type", "[x:(A -> B)@C] x => x")
    assert code == 2
    assert out == "" and "error[sort]" in err


def test_runtime_exit_code(tmp_path, capsys):
    loop = tmp_path / "loop.cap"
    loop.write_text("eval ([x:rec o. o -> B] x => x x) ([x:rec o. o -> B] x => x x);\n", encoding="utf-8")
    code, _, _ = run(capsys, "eval", str(loop), "--max-steps", "30")
    assert code == 3


def test_json_diagnostics_schema(tmp_path, capsys):
    code, out, _ = run(capsys, "check", str(CORPUS / "compat_bool_nat.cap"), "--json")
    assert code == 1
    payload = json.loads(out)
    entry = payload["results"][0]
    diag = entry["diagnostic"]
    assert DIAG_KEYS <= set(diag)
    assert set(diag["span"]) == {"line", "col"}
    # parse failures use the same shape
    broken = tmp_path / "broken.cap"
    broken.write_text("check ;;", encoding="utf-8")
    code, out, _ = run(capsys, "check", str(broken), "--json")
    assert code == 2
    diag = json.loads(out.strip())
    assert DIAG_KEYS <= set(diag)


def test_json_check_and_eval_payloads(capsys):
    code, out, _ = run(capsys, "eval", str(CORPUS / "bool_flip.cap"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["value"] == "C0"
    assert payload["results"][0]["steps"] == 2
    code, out, _ = run(capsys, "check", str(CORPUS / "upd.cap"), "--json")
    assert code == 0
    assert all(entry["ok"] for entry in json.loads(out)["results"])


def test_type_json_exit(capsys):
    code, out, _ = run(capsys, "type", "Nil", "--json")
    assert code == 0
    assert json.loads(out) == {"term": "Nil", "type": "Nil"}


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "Vl@Nat", "Vl@Bool", "--kmax", "4", "--mode", "sub")
    assert code == 0
    assert "engine=false" in out
    assert "refuted at depth 2" in out
    code, out, _ = run(capsys, "oracle", "Nil", "Nil", "--kmax", "2", "--json")
    payload = json.loads(out)
    assert all(r["engine"] and r["agree"] for r in payload["reports"])


def test_conform_command_small(capsys):
    code, out, _ = run(capsys, "conform", "--seed", "7", "--cases", "25", "--pairs", "40", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {s["name"] for s in payload["suites"]}
    assert names == {"subject-reduction", "progress", "successful-match", "confluence", "differential"}


def test_conform_text_labels_the_differential_in_pairs(capsys):
    code, out, _ = run(capsys, "conform", "--seed", "0", "--cases", "5", "--pairs", "7")
    assert code == 0
    assert out == (
        "   subject-reduction [5 cases]: ok\n"
        "            progress [5 cases]: ok\n"
        "    successful-match [5 cases]: ok\n"
        "          confluence [5 cases]: ok\n"
        "        differential [7 pairs]: ok\n"
        "conformance: ok\n"
    )


def test_color_disabled_by_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAP_COLOR", "0")
    code, _, err = run(capsys, "check", str(CORPUS / "compat_bool_nat.cap"))
    assert code == 1
    assert "\x1b[" not in err


def test_repl_session(capsys, monkeypatch):
    lines = iter([
        "assume n : Nat;",
        "def v = Vl n;",
        "eval ([ ] True => C1 | [ ] False => C0) False;",
        ":q",
    ])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert "Vl@Nat" in captured.out
    assert "C0" in captured.out


def test_repl_goes_on_after_a_sort_error(capsys, monkeypatch):
    lines = iter(["assume x : (A -> B) @ C;", "assume n : Nat;", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert "error[sort]" in captured.err
    assert "assume n: Nat" in captured.out


def test_repl_reads_on_past_a_semicolon_in_a_comment(capsys, monkeypatch):
    # as in a file, the ';' after "--" is part of the comment and ends nothing
    lines = iter(["def x = -- a; comment", " A;", "eval x;", ":q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    code = main(["repl"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert "def x: A" in captured.out
    assert "eval: A  [0 steps]" in captured.out


def test_repl_goes_on_after_a_too_deep_line():
    deep = "eval " + "Cons A (" * 1200 + "Nil" + ")" * 1200 + ";\n"
    root = CORPUS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cap", "repl"],
        input=deep + "assume n : Nat;\n",
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert "error[resource]" in done.stderr and "Traceback" not in done.stderr
    assert "assume n: Nat" in done.stdout


def test_overlap_failure_states_its_positions_once(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "branch_overlap_bad.cap"))
    assert code == 1
    assert err.endswith(
        "branches 1 and 2 may overlap, so 'Vl@(True + False)' must be a subtype of 'Vl@Nat'; "
        "it does not hold [shared head symbols at [1]: ['Vl']]\n"
    )


def test_eval_trace_output(capsys):
    code, out, err = run(capsys, "eval", str(CORPUS / "bool_flip.cap"), "--trace")
    assert code == 0
    assert out == "C0\n"
    assert err == "  step 1: branch 1/2 matched True\n  step 2: branch 2/2 matched False\n"


@pytest.mark.parametrize("command", ["check", "eval", "repl"])
@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_max_steps_below_one_is_a_usage_error(capsys, command, value):
    argv = [command] + ([] if command == "repl" else [str(CORPUS / "bool_flip.cap")])
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--max-steps", value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--max-steps" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["+5", "1_000"])
def test_max_steps_takes_what_int_takes(capsys, value):
    code, out, _ = run(capsys, "eval", str(CORPUS / "bool_flip.cap"), "--max-steps", value)
    assert code == 0 and out == "C0\n"


def test_python_dash_m_cap_runs_the_cli():
    root = CORPUS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cap", "check", "corpus/upd.cap"], cwd=root, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("assume upd:")


@pytest.mark.parametrize("argv", [["oracle", "A", "A"], ["conform"]])
def test_kmax_below_one_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--kmax", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--kmax" in err and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--cases", "--pairs"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_conform_counts_below_one_are_a_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        main(["conform", "--cases", "2", "--pairs", "2", flag, value])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err and "Traceback" not in captured.err


def test_deep_input_is_a_resource_diagnostic(tmp_path, capsys):
    deep = tmp_path / "deep.cap"
    deep.write_text("eval " + "Cons A (" * 1200 + "Nil" + ")" * 1200 + ";\n", encoding="utf-8")
    code, out, err = run(capsys, "eval", str(deep))
    assert code == 5
    assert out == ""
    assert "error[resource]" in err and "Traceback" not in err


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_an_unreadable_file_is_a_parse_diagnostic(tmp_path, capsys, kind, as_json):
    path = tmp_path / "input.cap"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"assume n : Nat;\n\xff\n")
    code, out, err = run(capsys, "check", str(path), *(["--json"] if as_json else []))
    assert code == 2
    assert "Traceback" not in err
    if as_json:
        diag = json.loads(out)
        assert diag["code"] == "parse" and diag["message"].startswith(f"cannot read {path}: ")
    else:
        assert out == "" and err.startswith(f"1:1: error[parse]: cannot read {path}: ")


BOOL_FLIP_STEPS = "  step 1: branch 1/2 matched True\n  step 2: branch 2/2 matched False\n"


def test_check_trace_shows_the_steps_of_its_evals(capsys):
    code, out, err = run(capsys, "check", str(CORPUS / "bool_flip.cap"), "--trace")
    assert code == 0
    assert out == "eval: C0  [2 steps]\n"
    assert err == BOOL_FLIP_STEPS
    assert run(capsys, "check", str(CORPUS / "bool_flip.cap"))[1:] == (out, "")


@pytest.mark.parametrize("command", ["check", "eval"])
def test_json_trace_lists_the_steps_of_each_eval(capsys, command):
    code, out, _ = run(capsys, command, str(CORPUS / "bool_flip.cap"), "--json", "--trace")
    assert code == 0
    (entry,) = json.loads(out)["results"]
    assert entry["trace"] == [
        {"step": 1, "branch": 1, "branches": 2, "argument": "True"},
        {"step": 2, "branch": 2, "branches": 2, "argument": "False"},
    ]
    untraced = json.loads(run(capsys, command, str(CORPUS / "bool_flip.cap"), "--json")[1])
    assert untraced == {"results": [{k: v for k, v in entry.items() if k != "trace"}]}


LOOP = "eval ([x:rec o. o -> B] x => x x) ([x:rec o. o -> B] x => x x);\n"


@pytest.mark.parametrize("command", ["check", "eval"])
def test_a_type_error_outranks_a_runtime_failure(tmp_path, capsys, command):
    path = tmp_path / "both.cap"
    path.write_text(LOOP + "eval missing;\n", encoding="utf-8")
    code, _, err = run(capsys, command, str(path), "--max-steps", "30")
    assert code == 1
    assert "error[runtime]" in err and "error[type]" in err


@pytest.mark.parametrize("command", ["check", "eval"])
def test_a_pattern_sort_error_outranks_type_and_runtime(tmp_path, capsys, command):
    path = tmp_path / "all.cap"
    path.write_text(LOOP + "eval missing;\ndef g = [f:A -> B, y:C] f y => y;\n", encoding="utf-8")
    code, out, _ = run(capsys, command, str(path), "--max-steps", "30", "--json")
    assert code == 2
    codes = [entry["diagnostic"]["code"] for entry in json.loads(out)["results"]]
    assert codes == ["runtime", "type", "sort"]


def test_readme_exit_code_table_lists_every_diagnostic_code():
    readme = (CORPUS.parent / "README.md").read_text(encoding="utf-8")
    for code, exit_code in EXIT_CODES.items():
        assert f"| `{code}` | `{exit_code}` |" in readme, code


def test_a_pattern_sort_error_shows_the_pattern_in_concrete_syntax(tmp_path, capsys):
    path = tmp_path / "head.cap"
    path.write_text("eval ([x: A -> A, y: A] (x y) => y) C;\n", encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.splitlines() == [
        "1:1: error[sort] in eval: pattern 'x' heads a compound but its type is not a datatype",
        "  actual:   A -> A",
    ]


@pytest.mark.parametrize(
    "command, text, where, message",
    [
        ("check", "assume x A;\n", "1:10", "expected ':', found 'A'"),
        ("check", "assume x", "1:9", "expected ':', found end of input"),
        ("check", "assume x : ;\n", "1:12", "expected a type, found ';'"),
        ("check", "def f = [x: A] x x => x;\n", "1:9", "pattern binds a matchable twice"),
        ("check", "def f = [x: A] (x => x;\n", "1:19", "expected ')', found '=>'"),
        ("check", "def f = [x: A] => x;\n", "1:16", "expected a pattern, found '=>'"),
        ("check", "eval ;\n", "1:6", "expected a term, found ';'"),
        ("check", "check A : A;\n  rec a. A;\n", "2:3", "expected a declaration (assume, def, check or eval)"),
        # a program is parsed to the end of its input, so only an inline term can trail
        ("type", "A )", "1:3", "trailing input starting at ')'"),
    ],
    ids=["expect", "expect-end-of-input", "type", "nonlinear", "parenthesised-pattern", "pattern", "term", "decl", "trailing"],
)
def test_parse_failures_report_their_message_and_position(tmp_path, capsys, command, text, where, message):
    if command == "check":
        path = tmp_path / "broken.cap"
        path.write_text(text, encoding="utf-8")
        text = str(path)
    code, out, err = run(capsys, command, text)
    assert code == 2 and out == ""
    assert err == f"{where}: error[parse]: {message}\n"
    code, out, _ = run(capsys, command, text, "--json")
    assert code == 2
    diag = json.loads(out)
    assert diag["code"] == "parse" and diag["message"] == message
    assert f"{diag['span']['line']}:{diag['span']['col']}" == where


@pytest.mark.parametrize("command, mode, verdict", [("sub", "sub", True), ("equiv", "eq", False)])
def test_relation_commands_json_shape(capsys, command, mode, verdict):
    code, out, err = run(capsys, command, "A", "A + B", "--json")
    assert code == 0 and err == ""
    assert json.loads(out) == {"left": "A", "right": "A + B", "mode": mode, "verdict": verdict}
