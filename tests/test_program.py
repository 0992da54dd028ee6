from pathlib import Path

from cap import compatibility, conformance, program, reduction, relations, surface, typecheck
from cap.conformance import term_suites
from cap.generators import GenConfig
from cap.program import SessionState, check_program, process_decl
from cap.relations import is_equivalent
from cap.surface import parse_program, parse_term, parse_type, pretty
from cap.syntax import Var

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_file(name):
    program = parse_program((CORPUS / name).read_text(encoding="utf-8"))
    return check_program(program)


def test_empty_program():
    assert check_program(parse_program("")) == []


def test_assume_then_check_upd():
    results = run_file("upd.cap")
    assert [r.ok for r in results] == [True, True]


def test_upd2_checks():
    results = run_file("upd2.cap")
    assert all(r.ok for r in results)


def test_untypable_applications_rejected_individually():
    results = run_file("untypable_app.cap")
    assert [r.ok for r in results] == [False, False]
    assert all(r.diagnostic.code == "type" for r in results)
    # each result keeps its error, located at its declaration, but not the
    # frames of the checker that raised it
    assert [(r.diagnostic.span.line, r.diagnostic.decl) for r in results] == [(3, "check"), (4, "check")]
    assert all(r.diagnostic.__traceback__ is None for r in results)


def test_compat_failure_reported():
    results = run_file("compat_bool_nat.cap")
    assert [r.ok for r in results] == [False]
    assert results[0].diagnostic.code == "compatibility"


def test_overlap_obligation_files():
    ok = run_file("branch_overlap_ok.cap")
    assert all(r.ok for r in ok)
    bad = run_file("branch_overlap_bad.cap")
    assert [r.ok for r in bad] == [True, False]
    assert bad[1].diagnostic.code == "compatibility"


def test_eval_declaration_runs():
    results = run_file("bool_flip.cap")
    assert results[0].ok
    assert pretty(results[0].evaluated.term) == "C0"
    assert results[0].evaluated.steps == 2


def test_definitions_unfold_for_later_declarations():
    source = """
    def flip = [ ] True => False | [ ] False => True;
    def pick = [ ] True => C1 | [ ] False => C0;
    eval pick (flip True);
    check pick (flip True) : C1 + C0;
    """
    results = check_program(parse_program(source))
    assert all(r.ok for r in results)
    assert pretty(results[2].evaluated.term) == "C0"


def test_def_substitution_respects_binders():
    # the definition name is shadowed by a matchable in a later term
    source = "def c = Nil; eval ([c:Cons] c => c) Cons;"
    results = check_program(parse_program(source))
    assert all(r.ok for r in results)
    assert pretty(results[1].evaluated.term) == "Cons"


def test_def_cannot_recurse():
    results = check_program(parse_program("def loop = loop;"))
    assert not results[0].ok
    assert "unbound" in results[0].diagnostic.message


def test_failure_does_not_stop_processing():
    source = "check True : False; eval Nil;"
    results = check_program(parse_program(source))
    assert [r.ok for r in results] == [False, True]


def test_runtime_diagnostics_for_fuel():
    # self-application typed through a recursive arrow: loops, runs out of fuel
    state = SessionState()
    omega = "eval ([x:rec o. o -> B] x => x x) ([x:rec o. o -> B] x => x x);"
    result = process_decl(state, parse_program(omega).decls[0], fuel=25)
    assert not result.ok
    assert result.diagnostic.code == "runtime"
    assert result.evaluated.status == "out-of-fuel"


def test_session_state_accumulates():
    state = SessionState()
    program = parse_program("assume n : Nat; def v = Vl n;")
    for decl in program.decls:
        result = process_decl(state, decl)
        assert result.ok
    assert is_equivalent(state.env["v"], parse_type("Vl@Nat"))


def test_definition_shadowing_verdicts():
    # Later terms get the body of `d`, the variable `x`, in place of `d`, so
    # they type `x` at the type assumed last: `d : A` fails although `def d`
    # reported A. Typing `d` at its recorded type would flip the first check.
    # A second `def d` replaces the first.
    source = "assume x : A; def d = x; assume x : B; check d : A; check d : B; def d = C; check d : C;"
    results = check_program(parse_program(source))
    assert [r.ok for r in results] == [True, True, True, False, True, True, True]
    assert results[3].diagnostic.code == "type"
    assert pretty(results[1].inferred) == "A"
    assert pretty(results[5].inferred) == "C"


def test_assume_shadows_an_earlier_def():
    results = check_program(parse_program("def x = B; assume x : C; check x : C; eval x;"))
    assert [r.ok for r in results] == [True, True, True, True]
    assert results[3].evaluated.term == Var("x")
    assert results[3].evaluated.steps == 0


def test_types_are_validated_only_by_the_parser(monkeypatch):
    # Once parsing is done, declarations and subject reduction must give the
    # same results with every module's validate_type made to fail.
    programs = [parse_program(path.read_text(encoding="utf-8")) for path in sorted(CORPUS.glob("*.cap"))]
    assert len(programs) == 7
    cfg = GenConfig(seed=11)
    before = [check_program(p) for p in programs], [r.to_dict() for r in term_suites(cfg, 80)]

    def validate_after_parsing(raw):
        raise AssertionError(f"validate_type called after parsing on {raw!r}")

    for module in (surface, program, typecheck, compatibility, relations, reduction, conformance):
        monkeypatch.setattr(module, "validate_type", validate_after_parsing, raising=False)
    after = [check_program(p) for p in programs], [r.to_dict() for r in term_suites(cfg, 80)]
    assert after == before


class _DefinitionsThatMustNotBeScanned(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)

    def _scan(self, *args):
        raise AssertionError("resolve scanned every definition")

    __iter__ = items = keys = values = _scan


def test_resolve_reads_only_the_definitions_a_term_names():
    state = SessionState()
    for i in range(200):
        process_decl(state, parse_program(f"def d{i} = Cons A;").decls[0])
    state.definitions = _DefinitionsThatMustNotBeScanned(state.definitions)
    resolved = state.resolve(parse_term("d7 (d150 free)"))
    assert resolved == parse_term("(Cons A) ((Cons A) free)")
    assert state.definitions.reads == 2
    assert state.resolve(parse_term("free")) == Var("free")
    assert state.definitions.reads == 2
