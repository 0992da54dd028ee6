import random
import time
import timeit
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from cap import compatibility, conformance, mu_types, program, reduction, relations, surface, syntax, typecheck
from cap.conformance import term_suites
from cap.generators import GenConfig
from cap.program import SessionState, check_program, process_decl
from cap.relations import is_equivalent
from cap.surface import parse_program, parse_term, parse_type, pretty
from cap.syntax import Abs, App, Branch, Var

from conftest import counting, unshared

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run_file(name):
    program = parse_program((CORPUS / name).read_text(encoding="utf-8"))
    return check_program(program)


def test_empty_program():
    assert check_program(parse_program("")) == []


def test_assume_then_check_upd():
    results = run_file("upd.cap")
    assert [r.ok for r in results] == [True, True]


def test_a_shared_signature_is_related_without_canonical_keys():
    # the parser makes every `rec a. ...` of the file one object, so the
    # relation engine meets the repeats as the same object, and finds a
    # component that typing rebuilt over them by its hash-cons key; a parser
    # that builds each occurrence anew makes 106 calls, and answers by
    # identity alone make 60
    with counting(mu_types, "_canonical", 0), counting(relations._Engine, "_structural", 0):
        assert all(r.ok for r in run_file("upd.cap"))


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


def test_a_stored_error_keeps_its_fields_in_slots():
    state = SessionState()
    err = process_decl(state, parse_program("check A : B;").decls[0]).diagnostic
    assert (err.code, err.decl, err.actual) == ("type", "check", "A")
    assert vars(err) == {}


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


def test_a_runtime_diagnostic_shows_a_shared_value_up_to_the_bound():
    # the value of `d_n` doubles its text per level: written whole, the
    # `actual` is 2 359 321 characters at n = 18, and at n = 40 it never ends
    for n in (18, 40):
        chains = "".join(f"def d{i} = Cons d{i - 1} d{i - 1};" for i in range(1, n + 1))
        eval_ = f"eval ([x: rec t. A + Cons@t@t] x => x) (([y: rec t. A + Cons@t@t] y => y) d{n});"
        start = time.perf_counter()
        *defined, result = check_program(parse_program(f"def d0 = A;{chains}{eval_}"), fuel=1)
        elapsed = time.perf_counter() - start
        assert all(r.ok for r in defined) and result.diagnostic.code == "runtime"
        actual = result.diagnostic.actual
        assert len(actual) == surface.SHOWN + 3 and actual.endswith("...")
        assert actual.startswith("([x:rec t. A + Cons@t@t] x => x) (Cons (Cons (")
        assert elapsed < 1.0


def test_beta_substitutes_a_shared_definition_once_per_node():
    # the body `Cons d_n x` holds d_n, whose tree has 2^n leaves
    n = 40
    chains = "".join(f"def d{i} = Cons d{i - 1} d{i - 1};" for i in range(1, n + 1))
    program = parse_program(f"def d0 = A;{chains}def f = [x : A] x => Cons d{n} x;eval f A;")
    with counting(syntax, "_substitute", 12 * n):
        *defined, result = check_program(program)
    assert all(r.ok for r in defined) and result.ok and result.evaluated.steps == 1


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


def declaration_pairs(n):
    return "".join(f"def x{i} = [ ] A{i} => B{i}; check x{i} : A{i} -> B{i};\n" for i in range(n))


def test_check_time_grows_about_linearly_in_the_declarations():
    # the best of runs taken in turns, with the collector off, as in
    # test_surface's parse-time test; a branch must cost no time in the size
    # of the session environment, which holds every earlier declaration
    runs = {n: partial(check_program, parse_program(declaration_pairs(n))) for n in (3000, 12_000)}
    assert all(r.ok for r in runs[3000]())
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(5):
        for n, run in runs.items():
            best[n] = min(best[n], timeit.timeit(run, number=1))
    assert best[12_000] <= 2.5**2 * best[3000], best  # at most 2.5 times per doubling


class _DefinitionsThatMustNotBeScanned(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)

    def get(self, name, default=None):
        return self[name] if name in self else default

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


# -- sharing changes no result ------------------------------------------------


def unshared_term(t):
    """`t` with every branch annotation rebuilt by `unshared`."""
    match t:
        case Abs(branches):
            return Abs(
                tuple(
                    Branch(b.pattern, tuple((x, unshared(ty)) for x, ty in b.bindings), unshared_term(b.body))
                    for b in branches
                )
            )
        case App(fun, arg):
            return App(unshared_term(fun), unshared_term(arg))
    return t


def unshared_program(p):
    """`p` with every type of it rebuilt as a tree, so no two places share a type object."""
    decls = []
    for d in p.decls:
        if hasattr(d, "type"):
            d = replace(d, type=unshared(d.type))
        if hasattr(d, "term"):
            d = replace(d, term=unshared_term(d.term))
        decls.append(d)
    return replace(p, decls=tuple(decls))


def upd_program(rng, width):
    """A path-polymorphic map, as corpus/upd.cap, over a union with `width` leaves, and one check that fails."""
    leaves = rng.sample([f"K{i}" for i in range(12)], width)
    f = f"rec a. {' + '.join(['Vl@Nat', 'a@a', *leaves])}"
    sig = f"(Nat -> Nat) -> (({f}) -> ({f}))"

    def check(leaf_type):
        return (
            f"check [f:Nat -> Nat] f => ( [z:Nat] Vl z => Vl (f z)"
            f" | [x:{f}, y:{f}] x y => (upd f x) (upd f y) | [w:{leaf_type}] w => w ) : {sig};"
        )

    return f"assume upd : {sig};\n{check(' + '.join(leaves))}\n{check(' + '.join([*leaves, 'Stray']))}"


def branch_program(rng, count):
    """Two-branch checks over unions of constants: disjoint heads, an overlap and a subsumed branch."""
    lines = []
    for i in range(count):
        t_names = rng.sample([f"C{k}" for k in range(8)], 2 + i % 4)
        s_names = rng.sample(t_names, len(t_names) - i % 2) + ["Extra"] * (i % 5 == 0)
        t, s = " + ".join(t_names), " + ".join(s_names)
        lines += [
            f"check ([x:{t}] K x => x | [y:{s}] L y => y) : K@({t}) + L@({s}) -> {t} + {s};",
            f"check ([z:{t}] K z => z | [x:K, y:{s}] x y => y) : K@({t}) -> {t};",
            f"check ([x:{t}] x => x | [y:{s}] y => y) : {t} -> {t};",
        ]
    return "\n".join(lines)


def chain_program(n):
    """`def d_i = K d_{i-1} d_{i-1}`, checked at a tree type and at one with another leaf, then evaluated."""
    lines = ["def d0 = C;"] + [f"def d{i} = K d{i - 1} d{i - 1};" for i in range(1, n + 1)]
    return "\n".join([*lines, f"check d{n} : rec t. C + K@t@t;", f"check d{n} : rec t. D + K@t@t;", f"eval d{n};"])


def outcome(r):
    d, e = r.diagnostic, r.evaluated
    return r.ok, d and (d.code, d.message), r.inferred and pretty(r.inferred), e and (e.status, e.term, e.steps)


def sharing_texts():
    """The corpus and generated programs, by name."""
    rng = random.Random(2024)
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.cap"))}
    texts |= {f"upd-w{w}": upd_program(rng, w) for w in (2, 3, 5)}
    texts |= {"branches": branch_program(rng, 12), "chain-n6": chain_program(6)}
    return texts


@pytest.mark.parametrize("text", sharing_texts().values(), ids=sharing_texts())
def test_sharing_parsed_types_changes_no_result(text):
    parsed = parse_program(text)
    copy = unshared_program(parsed)
    assert copy == parsed
    assert all(c.type is not d.type for c, d in zip(copy.decls, parsed.decls) if hasattr(d, "type"))
    assert [outcome(r) for r in check_program(copy)] == [outcome(r) for r in check_program(parsed)]
