"""Seeded inputs, timed passes and output checks for the three workloads.

Every workload is a list of items (one declaration, one relation query or one
conformance run). A pass runs every item once through the public functions
that the `cap` command line calls, times each item, and calls `tick` after
each one (the benchmark samples the machine's speed there). It returns the
item times and one verdict per item: True when the output is the expected
one, False when it is not, None when the item raised. The expected outcome
of every item is known before the first pass: from how the item was built,
from the corpus files' commented expectations, or, for relation queries whose
verdict the construction does not fix, from the truncation oracle
(`oracle_compare`), which is consulted once and outside the timed passes.

The workload code reaches the program only through the module namespace
returned by `load_cap`, looked up at call time, so that the traced run can
replace a module's functions from outside.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

CAP_MODULES = (
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


def load_cap() -> SimpleNamespace:
    """Import the `cap` package and return its modules by short name."""
    return SimpleNamespace(**{name: importlib.import_module(f"cap.{name}") for name in CAP_MODULES})


# Sizes of every family. `full` is what the benchmark measures; `tiny` keeps
# the same families at sizes that run in well under a second, for the smoke
# test.
SIZES = {
    "full": {
        "upd_widths": (2, 3, 4, 5, 6, 7, 8, 9),
        "branch_checks": 80,
        "chain_lengths": (8, 9, 10),
        "id_chains": (50, 100, 150, 200),
        "list_maps": (20, 40, 60),
        "corpus_copies": 2,
        "random_pairs": 120,
        "built_pairs": 240,
        "nested_ks": (4, 5, 6),
        "rec_unfold_pairs": 24,
        "discriminators": 4,
        "conform_runs": 12,
        "conform_cases": 15,
        "conform_pairs": 30,
    },
    "tiny": {
        "upd_widths": (2, 3),
        "branch_checks": 6,
        "chain_lengths": (3, 4),
        "id_chains": (5, 10),
        "list_maps": (4, 8),
        "corpus_copies": 1,
        "random_pairs": 6,
        "built_pairs": 6,
        "nested_ks": (2, 3),
        "rec_unfold_pairs": 3,
        "discriminators": 1,
        "conform_runs": 2,
        "conform_cases": 4,
        "conform_pairs": 6,
    },
}

CONSTS = ("A", "B", "C", "D", "E", "F", "G", "H")
SHAPES = ("Cons", "Node", "Nil", "Leaf", "Pair", "Tip", "Bin", "Fork", "Unit", "Empty")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as err:  # any exception is a failed operation, not a crash of the run
        out = err
    return time.perf_counter() - start, out


# -- programs ------------------------------------------------------------------------


@dataclass(frozen=True)
class Expect:
    """The verdict one declaration must get."""

    ok: bool
    code: str | None = None  # diagnostic code of a rejected declaration
    value: object = None  # expected normal form of an eval, as a cap.syntax term
    steps: int | None = None


OK = Expect(True)


def _union(names) -> str:
    return " + ".join(names)


def _upd_program(rng: random.Random, width: int) -> tuple[str, list[Expect]]:
    """A path-polymorphic map over a recursive union with `width` leaf shapes.

    The seed picks the shapes; the order of the union is fixed, because the
    engines' search order, and so the time, depends on it.

    The accepted form mirrors corpus/upd.cap. The rejected form lets the leaf
    branch also return a constant outside the union, so the map's codomain is
    not a subtype of the stated one (a `type` error).
    """
    leaves = rng.sample(SHAPES, width)
    f = f"rec a. {_union(['Vl@Nat', 'a@a', *leaves])}"
    sig = f"(Nat -> Nat) -> (({f}) -> ({f}))"
    name = f"upd{width}"

    def check(leaf_types: str) -> str:
        return (
            f"check [f:Nat -> Nat] f => ( [z:Nat] Vl z => Vl (f z)\n"
            f"  | [x:{f}, y:{f}] x y => ({name} f x) ({name} f y)\n"
            f"  | [w:{leaf_types}] w => w ) : {sig};"
        )

    text = "\n".join(
        [
            f"assume {name} : {sig};",
            check(_union(leaves)),
            check(_union([*leaves, "Stray"])),
        ]
    )
    return text, [OK, OK, Expect(False, "type")]


def _branch_program(rng: random.Random, count: int) -> tuple[str, list[Expect]]:
    """Two-branch abstractions whose compatibility verdict follows from set inclusion.

    Types are unions of distinct constants, so `S <= T` holds exactly when
    S's constants are among T's. The seed picks the constants and their order;
    the union sizes (2 to 6) follow the index, so that every seed costs alike.
      - disjoint: different head constants, always compatible;
      - overlap: `K z` then `x y` with x:K, demanding K@S <= K@T;
      - subsumed: `x` then `y`, demanding S <= T.
    """
    lines: list[str] = []
    expects: list[Expect] = []
    for i in range(count):
        kind = ("disjoint", "overlap", "subsumed")[i % 3]
        t_names = rng.sample(CONSTS, 2 + (i // 3) % 5)
        if kind != "disjoint" and i % 2:
            s_names = t_names + [c for c in CONSTS if c not in t_names][:1]  # one constant too many
        else:
            s_names = rng.sample(t_names, len(t_names) - (i // 2) % 2)
        rng.shuffle(s_names)
        t, s = _union(t_names), _union(s_names)
        if kind == "disjoint":
            k1, k2 = rng.sample(SHAPES, 2)
            lines.append(f"check ([x:{t}] {k1} x => x | [y:{s}] {k2} y => y) : {k1}@({t}) + {k2}@({s}) -> {t} + {s};")
            expects.append(OK)
            continue
        fits = set(s_names) <= set(t_names)
        if kind == "overlap":
            k = rng.choice(SHAPES)
            lines.append(f"check ([z:{t}] {k} z => z | [x:{k}, y:{s}] x y => y) : {k}@({t}) -> {t};")
        else:
            lines.append(f"check ([x:{t}] x => x | [y:{s}] y => y) : {t} -> {t};")
        expects.append(OK if fits else Expect(False, "compatibility"))
    return "\n".join(lines), expects


def _chain_program(rng: random.Random, n: int) -> tuple[str, list[Expect]]:
    """`def d_i = K d_{i-1} d_{i-1}` for i up to n, then one accepted and one rejected check."""
    leaf, other = rng.sample(CONSTS, 2)
    k = rng.choice(SHAPES)
    lines = [f"def d0 = {leaf};"] + [f"def d{i} = {k} d{i - 1} d{i - 1};" for i in range(1, n + 1)]
    lines.append(f"check d{n} : rec t. {leaf} + {k}@t@t;")
    lines.append(f"check d{n} : rec t. {other} + {k}@t@t;")
    return "\n".join(lines), [OK] * (n + 2) + [Expect(False, "type")]


def _id_chain_program(rng: random.Random, syntax, n: int) -> tuple[str, list[Expect]]:
    """`id (id (... leaf))` with n applications: reaches `leaf` in exactly n beta steps."""
    leaf, other = rng.sample(CONSTS, 2)
    arg = "id " + leaf
    for _ in range(n - 1):
        arg = f"id ({arg})"
    text = f"def id = [x:{leaf} + {other}] x => x;\neval {arg};"
    return text, [OK, Expect(True, value=syntax.Const(leaf), steps=n)]


def _list_map_program(rng: random.Random, syntax, n: int) -> tuple[str, list[Expect]]:
    """`Cons (f x1) (Cons (f x2) ... Nil)` with f rotating A -> B -> C -> A: n beta steps."""
    rotate = {"A": "B", "B": "C", "C": "A"}
    items = [rng.choice("ABC") for _ in range(n)]
    text, value = "Nil", syntax.Const("Nil")
    for x in reversed(items):
        text = f"Cons (f {x}) ({text})"
        value = syntax.App(syntax.App(syntax.Const("Cons"), syntax.Const(rotate[x])), value)
    program = f"def f = [ ] A => B | [ ] B => C | [ ] C => A;\neval {text};"
    return program, [OK, Expect(True, value=value, steps=n)]


def _corpus_expects(syntax) -> dict[str, list[Expect]]:
    """The verdicts stated in the comments of each corpus file."""
    return {
        "bool_flip.cap": [Expect(True, value=syntax.Const("C0"), steps=2)],
        "branch_overlap_bad.cap": [OK, Expect(False, "compatibility")],
        "branch_overlap_ok.cap": [OK, OK],
        "compat_bool_nat.cap": [Expect(False, "compatibility")],
        "untypable_app.cap": [Expect(False, "type"), Expect(False, "type")],
        "upd.cap": [OK, OK],
        "upd2.cap": [OK, OK],
    }


def _decl_matches(result, expect: Expect) -> bool:
    if result.ok != expect.ok:
        return False
    if not expect.ok:
        return result.diagnostic is not None and result.diagnostic.code == expect.code
    if expect.steps is not None:
        ev = result.evaluated
        return ev is not None and ev.status == "normal" and ev.steps == expect.steps and ev.term == expect.value
    return True


class Programs:
    """`.cap` texts processed as `cap check`/`cap eval` do: parse, then declaration by declaration."""

    name = "programs"

    def __init__(self, cap: SimpleNamespace, seed: int, size: str):
        sizes = SIZES[size]
        rng = random.Random(seed)
        syntax = cap.syntax
        texts: list[tuple[str, str, list[Expect]]] = []
        for width in sizes["upd_widths"]:
            texts.append((f"upd-w{width}", *_upd_program(rng, width)))
        texts.append(("branches", *_branch_program(rng, sizes["branch_checks"])))
        for n in sizes["chain_lengths"]:
            texts.append((f"chain-n{n}", *_chain_program(rng, n)))
        for n in sizes["id_chains"]:
            texts.append((f"id-n{n}", *_id_chain_program(rng, syntax, n)))
        for n in sizes["list_maps"]:
            texts.append((f"map-n{n}", *_list_map_program(rng, syntax, n)))
        for copy in range(sizes["corpus_copies"]):
            for fname, expects in sorted(_corpus_expects(syntax).items()):
                text = (CORPUS / fname).read_text(encoding="utf-8")
                texts.append((f"corpus-{fname}-{copy}", text, expects))
        self.cap = cap
        self.texts = texts
        self.labels = [f"{label}#{i}" for label, _, expects in texts for i in range(len(expects))]

    def prepare_checks(self) -> None:
        pass

    def run_pass(self, tick) -> tuple[list[float], list[bool | None]]:
        cap = self.cap
        times: list[float] = []
        results: list = []
        for _, text, expects in self.texts:
            parsed = _timed(cap.surface.parse_program, text)[1]
            decls = () if isinstance(parsed, Exception) else parsed.decls
            state = cap.program.SessionState()
            for i in range(len(expects)):
                if i < len(decls):
                    dt, out = _timed(cap.program.process_decl, state, decls[i])
                else:
                    dt, out = 0.0, IndexError("missing declaration")
                times.append(dt)
                results.append(out)
                tick()
        verdicts = []
        expects_flat = [e for _, _, expects in self.texts for e in expects]
        for out, expect in zip(results, expects_flat):
            verdicts.append(None if isinstance(out, Exception) else _decl_matches(out, expect))
        return times, verdicts


# -- relations -----------------------------------------------------------------------


RANDOM_PROFILE = {"max_type_nodes": 20, "max_union_width": 5, "rec_probability": 0.35}
RANDOM_FAMILY_SEED = 20_000
BUILT_FAMILY_SEED = 30_000


def _nested(mu, k: int, leaf: str, order: str):
    """T_{j+1} = T_j@T_j + leaf, with the union written in the given order at every level."""
    const = mu.TypeConst(leaf)
    t = const
    for _ in range(k):
        app = mu.AppT(t, t)
        if order == "app-first":
            t = mu.Union(app, const)
        elif order == "leaf-first":
            t = mu.Union(const, app)
        else:  # duplicated leaf
            t = mu.Union(mu.Union(const, app), const)
    return t


def _unfold_args(mu, t):
    """Unfold the recursive types that appear as arguments of the top-level applications."""
    comps = []
    for c in mu.union_components(t):
        if isinstance(c, mu.AppT):
            c = mu.AppT(mu.head_unfold(c.left), mu.head_unfold(c.right))
        comps.append(c)
    return mu.union_of(comps)


class Relations:
    """Pre-built type pairs, each queried with is_subtype both ways and is_equivalent."""

    name = "relations"

    def __init__(self, cap: SimpleNamespace, seed: int, size: str):
        sizes = SIZES[size]
        rng = random.Random(seed)
        mu, gen, surface = cap.mu_types, cap.generators, cap.surface
        pairs: list[tuple[str, object, object, tuple]] = []  # label, a, b, (sub_ab, sub_ba, eq) or None each
        unknown = (None, None, None)
        # The random family is the same in every run: at this size about one pair
        # in a few thousand takes the engines' exponential path (up to seconds),
        # and a seed-dependent share of such pairs would make runs incomparable.
        fixed = random.Random(RANDOM_FAMILY_SEED)
        cfg = gen.GenConfig(**RANDOM_PROFILE)
        for i in range(sizes["random_pairs"]):
            a = gen.gen_type(cfg.with_seed(RANDOM_FAMILY_SEED + 2 * i))
            if fixed.random() < 0.7:
                b = gen.mutate_type(fixed, a)
            else:
                b = gen.gen_type(cfg.with_seed(RANDOM_FAMILY_SEED + 2 * i + 1))
            pairs.append((f"random-{i}", a, b, unknown))
        # The base types of the built family are fixed for the same reason: even
        # at 12 nodes one type in a few thousand is slow against its own
        # unfolding. The seed still picks the shuffles, duplicates and widenings.
        built = gen.GenConfig()
        for i in range(sizes["built_pairs"]):
            a = gen.gen_type(built.with_seed(BUILT_FAMILY_SEED + i))
            comps = mu.union_components(a)
            kind = ("shuffle", "duplicate", "unfold", "widen")[i % 4]
            if kind == "shuffle" and len(comps) > 1:
                shuffled = comps[:]
                rng.shuffle(shuffled)
                pairs.append((f"shuffle-{i}", a, mu.union_of(shuffled), (True, True, True)))
            elif kind == "unfold" and isinstance(a, mu.Rec):
                pairs.append((f"unfold-{i}", a, mu.head_unfold(a), (True, True, True)))
            elif kind == "widen":
                extra = mu.TypeConst(rng.choice(gen.TYPE_CONSTS))
                pairs.append((f"widen-{i}", a, mu.union_of(comps + [extra]), (True, None, None)))
            else:
                pairs.append((f"duplicate-{i}", a, mu.union_of(comps + [rng.choice(comps)]), (True, True, True)))
        for k in sizes["nested_ks"]:
            leaf = rng.choice(CONSTS)
            first = _nested(mu, k, leaf, "app-first")
            pairs.append((f"nested-reorder-k{k}", first, _nested(mu, k, leaf, "leaf-first"), (True, True, True)))
            pairs.append((f"nested-dup-k{k}", first, _nested(mu, k, leaf, "dup"), (True, True, True)))
        for i in range(sizes["rec_unfold_pairs"]):
            leaves = rng.sample(SHAPES, 2 + i % 5)
            a = surface.parse_type(f"rec a. {_union(['Vl@Nat', 'a@a', *leaves])}")
            b = mu.head_unfold(a)
            for _ in range(i % 3):
                b = _unfold_args(mu, b)
            pairs.append((f"rec-unfold-{i}", a, b, (True, True, True)))
        for i in range(sizes["discriminators"]):
            n = rng.choice(CONSTS)
            arrows = " -> ".join([n] * (2 + i))
            a = surface.parse_type(f"rec x. {arrows} -> x")
            b = surface.parse_type(f"rec x. {n} -> x")
            pairs.append((f"discriminator-{i}", a, b, (True, True, True)))
        self.cap = cap
        self.pairs = pairs
        self.labels = [f"{label}:{q}" for label, *_ in pairs for q in ("sub", "sub-rev", "eq")]
        self.expected: list[bool | None] = [v for *_, verdicts in pairs for v in verdicts]

    def prepare_checks(self) -> None:
        """Fill in the verdicts the construction leaves open from the truncation oracle."""
        rel = self.cap.relations
        for index, (_, a, b, verdicts) in enumerate(self.pairs):
            queries = ((a, b, rel.MODE_SUB), (b, a, rel.MODE_SUB), (a, b, rel.MODE_EQ))
            for j, (x, y, mode) in enumerate(queries):
                if verdicts[j] is None:
                    # A verdict the truncations contradict is taken as the opposite one,
                    # so that the engine's answer counts as wrong; an oracle that raises
                    # leaves None, which no verdict matches.
                    try:
                        report = rel.oracle_compare(x, y, 8, mode)
                    except Exception:
                        continue
                    self.expected[3 * index + j] = report.engine if report.agree else not report.engine

    def run_pass(self, tick) -> tuple[list[float], list[bool | None]]:
        rel = self.cap.relations
        times: list[float] = []
        outs: list = []
        for _, a, b, _ in self.pairs:
            for fn, x, y in ((rel.is_subtype, a, b), (rel.is_subtype, b, a), (rel.is_equivalent, a, b)):
                dt, out = _timed(fn, x, y)
                times.append(dt)
                outs.append(out)
                tick()
        verdicts = [None if isinstance(out, Exception) else out == want for out, want in zip(outs, self.expected)]
        return times, verdicts


# -- conform -------------------------------------------------------------------------


# Fixed suite seeds: every run measures the same conformance input, whatever
# --seed says, because an input on which a suite reports a counterexample
# would be an operation that fails on some seeds only.
CONFORM_BASE_SEED = 1000
CONFORM_SEED_STRIDE = 1000


class Conform:
    """Small `cap conform` runs (all four property suites plus the differential)."""

    name = "conform"

    def __init__(self, cap: SimpleNamespace, seed: int, size: str):
        sizes = SIZES[size]
        gen = cap.generators
        self.cap = cap
        self.cases = sizes["conform_cases"]
        self.pairs = sizes["conform_pairs"]
        self.configs = [
            gen.GenConfig(seed=CONFORM_BASE_SEED + CONFORM_SEED_STRIDE * i) for i in range(sizes["conform_runs"])
        ]
        self.labels = [f"conform-seed{cfg.seed}" for cfg in self.configs]

    def prepare_checks(self) -> None:
        pass

    def _matches(self, summary) -> bool:
        sizes_ok = [r.cases for r in summary.reports] == [self.cases] * 3 + [min(self.cases, 200)]
        diff = summary.differential
        return summary.ok and sizes_ok and diff.pairs == self.pairs and not diff.disagreements

    def run_pass(self, tick) -> tuple[list[float], list[bool | None]]:
        run = self.cap.conformance.run_conformance
        times: list[float] = []
        verdicts: list[bool | None] = []
        for cfg in self.configs:
            dt, out = _timed(run, cfg, cases=self.cases, pairs=self.pairs, dump_failures=False)
            times.append(dt)
            verdicts.append(None if isinstance(out, Exception) else self._matches(out))
            tick()
        return times, verdicts


WORKLOADS = {cls.name: cls for cls in (Programs, Relations, Conform)}
