"""Replay the recorded parse result of every text in a fixed error table.

Each text goes through `parse_program`, `parse_term` and `parse_type`, and
the table keeps, for each in that order, the rendered diagnostic (line,
column, code, message and any `actual`) or null when the text parses. The texts are
random token lists, truncated and mutated corpus declarations, and one or
more hand-written cases for each place the lexer and parser raise. Run this
file as a script to record the table again after a change that alters it on
purpose.
"""

import json
import random
import re
from pathlib import Path

import pytest

from cap.diagnostics import CapError
from cap.surface import parse_program, parse_term, parse_type

from test_surface import TOKENS

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "snapshots" / "parse_errors.json"
PARSERS = (parse_program, parse_term, parse_type)

# Each raise site of the lexer and the parser, reached at several positions.
RAISE_SITES = [
    # the lexer
    "Nat # Bool",
    "check A :\n\t  ²",
    "eval x - y;",
    "a\tb\r\xa0",
    "--ok\n  _x",
    # expected a particular token
    "assume : A;",
    "assume X : A;",
    "assume x A;",
    "assume x : A",
    "def = A;",
    "def f A;",
    "def f = A",
    "check A A;",
    "check A : B C;",
    "eval A B",
    "eval (A;",
    "eval [x:A x => x;",
    "eval [x A] x => x;",
    "eval [x:A, ] x => x;",
    "eval [x:A] x x;",
    "eval [x:A] x => x | ;",
    "check A : rec . A -> A;",
    "check A : rec a A -> a;",
    "check A : rec a. (A -> a;",
    # expected a type, a term or a pattern
    "check A : ;",
    "check A : A + ;",
    "check A : A -> ;",
    "check A : A @ ;",
    "check A : ( ) ;",
    "eval ;",
    "eval ( ) ;",
    "def f = ;",
    "eval [x:A] => x;",
    "eval [x:A] (x => x;",
    "eval [x:A] x => ;",
    "eval [x:A] x => [",
    "eval [x:A] x => x |",
    # expected a declaration
    "rec a. A;",
    "A;",
    ";",
    "eval A; ]",
    "eval A;\n\n  x",
    # a pattern that binds a matchable twice, spanned at its "["
    "eval [x:A] Pair x x => x;",
    "eval [ ] Nil => Nil | [x:A, y:A]\n  Pair x (Box (Pair y x)) => x;",
    # trailing input, for a term or a type
    "A B",
    "x )",
    "A -> B )",
    "[x:A] x => x ]",
    # sort and contractiveness errors, spanned at the start of the whole type
    "check A : (A -> B) @ C;",
    "check A :\n  Nil + x @ C;",
    "assume f : A -> rec a. a@Z + (X -> Y)@a;",
    "eval [x: Nil + rec x. x + Nil] x => x;",
    "eval [y:A, x: rec x. x] x => x;",
    "check A : rec x. x -> rec y. y;",
    "check A : rec a. a@Z + (rec b. b);",
    "(A -> B) @ C",
    "rec x. x + Nil",
]


def token_lists(count: int = 3000, seed: int = 21) -> list[str]:
    rng = random.Random(seed)
    return [" ".join(rng.choice(TOKENS) for _ in range(rng.randint(1, 24))) for _ in range(count)]


# A lexeme of the corpus: a comment, a two-character operator, a word or
# any other character that is not blank.
_LEXEME = re.compile(r"--[^\n]*|[-=]>|\w+|\S")


def corpus_mutations(per_decl: int = 40, seed: int = 22) -> list[str]:
    """Declarations of the corpus, each cut after a random lexeme and
    mutated by deleting, repeating or replacing one lexeme, or by swapping
    two neighbours. The layout around the lexemes is kept, so errors fall on
    later lines and columns too."""
    rng = random.Random(seed)
    texts = []
    for path in sorted((ROOT / "corpus").glob("*.cap")):
        for decl in path.read_text(encoding="utf-8").split(";"):
            decl = decl.strip("\n") + ";"
            spans = [m.span() for m in _LEXEME.finditer(decl) if not m[0].startswith("--")]
            if len(spans) < 3:
                continue
            for _ in range(per_decl):
                i = rng.randrange(len(spans))
                start, end = spans[i]
                lexeme = decl[start:end]
                texts += [
                    decl[:end],
                    rng.choice(
                        [
                            decl[:start] + decl[end:],
                            decl[:end] + " " + lexeme + decl[end:],
                            decl[:start] + rng.choice(TOKENS) + decl[end:],
                        ]
                    ),
                ]
                if i + 1 < len(spans):
                    after = spans[i + 1]
                    texts.append(decl[:start] + decl[after[0] : after[1]] + decl[end : after[0]] + lexeme + decl[after[1] :])
    return texts


def outcomes(text: str) -> list[str | None]:
    """The rendered diagnostic of each parser on `text`, or None when it parses."""
    out = []
    for parse in PARSERS:
        try:
            parse(text)
            out.append(None)
        except CapError as err:
            out.append(err.render())
    return out


def record() -> dict:
    groups = {"raise sites": RAISE_SITES, "token lists": token_lists(), "corpus mutations": corpus_mutations()}
    return {group: {text: outcomes(text) for text in texts} for group, texts in groups.items()}


RECORDED = json.loads(TABLE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", sorted(RECORDED))
def test_parse_errors_match_the_table(group):
    got = {text: outcomes(text) for text in RECORDED[group]}
    changed = {text: out for text, out in got.items() if out != RECORDED[group][text]}
    assert not changed, changed


def test_the_table_reaches_every_outcome():
    # every raise site of the parser, and texts that parse, are in the table
    rendered = {r for table in RECORDED.values() for entry in table.values() for r in entry}
    messages = {r.split(": ", 2)[-1].split(", found")[0] if r else None for r in rendered}
    for wanted in (
        None,
        "unexpected character '#'",
        "expected 'lower'",
        "expected ';'",
        "expected a type",
        "expected a term",
        "expected a pattern",
        "expected a declaration (assume, def, check or eval)",
        "pattern binds a matchable twice",
        "left argument of @ must be a datatype\n  actual:   A -> B",
        "recursion variable 'x' must occur under @ or ->",
    ):
        assert wanted in messages, wanted
    assert any(r and "trailing input starting at" in r for r in rendered)
    assert sum(len(table) for table in RECORDED.values()) > 3500


if __name__ == "__main__":
    TABLE.write_text(json.dumps(record(), indent=1, sort_keys=True, ensure_ascii=False) + "\n", encoding="utf-8")
