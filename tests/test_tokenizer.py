"""The script tokenizer and cursor against position-by-position oracles.

`dsl.tokenize_line` scans a line with one `findall`, and `dsl._Cursor`
reads a token list that ends in a sentinel. The oracles below are the
earlier forms: a tokenizer that matches one token at each position and a
cursor that checks its bounds on every read. Random lines, every line of
the corpus and every line of the generated `jet-count` and `class-canon`
scripts must give the same tokens, the same statements, or the same
`ScriptError` message and line. (`tests/test_cli.py` pins the message
and line of each parse-error path.)
"""

import importlib.util
import re
from pathlib import Path

import pytest

from motivic import dsl

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

ROOT = Path(__file__).resolve().parent.parent

_ORACLE_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
                           r"|(?P<arrow>->)|(?P<op>[][()=^+*/,&|@:<>-]))")


def oracle_tokenize(text, line_no):
    """One `match` per token, from the position the last one ended at."""
    toks = []
    pos = 0
    body = text.split("#", 1)[0]
    while pos < len(body):
        m = _ORACLE_TOKEN.match(body, pos)
        if m is None:
            if body[pos:].strip() == "":
                break
            raise dsl.ScriptError("bad character %r" % body[pos:].lstrip()[0], line_no)
        pos = m.end()
        if m.group("int") is not None:
            toks.append(("int", int(m.group("int"))))
        elif m.group("name") is not None:
            toks.append(("name", m.group("name")))
        elif m.group("arrow") is not None:
            toks.append(("op", "->"))
        else:
            toks.append(("op", m.group("op")))
    return toks


class OracleCursor:
    """A cursor with a bounds check on every read and no sentinel."""

    def __init__(self, toks, line_no):
        self.toks = toks
        self.i = 0
        self.line = line_no

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("eof", None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def done(self):
        return self.i >= len(self.toks)

    fail = dsl._Cursor.fail
    expect_op = dsl._Cursor.expect_op
    expect_name = dsl._Cursor.expect_name
    expect_int = dsl._Cursor.expect_int

    def accept_op(self, op):
        k, v = self.peek()
        if k == "op" and v == op:
            self.i += 1
            return True
        return False

    def accept_name(self, word):
        k, v = self.peek()
        if k == "name" and v == word:
            self.i += 1
            return True
        return False


def outcome(fn, *args):
    """The result of fn(*args), or the message and line of its ScriptError."""
    try:
        return ("ok", fn(*args))
    except dsl.ScriptError as err:
        return ("error", str(err), err.line)


def parse_outcome(line, line_no, cursor):
    """Tokens and statement of one line, parsed with the given cursor class."""
    def parse():
        toks = dsl.tokenize_line(line, line_no)
        if not toks:
            return None
        saved = dsl._Cursor
        dsl._Cursor = cursor
        try:
            stmt = dsl.parse_statement(toks, line_no)
        finally:
            dsl._Cursor = saved
        return (stmt, dsl.print_statement(stmt))
    return outcome(parse)


def assert_same_line(line, line_no=1):
    assert outcome(dsl.tokenize_line, line, line_no) \
        == outcome(oracle_tokenize, line, line_no), line
    assert parse_outcome(line, line_no, dsl._Cursor) \
        == parse_outcome(line, line_no, OracleCursor), line


def _gen():
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script_lines():
    """(source, line number, line) for the corpus and the generated scripts."""
    out = []
    for path in sorted((ROOT / "tests" / "corpus").glob("*.mot")):
        for i, line in enumerate(path.read_text().splitlines(), start=1):
            out.append((path.name, i, line))
    gen = _gen()
    for workload in ("jet-count", "class-canon"):
        for seed in (0, 1):
            for item in gen.items_for(workload, seed):
                for i, line in enumerate(item["text"].splitlines(), start=1):
                    out.append((item["id"], i, line))
    return out


SCRIPT_LINES = script_lines()
CORPUS_LINES = sorted({line for source, _, line in SCRIPT_LINES
                       if source.endswith(".mot") and line.strip()})


def test_every_script_line_tokenizes_and_parses_like_the_oracles():
    assert len(SCRIPT_LINES) > 1000
    for _, i, line in SCRIPT_LINES:
        assert_same_line(line, i)


def test_every_prefix_of_a_corpus_line_parses_like_the_oracle():
    # a cut line ends where the grammar still expects a token, so each
    # read that meets the end of the line is taken
    for line in CORPUS_LINES:
        for cut in range(len(line)):
            assert_same_line(line[:cut])


# -- random lines ------------------------------------------------------------

SETTINGS = hypothesis.settings(max_examples=400, deadline=None, derandomize=True)

WORDS = ("field", "fatpoint", "chain", "scheme", "map", "sieve", "simplicial",
         "class", "count", "arc", "measure", "check", "Q", "q", "F", "k",
         "Spec", "rule", "n", "V", "D", "im", "L", "full", "empty", "in", "at",
         "on", "level", "lax", "horizon", "window", "trivial", "fiber", "sym",
         "adjunction", "scissor", "continuity", "tau", "pushpull", "topo",
         "x", "y", "t", "m", "X", "s'", "_a1")
OPS = tuple("[]()=^+*/,&|@:<>-") + ("->",)
BLANKS = (" ", "  ", "\t", "\x0b", "\x0c", " ", "　")
STRAY = ("$", "!", "~", ";", ".", "?", "\"", "'", "\\", "{", "}", "%", "`",
         "é", "²", "٣", "\U0001d7d8")


def pieces():
    return st.one_of(
        st.sampled_from(WORDS), st.sampled_from(OPS), st.sampled_from(BLANKS),
        st.integers(0, 10 ** 12).map(str), st.sampled_from(STRAY),
        st.text(max_size=6).map(lambda s: "#" + s))


@SETTINGS
@hypothesis.given(st.lists(pieces(), max_size=24), st.integers(1, 500))
def test_random_lines_tokenize_and_parse_like_the_oracles(parts, line_no):
    assert_same_line("".join(parts), line_no)


@SETTINGS
@hypothesis.given(st.lists(st.one_of(pieces(), st.sampled_from(BLANKS)), max_size=12)
                  .map(" ".join))
def test_spaced_lines_tokenize_and_parse_like_the_oracles(line):
    assert_same_line(line)


@SETTINGS
@hypothesis.given(st.sampled_from(CORPUS_LINES), st.integers(0, 200), pieces())
def test_corpus_lines_with_a_piece_inserted_parse_like_the_oracles(line, at, piece):
    at %= len(line) + 1
    assert_same_line(line[:at] + piece + line[at:])


@SETTINGS
@hypothesis.given(st.text(max_size=30))
def test_any_text_tokenizes_like_the_oracle(text):
    assert outcome(dsl.tokenize_line, text, 7) == outcome(oracle_tokenize, text, 7)
