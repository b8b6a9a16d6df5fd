"""The token layer: positions, kinds and the characters no token accepts.

One property test checks ``tokenize`` against the lexical rules stated
independently of its pattern: the tokens tile the input, so that only
whitespace and ``%`` comments lie between them, and each kind agrees with
``str.isalpha``, ``isupper`` and ``isdecimal`` of its text. Another checks
it, and ``TokenStream``'s texts, against ``reference_tokenize``, the
per-line lexer that built one ``Token`` per token and one per name part.

Parsers ask ``TokenStream`` for a token by its text alone, which is exact
only because no text is spelled by two kinds. ``kind_agrees`` holds for one
kind per text, so the property test checks that on its inputs; the last
tests check it on every text a parser asks for and on the fixtures.
"""

import ast
import inspect
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racetrace import ParseError, parse_program, parse_trace, run_random, serialize_trace
from racetrace import parsing, simulator, traces
from racetrace.parsing import Token, TokenStream, parse_constraint, tokenize
from racetrace.terms import CMP_OPS

from conftest import FIXTURES
from test_explorer import NEVER_STOPPING

SYMBOLS = {"->", "==", "/=", "=<", ">=", *"{}[]()<>,;:.#=_"}
# ASCII, letters of every case, decimal digits of other scripts, numerals
# that are not decimal ('²', '½', 'Ⅷ'), whitespace that does not end a
# line ('\r', '\x0b', '\xa0', '\u2028', '\x85') and a byte-order mark
ALPHABET = [
    *"abcXYZ_019 -%>=</{}[](),;:.#\t\n",
    "ε", "é", "ǅ", "ﬁ", "Σ", "٣", "²", "½", "Ⅷ",
    "\r\n", "\x0b", "\xa0", "\u2028", "\x85", "\ufeff", "% c\n", "->", "=<",
    # dotted names, and dots parted from a number by a sign, a space or a line break
    "p1.2.10", "p1 . 2", "p1.\n2", "p1.-2", "a.²", "p1.", ".1",
]


# The lexer the one-scan ``tokenize`` replaced, kept as the reference: one
# ``_TOKEN.match`` per token, line by line, and one ``Token`` per token
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<comment> %.* )
      | (?P<int> -?\d+ )
      | (?P<word> [^\W\d_]\w* )
      | (?P<var> _\w+ )
      | (?P<sym> -> | == | /= | =< | >= | [{}\[\]()<>,;:.\#=_] )
      | (?P<bad> . )
      | (?P<end> $ )
    )""",
    re.VERBOSE,
)


def reference_tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    for line, source in enumerate(text.split("\n"), 1):
        pos = 0
        while True:
            m = _TOKEN.match(source, pos)
            kind = m.lastgroup
            col = m.start(kind) + 1
            if kind in ("comment", "end"):
                break
            lexeme = m[kind]
            # \w also takes numerals that are not letters, such as '²'
            if kind == "word" and lexeme[0].isalpha():
                kind = "var" if lexeme[0].isupper() else "atom"
            elif kind in ("word", "bad"):
                raise ParseError(f"unexpected character {lexeme[0]!r}", line, col)
            toks.append(Token(kind, lexeme, line, col))
            pos = m.end()
    toks.append(Token("eof", "", line, col))
    return toks


def joined(toks: list[Token]) -> list[Token]:
    """The reference's tokens with each dotted name's parts joined: a word
    that starts with a letter, then a dot and unsigned digits, each right
    after the one before."""
    out: list[Token] = []
    for tok in toks:
        out.append(tok)
        if len(out) > 2:
            word, dot, number = out[-3:]
            if (word.text[0].isalpha() and dot.text == "."
                    and number.kind == "int" and number.text[0] != "-"
                    and adjacent(word, dot) and adjacent(dot, number)):
                out[-3:] = [Token("name", f"{word.text}.{number.text}", word.line, word.col)]
    return out


def adjacent(a: Token, b: Token) -> bool:
    return (a.line, a.col + len(a.text)) == (b.line, b.col)


def starts_a_token(line: str, i: int) -> bool:
    c, after = line[i], line[i + 1 : i + 2]
    return (
        c.isspace() or c.isalpha() or c.isdecimal() or c == "%"
        or c in SYMBOLS or c + after in SYMBOLS or (c == "-" and after.isdecimal())
    )


def word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def kind_agrees(kind: str, text: str) -> bool:
    if kind == "int":
        digits = text[1:] if text.startswith("-") else text
        return digits.isdecimal()
    if kind == "sym":
        return text in SYMBOLS
    if kind == "name":  # a word, then one or more numbers, each after a dot
        word, *numbers = text.split(".")
        return (word[:1].isalpha() and all(map(word_char, word)) and numbers != []
                and all(n.isdecimal() for n in numbers))
    if not all(map(word_char, text)):
        return False
    if kind == "var":
        return text[0].isalpha() and text[0].isupper() or text[0] == "_" and len(text) > 1
    return kind == "atom" and text[0].isalpha() and not text[0].isupper()


def skippable(gap: str, to_line_end: bool) -> bool:
    """Whitespace only; up to the end of a line it may end in a comment."""
    if to_line_end:
        gap = gap.partition("%")[0]
    return not gap or gap.isspace()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_tokens_tile_the_input(text):
    lines = text.split("\n")
    try:
        toks = tokenize(text)
    except ParseError as err:
        line = lines[err.line - 1]
        assert not starts_a_token(line, err.col - 1)
        assert err.message == f"unexpected character {line[err.col - 1]!r}"
        return
    *toks, eof = toks
    at_line, at_col = 1, 1  # just past the previous token
    for tok in toks:
        while at_line < tok.line:
            assert skippable(lines[at_line - 1][at_col - 1 :], to_line_end=True)
            at_line, at_col = at_line + 1, 1
        line = lines[tok.line - 1]
        assert skippable(line[at_col - 1 : tok.col - 1], to_line_end=False)
        end = tok.col - 1 + len(tok.text)
        assert line[tok.col - 1 : end] == tok.text
        assert kind_agrees(tok.kind, tok.text), tok
        # each token is the longest one that starts there
        rest = line[end : end + 1]
        if rest:
            if tok.kind in ("atom", "var") or tok.text == "_":
                assert not word_char(rest)
            if tok.text[0].isalpha():  # a name goes on through each .digits
                assert not (rest == "." and line[end + 1 : end + 2].isdecimal())
            if tok.kind in ("int", "name"):
                assert not rest.isdecimal()
            if tok.kind == "sym":
                assert tok.text + rest not in SYMBOLS
        at_col = end + 1
    while at_line < len(lines):
        assert skippable(lines[at_line - 1][at_col - 1 :], to_line_end=True)
        at_line, at_col = at_line + 1, 1
    last = lines[-1][at_col - 1 :]
    assert skippable(last, to_line_end=True)
    # eof sits past the last token, at a final comment if there is one
    assert (eof.kind, eof.text) == ("eof", "")
    assert (eof.line, eof.col) == (len(lines), at_col + len(last) - len(last.lstrip()))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=30).map("".join))
def test_one_scan_reads_what_the_reference_lexer_read(text):
    def read(lexer):
        try:
            return [(t.kind, t.text, t.line, t.col) for t in lexer(text)]
        except ParseError as err:
            return err.message, err.line, err.col

    scanned = read(tokenize)
    assert scanned == read(lambda text: joined(reference_tokenize(text)))
    if isinstance(scanned, list):
        texts = TokenStream(text).texts  # eof, then two or three more
        assert texts[: len(scanned)] == [t[1] for t in scanned]
        assert set(texts[len(scanned) - 1 :]) == {""}
    else:
        with pytest.raises(ParseError) as err:
            TokenStream(text)
        assert (err.value.message, err.value.line, err.value.col) == scanned


def positions(text):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]


TOKEN_POSITIONS = [
    # a tab is one column
    ("a\tB", [("atom", "a", 1, 1), ("var", "B", 1, 3), ("eof", "", 1, 4)]),
    # '\r' is whitespace on its line; only '\n' starts a new one
    ("a\r\nb\r\n", [("atom", "a", 1, 1), ("atom", "b", 2, 1), ("eof", "", 3, 1)]),
    ("a\u2028b", [("atom", "a", 1, 1), ("atom", "b", 1, 3), ("eof", "", 1, 4)]),
    # a comment does not move the column: eof sits where it starts
    ("a  % note", [("atom", "a", 1, 1), ("eof", "", 1, 4)]),
    ("a\n  % note\n% more", [("atom", "a", 1, 1), ("eof", "", 3, 1)]),
    ("_ _x", [("sym", "_", 1, 1), ("var", "_x", 1, 3), ("eof", "", 1, 5)]),
    ("-1->", [("int", "-1", 1, 1), ("sym", "->", 1, 3), ("eof", "", 1, 5)]),
    # words start with a letter and go on with letters, numerals and '_'
    ("εx ǅ ٣ a²", [("atom", "εx", 1, 1), ("atom", "ǅ", 1, 4), ("int", "٣", 1, 6),
                   ("atom", "a²", 1, 8), ("eof", "", 1, 10)]),
]


@pytest.mark.parametrize(
    "text, expected",
    TOKEN_POSITIONS,
    ids=["tab", "crlf", "line-separator", "comment-at-eof", "comment-lines", "underscore",
         "minus", "unicode-words"],
)
def test_token_positions(text, expected):
    assert positions(text) == expected


@pytest.mark.parametrize(
    "text, char, col",
    [("a - 1", "-", 3), ("a -b", "-", 3), ("²", "²", 1), ("1²", "²", 2), ("-²", "-", 1),
     ("½x", "½", 1), ("x /y", "/", 3), ("\ufeffa", "\ufeff", 1)],
)
def test_unexpected_character(text, char, col):
    with pytest.raises(ParseError) as err:
        tokenize(f"ok\n{text}")
    assert (err.value.message, err.value.line, err.value.col) == (
        f"unexpected character {char!r}", 2, col
    )


# ---------------------------------------------------------------------------
# Integer literals past Python's limit on converting digit strings
# ---------------------------------------------------------------------------

LIMIT = sys.get_int_max_str_digits()
LONG = "7" * (LIMIT + 1)
TOO_LONG = f"integer literal longer than {LIMIT} digits"


def error_at(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return str(err.value)


def test_long_integer_in_a_trace():
    text = f"trace {{ initial: p1\n  p1: send(l1, {{val,-{LONG}}}, p1) }}\n"
    assert error_at(parse_trace, text) == f"2:21: {TOO_LONG}"


def test_long_integer_in_a_guard():
    text = f"c: X when X > {LONG} -> ."
    assert error_at(lambda t: parse_constraint(TokenStream(t)), text) == (
        f"1:15: {TOO_LONG}"
    )


def test_long_integer_in_a_program():
    text = f"program {{ main f\n def f() {{ X = {LONG} }} }}\n"
    assert error_at(parse_program, text) == f"2:16: {TOO_LONG}"


def test_integer_at_the_limit_parses():
    t = parse_trace(f"trace {{ initial: p1\n  p1: send(l1, {LONG[1:]}, p1) }}\n")
    assert str(t.procs["p1"][0].value.value) == LONG[1:]


# ---------------------------------------------------------------------------
# Asking for a token by its text
# ---------------------------------------------------------------------------


def asked_texts() -> set[str]:
    """Every literal text the parsers of ``parsing``, ``traces`` and
    ``simulator`` pass to ``TokenStream.at``, ``accept``, ``expect`` or
    ``sep_list``, the document keywords, and the comparison operators."""
    texts = set(CMP_OPS)
    for module in (parsing, traces, simulator):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) in ("at", "accept", "expect", "sep_list")
                or getattr(node.func, "id", None) == "_parse_document"
            ):
                texts.update(a.value for a in node.args
                             if isinstance(a, ast.Constant) and isinstance(a.value, str))
    return texts


ASKED = sorted(asked_texts())


def kinds_by_text(texts) -> dict[str, set[str]]:
    kinds: dict[str, set[str]] = {}
    for text in texts:
        for tok in tokenize(text):
            kinds.setdefault(tok.text, set()).add(tok.kind)
    return kinds


def test_each_text_a_parser_asks_for_is_one_sym_or_atom():
    assert {"{", "->", ",", "def", "when", "ε", "trace", "interleaving", "=<"} <= set(ASKED)
    for text in ASKED:
        *toks, eof = tokenize(text)
        assert [(tok.kind in ("sym", "atom"), tok.text) for tok in toks] == [(True, text)]


def test_no_token_text_has_two_kinds_in_the_fixtures_and_these_tests():
    inputs = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.iterdir())
              if path.suffix in (".trace", ".itl", ".prog")]
    inputs += [text for text, _ in TOKEN_POSITIONS] + ASKED
    assert len(inputs) > 20
    assert {t: k for t, k in kinds_by_text(inputs).items() if len(k) > 1} == {}


# ---------------------------------------------------------------------------
# Dotted names: one token, and read as their parts where no name goes
# ---------------------------------------------------------------------------


def test_a_dot_written_apart_still_joins_a_name():
    t = parse_trace("trace { initial: p1\n"
                    "  p1: spawn(p1 . 2), spawn(p1.\n2), spawn(p1.-2), spawn(p1.2 .3) }\n")
    assert [a.child for a in t.procs["p1"]] == ["p1.2", "p1.2", "p1.-2", "p1.2.3"]


IN_TRACE = "trace {{ initial: p1\n  p1: {} }}\nconstraints {{ cs1: _ -> . }}\n"
A_REC = "trace { initial: p1\n  p1: rec(l1, cs1) }\n"


# each message and position as the lexer that read a name part by part gave it
@pytest.mark.parametrize("parse, text, error", [
    (parse_program, "program { main m\n  def f.1() { X = 1 } }\n", "2:8: expected '(', found '.'"),
    (parse_trace, IN_TRACE.format("rec(l1, cs1.2)"), "2:18: expected ')', found '.'"),
    (parse_trace, IN_TRACE.format("send(l1, {val,a.5}, p1)"), "2:22: expected '}', found '.'"),
    (parse_program, "program { main m.1\n  def m() { X = 1 } }\n", "1:17: expected '}', found '.'"),
    (parse_trace, IN_TRACE.format("send.1(l1, 1, p1)"), "2:11: expected '(', found '.'"),
    (parse_trace, A_REC + "constraints { cs1.2: _ -> . }\n", "3:18: expected ':', found '.'"),
    (parse_trace, A_REC + "constraints { cs1: _ -> .; cs2.1: _ -> . }\n",
     "3:31: expected '->', found '.'"),
    (parse_trace, A_REC + "constraints { cs1: X when X == a.1 -> . }\n",
     "3:33: expected '->', found '.'"),
    (parse_program, "program { main m\n  def m() { X.1 = 1 } }\n", "2:14: expected '}', found '.'"),
    (parse_program, "program { main m\n  def m(X.1) { X = 1 } }\n",
     "2:10: expected ')', found '.'"),
    (parse_program, "program { main m\n  def m() { spawn.2 m() } }\n",
     "2:18: expected an identifier, found '.'"),
    (parse_trace, "trace { initial: p1\n  p1: ε }\np1.2\n", "3:1: unexpected trailing input 'p1'"),
    (parse_trace, "trace { initial: P1.2\n  p1: ε }\n",
     "1:18: expected an identifier, found 'P1'"),
], ids=["function", "constraint-id-of-rec", "atom-in-term", "main", "action", "constraint-id",
        "after-semicolon", "guard-operand", "bound-variable", "parameter", "spawn", "trailing",
        "variable-as-pid"])
def test_a_dotted_word_where_no_name_goes_is_refused_as_before(parse, text, error):
    assert error_at(parse, text) == error


def test_a_name_is_one_token_whatever_its_depth():
    counts = {len(tokenize(f"send(T, 1, {'.'.join(['p1'] + ['2'] * (k - 1))})"))
              for k in (1, 10, 1000)}
    assert counts == {9}  # send ( T , 1 , N ) and eof


def test_a_3000_step_trace_reads_back_byte_identically():
    # the names of the never-stopping program grow by one part per respawn
    text = serialize_trace(run_random(parse_program(NEVER_STOPPING), 0, 3000)[0])
    assert len(text) > 3_000_000
    assert serialize_trace(parse_trace(text)) == text
