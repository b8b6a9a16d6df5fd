"""Tokenizer and parsers for the textual term / constraint syntax.

The grammar (shared by trace, interleaving and program files), over tokens
that ``tokenize`` reads one line at a time, skipping whitespace
(``str.isspace``; only ``\\n`` ends a line) and ``%`` comments:

    INT        ::= ["-"] digit+                  (digit: str.isdecimal)
    ATOM | VAR ::= letter (alnum | "_")*         (letter: str.isalpha; VAR
                                                  if it is upper case)
    VAR        ::= "_" (alnum | "_")+            (alnum: str.isalnum)
    SYM        ::= "->" | "==" | "/=" | "=<" | ">=" | one of {}[]()<>,;:.#=_

    term       ::= INT | ATOM | "{" terms "}" | "[" terms "]"
                 | "<" pidname ">" | "#" tagname
    pattern    ::= term extended with VAR and "_"
    guard      ::= gatom (("and" | "or") gatom)*      (left associative)
    gatom      ::= "true" | operand CMP operand | "(" guard ")"
    operand    ::= VAR | INT | ATOM
    clause     ::= pattern ["when" guard] "->"
    constraint ::= CSID ":" clause "." (";" clause ".")*
    document   ::= KEYWORD "{" "initial" ":" pid entries "}" [constraints]
    entries    ::= (pid ":" ("ε" | action ("," action)*))*
    constraints ::= "constraints" "{" (constraint [";"])* "}"

No text is spelled by two token kinds, so a parser asks for a token by its
text. It tests a kind only where no text decides: an identifier, the end of
the input, and where a rule branches on an integer, a variable or an atom.

A document is a trace (KEYWORD ``trace``) or an interleaving
(``interleaving``). Its actions are ``spawn(pid)``, ``send(tag, term,
pid)`` and ``rec(tag, CSID)``; each receive's CSID resolves against the
``constraints`` block that follows the entries. A program's ``receive``
reads its clauses by the same ``clause`` rule, each followed by one
statement in place of ``.``.

A guard is stored the way the ``guard`` production reads it: a lone gatom
as itself, a chain as one ``terms.GChain`` of its first gatom and the (op,
gatom) pairs that follow. A parenthesized chain in first place is spliced
in (``(A and B) or C`` is ``A and B or C``); elsewhere it stays one operand,
so the stored guard nests only as deep as its parentheses.

A character that starts no token is a ``ParseError`` "unexpected
character" at its line and column, both counted from 1 in characters; an
integer literal past Python's limit on ``int()`` of a digit string is one at
the literal. Pid names look like ``p1`` or ``p1.2``; tag names are
either dotted names (``p3.1``) or plain identifiers (``l1``). Tuples and lists
nest at most ``MAX_NESTING`` (100) deep in a term or pattern, and
parentheses at most as deep in a guard; a deeper one is a ``ParseError`` at
the opening bracket or parenthesis past the limit.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Iterable, TypeVar

from .terms import (
    CMP_OPS,
    Atom,
    Clause,
    Cmp,
    Constraint,
    GChain,
    GTrue,
    Guard,
    Int,
    Lst,
    Pattern,
    PidLit,
    Record,
    TagLit,
    Tup,
    Var,
    Wildcard,
    is_ground,
)


T = TypeVar("T")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class Token(Record):
    # kind: "int" | "atom" | "var" | "sym" | "eof"
    __slots__ = ("kind", "text", "line", "col")


# One alternative per token class, tried in this order after whitespace;
# ``bad`` is any other character, ``end`` the end of the line.
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


def tokenize(text: str) -> list[Token]:
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


class TokenStream:
    """A parser's cursor: ``at``, ``accept`` and ``expect`` ask for a token
    by its text, which one kind alone spells. Kind tests stay where no text
    decides: ``expect_atom`` (any identifier) and ``expect_eof``."""

    def __init__(self, tokens: list[Token]):
        # two more copies of the final eof, so that peek(ahead) for
        # ahead <= 2 is one index
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        """The token `ahead` places on (at most 2); eof past the end."""
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {self.peek().text!r}")
        return self.next()

    def expect_atom(self) -> Token:
        tok = self.peek()
        if tok.kind != "atom":
            raise self.error(f"expected an identifier, found {tok.text!r}")
        return self.next()

    def sep_list(self, item: Callable[[TokenStream], T], close: str, sep: str = ",") -> list[T]:
        """``item (sep item)* close``, or ``close`` alone."""
        items: list[T] = []
        if not self.accept(close):
            items.append(item(self))
            while self.accept(sep):
                items.append(item(self))
            self.expect(close)
        return items

    def expect_eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)


# ---------------------------------------------------------------------------
# Names (pids, tags)
# ---------------------------------------------------------------------------


def parse_dotted_name(ts: TokenStream) -> str:
    """A pid or tag name: identifier optionally followed by .k segments."""
    head = ts.expect_atom()
    parts = [head.text]
    while ts.at(".") and ts.peek(1).kind == "int":
        ts.next()
        parts.append(ts.next().text)
    return ".".join(parts)


def name_sort_key(name: str) -> tuple:
    """Order dotted names numerically: p1.2 < p1.10, l2 < l10, l01 ties l1.

    The number that ends a part is keyed by its length and digits without
    leading zeros, which orders it like ``int()`` at any length; a part
    without one sorts before a part that ends in 0. The key is one flat
    tuple, three entries per part, so a shorter name still sorts first and
    a name of k parts costs one tuple, not k + 1."""
    key: list = []
    for part in name.split("."):
        alpha = part.rstrip("0123456789")
        digits = part[len(alpha) :]
        number = digits.lstrip("0")
        key += (alpha, len(number) if digits else -1, number)
    return tuple(key)


def name_order(name: str) -> tuple:
    """A name's canonical key: ``name_sort_key``, ties (l01, l1) by text."""
    return (name_sort_key(name), name)


def sorted_names(names: Iterable[str]) -> list[str]:
    """The names in canonical order (``name_order``), whatever order they came in."""
    return sorted(names, key=name_order)


# ---------------------------------------------------------------------------
# Terms and patterns
# ---------------------------------------------------------------------------


# The functions that walk terms and guards (parsing, matching, evaluating,
# rendering, equality) recurse once or twice per level: this keeps them well
# inside Python's recursion limit. A guard's node, ``GChain``, mirrors the
# ``guard`` production, so a guard nests only as deep as its parentheses.
MAX_NESTING = 100


def parse_pattern(ts: TokenStream) -> Pattern:
    return _parse_pattern(ts, 0)


def _parse_pattern(ts: TokenStream, depth: int) -> Pattern:
    """A pattern inside `depth` open tuples and lists."""
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        try:
            return Int(int(tok.text))
        except ValueError:  # past Python's limit on int() of a digit string
            raise ParseError(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits",
                tok.line, tok.col,
            ) from None
    if tok.kind == "var":
        ts.next()
        return Var(tok.text)
    if tok.kind == "atom":
        ts.next()
        return Atom(tok.text)
    if ts.accept("_"):
        return Wildcard()
    if (ts.at("{") or ts.at("[")) and depth == MAX_NESTING:
        raise ts.error(f"term nests deeper than {MAX_NESTING} tuples and lists")
    if ts.accept("{"):
        return Tup(tuple(ts.sep_list(lambda ts: _parse_pattern(ts, depth + 1), "}")))
    if ts.accept("["):
        return Lst(tuple(ts.sep_list(lambda ts: _parse_pattern(ts, depth + 1), "]")))
    if ts.accept("<"):
        pid = parse_dotted_name(ts)
        ts.expect(">")
        return PidLit(pid)
    if ts.accept("#"):
        return TagLit(parse_dotted_name(ts))
    raise ts.error(f"expected a term, found {tok.text!r}")


def parse_term(ts: TokenStream):
    tok = ts.peek()
    p = parse_pattern(ts)
    if not is_ground(p):
        raise ParseError("variables are not allowed in a ground term", tok.line, tok.col)
    return p


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------


def parse_guard(ts: TokenStream) -> Guard:
    return _parse_guard(ts, 0)


def _parse_guard(ts: TokenStream, depth: int) -> Guard:
    """A guard inside `depth` open parentheses: a lone gatom, or one
    ``GChain`` with a parenthesized chain in first place spliced in."""
    g = _parse_guard_atom(ts, depth)
    first, rest = (g.first, list(g.rest)) if isinstance(g, GChain) else (g, [])
    while ts.at("and") or ts.at("or"):
        op = ts.next().text
        rest.append((op, _parse_guard_atom(ts, depth)))
    return GChain(first, tuple(rest)) if rest else first


def _parse_guard_atom(ts: TokenStream, depth: int) -> Guard:
    if ts.at("(") and depth == MAX_NESTING:
        raise ts.error(f"guard nests deeper than {MAX_NESTING} parentheses")
    if ts.accept("("):
        g = _parse_guard(ts, depth + 1)
        ts.expect(")")
        return g
    if ts.accept("true"):
        return GTrue()
    lhs = _parse_operand(ts)
    tok = ts.peek()
    if tok.text in CMP_OPS:
        ts.next()
        rhs = _parse_operand(ts)
        return Cmp(tok.text, lhs, rhs)
    raise ts.error(f"expected a comparison operator, found {tok.text!r}")


def _parse_operand(ts: TokenStream) -> Pattern:
    tok = ts.peek()
    if tok.kind not in ("int", "var", "atom"):
        raise ts.error(f"expected a guard operand, found {tok.text!r}")
    return _parse_pattern(ts, 0)


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


def parse_clause(ts: TokenStream) -> Clause:
    """``pattern ["when" guard] "->"``: a clause up to its body."""
    pattern = parse_pattern(ts)
    guard: Guard = GTrue()
    if ts.accept("when"):
        guard = parse_guard(ts)
    ts.expect("->")
    return Clause(pattern, guard)


def constraint_at(cs_id: str, clauses: list[Clause], tok: Token) -> Constraint:
    """``Constraint(cs_id, clauses)``; a clause it rejects (non-linear
    pattern, unbound guard variable) is a ``ParseError`` at tok."""
    try:
        return Constraint(cs_id, tuple(clauses))
    except ValueError as exc:
        raise ParseError(str(exc), tok.line, tok.col) from exc


def parse_constraint(ts: TokenStream) -> Constraint:
    ident = ts.expect_atom()
    ts.expect(":")
    clauses = [parse_clause(ts)]
    ts.expect(".")
    # A ';' continues this constraint unless the next tokens open a new one.
    while ts.at(";") and not (ts.peek(1).kind == "atom" and ts.peek(2).text == ":"):
        ts.next()
        clauses.append(parse_clause(ts))
        ts.expect(".")
    return constraint_at(ident.text, clauses, ident)


def parse_constraint_block(ts: TokenStream) -> dict[str, Constraint]:
    """``constraints { cs1: ...; cs2: ... }`` -> mapping by id."""
    ts.expect("constraints")
    ts.expect("{")
    table: dict[str, Constraint] = {}
    while not ts.at("}"):
        tok = ts.peek()
        cs = parse_constraint(ts)
        if cs.cs_id in table:
            raise ParseError(f"duplicate constraint id {cs.cs_id!r}", tok.line, tok.col)
        table[cs.cs_id] = cs
        ts.accept(";")
    ts.expect("}")
    return table
