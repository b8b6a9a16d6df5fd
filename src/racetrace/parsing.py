"""Tokenizer and parsers for the textual term / constraint syntax.

The grammar (shared by trace, interleaving and program files), over the
tokens that one ``re.findall`` of ``_TOKEN`` reads from the whole text,
skipping whitespace (``str.isspace``) and ``%`` comments:

    INT        ::= ["-"] digit+                  (digit: str.isdecimal)
    ATOM | VAR ::= letter (alnum | "_")*         (letter: str.isalpha; VAR
                                                  if it is upper case)
    VAR        ::= "_" (alnum | "_")+            (alnum: str.isalnum)
    NAME       ::= ATOM ("." digit+)*            (one token)
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

Pid names look like ``p1`` or ``p1.2``; tag names are either dotted names
(``p3.1``) or plain identifiers (``l1``). ``pidname`` and ``tagname`` read
a dotted name as one token, and a dot written apart (``p1 . 2``, ``p1.-2``)
one part at a time. Anywhere else a dotted word, a VAR head included, reads
as its parts: ``def f.1(`` is refused at the dot.

Positions are worked out only for an error. A ``ParseError`` has the line
and column of its token, both counted from 1 in characters, and only ``\\n``
ends a line. A character that starts no token is one ("unexpected
character"), and so is an integer literal past Python's limit on ``int()``
of a digit string. Tuples and lists nest at most ``MAX_NESTING`` (100) deep
in a term or pattern, and parentheses at most as deep in a guard; a deeper
one is a ``ParseError`` at the opening bracket or parenthesis past the limit.
"""

from __future__ import annotations

import re
import sys
from typing import Callable, Iterable, Optional, TypeVar

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
    # kind: "int" | "atom" | "var" | "name" | "sym" | "eof"
    __slots__ = ("kind", "text", "line", "col")


# After whitespace and comments: a token (first the one-character symbols
# that start no longer one), else a character no token takes, else the end.
_TOKEN = re.compile(
    r"""\s*(?:%[^\n]*\s*)*(
        [{}\[\](),;:.\#] | [^\W\d_]\w*(?:\.\d+)* | -?\d+ | _\w+
      | -> | == | /= | =< | >= | [<>=_] | . | \Z
    )""",
    re.VERBOSE,
)
_SYMS = {"->", "==", "/=", "=<", ">=", *"{}[]()<>,;:.#=_"}


def _kind(text: str) -> Optional[str]:
    """A token text's kind; None for a character that starts no token (\\w
    also takes numerals that are not letters, such as '²')."""
    head = text[:1]
    if text in _SYMS:
        return "sym"
    if head.isalpha():
        return "name" if "." in text else "var" if head.isupper() else "atom"
    if head.isdecimal() or head == "-" and text != "-":
        return "int"
    return "var" if head == "_" else None if text else "eof"


def tokenize(text: str) -> list[Token]:
    """The scan with each token's kind and position, for diagnostics and
    tests; eof sits at a comment that ends the last line, if there is one."""
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        skip, start, lexeme = m.start(), m.start(1), m[1]
        if newlines := text.count("\n", skip, start):
            line += newlines
            line_start = text.rfind("\n", skip, start) + 1
        if not lexeme:
            break
        if (kind := _kind(lexeme)) is None:
            raise ParseError(f"unexpected character {lexeme[0]!r}", line, start - line_start + 1)
        toks.append(Token(kind, lexeme, line, start - line_start + 1))
    comment = text.find("%", max(skip, line_start))
    toks.append(Token("eof", "", line, (start if comment < 0 else comment) - line_start + 1))
    return toks


class TokenStream:
    """A parser's cursor: each token's text in ``texts`` (eof is ""), each
    distinct text's kind in ``kinds``. No text has two kinds, so a parser asks
    for a token by its text, and tests its kind only where no text decides. A
    dotted word (kind "name") is one token to ``parse_dotted_name`` only:
    anything else that looks at it splits it in ``texts`` into its parts."""

    def __init__(self, text: str):
        texts = _TOKEN.findall(text)
        self.kinds = {t: _kind(t) for t in set(texts)}
        if None in self.kinds.values():
            tokenize(text)  # raises at the first character that starts no token
        self.text = text
        self.texts = texts + ["", ""]  # so that peek(ahead) for ahead <= 2 is one index
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        """The text `ahead` (at most 2) places on; look at those before it first."""
        i = self.pos + ahead
        if self.kinds[self.texts[i]] == "name":
            parts = re.split(r"(\.)", self.texts[i])
            self.texts[i : i + 1] = parts
            self.kinds.update((part, _kind(part)) for part in parts)
        return self.texts[i]

    def next(self) -> str:
        """The text of the token just looked at, read past."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def at(self, text: str) -> bool:
        # a dotted word is at its first part's text, split first
        t = self.texts[self.pos]
        return t == text or "." in t and t.startswith(text + ".") and self.peek() == text

    def accept(self, text: str) -> bool:
        found = self.at(text)
        self.pos += found
        return found

    def expect(self, text: str) -> None:
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {self.peek()!r}")
        self.pos += 1

    def expect_atom(self) -> str:
        text = self.peek()
        if self.kinds[text] != "atom":
            raise self.error(f"expected an identifier, found {text!r}")
        self.pos += 1
        return text

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
        if self.texts[self.pos]:
            raise self.error(f"unexpected trailing input {self.peek()!r}")

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at ``texts[at]`` (default: the next), placed by ``tokenize``."""
        i, k = self.pos if at is None else at, 0
        for tok in tokenize(self.text):
            col, end = tok.col, tok.col + len(tok.text)
            while k < i and col < end:
                col += len(self.texts[k])
                k += 1
            if k == i and col < end:
                break
        return ParseError(message, tok.line, col)


# ---------------------------------------------------------------------------
# Names (pids, tags)
# ---------------------------------------------------------------------------


def parse_dotted_name(ts: TokenStream) -> str:
    """A pid or tag name: identifier optionally followed by .k segments,
    one token unless a dot is written apart (``p1 . 2``, ``p1.-2``)."""
    name = ts.texts[ts.pos]
    if ts.kinds[name] == "name" and not name[0].isupper():
        ts.pos += 1
    else:
        name = ts.expect_atom()
    while ts.at(".") and ts.kinds[ts.peek(1)] == "int":
        ts.next()
        name += "." + ts.next()
    return name


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
    text = ts.peek()
    kind = ts.kinds[text]
    if kind == "int":
        ts.next()
        try:
            return Int(int(text))
        except ValueError:  # past Python's limit on int() of a digit string
            raise ts.error(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits", ts.pos - 1
            ) from None
    if kind == "var":
        ts.next()
        return Var(text)
    if kind == "atom":
        ts.next()
        return Atom(text)
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
    raise ts.error(f"expected a term, found {text!r}")


def parse_term(ts: TokenStream):
    at = ts.pos
    p = parse_pattern(ts)
    if not is_ground(p):
        raise ts.error("variables are not allowed in a ground term", at)
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
        op = ts.next()
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
    op = ts.peek()
    if op in CMP_OPS:
        ts.next()
        rhs = _parse_operand(ts)
        return Cmp(op, lhs, rhs)
    raise ts.error(f"expected a comparison operator, found {op!r}")


def _parse_operand(ts: TokenStream) -> Pattern:
    if ts.kinds[ts.peek()] not in ("int", "var", "atom"):
        raise ts.error(f"expected a guard operand, found {ts.peek()!r}")
    return parse_pattern(ts)


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


def constraint_at(cs_id: str, clauses: list[Clause], ts: TokenStream, at: int) -> Constraint:
    """``Constraint(cs_id, clauses)``; a clause it rejects (non-linear
    pattern, unbound guard variable) is a ``ParseError`` at token `at`."""
    try:
        return Constraint(cs_id, tuple(clauses))
    except ValueError as exc:
        raise ts.error(str(exc), at) from exc


def parse_constraint(ts: TokenStream) -> Constraint:
    at = ts.pos
    ident = ts.expect_atom()
    ts.expect(":")
    clauses = [parse_clause(ts)]
    ts.expect(".")
    # A ';' continues this constraint unless the next tokens open a new one.
    while ts.at(";") and not (ts.kinds[ts.peek(1)] == "atom" and ts.peek(2) == ":"):
        ts.next()
        clauses.append(parse_clause(ts))
        ts.expect(".")
    return constraint_at(ident, clauses, ts, at)


def parse_constraint_block(ts: TokenStream) -> dict[str, Constraint]:
    """``constraints { cs1: ...; cs2: ... }`` -> mapping by id."""
    ts.expect("constraints")
    ts.expect("{")
    table: dict[str, Constraint] = {}
    while not ts.at("}"):
        at = ts.pos
        cs = parse_constraint(ts)
        if cs.cs_id in table:
            raise ts.error(f"duplicate constraint id {cs.cs_id!r}", at)
        table[cs.cs_id] = cs
        ts.accept(";")
    ts.expect("}")
    return table
