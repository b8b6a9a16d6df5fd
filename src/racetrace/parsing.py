"""Tokenizer and parsers for the textual term / constraint syntax.

The grammar (shared by trace, interleaving and program files):

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

Atoms are lowercase identifiers, variables start with an uppercase letter,
``_`` is the wildcard. Pid names look like ``p1`` or ``p1.2``; tag names are
either dotted names (``p3.1``) or plain identifiers (``l1``). Tuples and lists
nest at most ``MAX_NESTING`` (100) deep in a term or pattern, and
parentheses at most as deep in a guard; a deeper one is a ``ParseError`` at
the opening bracket or parenthesis past the limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import (
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
    TagLit,
    Tup,
    Var,
    Wildcard,
    is_ground,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "atom" | "var" | "sym" | "eof"
    text: str
    line: int
    col: int


_TWO_CHAR = ("->", "==", "/=", "=<", ">=")
_ONE_CHAR = "{}[]()<>,;:.#=_"


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "%":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if text[i : i + 2] in _TWO_CHAR:
            toks.append(Token("sym", text[i : i + 2], line, start_col))
            i += 2
            col += 2
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "ε":  # epsilon marks an empty sequence
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if word[0].isupper() else "atom"
            if word == "ε":
                kind = "atom"
                j = i + 1
                word = "ε"
            toks.append(Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("var" if len(word) > 1 else "sym", word, line, start_col))
            col += j - i
            i = j
            continue
        if c in _ONE_CHAR:
            toks.append(Token("sym", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_atom(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "atom" and tok.text == text

    def accept_sym(self, text: str) -> bool:
        if self.at_sym(text):
            self.next()
            return True
        return False

    def accept_atom(self, text: str) -> bool:
        if self.at_atom(text):
            self.next()
            return True
        return False

    def expect_sym(self, text: str) -> Token:
        tok = self.peek()
        if not self.at_sym(text):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_atom(self, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != "atom" or (text is not None and tok.text != text):
            what = repr(text) if text else "an identifier"
            raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

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
    while ts.at_sym(".") and ts.peek(1).kind == "int":
        ts.next()
        parts.append(ts.next().text)
    return ".".join(parts)


def name_sort_key(name: str) -> tuple:
    """Order dotted names numerically: p1.2 < p1.10, l2 < l10."""
    key: list[tuple] = []
    for part in name.split("."):
        alpha = part.rstrip("0123456789")
        digits = part[len(alpha) :]
        key.append((alpha, int(digits) if digits else -1))
    return tuple(key)


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
        return Int(int(tok.text))
    if tok.kind == "var":
        ts.next()
        return Var(tok.text)
    if tok.kind == "atom":
        ts.next()
        return Atom(tok.text)
    if ts.accept_sym("_"):
        return Wildcard()
    if (ts.at_sym("{") or ts.at_sym("[")) and depth == MAX_NESTING:
        raise ts.error(f"term nests deeper than {MAX_NESTING} tuples and lists")
    if ts.accept_sym("{"):
        return Tup(tuple(_parse_pattern_list(ts, "}", depth + 1)))
    if ts.accept_sym("["):
        return Lst(tuple(_parse_pattern_list(ts, "]", depth + 1)))
    if ts.accept_sym("<"):
        pid = parse_dotted_name(ts)
        ts.expect_sym(">")
        return PidLit(pid)
    if ts.accept_sym("#"):
        return TagLit(parse_dotted_name(ts))
    raise ts.error(f"expected a term, found {tok.text!r}")


def _parse_pattern_list(ts: TokenStream, close: str, depth: int) -> list[Pattern]:
    items: list[Pattern] = []
    if ts.accept_sym(close):
        return items
    items.append(_parse_pattern(ts, depth))
    while ts.accept_sym(","):
        items.append(_parse_pattern(ts, depth))
    ts.expect_sym(close)
    return items


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
    while ts.at_atom("and") or ts.at_atom("or"):
        op = ts.next().text
        rest.append((op, _parse_guard_atom(ts, depth)))
    return GChain(first, tuple(rest)) if rest else first


def _parse_guard_atom(ts: TokenStream, depth: int) -> Guard:
    if ts.at_sym("(") and depth == MAX_NESTING:
        raise ts.error(f"guard nests deeper than {MAX_NESTING} parentheses")
    if ts.accept_sym("("):
        g = _parse_guard(ts, depth + 1)
        ts.expect_sym(")")
        return g
    if ts.at_atom("true"):
        ts.next()
        return GTrue()
    lhs = _parse_operand(ts)
    tok = ts.peek()
    if tok.kind == "sym" and tok.text in ("==", "/=", "=<", ">=", "<", ">"):
        ts.next()
        rhs = _parse_operand(ts)
        return Cmp(tok.text, lhs, rhs)
    raise ts.error(f"expected a comparison operator, found {tok.text!r}")


def _parse_operand(ts: TokenStream) -> Pattern:
    tok = ts.peek()
    if tok.kind == "int":
        ts.next()
        return Int(int(tok.text))
    if tok.kind == "var":
        ts.next()
        return Var(tok.text)
    if tok.kind == "atom":
        ts.next()
        return Atom(tok.text)
    raise ts.error(f"expected a guard operand, found {tok.text!r}")


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------


def parse_clause(ts: TokenStream) -> Clause:
    """``pattern ["when" guard] "->"``: a clause up to its body."""
    pattern = parse_pattern(ts)
    guard: Guard = GTrue()
    if ts.accept_atom("when"):
        guard = parse_guard(ts)
    ts.expect_sym("->")
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
    ts.expect_sym(":")
    clauses = [parse_clause(ts)]
    ts.expect_sym(".")
    # A ';' continues this constraint unless the next tokens open a new one.
    while ts.at_sym(";") and not (ts.peek(1).kind == "atom" and ts.peek(2).text == ":"):
        ts.next()
        clauses.append(parse_clause(ts))
        ts.expect_sym(".")
    return constraint_at(ident.text, clauses, ident)


def parse_constraint_block(ts: TokenStream) -> dict[str, Constraint]:
    """``constraints { cs1: ...; cs2: ... }`` -> mapping by id."""
    ts.expect_atom("constraints")
    ts.expect_sym("{")
    table: dict[str, Constraint] = {}
    while not ts.at_sym("}"):
        tok = ts.peek()
        cs = parse_constraint(ts)
        if cs.cs_id in table:
            raise ParseError(f"duplicate constraint id {cs.cs_id!r}", tok.line, tok.col)
        table[cs.cs_id] = cs
        ts.accept_sym(";")
    ts.expect_sym("}")
    return table
