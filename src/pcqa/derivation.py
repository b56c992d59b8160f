"""Executable derivation language: tokenizer, parser and canonical source.

Answers to numerical questions are expressed as small executable derivations
("(36.6-20.5)/20.5"), counting answers as a length call over a string list
("len([\"2018\",\"2019\"])"), and span or clarification answers as bare string
lists. This module defines that language and executes it with exact rational
arithmetic, so that derivations which are algebraically equal ("(88-105)/105"
vs "88/105-1") produce identical values.

Execution runs in three stages: `tokenize`; `parse`, one recursive-descent
pass that computes the value in integer numerator/denominator pairs, with no
tree; and `evaluate`, which makes the canonical answer, one `Fraction` per
number. The same parser with render actions gives `canonical_source`.

The answer is a `NumericAnswer`, `CountAnswer` or `SpanSetAnswer`
(`ClarifyAnswer` is the fourth kind, made by voting from a clarifying decode
and by the corpus from a clarifying gold turn). Each answer knows its vote
key, its text spans at a rendering precision and its log description.

Grammar:

    TopLevel := Expr | List | "len" "(" List ")"
    Expr     := Term (("+" | "-") Term)*
    Term     := Factor (("*" | "/") Factor)*
    Factor   := NUMBER | "(" Expr ")" | "-" Factor
    List     := "[" STRING ("," STRING)* "]"

    A source holds at most MAX_TOKENS (256) tokens and a NUMBER at most
    MAX_NUMERAL_DIGITS (30) digits.

Numerals may use digit-grouping commas ("3,711"); a comma between digits
followed by exactly three digits is merged into the numeral, but never inside
a bracketed list, where commas separate items. Strings are single- or
double-quoted with no escape sequences. There are no variables, loops, or
function calls other than ``len``.

The two limits keep the recursive parser below the interpreter's recursion
limit (255 open parentheses is the deepest source), and every numerator and
denominator, even of a product of 128 numerals, below Python's 4,300-digit
limit on int/str conversion. A source beyond them
raises `DerivationSyntaxError` like any other malformed source.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Union


MAX_TOKENS = 256
MAX_NUMERAL_DIGITS = 30


class DerivationError(Exception):
    """Base class for every error raised while handling derivation source."""


class UnknownCharacterError(DerivationError):
    def __init__(self, char: str, position: int):
        super().__init__(f"unknown character {char!r} at position {position}")
        self.char = char
        self.position = position


class UnterminatedStringError(DerivationError):
    def __init__(self, position: int):
        super().__init__(f"unterminated string starting at position {position}")
        self.position = position


class DerivationSyntaxError(DerivationError):
    def __init__(self, position: int, expected: str, found: str = ""):
        detail = f"expected {expected} at position {position}"
        if found:
            detail += f", found {found!r}"
        super().__init__(detail)
        self.position = position
        self.expected = expected


class MixedTypeError(DerivationError):
    """A string list (or len result) was used as an arithmetic operand."""

    def __init__(self, position: int):
        super().__init__(f"list value used as arithmetic operand at position {position}")
        self.position = position


class DivisionByZeroError(DerivationError):
    def __init__(self, subexpression: str):
        super().__init__(f"division by zero in {subexpression!r}")
        self.subexpression = subexpression


class ExecutionFailure(DerivationError):
    """Raised by execute_source; carries the stage where execution broke down."""

    def __init__(self, stage: str, detail: DerivationError):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


class UnreconstructibleDerivation(DerivationError):
    """Gold derivation text falls outside the derivation grammar."""


class TokenKind(Enum):
    NUMBER = "NUMBER"
    STRING = "STRING"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    LEN = "len"


# The kinds as module globals, in definition order: looking a member up on
# the enum class costs ten times as much on the hot path.
(_NUMBER, _STRING, _PLUS, _MINUS, _STAR, _SLASH,
 _LPAREN, _RPAREN, _LBRACKET, _RBRACKET, _COMMA, _LEN) = TokenKind


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int
    end: int  # just past the token's source text, quotes and grouping commas included


# One match per token, leading whitespace included. `\s` and `\d` are the
# characters of str.isspace and str.isdecimal. A grouping comma is followed
# by exactly three digits and then no digit ("3,711" and "1,000,000" merge;
# "1,06" and "1,0623" do not); inside a bracketed list no comma groups.
_LEXEME = (
    r"\s*(?:(?P<NUMBER>{number})|(?P<STRING>\"[^\"]*\"|'[^']*')|(?P<LEN>len)|(?P<PUNCT>[-+*/()\[\],]))"
)
_LEX_GROUPED = re.compile(_LEXEME.format(number=r"\d+(?:,\d{3}(?!\d))*(?:\.\d+)?|\.\d+")).match
_LEX_LISTED = re.compile(_LEXEME.format(number=r"\d+(?:\.\d+)?|\.\d+")).match
_SPACES = re.compile(r"\s*").match
_PUNCT_KINDS = {kind.value: kind for kind in TokenKind if len(kind.value) == 1}
# Token(kind, text, position, end) without the Python-level __new__ of a NamedTuple.
_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Split derivation source into tokens.

    Digit-grouping commas are resolved here: a comma between digits followed
    by exactly three digits before the next non-digit merges into the
    numeral, unless the comma occurs inside a bracketed list (where commas
    are item separators). A source of more than MAX_TOKENS tokens or with a
    numeral of more than MAX_NUMERAL_DIGITS digits is rejected.
    """
    if not source or not source.strip():
        raise DerivationSyntaxError(0, "non-empty derivation source")
    tokens: list[Token] = []
    append = tokens.append
    pos = 0
    bracket_depth = 0
    lex = _LEX_GROUPED
    while (match := lex(source, pos)) is not None:
        group = match.lastindex  # 1 NUMBER, 2 STRING, 3 LEN, 4 PUNCT
        start, pos = match.span(group)
        text = match[group]
        if group == 4:
            if text == "[":
                bracket_depth += 1
                lex = _LEX_LISTED
            elif text == "]" and bracket_depth:
                bracket_depth -= 1
                lex = _LEX_LISTED if bracket_depth else _LEX_GROUPED
            append(_new_token(Token, (_PUNCT_KINDS[text], text, start, pos)))
        elif group == 1:
            text = text.replace(",", "")
            if len(text) - ("." in text) > MAX_NUMERAL_DIGITS:
                raise DerivationSyntaxError(
                    start, f"a numeral of at most {MAX_NUMERAL_DIGITS} digits"
                )
            append(_new_token(Token, (_NUMBER, text, start, pos)))
        elif group == 2:
            append(_new_token(Token, (_STRING, text[1:-1], start, pos)))
        else:
            append(_new_token(Token, (_LEN, text, start, pos)))
    pos = _SPACES(source, pos).end()
    if pos < len(source):
        if source[pos] in "\"'":
            raise UnterminatedStringError(pos)
        raise UnknownCharacterError(source[pos], pos)
    if len(tokens) > MAX_TOKENS:
        raise DerivationSyntaxError(tokens[MAX_TOKENS].position, f"at most {MAX_TOKENS} tokens")
    return tokens


def decimal_fraction(text: str) -> Fraction:
    """Exact value of a decimal numeral: a sign, digits and at most one point.

    "-12.5", ".5" and "3." are numerals; the caller has checked the form.
    Built from two integers, which is several times faster than parsing the
    string with `Fraction`.
    """
    whole, _, frac = text.partition(".")
    return Fraction(int(whole + frac), 10 ** len(frac))


_SIGNED_DECIMAL = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)").fullmatch


def decimal_value(text: str) -> Fraction | None:
    """Exact value of a signed decimal numeral of at most MAX_NUMERAL_DIGITS
    digits ("-12.5", ".5", "3."); None for anything else, such as exponent
    notation ("1e5000"), which could build a number too long to render.
    """
    if not _SIGNED_DECIMAL(text):
        return None
    if len(text) - (text[0] in "+-") - ("." in text) > MAX_NUMERAL_DIGITS:
        return None
    return decimal_fraction(text)


_ADDITIVE = (_PLUS, _MINUS)
_MULTIPLICATIVE = (_STAR, _SLASH)
_ARITH_KINDS = frozenset(_ADDITIVE + _MULTIPLICATIVE)
_NON_NUMERIC_KINDS = (_LBRACKET, _LEN, _STRING)


class _Parser:
    """Recursive descent with standard precedence, computing values as it goes.

    The grammar methods call five actions, `number`, `negate`, `binary`,
    `strings` and `length`; the ones here compute the value, and
    `_Renderer` overrides them to build canonical source instead. A number
    is an integer (numerator, denominator) pair, left unreduced; a string
    list is its trimmed items and `len(...)` their count. A division by
    zero does not stop the parse, so a syntax error later in the source
    still wins: the first one, in post-order, is kept and returned in place
    of the value.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.stream = [*tokens, None]  # None after the last token: end of input
        self.pos = 0
        self.zero_division: DivisionByZeroError | None = None

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.stream[self.pos]
        if tok is None or tok.kind is not kind:
            raise DerivationSyntaxError(
                tok.position if tok else self._end(), what, tok.text if tok else ""
            )
        self.pos += 1
        return tok

    def _end(self) -> int:
        return self.tokens[-1].end if self.tokens else 0

    def top_level(self):
        tok = self.stream[0]
        if tok is None:
            raise DerivationSyntaxError(0, "expression")
        listed = tok.kind is _LBRACKET or tok.kind is _LEN
        if tok.kind is _LBRACKET:
            value = self.strings(self.string_items())
        elif tok.kind is _LEN:
            self.pos += 1
            self.expect(_LPAREN, "'(' after len")
            value = self.length(self.string_items())
            self.expect(_RPAREN, "')' closing len")
        else:
            value = self.expr()
        rest = self.stream[self.pos]
        if rest is not None:
            if listed and rest.kind in _ARITH_KINDS:
                raise MixedTypeError(rest.position)
            raise DerivationSyntaxError(rest.position, "end of input", rest.text)
        return value if self.zero_division is None else self.zero_division

    def expr(self):
        value = self.term()
        stream = self.stream
        while (tok := stream[self.pos]) is not None and tok.kind in _ADDITIVE:
            self.pos += 1
            value = self.binary(tok.kind, value, self.term(), 0)
        return value

    def term(self):
        start = self.pos
        value = self.factor()
        stream = self.stream
        while (tok := stream[self.pos]) is not None and tok.kind in _MULTIPLICATIVE:
            self.pos += 1
            value = self.binary(tok.kind, value, self.factor(), start)
        return value

    def factor(self):
        tok = self.stream[self.pos]
        if tok is None:
            raise DerivationSyntaxError(self._end(), "number, '(' or '-'")
        kind = tok.kind
        self.pos += 1
        if kind is _NUMBER:
            return self.number(tok.text)
        if kind is _MINUS:
            return self.negate(self.factor())
        if kind is _LPAREN:
            value = self.expr()
            self.expect(_RPAREN, "')'")
            return value
        if kind in _NON_NUMERIC_KINDS:
            raise MixedTypeError(tok.position)
        raise DerivationSyntaxError(tok.position, "number, '(' or '-'", tok.text)

    def string_items(self) -> list[str]:
        self.expect(_LBRACKET, "'['")
        items = [self.expect(_STRING, "string item").text]
        while (tok := self.stream[self.pos]) is not None and tok.kind is _COMMA:
            self.pos += 1
            items.append(self.expect(_STRING, "string item").text)
        self.expect(_RBRACKET, "']'")
        return items

    def number(self, text: str) -> tuple[int, int]:
        whole, _, frac = text.partition(".")
        return int(whole + frac), 10 ** len(frac)

    def negate(self, value: tuple[int, int]) -> tuple[int, int]:
        return -value[0], value[1]

    def binary(self, kind: TokenKind, left: tuple[int, int], right: tuple[int, int], start: int):
        """`left <kind> right`; a term's operands begin at token `start`."""
        (a, b), (c, d) = left, right
        if kind is _PLUS:
            return (a + c, b) if b == d else (a * d + c * b, b * d)
        if kind is _MINUS:
            return (a - c, b) if b == d else (a * d - c * b, b * d)
        if kind is _STAR:
            return a * c, b * d
        if c:
            return a * d, b * c
        if self.zero_division is None:
            source = _Renderer(self.tokens[start : self.pos]).term()[0]
            self.zero_division = DivisionByZeroError(source)
        return 0, 1

    def strings(self, items: list[str]) -> list[str]:
        return _trimmed(items)

    def length(self, items: list[str]) -> int:
        return len(_trimmed(items))


_ATOM = 3  # precedence of a numeral: above "*" and "/" (2) and "+" and "-" (1)
_PRECEDENCE = {_PLUS: 1, _MINUS: 1, _STAR: 2, _SLASH: 2}


class _Renderer(_Parser):
    """The parser with render actions: each value is (canonical text, precedence).

    Canonical form has no spaces around operators and ", " between list
    items, and parentheses exactly where the precedence needs them. A minus
    before a numeral folds into it ("--5" is "5"); before anything else it
    renders as "0-".
    """

    def number(self, text: str) -> tuple[str, int]:
        return text, _ATOM

    def negate(self, value: tuple[str, int]) -> tuple[str, int]:
        text, prec = value
        if prec == _ATOM:
            return (text[1:] if text[0] == "-" else "-" + text), _ATOM
        return "0-" + (f"({text})" if prec == 1 else text), 1

    def binary(self, kind: TokenKind, left: tuple[str, int], right: tuple[str, int], start: int):
        prec = _PRECEDENCE[kind]
        text = f"({left[0]})" if left[1] < prec else left[0]
        if right[1] <= prec or (right[1] == _ATOM and right[0][0] == "-"):
            return f"{text}{kind.value}({right[0]})", prec
        return text + kind.value + right[0], prec

    def strings(self, items: list[str]) -> tuple[str, int]:
        return render_list(items), _ATOM

    def length(self, items: list[str]) -> tuple[str, int]:
        return f"len({render_list(items)})", _ATOM


def parse(tokens: list[Token]):
    """Parse and compute a token sequence in one pass.

    The value is an integer (numerator, denominator) pair for arithmetic, a
    list of trimmed items for a string list, an int for `len(...)`, or the
    `DivisionByZeroError` of the first division by zero; `evaluate` makes
    it an answer.
    """
    return _Parser(tokens).top_level()


def canonical_source(source: str) -> str:
    """The canonical form of a derivation source.

    Parsing it computes the same value, and rendering it again returns it
    unchanged.
    """
    return _Renderer(tokenize(source)).top_level()[0]


def _trimmed(items: list[str]) -> list[str]:
    trimmed = [item.strip() for item in items]
    if not all(trimmed):
        raise DerivationSyntaxError(0, "non-empty string item")
    return trimmed


def render_list(items) -> str:
    """A string-list literal of the trimmed items: double quotes unless an
    item holds one, then single quotes. An empty item or one that holds
    both quotes has no literal."""
    return "[" + ", ".join(_quote(item) for item in _trimmed(items)) + "]"


def _quote(item: str) -> str:
    if '"' not in item:
        return f'"{item}"'
    if "'" not in item:
        return f"'{item}'"
    raise UnreconstructibleDerivation(f"item mixes both quote styles: {item!r}")


# Two numbers within this absolute distance are equal before any rendering:
# the exact value of the float 1e-9.
NUMERIC_TOLERANCE = Fraction(1e-9)


@dataclass(frozen=True)
class EvalConfig:
    """Numeric rendering knob.

    render_precision: decimal places used when rendering exact rationals
    (round half away from zero, trailing zeros dropped). Two numbers are
    equal within NUMERIC_TOLERANCE, or else when their renderings are.
    """

    render_precision: int = 4

    def __post_init__(self):
        if not 0 <= self.render_precision <= 10:
            raise ValueError("render_precision must be in [0, 10]")


DEFAULT_CONFIG = EvalConfig()


def render_decimal(value: Fraction, precision: int) -> str:
    """Render an exact rational as a decimal string.

    Rounds half away from zero at `precision` places, then drops trailing
    fractional zeros ("2.0033", "0.7854", 0 -> "0"). Pure integer
    arithmetic, so the output is platform-independent.
    """
    numerator, denominator = value.numerator, value.denominator
    units, rem = divmod(abs(numerator) * 10**precision, denominator)
    if 2 * rem >= denominator:
        units += 1
    digits = str(units)
    if precision > 0:
        digits = digits.zfill(precision + 1)
        whole, frac = digits[:-precision], digits[-precision:].rstrip("0")
        out = whole + ("." + frac if frac else "")
    else:
        out = digits
    if numerator < 0 and units:
        out = "-" + out
    return out


_PUNCT = re.compile("[" + re.escape(string.punctuation) + "]")
_WS = re.compile(r"\s+")


def normalize_answer_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return _WS.sub(" ", _PUNCT.sub("", text.lower())).strip()


class _Answer:
    __slots__ = ()

    def text(self, config: EvalConfig = DEFAULT_CONFIG) -> str:
        """The answer as said to the user: its text spans joined by ", "."""
        return ", ".join(self.text_spans(config))


@dataclass(frozen=True, slots=True)
class NumericAnswer(_Answer):
    value: Fraction

    def key(self) -> tuple:
        """Vote key; a count with the same value shares it."""
        return ("num", self.value.numerator, self.value.denominator)

    def text_spans(self, config: EvalConfig = DEFAULT_CONFIG) -> list[str]:
        return [render_decimal(self.value, config.render_precision)]

    def describe(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {"kind": "number", "value": str(self.value), "rendered": self.text(config)}


@dataclass(frozen=True, slots=True)
class CountAnswer(_Answer):
    count: int

    def key(self) -> tuple:
        # "len([...])" and a numeral with the same value are one answer.
        return ("num", self.count, 1)

    def text_spans(self, config: EvalConfig = DEFAULT_CONFIG) -> list[str]:
        return [str(self.count)]

    def describe(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {"kind": "count", "value": self.count}


@dataclass(frozen=True, slots=True)
class SpanSetAnswer(_Answer):
    """Spans as produced; the vote key ignores their order, case and punctuation."""

    spans: tuple[str, ...]

    def normalized(self) -> tuple[str, ...]:
        return tuple(sorted(normalize_answer_text(s) for s in self.spans))

    def key(self) -> tuple:
        return ("spans", self.normalized())

    def text_spans(self, config: EvalConfig = DEFAULT_CONFIG) -> list[str]:
        return list(self.spans)

    def describe(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {"kind": "spans", "value": list(self.spans)}


@dataclass(frozen=True, slots=True)
class ClarifyAnswer(_Answer):
    question: str

    def normalized(self) -> str:
        return normalize_answer_text(self.question)

    def key(self) -> tuple:
        return ("clarify", self.normalized())

    def text_spans(self, config: EvalConfig = DEFAULT_CONFIG) -> list[str]:
        return [self.question]

    def describe(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {"kind": "clarify", "value": self.question}


CanonicalAnswer = Union[NumericAnswer, CountAnswer, SpanSetAnswer, ClarifyAnswer]


def evaluate(value) -> CanonicalAnswer:
    """The canonical answer of a parsed value: one Fraction for a number, the
    items or their count for a list; a deferred division by zero is raised."""
    if type(value) is tuple:
        return NumericAnswer(Fraction(*value))
    if type(value) is list:
        return SpanSetAnswer(tuple(value))
    if type(value) is int:
        return CountAnswer(value)
    raise value


def execute_source(source: str) -> CanonicalAnswer:
    """tokenize -> parse -> evaluate; any stage error becomes ExecutionFailure."""
    try:
        tokens = tokenize(source)
    except DerivationError as err:
        raise ExecutionFailure("tokenize", err) from err
    try:
        value = parse(tokens)
    except DerivationError as err:
        raise ExecutionFailure("parse", err) from err
    try:
        return evaluate(value)
    except DerivationError as err:
        raise ExecutionFailure("evaluate", err) from err
