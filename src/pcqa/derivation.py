"""Executable derivation language: tokenizer, parser, evaluator, reconstruction.

Answers to numerical questions are expressed as small executable derivations
("(36.6-20.5)/20.5"), counting answers as a length call over a string list
("len([\"2018\",\"2019\"])"), and span or clarification answers as bare string
lists. This module defines that language and executes it with exact rational
arithmetic, so that derivations which are algebraically equal ("(88-105)/105"
vs "88/105-1") produce identical values.

Execution yields the canonical answer directly: a `NumericAnswer`,
`CountAnswer` or `SpanSetAnswer` (`ClarifyAnswer` is the fourth kind, made by
voting from a clarifying decode and by the corpus from a clarifying gold
turn). Each answer knows its vote key, its text spans at a rendering
precision and its log description; numbers are rendered only when asked.

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

The two limits keep the recursive parser and evaluator below the
interpreter's recursion limit (255 open parentheses is the deepest source),
and every numerator and denominator, even of a product of 128 numerals,
below Python's 4,300-digit limit on int/str conversion. A source beyond them
raises `DerivationSyntaxError` like any other malformed source.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Union


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


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int


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
    i = 0
    n = len(source)
    bracket_depth = 0
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenKind.LPAREN, ch, i)); i += 1
        elif ch == ")":
            tokens.append(Token(TokenKind.RPAREN, ch, i)); i += 1
        elif ch == "[":
            bracket_depth += 1
            tokens.append(Token(TokenKind.LBRACKET, ch, i)); i += 1
        elif ch == "]":
            bracket_depth = max(0, bracket_depth - 1)
            tokens.append(Token(TokenKind.RBRACKET, ch, i)); i += 1
        elif ch == "+":
            tokens.append(Token(TokenKind.PLUS, ch, i)); i += 1
        elif ch == "-":
            tokens.append(Token(TokenKind.MINUS, ch, i)); i += 1
        elif ch == "*":
            tokens.append(Token(TokenKind.STAR, ch, i)); i += 1
        elif ch == "/":
            tokens.append(Token(TokenKind.SLASH, ch, i)); i += 1
        elif ch == ",":
            tokens.append(Token(TokenKind.COMMA, ch, i)); i += 1
        elif ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and source[j] != quote:
                j += 1
            if j >= n:
                raise UnterminatedStringError(i)
            tokens.append(Token(TokenKind.STRING, source[i + 1 : j], i))
            i = j + 1
        elif ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            text, i = _lex_number(source, i, grouping=bracket_depth == 0)
            if len(text) - ("." in text) > MAX_NUMERAL_DIGITS:
                raise DerivationSyntaxError(
                    start, f"a numeral of at most {MAX_NUMERAL_DIGITS} digits"
                )
            tokens.append(Token(TokenKind.NUMBER, text, start))
        elif source.startswith("len", i):
            tokens.append(Token(TokenKind.LEN, "len", i))
            i += 3
        else:
            raise UnknownCharacterError(ch, i)
    if len(tokens) > MAX_TOKENS:
        raise DerivationSyntaxError(tokens[MAX_TOKENS].position, f"at most {MAX_TOKENS} tokens")
    return tokens


def _lex_number(source: str, i: int, grouping: bool) -> tuple[str, int]:
    """Lex one numeral starting at i; returns (text with commas removed, next index)."""
    n = len(source)
    out: list[str] = []
    while i < n and source[i].isdigit():
        out.append(source[i])
        i += 1
    if grouping:
        # "3,711" and "1,000,000" merge; "1,06" and "1,0623" do not.
        while i < n and source[i] == "," and out and out[-1].isdigit():
            group = source[i + 1 : i + 4]
            if len(group) == 3 and group.isdigit() and (i + 4 >= n or not source[i + 4].isdigit()):
                out.append(group)
                i += 4
            else:
                break
    if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdigit():
        out.append(".")
        i += 1
        while i < n and source[i].isdigit():
            out.append(source[i])
            i += 1
    return "".join(out), i


@dataclass(frozen=True)
class Number:
    """Decimal literal. The literal string preserves the written precision."""

    literal: str
    value: Fraction = field(compare=False)

    def __init__(self, literal: str):
        object.__setattr__(self, "literal", literal)
        object.__setattr__(self, "value", Fraction(literal))

    def __eq__(self, other):
        return isinstance(other, Number) and self.value == other.value

    def __hash__(self):
        return hash(("Number", self.value))


@dataclass(frozen=True)
class StringList:
    """Ordered list of non-empty (after trimming) text items."""

    items: tuple[str, ...]

    def __post_init__(self):
        trimmed = tuple(item.strip() for item in self.items)
        if any(not item for item in trimmed):
            raise DerivationSyntaxError(0, "non-empty string item")
        object.__setattr__(self, "items", trimmed)


@dataclass(frozen=True)
class Length:
    arg: StringList


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of "add", "sub", "mul", "div"
    left: "DerivationExpr"
    right: "DerivationExpr"


DerivationExpr = Union[Number, BinaryOp, Length, StringList]

_OP_TOKENS = {
    TokenKind.PLUS: "add",
    TokenKind.MINUS: "sub",
    TokenKind.STAR: "mul",
    TokenKind.SLASH: "div",
}
_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_ARITH_KINDS = frozenset(_OP_TOKENS)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise DerivationSyntaxError(self._end(), "more input")
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind is not kind:
            raise DerivationSyntaxError(
                tok.position if tok else self._end(), what, tok.text if tok else ""
            )
        return self.advance()

    def _end(self) -> int:
        return self.tokens[-1].position + len(self.tokens[-1].text) if self.tokens else 0

    def top_level(self) -> DerivationExpr:
        tok = self.peek()
        if tok is None:
            raise DerivationSyntaxError(0, "expression")
        if tok.kind is TokenKind.LBRACKET:
            node: DerivationExpr = self.string_list()
        elif tok.kind is TokenKind.LEN:
            self.advance()
            self.expect(TokenKind.LPAREN, "'(' after len")
            node = Length(self.string_list())
            self.expect(TokenKind.RPAREN, "')' closing len")
        else:
            node = self.expr()
        rest = self.peek()
        if rest is not None:
            if rest.kind in _ARITH_KINDS and isinstance(node, (StringList, Length)):
                raise MixedTypeError(rest.position)
            raise DerivationSyntaxError(rest.position, "end of input", rest.text)
        return node

    def expr(self) -> DerivationExpr:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in (TokenKind.PLUS, TokenKind.MINUS):
            self.advance()
            node = BinaryOp(_OP_TOKENS[tok.kind], node, self.term())
        return node

    def term(self) -> DerivationExpr:
        node = self.factor()
        while (tok := self.peek()) is not None and tok.kind in (TokenKind.STAR, TokenKind.SLASH):
            self.advance()
            node = BinaryOp(_OP_TOKENS[tok.kind], node, self.factor())
        return node

    def factor(self) -> DerivationExpr:
        tok = self.peek()
        if tok is None:
            raise DerivationSyntaxError(self._end(), "number, '(' or '-'")
        if tok.kind is TokenKind.NUMBER:
            self.advance()
            return Number(tok.text)
        if tok.kind is TokenKind.MINUS:
            self.advance()
            inner = self.factor()
            if isinstance(inner, Number):
                if inner.literal.startswith("-"):
                    return Number(inner.literal[1:])
                return Number("-" + inner.literal)
            # Negated subexpression folds to 0 - x; the tree has no unary node.
            return BinaryOp("sub", Number("0"), inner)
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            node = self.expr()
            self.expect(TokenKind.RPAREN, "')'")
            return node
        if tok.kind in (TokenKind.LBRACKET, TokenKind.LEN, TokenKind.STRING):
            raise MixedTypeError(tok.position)
        raise DerivationSyntaxError(tok.position, "number, '(' or '-'", tok.text)

    def string_list(self) -> StringList:
        self.expect(TokenKind.LBRACKET, "'['")
        items = [self.expect(TokenKind.STRING, "string item").text]
        while (tok := self.peek()) is not None and tok.kind is TokenKind.COMMA:
            self.advance()
            items.append(self.expect(TokenKind.STRING, "string item").text)
        self.expect(TokenKind.RBRACKET, "']'")
        return StringList(tuple(items))


def parse(tokens: list[Token]) -> DerivationExpr:
    """Parse a token sequence into an AST with standard precedence."""
    return _Parser(tokens).top_level()


def parse_source(source: str) -> DerivationExpr:
    return parse(tokenize(source))


_PRECEDENCE = {"add": 1, "sub": 1, "mul": 2, "div": 2}


def render(expr: DerivationExpr) -> str:
    """Render an AST back to canonical source.

    Canonical form uses no spaces around operators and ", " between list
    items; parentheses appear exactly where the tree shape requires them, so
    parsing the rendered text reproduces the same tree.
    """
    if isinstance(expr, Number):
        return expr.literal
    if isinstance(expr, StringList):
        return "[" + ", ".join(_quote(item) for item in expr.items) + "]"
    if isinstance(expr, Length):
        return "len(" + render(expr.arg) + ")"
    if isinstance(expr, BinaryOp):
        prec = _PRECEDENCE[expr.op]
        left = render(expr.left)
        if isinstance(expr.left, BinaryOp) and _PRECEDENCE[expr.left.op] < prec:
            left = f"({left})"
        right = render(expr.right)
        if isinstance(expr.right, BinaryOp) and _PRECEDENCE[expr.right.op] <= prec:
            right = f"({right})"
        elif isinstance(expr.right, Number) and expr.right.literal.startswith("-"):
            right = f"({right})"
        return f"{left}{_OP_SYMBOL[expr.op]}{right}"
    raise TypeError(f"not a derivation expression: {expr!r}")


def _quote(item: str) -> str:
    if '"' not in item:
        return f'"{item}"'
    if "'" not in item:
        return f"'{item}'"
    raise UnreconstructibleDerivation(f"item mixes both quote styles: {item!r}")


@dataclass(frozen=True)
class EvalConfig:
    """Numeric rendering and comparison knobs.

    render_precision: decimal places used when rendering exact rationals
    (round half away from zero, trailing zeros dropped). numeric_tolerance:
    absolute tolerance applied to exact values before falling back to a
    rendered-string comparison. Division by zero is always an error.
    """

    render_precision: int = 4
    numeric_tolerance: float = 1e-9

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
    negative = value < 0
    scaled = abs(value) * 10**precision
    units, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem >= scaled.denominator:
        units += 1
    digits = str(units)
    if precision > 0:
        digits = digits.zfill(precision + 1)
        whole, frac = digits[:-precision], digits[-precision:].rstrip("0")
        out = whole + ("." + frac if frac else "")
    else:
        out = digits
    if negative and out.strip("0.") != "":
        out = "-" + out
    return out


def numbers_equal(a: Fraction, b: Fraction, config: EvalConfig = DEFAULT_CONFIG) -> bool:
    """Equality on exact rationals: within tolerance, or identical once rendered."""
    if abs(a - b) <= Fraction(config.numeric_tolerance):
        return True
    return render_decimal(a, config.render_precision) == render_decimal(b, config.render_precision)


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
        return ("num", self.value)

    def rendered(self, config: EvalConfig = DEFAULT_CONFIG) -> str:
        return render_decimal(self.value, config.render_precision)

    def text_spans(self, config: EvalConfig = DEFAULT_CONFIG) -> list[str]:
        return [self.rendered(config)]

    def describe(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {"kind": "number", "value": str(self.value), "rendered": self.rendered(config)}


@dataclass(frozen=True, slots=True)
class CountAnswer(_Answer):
    count: int

    def key(self) -> tuple:
        # "len([...])" and a numeral with the same value are one answer.
        return ("num", Fraction(self.count))

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


def evaluate(expr: DerivationExpr) -> CanonicalAnswer:
    """Evaluate an AST: numerics in exact rational arithmetic, lists and counts directly."""
    if isinstance(expr, StringList):
        return SpanSetAnswer(expr.items)
    if isinstance(expr, Length):
        return CountAnswer(len(expr.arg.items))
    return NumericAnswer(_eval_numeric(expr))


def _eval_numeric(expr: DerivationExpr) -> Fraction:
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, BinaryOp):
        left = _eval_numeric(expr.left)
        right = _eval_numeric(expr.right)
        if expr.op == "add":
            return left + right
        if expr.op == "sub":
            return left - right
        if expr.op == "mul":
            return left * right
        if right == 0:
            raise DivisionByZeroError(render(expr))
        return left / right
    raise MixedTypeError(0)


def execute_source(source: str) -> CanonicalAnswer:
    """tokenize -> parse -> evaluate; any stage error becomes ExecutionFailure."""
    try:
        tokens = tokenize(source)
    except DerivationError as err:
        raise ExecutionFailure("tokenize", err) from err
    try:
        expr = parse(tokens)
    except DerivationError as err:
        raise ExecutionFailure("parse", err) from err
    try:
        return evaluate(expr)
    except DerivationError as err:
        raise ExecutionFailure("evaluate", err) from err
