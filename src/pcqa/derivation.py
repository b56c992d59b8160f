"""Executable derivation language: tokenizer, parser and canonical source.

Answers to numerical questions are expressed as small executable derivations
("(36.6-20.5)/20.5"), counting answers as a length call over a string list
("len([\"2018\",\"2019\"])"), and span or clarification answers as bare string
lists. This module defines that language and executes it with exact rational
arithmetic, so that derivations which are algebraically equal ("(88-105)/105"
vs "88/105-1") produce identical values.

Execution runs in three stages: `tokenize`, one linear scan of the source
that returns the token texts as written (a `Tokens` list that keeps the
source); `parse`, one recursive-descent pass over those texts that computes
the value in integer numerator/denominator pairs, with no tree; and
`evaluate`, which makes the canonical answer, one `Fraction` per number. A
numeral is a token whose last character is a decimal digit. Positions are
worked out only on the error path (`token_starts`), so an error still names
the position it always did. The same parser with render actions gives
`canonical_source`.

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


class Tokens(list):
    """Token texts exactly as written in `source`, quotes and grouping commas
    included. A numeral ends in a decimal digit and a string starts with a
    quote; the rest are `len` and the punctuation tokens. Positions are
    worked out only on demand (`token_starts`)."""

    __slots__ = ("source",)


# One token per match, with the whitespace after it: a numeral, a quoted
# string, `len` or a punctuation character. `\s` and `\d` are the characters
# of str.isspace and str.isdecimal. A grouping comma is followed by exactly
# three digits and then no digit ("3,711" and "1,000,000" merge; "1,06" and
# "1,0623" do not). Any other character matches with the rest of the source
# after it, so the scan ends there. Every match starts at a character that
# is not whitespace and nothing follows its last `\s*`, so the scan never
# backtracks and reads each character once.
_TOKEN = r"""\d+(?:,\d{3}(?!\d))*(?:\.\d+)?|\.\d+|"[^"]*"|'[^']*'|len|[-+*/()\[\],]"""
_SCAN = re.compile(rf"({_TOKEN}|\S[\s\S]*)\s*").findall
_IS_TOKEN = re.compile(_TOKEN).fullmatch
# Sources that need the token-by-token checks: a run of characters long
# enough to hold a numeral of more than MAX_NUMERAL_DIGITS digits, and in a
# source with a list, a digit-grouping comma that may stand inside the list.
_LONG_RUN = re.compile(r"[\d.,]{%d}" % (MAX_NUMERAL_DIGITS + 1)).search
_GROUPING_COMMA = re.compile(r"\d,\d").search
_QUOTES = "\"'"


def tokenize(source: str) -> Tokens:
    """Split derivation source into token texts, in one scan of the source.

    Digit-grouping commas are resolved here: a comma between digits followed
    by exactly three digits before the next non-digit merges into the
    numeral, unless the comma occurs inside a bracketed list (where commas
    are item separators). A source of more than MAX_TOKENS tokens or with a
    numeral of more than MAX_NUMERAL_DIGITS digits is rejected.
    """
    tokens = Tokens(_SCAN(source))
    tokens.source = source
    if not tokens:
        raise DerivationSyntaxError(0, "non-empty derivation source")
    error = None
    if not _IS_TOKEN(tokens[-1]):
        # The scan's last match runs from the first character that starts
        # no token to the end of the source.
        rest = tokens[-1]
        position = token_starts(tokens, len(tokens) - 1)[0]
        if rest[0] in _QUOTES:
            error = UnterminatedStringError(position)
        else:
            error = UnknownCharacterError(rest[0], position)
        tokens.pop()
    if "[" in source and _GROUPING_COMMA(source):
        _split_listed_numerals(tokens)
    if _LONG_RUN(source):
        for index, text in enumerate(tokens):
            numeral = text[-1].isdecimal()
            if numeral and len(_text(text)) - ("." in text) > MAX_NUMERAL_DIGITS:
                expected = f"a numeral of at most {MAX_NUMERAL_DIGITS} digits"
                raise DerivationSyntaxError(token_starts(tokens, index)[0], expected)
    if error is not None:
        raise error
    if len(tokens) > MAX_TOKENS:
        raise DerivationSyntaxError(
            token_starts(tokens, MAX_TOKENS)[0], f"at most {MAX_TOKENS} tokens"
        )
    return tokens


def _split_listed_numerals(tokens: Tokens) -> None:
    """Inside a bracketed list no comma groups digits: a numeral there that
    the scan merged at its commas is split back into numerals and commas."""
    depth = 0
    split = []
    for text in tokens:
        if text == "[":
            depth += 1
        elif text == "]" and depth:
            depth -= 1
        elif depth and "," in text and text[-1].isdecimal():
            split += re.split("(,)", text)
            continue
        split.append(text)
    tokens[:] = split


def _text(text: str) -> str:
    """A token's text as the parser reads it: a numeral without its
    grouping commas, a string without its quotes."""
    if text[0] in _QUOTES:
        return text[1:-1]
    if text[-1].isdecimal():
        return text.replace(",", "")
    return text


def token_starts(tokens: Tokens, first: int = 0) -> list[int]:
    """Where each token from index `first` on starts in `tokens.source`.

    The only place token positions are worked out, called only to raise an
    error. Only whitespace lies between two tokens and after the last one,
    and every token ends with a character that is not whitespace (the rest
    of the source that ends a failed scan ends the source), so walking back
    from the end, each token is the last occurrence of its text before the
    token after it. Errors lie near the end more often than not, so the
    walk is short.
    """
    source = tokens.source
    starts = []
    start = len(source)
    for index in range(len(tokens) - 1, first - 1, -1):
        start = source.rfind(tokens[index], 0, start)
        starts.append(start)
    starts.reverse()
    return starts


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


_ADDITIVE = ("+", "-")
_MULTIPLICATIVE = ("*", "/")
_ARITHMETIC = frozenset(_ADDITIVE + _MULTIPLICATIVE)


class _Parser:
    """Recursive descent with standard precedence, computing values as it goes.

    It reads the token texts, and works out positions (`token_starts`) only
    to raise an error. The grammar methods call five actions, `number`,
    `negate`, `binary`, `strings` and `length`; the ones here compute the
    value, and `_Renderer` overrides them to build canonical source instead.
    A number is an integer (numerator, denominator) pair, left unreduced; a
    string list is its trimmed items and `len(...)` their count. A division
    by zero does not stop the parse, so a syntax error later in the source
    still wins: the first one, in post-order, is kept and returned in place
    of the value.
    """

    __slots__ = ("tokens", "stream", "pos", "zero_division")

    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.stream = [*tokens, ""]  # "" after the last token: end of input
        self.pos = 0
        self.zero_division: DivisionByZeroError | None = None

    def expect(self, text: str, what: str) -> None:
        if self.stream[self.pos] != text:
            raise self._syntax_error(self.pos, what)
        self.pos += 1

    def _syntax_error(self, index: int, expected: str) -> DerivationSyntaxError:
        """The error at token `index`, or past the last token at the end of input."""
        tokens = self.tokens
        if not tokens:
            return DerivationSyntaxError(0, expected)
        if index < len(tokens):
            position = token_starts(tokens, index)[0]
            return DerivationSyntaxError(position, expected, _text(tokens[index]))
        end = token_starts(tokens, len(tokens) - 1)[0] + len(tokens[-1])
        return DerivationSyntaxError(end, expected)

    def _mixed_type_error(self, index: int) -> MixedTypeError:
        return MixedTypeError(token_starts(self.tokens, index)[0])

    def top_level(self):
        first = self.stream[0]
        if first == "[":
            value = self.strings(self.string_items())
        elif first == "len":
            self.pos = 1
            self.expect("(", "'(' after len")
            value = self.length(self.string_items())
            self.expect(")", "')' closing len")
        elif first:
            value = self.expr()
        else:
            raise DerivationSyntaxError(0, "expression")
        rest = self.stream[self.pos]
        if rest:
            if (first == "[" or first == "len") and rest in _ARITHMETIC:
                raise self._mixed_type_error(self.pos)
            raise self._syntax_error(self.pos, "end of input")
        return value if self.zero_division is None else self.zero_division

    def expr(self):
        value = self.term()
        stream = self.stream
        while (op := stream[self.pos]) in _ADDITIVE:
            self.pos += 1
            value = self.binary(op, value, self.term(), 0)
        return value

    def term(self):
        start = self.pos
        value = self.factor()
        stream = self.stream
        while (op := stream[self.pos]) in _MULTIPLICATIVE:
            self.pos += 1
            value = self.binary(op, value, self.factor(), start)
        return value

    def factor(self):
        tok = self.stream[self.pos]
        self.pos += 1
        if tok[-1:].isdecimal():  # a numeral: it ends in a digit
            return self.number(tok.replace(",", ""))
        if tok == "(":
            value = self.expr()
            self.expect(")", "')'")
            return value
        if tok == "-":
            return self.negate(self.factor())
        if tok == "[" or tok == "len" or (tok and tok[0] in _QUOTES):
            raise self._mixed_type_error(self.pos - 1)
        raise self._syntax_error(self.pos - 1, "number, '(' or '-'")

    def string_items(self) -> list[str]:
        """A bracketed list's items, trimmed."""
        self.expect("[", "'['")
        stream = self.stream
        items = []
        while True:
            tok = stream[self.pos]
            if not tok or tok[0] not in _QUOTES:
                raise self._syntax_error(self.pos, "string item")
            items.append(tok[1:-1].strip())
            self.pos += 1
            if stream[self.pos] != ",":
                break
            self.pos += 1
        self.expect("]", "']'")
        return items

    def number(self, text: str) -> tuple[int, int]:
        if "." not in text:
            return int(text), 1
        whole, _, frac = text.partition(".")
        return int(whole + frac), 10 ** len(frac)

    def negate(self, value: tuple[int, int]) -> tuple[int, int]:
        return -value[0], value[1]

    def binary(self, op: str, left: tuple[int, int], right: tuple[int, int], start: int):
        """`left <op> right`; a term's operands begin at token `start`."""
        (a, b), (c, d) = left, right
        if op == "+":
            return (a + c, b) if b == d else (a * d + c * b, b * d)
        if op == "-":
            return (a - c, b) if b == d else (a * d - c * b, b * d)
        if op == "*":
            return a * c, b * d
        if c:
            return a * d, b * c
        if self.zero_division is None:
            source = _Renderer(self.tokens[start : self.pos]).term()[0]
            self.zero_division = DivisionByZeroError(source)
        return 0, 1

    def strings(self, items: list[str]) -> list[str]:
        return _nonempty(items)

    def length(self, items: list[str]) -> int:
        return len(_nonempty(items))


_ATOM = 3  # precedence of a numeral: above "*" and "/" (2) and "+" and "-" (1)
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Renderer(_Parser):
    """The parser with render actions: each value is (canonical text, precedence).

    Canonical form has no spaces around operators and ", " between list
    items, and parentheses exactly where the precedence needs them. A minus
    before a numeral folds into it ("--5" is "5"); before anything else it
    renders as "0-".
    """

    __slots__ = ()

    def number(self, text: str) -> tuple[str, int]:
        return text, _ATOM

    def negate(self, value: tuple[str, int]) -> tuple[str, int]:
        text, prec = value
        if prec == _ATOM:
            return (text[1:] if text[0] == "-" else "-" + text), _ATOM
        return "0-" + (f"({text})" if prec == 1 else text), 1

    def binary(self, op: str, left: tuple[str, int], right: tuple[str, int], start: int):
        prec = _PRECEDENCE[op]
        text = f"({left[0]})" if left[1] < prec else left[0]
        if right[1] <= prec or (right[1] == _ATOM and right[0][0] == "-"):
            return f"{text}{op}({right[0]})", prec
        return text + op + right[0], prec

    def strings(self, items: list[str]) -> tuple[str, int]:
        return render_list(items), _ATOM

    def length(self, items: list[str]) -> tuple[str, int]:
        return f"len({render_list(items)})", _ATOM


def parse(tokens: Tokens):
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
    return _nonempty([item.strip() for item in items])


def _nonempty(items: list[str]) -> list[str]:
    if not all(items):
        raise DerivationSyntaxError(0, "non-empty string item")
    return items


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


# Decimal places an exact rational is rendered at unless a caller passes
# another precision in [0, 10]: rounded half away from zero, trailing zeros
# dropped. Two numbers are equal within NUMERIC_TOLERANCE, or else when their
# renderings are.
DEFAULT_PRECISION = 4


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


# Deletes the ASCII punctuation characters; the metrics use it too.
PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def normalize_answer_text(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(text.lower().translate(PUNCT_TABLE).split())


class _Answer:
    __slots__ = ()

    def text(self, precision: int = DEFAULT_PRECISION) -> str:
        """The answer as said to the user: its text spans joined by ", "."""
        return ", ".join(self.text_spans(precision))


@dataclass(frozen=True, slots=True)
class NumericAnswer(_Answer):
    value: Fraction

    def key(self) -> tuple:
        """Vote key; a count with the same value shares it."""
        return ("num", self.value.numerator, self.value.denominator)

    def text_spans(self, precision: int = DEFAULT_PRECISION) -> list[str]:
        return [render_decimal(self.value, precision)]

    def describe(self, precision: int = DEFAULT_PRECISION) -> dict:
        return {"kind": "number", "value": str(self.value), "rendered": self.text(precision)}


@dataclass(frozen=True, slots=True)
class CountAnswer(_Answer):
    count: int

    def key(self) -> tuple:
        # "len([...])" and a numeral with the same value are one answer.
        return ("num", self.count, 1)

    def text_spans(self, precision: int = DEFAULT_PRECISION) -> list[str]:
        return [str(self.count)]

    def describe(self, precision: int = DEFAULT_PRECISION) -> dict:
        return {"kind": "count", "value": self.count}


@dataclass(frozen=True, slots=True)
class SpanSetAnswer(_Answer):
    """Spans as produced; the vote key ignores their order, case and punctuation."""

    spans: tuple[str, ...]

    def normalized(self) -> tuple[str, ...]:
        return tuple(sorted(normalize_answer_text(s) for s in self.spans))

    def key(self) -> tuple:
        return ("spans", self.normalized())

    def text_spans(self, precision: int = DEFAULT_PRECISION) -> list[str]:
        return list(self.spans)

    def describe(self, precision: int = DEFAULT_PRECISION) -> dict:
        return {"kind": "spans", "value": list(self.spans)}


@dataclass(frozen=True, slots=True)
class ClarifyAnswer(_Answer):
    question: str

    def normalized(self) -> str:
        return normalize_answer_text(self.question)

    def key(self) -> tuple:
        return ("clarify", self.normalized())

    def text_spans(self, precision: int = DEFAULT_PRECISION) -> list[str]:
        return [self.question]

    def describe(self, precision: int = DEFAULT_PRECISION) -> dict:
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
    stage = "tokenize"
    try:
        tokens = tokenize(source)
        stage = "parse"
        value = parse(tokens)
        stage = "evaluate"
        return evaluate(value)
    except DerivationError as err:
        raise ExecutionFailure(stage, err) from err
