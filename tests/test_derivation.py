import json
import random
import re
import string
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.derivation import (
    MAX_NUMERAL_DIGITS,
    MAX_TOKENS,
    DerivationSyntaxError,
    DivisionByZeroError,
    ExecutionFailure,
    MixedTypeError,
    NumericAnswer,
    SpanSetAnswer,
    CountAnswer,
    DerivationError,
    UnknownCharacterError,
    UnreconstructibleDerivation,
    UnterminatedStringError,
    canonical_source,
    decimal_fraction,
    evaluate,
    execute_source,
    normalize_answer_text,
    parse,
    render_decimal,
    render_list,
    token_starts,
    tokenize,
)
from execute_outcomes import outcome
from oracle_rational import (
    OracleZeroDivision,
    oracle_eval,
    random_arithmetic_expr,
    random_zero_divisor_expr,
    to_source,
)
from reference_tokenize import reference_tokenize

GOLDEN_OUTCOMES = [
    json.loads(line)
    for line in (Path(__file__).parent / "fixtures" / "execute_outcomes.jsonl")
    .read_text(encoding="utf-8")
    .splitlines()
]


def texts(source):
    return list(tokenize(source))


class TestTokenize:
    def test_quotient_expression(self):
        tokens = tokenize("(36.6-20.5)/20.5")
        assert tokens == ["(", "36.6", "-", "20.5", ")", "/", "20.5"]
        assert token_starts(tokens) == [0, 1, 5, 6, 10, 11, 12]
        assert token_starts(tokens, 5) == [11, 12]

    def test_digit_grouping_commas_merge(self):
        assert texts("3,711 + 1,882") == ["3,711", "+", "1,882"]
        assert texts("(1,000,000 + 650,000 + 440,000) / 3")[1] == "1,000,000"
        assert texts("1,234.56") == ["1,234.56"]

    def test_non_grouping_commas_stay(self):
        # two digits after the comma: not a grouping comma
        assert texts("1,06") == ["1", ",", "06"]
        # four digits after the comma: not a grouping comma either
        assert texts("1,0623") == ["1", ",", "0623"]

    def test_list_commas_never_merge(self):
        assert texts('["2018","2019"]') == ["[", '"2018"', ",", '"2019"', "]"]
        tokens = tokenize("[1,234, '5,678']")
        assert tokens == ["[", "1", ",", "234", ",", "'5,678'", "]"]
        assert token_starts(tokens) == [0, 1, 2, 3, 6, 8, 15]

    def test_len_call(self):
        assert texts('len(["2018","2019"])')[:3] == ["len", "(", "["]

    def test_single_quotes(self):
        assert texts("['Which period are you asking about?']")[1] == (
            "'Which period are you asking about?'"
        )

    def test_token_limit(self):
        at_limit = "-1" + "+1" * (MAX_TOKENS // 2 - 1)
        assert len(tokenize(at_limit)) == MAX_TOKENS == 256
        with pytest.raises(DerivationSyntaxError):
            tokenize("-" + at_limit)

    def test_numeral_digit_limit(self):
        assert MAX_NUMERAL_DIGITS == 30
        for numeral in ("9" * 30, "1" * 15 + "." + "1" * 15, ",".join(["999"] * 10)):
            assert texts(numeral) == [numeral]
        for numeral in ("9" * 31, "1" * 16 + "." + "1" * 15, "9," + ",".join(["999"] * 10)):
            with pytest.raises(DerivationSyntaxError):
                tokenize(numeral)

    def test_unknown_character(self):
        with pytest.raises(UnknownCharacterError) as err:
            tokenize("1 + x")
        assert err.value.position == 4

    def test_non_decimal_digit_is_unknown(self):
        # "²" is a digit to str.isdigit but has no decimal value
        for source in ("²", "1²", "3,711²", ".²"):
            with pytest.raises(UnknownCharacterError):
                tokenize(source)

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedStringError):
            tokenize('["abc')

    def test_empty_source(self):
        with pytest.raises(DerivationSyntaxError):
            tokenize("   ")


# The derivation alphabet: ASCII digits and one non-ASCII decimal digit
# (Arabic-Indic three), grouping and list commas, points, both quotes,
# brackets, parentheses, operators, len, two kinds of space and one
# character the language does not know.
_DERIVATION_PIECES = [*"0123456789", "\u0663", ",", ".", '"', "'", "[", "]", "(", ")",
                      "+", "-", "*", "/", "len", " ", "\u00a0", "x"]


def parser_kind(text):
    """The parser's rule: a numeral ends in a decimal digit, a string starts
    with a quote; `len` and punctuation are their own kinds."""
    if text[-1].isdecimal():
        return "NUMBER"
    return "STRING" if text[0] in "\"'" else text


def located(source):
    """`tokenize`'s tokens as (kind by the parser's rule, text as written,
    position, end), with positions from `token_starts`."""
    tokens = tokenize(source)
    return [
        (parser_kind(text), text, start, start + len(text))
        for text, start in zip(tokens, token_starts(tokens))
    ]


def reference_located(source):
    """The reference's tokens as (kind, text as written, position, end)."""
    return [
        (kind, source[start:end], start, end) for kind, _, start, end in reference_tokenize(source)
    ]


def _lexed(lex, source):
    """Tokens as `lex` gives them, or the error's class, message and position."""
    try:
        return lex(source)
    except DerivationError as err:
        return type(err), str(err), err.position


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_DERIVATION_PIECES), max_size=60).map("".join))
@example("3,711 + 1,882")
@example("[1,234,567]")
@example("1,234,5678.5,")
@example("(1,000 ,000)")
@example("9," + ",".join(["999"] * 10))
@example("1+" * 128 + "1")
@example("1+" * 200 + "x")
@example("1+" * 200 + "'")
@example("lens")
@example(" \u00a0 ")
def test_tokenize_matches_reference_property(source):
    assert _lexed(located, source) == _lexed(reference_located, source)


# Each is lexed in one linear scan: a scan that backtracks into the digits,
# or rescans the whitespace before each character it cannot lex, takes
# seconds to hours on these. Each gives the reference's tokens or error.
_LINEAR_SOURCES = {
    "spaces-before-unknown": "1" + " " * 20_000 + "x",
    "spaces-before-quote": "1" + " " * 20_000 + "'",
    "trailing-spaces": "1" + " " * 20_000,
    "digits-before-unknown": "1" * 60 + "x",
    "grouped-digits-before-unknown": "1" + ",111" * 20 + "x",
    "too-many-tokens": "1+" * 200 + "1",
    "too-many-tokens-then-unknown": "1+" * 200 + "x",
    "listed-commas-over-the-limit": '["a"' + ", 1,000" * 90 + "]",
    "listed-numerals": '["a", 1,000]',
    "listed-grouping": "[1,234,567]",
    "listed-long-numeral": "[1" + ",111" * 10 + "]",
    "grouped-after-list": '["a"] 1,000',
}


@pytest.mark.parametrize("source", _LINEAR_SOURCES.values(), ids=_LINEAR_SOURCES.keys())
def test_tokenize_is_linear_and_exact(source):
    started = time.perf_counter()
    lexed = _lexed(located, source)
    assert time.perf_counter() - started < 0.5
    assert lexed == _lexed(reference_located, source)


def _regex_normalize_answer_text(text):
    """The regular-expression definition that normalize_answer_text replaces."""
    punct = re.compile("[" + re.escape(string.punctuation) + "]")
    return re.sub(r"\s+", " ", punct.sub("", text.lower())).strip()


def test_normalize_answer_text_on_every_code_point_as_the_regex():
    """Each code point alone between letters and in a run of its
    neighbours: whitespace, punctuation and case are treated as before."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for text in (every, "a" + "b|A".join(every) + "b", " ".join(every)):
        assert normalize_answer_text(text) == _regex_normalize_answer_text(text)


@given(st.text(alphabet=st.sampled_from(" \t\u00a0\u2028.,!-'\"Aa") | st.characters(), max_size=40))
def test_normalize_answer_text_as_the_regex(text):
    assert normalize_answer_text(text) == _regex_normalize_answer_text(text)


@st.composite
def decimal_numerals(draw):
    """Numerals in every form the three decimal callers pass: signed,
    leading-dot, trailing-dot, and 1 to MAX_NUMERAL_DIGITS digits."""
    digits = draw(st.text("0123456789", min_size=1, max_size=MAX_NUMERAL_DIGITS))
    point = draw(st.integers(min_value=-1, max_value=len(digits)))
    body = digits if point < 0 else digits[:point] + "." + digits[point:]
    return draw(st.sampled_from(["", "-", "+"])) + body


@given(decimal_numerals())
def test_decimal_fraction_matches_fraction_str(numeral):
    assert decimal_fraction(numeral) == Fraction(numeral)


def parse_source(source):
    return parse(tokenize(source))


def assert_canonical(source):
    """Canonical source is a fixed point and executes as the original does."""
    once = canonical_source(source)
    assert canonical_source(once) == once
    assert outcome(once) == {**outcome(source), "source": once}
    return once


class TestParse:
    def test_quotient_shape(self):
        assert assert_canonical("( 88 - 105 ) / 105") == "(88-105)/105"
        assert Fraction(*parse_source("(88-105)/105")) == Fraction(-17, 105)

    def test_single_literal(self):
        assert assert_canonical(" 5 ") == "5"
        assert Fraction(*parse_source("5")) == 5

    def test_precedence(self):
        assert assert_canonical("(1+(2*3))") == "1+2*3"
        assert assert_canonical("(1+2)*3") == "(1+2)*3"
        assert Fraction(*parse_source("1+2*3")) == 7

    def test_left_associativity(self):
        assert assert_canonical("(8-3)-2") == "8-3-2"
        assert assert_canonical("8-(3-2)") == "8-(3-2)"
        assert assert_canonical("(8/4)/2") == "8/4/2"
        assert assert_canonical("8/(4/2)") == "8/(4/2)"
        assert Fraction(*parse_source("8-3-2")) == 3

    def test_bare_list(self):
        assert parse_source('["a", "b"]') == ["a", "b"]
        assert assert_canonical("['a','b']") == '["a", "b"]'

    def test_len_list(self):
        assert parse_source('len(["a"])') == 1
        assert assert_canonical("len( ['a'] )") == 'len(["a"])'

    def test_unary_minus(self):
        assert assert_canonical("-1.8") == "-1.8"
        assert assert_canonical("--5") == "5"
        assert assert_canonical("-(-(5))") == "5"
        assert assert_canonical("-(1+2)") == "0-(1+2)"
        assert assert_canonical("-(2*3)") == "0-2*3"
        assert assert_canonical("2*-5") == "2*(-5)"
        assert assert_canonical("-5*2+-(3)") == "-5*2+(-3)"
        assert Fraction(*parse_source("-(1+2)")) == -3

    @pytest.mark.parametrize(
        "source",
        ['["a"] + 1', '1 + ["a"]', 'len(["a"]) + 1', '2 * ["x"]'],
    )
    def test_list_as_operand_is_mixed_type(self, source):
        with pytest.raises(MixedTypeError):
            parse_source(source)

    @pytest.mark.parametrize("source", ["1+", "(1", "len(5)", "[]", '["a" "b"]', "1 2"])
    def test_syntax_errors(self, source):
        with pytest.raises(DerivationSyntaxError):
            parse_source(source)

    @pytest.mark.parametrize(
        "source, position",
        [('["abc"', 6), ("(3,711", 6), ("(1,000,000", 10), ("(3711  ", 5), ('len(["abc"]', 11)],
    )
    def test_end_of_input_is_just_past_the_last_token(self, source, position):
        # The last token's source text includes its quotes and grouping commas.
        with pytest.raises(DerivationSyntaxError) as err:
            parse_source(source)
        assert err.value.position == position

    def test_list_items_trimmed_and_nonempty(self):
        assert parse_source('[" EMEA "]') == ["EMEA"]
        with pytest.raises(DerivationSyntaxError):
            parse_source('[""]')
        assert render_list([" EMEA ", "it's"]) == '["EMEA", "it\'s"]'
        assert render_list(['say "hi"']) == "['say \"hi\"']"
        with pytest.raises(DerivationSyntaxError):
            render_list(["a", "  "])
        with pytest.raises(UnreconstructibleDerivation):
            render_list(["it's \"x\""])


class TestEvaluate:
    def test_paper_quotient(self):
        result = evaluate(parse_source("(36.6-20.5)/20.5"))
        assert result == NumericAnswer(Fraction(161, 205))
        assert result.text() == "0.7854"

    def test_length_counts(self):
        result = evaluate(parse_source('len(["2018", "2019"])'))
        assert result == CountAnswer(2)

    def test_x_minus_x_is_zero(self):
        result = evaluate(parse_source("7-7"))
        assert result == NumericAnswer(Fraction(0))
        assert result.text() == "0"

    def test_operand_order_equivalence(self):
        a = evaluate(parse_source("(88-105)/105"))
        b = evaluate(parse_source("88/105-1"))
        assert a.value == b.value == Fraction(-17, 105)

    def test_division_by_zero(self):
        value = parse_source("1/(2-2)")
        with pytest.raises(DivisionByZeroError) as err:
            evaluate(value)
        assert err.value.subexpression == "1/(2-2)"
        # the first in post-order, rendered canonically
        for source, first in [
            ("(1/0) + 2/(3-3)", "1/0"),
            ("2/(1/0)", "1/0"),
            ("( 1,000 / (2 - 2) ) * 3", "1000/(2-2)"),
            ("-(1+2)/0*5", "(0-(1+2))/0"),
            ("2*-1/-0", "2*(-1)/(-0)"),
        ]:
            with pytest.raises(DivisionByZeroError) as err:
                evaluate(parse_source(source))
            assert err.value.subexpression == first
        # a syntax error anywhere beats a division by zero
        with pytest.raises(DerivationSyntaxError):
            parse_source("1/0+")

    def test_span_list_preserves_order(self):
        result = evaluate(parse_source('["b", "a"]'))
        assert result == SpanSetAnswer(("b", "a"))

    def test_count_invariant_under_permutation(self):
        items = ("Americas", "EMEA", "Asia Pacific")
        for perm in [items, items[::-1], (items[1], items[2], items[0])]:
            assert execute_source(f"len({render_list(perm)})") == CountAnswer(3)
class TestExecuteSource:
    def test_count_regions(self):
        result = execute_source('len(["Americas", "EMEA", "Asia Pacific"])')
        assert result == CountAnswer(3)

    def test_average(self):
        result = execute_source("(1.06+0.91+4.04)/3")
        assert result == NumericAnswer(Fraction(601, 300))
        assert result.text() == "2.0033"

    def test_stage_errors(self):
        with pytest.raises(ExecutionFailure) as err:
            execute_source("1/(2-2)")
        assert err.value.stage == "evaluate"
        with pytest.raises(ExecutionFailure) as err:
            execute_source("1 + ?")
        assert err.value.stage == "tokenize"
        with pytest.raises(ExecutionFailure) as err:
            execute_source("1 +")
        assert err.value.stage == "parse"
        for oversized in ("+".join(["1"] * 1000), "7" * 5000):
            with pytest.raises(ExecutionFailure) as err:
                execute_source(oversized)
            assert err.value.stage == "tokenize"

    # The deepest and largest sources the limits admit, and one over-deep
    # source that the limits let through to the parser.
    @pytest.mark.parametrize(
        "source,stage",
        [
            ("(" * 255 + "1", "parse"),
            ("(" * 127 + "1" + ")" * 127, None),
            ("-" * 255 + "1", None),
            ("+".join(["1"] * 128), None),
            ("*".join(["9" * 30] * 128), None),
            ("/".join(["1"] + ["0." + "0" * 28 + "1"] * 127), None),
        ],
        ids=["open-parens", "nesting", "negation", "sum", "product", "quotient"],
    )
    def test_largest_sources_within_limits(self, source, stage):
        assert len(tokenize(source)) <= MAX_TOKENS

        def run():
            try:
                answer = execute_source(source)
            except ExecutionFailure as err:
                return err.stage
            answer.text(10)
            answer.describe(10)
            canonical_source(source)
            return None

        assert run() == stage
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(run).result() == stage

class TestRenderDecimal:
    @pytest.mark.parametrize(
        "value,precision,expected",
        [
            (Fraction(161, 205), 4, "0.7854"),
            (Fraction(601, 300), 4, "2.0033"),
            (Fraction(0), 4, "0"),
            (Fraction(-10368, 576523), 4, "-0.018"),
            (Fraction(5, 2), 0, "3"),  # half away from zero
            (Fraction(-5, 2), 0, "-3"),
            (Fraction(78545, 100000), 4, "0.7855"),
            (Fraction(1, 100000), 4, "0"),
            (Fraction(-1, 100000), 4, "0"),
            (Fraction(245), 4, "245"),
        ],
    )
    def test_cases(self, value, precision, expected):
        assert render_decimal(value, precision) == expected

    @given(st.fractions(max_denominator=10**15), st.integers(0, 10))
    def test_matches_half_away_rounding_property(self, value, precision):
        units = int(abs(value) * 10**precision + Fraction(1, 2))  # floor: half away from zero
        whole, frac = divmod(units, 10**precision)
        expected = str(whole)
        if frac:
            expected += "." + str(frac).zfill(precision).rstrip("0")
        if value < 0 and units:
            expected = "-" + expected
        assert render_decimal(value, precision) == expected

    def test_rendering_is_deterministic(self):
        for _ in range(3):
            assert render_decimal(Fraction(2, 3), 6) == "0.666667"

    def test_precision_bounds(self):
        # The CLI and RunConfig admit 0 to 10 places.
        assert render_decimal(Fraction(161, 205), 0) == "1"
        assert render_decimal(Fraction(161, 205), 10) == "0.7853658537"



class TestRenderRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "(36.6-20.5)/20.5",
            "(88-105)/105",
            "88/105-1",
            "1+2*3",
            "8-3-2",
            "2*(3+4)",
            "1-(2-3)",
            "10/(2*5)",
            '["Americas", "EMEA", "Asia Pacific"]',
            'len(["2018", "2019"])',
            "-1.8",
            "3,711 + 1,882",
        ],
    )
    def test_token_fixpoint(self, source):
        assert_canonical(source)

    def test_canonical_sources_retokenize_identically(self):
        # For canonical (minimally parenthesized, comma-free) sources the
        # rendered text re-tokenizes to the same token sequence.
        for source in ["(36.6-20.5)/20.5", "1+2*3", "8-3-2", "10/(2*5)", "88/105-1"]:
            rendered = canonical_source(source)
            assert tokenize(rendered) == tokenize(source)

    def test_random_ast_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(300):
            source = to_source(random_arithmetic_expr(rng))
            assert len(assert_canonical(source)) <= len(source)


class TestOracleAgreement:
    def test_quick_fuzz_against_independent_evaluator(self):
        rng = random.Random(7)
        for _ in range(500):
            expr = random_arithmetic_expr(rng)
            try:
                expected = oracle_eval(expr)
            except ZeroDivisionError:
                with pytest.raises(DivisionByZeroError):
                    evaluate(parse_source(to_source(expr)))
                continue
            value = execute_source(to_source(expr)).value
            assert (value.numerator, value.denominator) == expected

    def test_hand_checked_values(self):
        quotient = ("div", ("sub", ("num", "88"), ("num", "105")), ("num", "105"))
        assert oracle_eval(quotient) == (-17, 105)
        assert to_source(quotient) == "((88-105)/105)"
        assert execute_source(to_source(quotient)).value == Fraction(-17, 105)
        mean = ("div", ("add", ("add", ("num", "1.06"), ("num", "0.91")), ("num", "4.04")), ("num", "3"))
        assert oracle_eval(mean) == (601, 300)
        assert execute_source(to_source(mean)).value == Fraction(601, 300)

    def test_oracle_agrees_on_division_by_zero(self):
        expr = ("div", ("num", "1"), ("sub", ("num", "2"), ("num", "2")))
        with pytest.raises(ZeroDivisionError):
            oracle_eval(expr)
        with pytest.raises(DivisionByZeroError):
            evaluate(parse_source(to_source(expr)))

    def test_zero_divisors_fail_where_the_oracle_says(self):
        """Divisors drawn as a zero literal or an exact cancellation (x-x):
        execution fails at the evaluate stage naming the oracle's first
        zero division, and every other expression has the oracle's value."""
        rng = random.Random(27182818)
        zero_divisions = 0
        for _ in range(2000):
            expr = random_zero_divisor_expr(rng)
            source = to_source(expr)
            try:
                expected = oracle_eval(expr)
            except OracleZeroDivision as zero:
                with pytest.raises(ExecutionFailure) as err:
                    execute_source(source)
                assert err.value.stage == "evaluate"
                assert isinstance(err.value.detail, DivisionByZeroError)
                assert err.value.detail.subexpression == canonical_source(to_source(zero.expr))
                zero_divisions += 1
                continue
            value = execute_source(source).value
            assert (value.numerator, value.denominator) == expected
        assert zero_divisions >= 400


def test_execute_source_matches_golden_outcomes():
    # Recorded from the tree-building evaluator this parser replaced.
    assert len(GOLDEN_OUTCOMES) > 3000
    for expected in GOLDEN_OUTCOMES:
        assert outcome(expected["source"]) == expected


def test_canonical_source_of_golden_sources():
    for expected in GOLDEN_OUTCOMES:
        if expected.get("stage") in (None, "evaluate"):
            assert_canonical(expected["source"])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_DERIVATION_PIECES), max_size=40).map("".join))
@example("((1/0)) * -(2+3)")
def test_canonical_source_property(source):
    result = outcome(source)
    if result.get("stage") in ("tokenize", "parse"):
        with pytest.raises(DerivationError) as err:
            canonical_source(source)
        assert (type(err.value).__name__, str(err.value)) == (result["error"], result["message"])
    else:
        assert_canonical(source)


@given(
    items=st.lists(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789",
            min_size=1,
        ).filter(lambda s: s.strip()),
        min_size=1,
        max_size=6,
    )
)
def test_length_permutation_property(items):
    rng = random.Random(0)
    shuffled = list(items)
    rng.shuffle(shuffled)
    expected = CountAnswer(len(items))
    assert execute_source(f"len({render_list(shuffled)})") == expected
    assert execute_source(f"len({render_list(items)})") == expected
