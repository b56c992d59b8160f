import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pcqa.derivation import (
    MAX_NUMERAL_DIGITS,
    MAX_TOKENS,
    BinaryOp,
    DerivationSyntaxError,
    DivisionByZeroError,
    EvalConfig,
    ExecutionFailure,
    Length,
    MixedTypeError,
    Number,
    NumericAnswer,
    SpanSetAnswer,
    CountAnswer,
    StringList,
    Token,
    TokenKind,
    UnknownCharacterError,
    UnterminatedStringError,
    evaluate,
    execute_source,
    numbers_equal,
    parse,
    parse_source,
    render,
    render_decimal,
    tokenize,
)
from oracle_rational import oracle_eval, random_arithmetic_expr


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)]


class TestTokenize:
    def test_quotient_expression(self):
        assert kinds("(36.6-20.5)/20.5") == [
            TokenKind.LPAREN,
            TokenKind.NUMBER,
            TokenKind.MINUS,
            TokenKind.NUMBER,
            TokenKind.RPAREN,
            TokenKind.SLASH,
            TokenKind.NUMBER,
        ]
        assert texts("(36.6-20.5)/20.5")[1] == "36.6"

    def test_digit_grouping_commas_merge(self):
        assert texts("3,711 + 1,882") == ["3711", "+", "1882"]
        assert texts("(1,000,000 + 650,000 + 440,000) / 3")[1] == "1000000"
        assert texts("1,234.56")[0] == "1234.56"

    def test_non_grouping_commas_stay(self):
        # two digits after the comma: not a grouping comma
        assert [t.kind for t in tokenize("1,06")] == [
            TokenKind.NUMBER,
            TokenKind.COMMA,
            TokenKind.NUMBER,
        ]
        # four digits after the comma: not a grouping comma either
        assert TokenKind.COMMA in kinds("1,0623")

    def test_list_commas_never_merge(self):
        toks = tokenize('["2018","2019"]')
        assert [t.kind for t in toks] == [
            TokenKind.LBRACKET,
            TokenKind.STRING,
            TokenKind.COMMA,
            TokenKind.STRING,
            TokenKind.RBRACKET,
        ]
        assert toks[1].text == "2018"

    def test_len_call(self):
        assert kinds('len(["2018","2019"])')[:3] == [
            TokenKind.LEN,
            TokenKind.LPAREN,
            TokenKind.LBRACKET,
        ]

    def test_single_quotes(self):
        assert texts("['Which period are you asking about?']")[1] == (
            "Which period are you asking about?"
        )

    def test_token_limit(self):
        at_limit = "-1" + "+1" * (MAX_TOKENS // 2 - 1)
        assert len(tokenize(at_limit)) == MAX_TOKENS == 256
        with pytest.raises(DerivationSyntaxError):
            tokenize("-" + at_limit)

    def test_numeral_digit_limit(self):
        assert MAX_NUMERAL_DIGITS == 30
        for numeral in ("9" * 30, "1" * 15 + "." + "1" * 15, ",".join(["999"] * 10)):
            assert [t.kind for t in tokenize(numeral)] == [TokenKind.NUMBER]
        for numeral in ("9" * 31, "1" * 16 + "." + "1" * 15, "9," + ",".join(["999"] * 10)):
            with pytest.raises(DerivationSyntaxError):
                tokenize(numeral)

    def test_unknown_character(self):
        with pytest.raises(UnknownCharacterError) as err:
            tokenize("1 + x")
        assert err.value.position == 4

    def test_unterminated_string(self):
        with pytest.raises(UnterminatedStringError):
            tokenize('["abc')

    def test_empty_source(self):
        with pytest.raises(DerivationSyntaxError):
            tokenize("   ")


class TestParse:
    def test_quotient_shape(self):
        expr = parse_source("(88-105)/105")
        assert expr == BinaryOp("div", BinaryOp("sub", Number("88"), Number("105")), Number("105"))

    def test_single_literal(self):
        assert parse_source("5") == Number("5")

    def test_precedence(self):
        assert parse_source("1+2*3") == BinaryOp(
            "add", Number("1"), BinaryOp("mul", Number("2"), Number("3"))
        )

    def test_left_associativity(self):
        assert parse_source("8-3-2") == BinaryOp(
            "sub", BinaryOp("sub", Number("8"), Number("3")), Number("2")
        )

    def test_bare_list(self):
        assert parse_source('["a", "b"]') == StringList(("a", "b"))

    def test_len_list(self):
        assert parse_source('len(["a"])') == Length(StringList(("a",)))

    def test_unary_minus(self):
        assert parse_source("-1.8") == Number("-1.8")
        assert parse_source("--5") == Number("5")
        assert parse_source("-(1+2)") == BinaryOp(
            "sub", Number("0"), BinaryOp("add", Number("1"), Number("2"))
        )

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

    def test_list_items_trimmed_and_nonempty(self):
        assert parse_source('[" EMEA "]') == StringList(("EMEA",))
        with pytest.raises(DerivationSyntaxError):
            parse_source('[""]')


class TestEvaluate:
    def test_paper_quotient(self):
        result = evaluate(parse_source("(36.6-20.5)/20.5"))
        assert result == NumericAnswer(Fraction(161, 205))
        assert result.rendered() == "0.7854"

    def test_length_counts(self):
        result = evaluate(Length(StringList(("2018", "2019"))))
        assert result == CountAnswer(2)

    def test_x_minus_x_is_zero(self):
        result = evaluate(BinaryOp("sub", Number("7"), Number("7")))
        assert result == NumericAnswer(Fraction(0))
        assert result.rendered() == "0"

    def test_operand_order_equivalence(self):
        a = evaluate(parse_source("(88-105)/105"))
        b = evaluate(parse_source("88/105-1"))
        assert a.value == b.value == Fraction(-17, 105)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            evaluate(parse_source("1/(2-2)"))

    def test_span_list_preserves_order(self):
        result = evaluate(StringList(("b", "a")))
        assert result == SpanSetAnswer(("b", "a"))

    def test_count_invariant_under_permutation(self):
        items = ("Americas", "EMEA", "Asia Pacific")
        for perm in [items, items[::-1], (items[1], items[2], items[0])]:
            assert evaluate(Length(StringList(perm))) == CountAnswer(3)


class TestExecuteSource:
    def test_count_regions(self):
        result = execute_source('len(["Americas", "EMEA", "Asia Pacific"])')
        assert result == CountAnswer(3)

    def test_average(self):
        result = execute_source("(1.06+0.91+4.04)/3")
        assert result == NumericAnswer(Fraction(601, 300))
        assert result.rendered() == "2.0033"

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
            config = EvalConfig(render_precision=10)
            answer.text(config)
            answer.describe(config)
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

    def test_rendering_is_deterministic(self):
        for _ in range(3):
            assert render_decimal(Fraction(2, 3), 6) == "0.666667"

    def test_numbers_equal_tolerance_and_rendering(self):
        config = EvalConfig()
        assert numbers_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12), config)
        assert numbers_equal(Fraction("0.78541"), Fraction("0.78539"), config)
        assert not numbers_equal(Fraction(2), Fraction(3), config)

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            EvalConfig(render_precision=11)


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
        once = render(parse_source(source))
        assert parse_source(once) == parse_source(source)
        assert render(parse_source(once)) == once

    def test_canonical_sources_retokenize_identically(self):
        # For canonical (minimally parenthesized, comma-free) sources the
        # rendered text re-tokenizes to the same token sequence.
        for source in ["(36.6-20.5)/20.5", "1+2*3", "8-3-2", "10/(2*5)", "88/105-1"]:
            rendered = render(parse_source(source))
            assert [(t.kind, t.text) for t in tokenize(rendered)] == [
                (t.kind, t.text) for t in tokenize(source)
            ]

    def test_random_ast_round_trip(self):
        rng = random.Random(20240817)
        for _ in range(300):
            expr = random_arithmetic_expr(rng)
            assert parse_source(render(expr)) == expr


class TestOracleAgreement:
    def test_quick_fuzz_against_independent_evaluator(self):
        rng = random.Random(7)
        for _ in range(500):
            expr = random_arithmetic_expr(rng)
            try:
                expected = oracle_eval(expr)
            except ZeroDivisionError:
                with pytest.raises(DivisionByZeroError):
                    evaluate(expr)
                continue
            value = evaluate(expr).value
            assert (value.numerator, value.denominator) == expected

    def test_hand_checked_values(self):
        assert oracle_eval(parse_source("(88-105)/105")) == (-17, 105)
        assert oracle_eval(parse_source("(1.06+0.91+4.04)/3")) == (601, 300)

    def test_oracle_agrees_on_division_by_zero(self):
        expr = parse_source("1/(2-2)")
        with pytest.raises(ZeroDivisionError):
            oracle_eval(expr)
        with pytest.raises(DivisionByZeroError):
            evaluate(expr)


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
    base = StringList(tuple(items))
    rng = random.Random(0)
    shuffled = list(base.items)
    rng.shuffle(shuffled)
    assert evaluate(Length(StringList(tuple(shuffled)))) == evaluate(Length(base))
