import itertools
import json
import re
import string
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.corpus import GoldTurnAnswer
from pcqa.derivation import (
    MAX_NUMERAL_DIGITS,
    NUMERIC_TOLERANCE,
    DEFAULT_PRECISION,
    decimal_fraction,
    normalize_answer_text,
    render_decimal,
)
from pcqa.metrics import (
    _SOURCE_LABELS,
    _TYPE_LABELS,
    EmptyRecordSet,
    ScoredTurn,
    _bag_f1,
    _best_pairing,
    _normalize,
    _Normalized,
    _same_spans,
    aggregate_report,
    classification_prf,
    numeracy_f1,
    parse_numeral,
    record_scores,
    rouge2_f1,
)
from pcqa.voting import ClarifyAnswer, CountAnswer, NumericAnswer, SpanSetAnswer

from reference_drop import ref_numeracy_f1


def gold(answer_type, answer, derivation="", scale="", source="table", clari=""):
    return GoldTurnAnswer(
        answer_type=answer_type,
        answer=answer,
        derivation=derivation,
        scale=scale,
        source=source,
        req_clari=answer_type == "clarification",
        clarification_question=clari,
    )


def record_em(pred, scale, g):
    """The EM half of `record_scores`."""
    return record_scores(pred, g, scale=scale).em


class TestExactMatch:
    def test_numeric_rendered_equality(self):
        g = gold("arithmetic", "0.7854", derivation="(36.6-20.5)/20.5")
        assert record_em(NumericAnswer(Fraction(161, 205)), "", g) == 1

    def test_currency_preserved(self):
        g = gold("span", ["$148,502"])
        assert record_em(SpanSetAnswer(("148,502",)), "", g) == 0
        assert record_em(SpanSetAnswer(("$148,502",)), "", g) == 1

    def test_clarification_case_insensitive(self):
        g = gold("clarification", "Which period are you asking about?",
                 clari="Which period are you asking about?")
        assert record_em(ClarifyAnswer("which PERIOD are you asking about?"), "", g) == 1

    def test_clarification_needs_clarify_prediction(self):
        g = gold("clarification", "Which period?", clari="Which period?")
        assert record_em(SpanSetAnswer(("Which period?",)), "", g) == 0

    def test_scale_mismatch_scores_zero(self):
        g = gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5", scale="percent")
        assert record_em(NumericAnswer(Fraction(161, 205)), "", g) == 0
        assert record_em(NumericAnswer(Fraction(161, 205)), "percent", g) == 1

    def test_span_multiset_order_free(self):
        g = gold("multi-span", ["Americas", "EMEA"])
        assert record_em(SpanSetAnswer(("EMEA", "Americas")), "", g) == 1
        assert record_em(SpanSetAnswer(("EMEA",)), "", g) == 0

    def test_count_vs_numeric_cross_type(self):
        g = gold("count", 3, derivation="a, b, c")
        assert record_em(CountAnswer(3), "", g) == 1
        assert record_em(NumericAnswer(Fraction(3)), "", g) == 1

    def test_none_prediction(self):
        assert record_em(None, "", gold("span", ["x"])) == 0

    def test_grouping_commas_equal(self):
        g = gold("span", ["148,502"])
        assert record_em(SpanSetAnswer(("148502",)), "", g) == 1


class TestParseNumeral:
    def test_forms(self):
        assert parse_numeral("$1,234.50") == (Fraction(2469, 2), "$", "")
        assert parse_numeral("-.5%") == (Fraction(-1, 2), "", "%")
        assert parse_numeral("twelve") is None

    def test_digit_limit(self):
        assert parse_numeral("-" + "9" * MAX_NUMERAL_DIGITS) == (-Fraction(10**30 - 1), "", "")
        split = "1" * 15 + "." + "1" * 15
        assert parse_numeral(split) == (Fraction(split), "", "")
        # a longer digit string is text, however it is grouped or signed
        assert parse_numeral("9" * (MAX_NUMERAL_DIGITS + 1)) is None
        assert parse_numeral("-9," + ",".join(["999"] * 10) + "%") is None
        assert parse_numeral("9" * 4297) is None


class TestNumeracyF1:
    def test_identity_and_mismatch(self):
        assert numeracy_f1("2", "2") == 1.0
        assert numeracy_f1("2", "3") == 0.0

    def test_number_vs_text_zeroes(self):
        assert numeracy_f1("2", "two plans") == 0.0

    def test_bag_f1(self):
        assert numeracy_f1("Lease and loan receivables", "loan receivables") == (
            pytest.approx(2 * 0.5 * 1.0 / 1.5)
        )

    def test_fixture_oracle_agreement(self, fixtures_dir):
        pairs = json.loads((fixtures_dir / "numeracy_pairs.json").read_text())
        assert len(pairs) == 50
        for pair in pairs:
            actual = numeracy_f1(pair["pred"], pair["gold"])
            assert actual == pytest.approx(pair["expected_f1"], abs=1e-6), pair
            live = ref_numeracy_f1(pair["pred"], pair["gold"], DEFAULT_PRECISION)
            assert actual == pytest.approx(live, abs=1e-6), pair

    def test_multi_span_alignment(self):
        assert numeracy_f1(["Americas", "EMEA"], ["EMEA", "Americas"]) == 1.0
        assert numeracy_f1(["Americas"], ["Americas", "EMEA"]) == 0.5

    def test_empty_sides(self):
        assert numeracy_f1([], []) == 1.0
        assert numeracy_f1([], ["x"]) == 0.0


class TestRouge:
    def test_identical(self):
        assert rouge2_f1("the same sentence here", "the same sentence here") == 1.0

    def test_disjoint(self):
        assert rouge2_f1("alpha beta gamma", "delta epsilon zeta") == 0.0

    def test_hand_enumerated(self):
        score = rouge2_f1("which year are you asking about", "which period are you asking about")
        assert score == pytest.approx(0.6)

    def test_empty_conventions(self):
        assert rouge2_f1("", "") == 1.0
        assert rouge2_f1("", "some text here") == 0.0
    @settings(max_examples=150, deadline=None)
    @given(
        a=st.text(alphabet="abc d", max_size=30),
        b=st.text(alphabet="abc d", max_size=30),
    )
    def test_symmetry(self, a, b):
        assert rouge2_f1(a, b) == pytest.approx(rouge2_f1(b, a))


class TestClassificationPRF:
    def test_perfect(self):
        assert classification_prf([True, False, True], [True, False, True]) == (1.0, 1.0, 1.0)

    def test_confusion_four_cell(self):
        assert classification_prf([True, True, False, False], [True, False, True, False]) == (
            0.5,
            0.5,
            0.5,
        )

    def test_zero_conventions(self):
        assert classification_prf([False, False], [True, False]) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            classification_prf([True], [True, False])


def all_correct_turns():
    return [
        record_scores(NumericAnswer(Fraction(161, 205)),
                      gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5")),
        record_scores(SpanSetAnswer(("two plans",)), gold("span", ["two plans"], source="text")),
        record_scores(CountAnswer(3), gold("count", 3, derivation="a, b, c")),
        record_scores(
            ClarifyAnswer("Which period are you asking about?"),
            gold("clarification", "Which period are you asking about?",
                 source="table-text", clari="Which period are you asking about?"),
        ),
        record_scores(SpanSetAnswer(("EMEA", "Americas")), gold("multi-span", ["Americas", "EMEA"])),
    ]


def test_scored_turn_holds_the_spans_rendered_once():
    g = gold("arithmetic", 0.6667, derivation="2/3")
    turn = record_scores(NumericAnswer(Fraction(2, 3)), g, precision=2)
    assert turn == (g, NumericAnswer(Fraction(2, 3)), ["0.67"], 1, 1.0)
    assert not turn.clarification_pred
    assert record_scores(None, g).spans == []
    assert record_scores(ClarifyAnswer("Which year?"), g).clarification_pred


class TestAggregateReport:
    def test_all_correct(self):
        report = aggregate_report(all_correct_turns())
        assert report.overall_em == 1.0
        assert report.overall_f1 == 1.0
        assert (report.cnp_precision, report.cnp_recall, report.cnp_f1) == (1.0, 1.0, 1.0)
        assert report.cqg_em == 1.0 and report.cqg_rouge2 == 1.0 and report.cqg_token_f1 == 1.0
        assert report.cqa_em == 1.0 and report.cqa_f1 == 1.0

    def test_single_record(self):
        turn = all_correct_turns()[0]
        report = aggregate_report([turn])
        assert report.overall_em == turn.em and report.overall_f1 == turn.f1

    def test_breakdown_grid_and_linearity(self):
        records = all_correct_turns() + [
            record_scores(NumericAnswer(Fraction(99)), gold("arithmetic", 1, derivation="1"))
        ]
        report = aggregate_report(records)
        weighted = sum(cell.em * cell.count for cell in report.breakdown.values())
        total = sum(cell.count for cell in report.breakdown.values())
        assert total == len(records)
        assert report.overall_em == pytest.approx(weighted / total)
        assert ("Arithmetic", "Table") in report.breakdown
        assert ("Question", "Table-text") in report.breakdown
        # absent cells are absent, not zero
        assert ("Counting", "Text") not in report.breakdown

    def test_report_rendering(self):
        report = aggregate_report(all_correct_turns())
        text = report.format_text()
        for row in ("Span", "Spans", "Counting", "Arithmetic", "Question", "Total"):
            assert row in text
        for col in ("Table", "Text", "Table-text", "Total"):
            assert col in text
        payload = report.to_dict()
        assert payload["overall"]["em"] == 100.0
        assert payload["cnp"]["f1"] == 100.0

    def test_empty_record_set(self):
        with pytest.raises(EmptyRecordSet):
            aggregate_report([])

    def test_em_never_exceeds_f1(self):
        cases = [
            record_scores(NumericAnswer(Fraction(2)), gold("arithmetic", 3, derivation="3")),
            record_scores(SpanSetAnswer(("148,502",)), gold("span", ["$148,502"])),
            record_scores(SpanSetAnswer(("loan receivables",)), gold("span", ["Lease and loan receivables"])),
            record_scores(None, gold("span", ["x"])),
        ] + all_correct_turns()
        for turn in cases:
            assert turn.em <= turn.f1 + 1e-12


_number_strings = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(str),
    st.tuples(
        st.integers(min_value=0, max_value=9999), st.integers(min_value=0, max_value=999)
    ).map(lambda t: f"{t[0]}.{t[1]:03d}"),
)


@settings(max_examples=300, deadline=None)
@given(pred=_number_strings, gold_text=_number_strings)
def test_em_le_f1_numeric_property(pred, gold_text):
    g = gold("arithmetic", gold_text, derivation=gold_text)
    turn = record_scores(NumericAnswer(Fraction(pred)), g)
    assert 0.0 <= turn.f1 <= 1.0
    assert turn.em in (0, 1)
    assert turn.em <= turn.f1 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5),
    b=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5),
)
def test_bag_f1_symmetry_property(a, b):
    assert numeracy_f1(" ".join(a), " ".join(b)) == pytest.approx(
        numeracy_f1(" ".join(b), " ".join(a))
    )


# Scoring as it was before each span was normalized once per turn: every
# metric, and every pair in the F1 matrix, normalizes its spans afresh, and
# a numeral is first screened for a digit, then matched.
_REF_NUMERAL = re.compile(r"^(?P<prefix>[$€£¥]?)-?(\d{1,3}(,\d{3})+|\d+)?(\.\d+)?(?P<suffix>%?)$")


def _ref_parse_numeral(token):
    token = token.strip()
    if not token or not any(ch.isdigit() for ch in token) or not _REF_NUMERAL.match(token):
        return None
    prefix = token[0] if token[0] in "$€£¥" else ""
    body = token[len(prefix) :]
    suffix = "%" if body.endswith("%") else ""
    number = (body[:-1] if suffix else body).replace(",", "")
    if len(number) - number.startswith("-") - ("." in number) > MAX_NUMERAL_DIGITS:
        return None
    return decimal_fraction(number), prefix, suffix


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet="0123456789$€%,.-+ a²٣", max_size=12))
def test_parse_numeral_matches_reference_property(token):
    assert parse_numeral(token) == _ref_parse_numeral(token)


def _ref_numbers_equal(a, b, precision):
    """Equal within NUMERIC_TOLERANCE, or identical once rendered."""
    if abs(a - b) <= NUMERIC_TOLERANCE:
        return True
    return render_decimal(a, precision) == render_decimal(b, precision)


def _ref_plain_number(text):
    parsed = _ref_parse_numeral(text)
    return parsed[0] if parsed else None


def _ref_normalize_for_match(text, precision, keep_symbols):
    tokens = text.lower().split()
    while tokens and tokens[0] in ("a", "an", "the"):
        tokens.pop(0)
    out = []
    for token in tokens:
        parsed = _ref_parse_numeral(token)
        if parsed is not None:
            value, prefix, suffix = parsed
            rendered = render_decimal(value, precision)
            out.append(prefix + rendered + suffix if keep_symbols else rendered)
        else:
            stripped = "".join(ch for ch in token if ch not in string.punctuation)
            if stripped:
                out.append(stripped)
    return " ".join(out)


def _ref_pair_f1(pred, gold, precision):
    pred_norm = _ref_normalize_for_match(pred, precision, keep_symbols=False)
    gold_norm = _ref_normalize_for_match(gold, precision, keep_symbols=False)
    pred_num = _ref_plain_number(pred_norm)
    gold_num = _ref_plain_number(gold_norm)
    if pred_num is not None or gold_num is not None:
        same = pred_num is not None and gold_num is not None and _ref_numbers_equal(pred_num, gold_num, precision)
        return 1.0 if same else 0.0
    pred_tokens, gold_tokens = Counter(pred_norm.split()), Counter(gold_norm.split())
    if not pred_tokens and not gold_tokens:
        return 1.0
    overlap = sum((pred_tokens & gold_tokens).values())
    if overlap == 0:
        return 0.0
    p = overlap / sum(pred_tokens.values())
    r = overlap / sum(gold_tokens.values())
    return 2 * p * r / (p + r)


def _ref_record_scores(pred, gold_answer, precision, scale=""):
    pred_spans = pred.text_spans(precision) if pred is not None else []
    gold_spans = gold_answer.canonical.text_spans(precision)
    em = 0
    same_kind = gold_answer.req_clari == isinstance(pred, ClarifyAnswer)
    if pred is not None and same_kind and scale == gold_answer.scale:
        em = int(
            Counter(_ref_normalize_for_match(s, precision, True) for s in pred_spans)
            == Counter(_ref_normalize_for_match(s, precision, True) for s in gold_spans)
        )
    if not pred_spans and not gold_spans:
        return em, 1.0
    if not pred_spans or not gold_spans:
        return em, 0.0
    matrix = [[_ref_pair_f1(p, g, precision) for g in gold_spans] for p in pred_spans]
    return em, _ref_best_total(matrix) / max(len(pred_spans), len(gold_spans))


def _ref_best_total(matrix):
    """The greatest total of a one-to-one pairing, by trying every one."""
    rows, cols = len(matrix), len(matrix[0])
    if rows <= cols:
        pairings = ([matrix[i][j] for i, j in enumerate(p)] for p in itertools.permutations(range(cols), rows))
    else:
        pairings = ([matrix[i][j] for j, i in enumerate(p)] for p in itertools.permutations(range(rows), cols))
    return max(sum(scores) for scores in pairings)


# Numerals with and without currency, percent and thousands marks, so that
# the EM and F1 forms of one span differ; words with and without punctuation.
_TOKENS = [
    "7", "€7", "7%", "1,234.5", "$1,234.5", "1234.50", "5", "(5)", "5a", "0.5", ".5", "-0.5",
    "1", "1.00004", "0.99995", "0", "-0", "3", "٣", "²", "9" * 31, "$", "%", "-", ".",
    "the", "a", "An", "revenue", "Revenue,", "EMEA",
]
_span_text = st.lists(st.sampled_from(_TOKENS), max_size=3).map(" ".join)
_number = st.one_of(
    st.sampled_from([Fraction(n, d) for n, d in [(7, 1), (5, 1), (1, 2), (-1, 2), (2469, 2), (1, 1), (0, 1)]]),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**5),
)
_predicted = st.one_of(
    st.none(),
    _number.map(NumericAnswer),
    st.integers(0, 12).map(CountAnswer),
    st.lists(_span_text, min_size=1, max_size=3).map(lambda spans: SpanSetAnswer(tuple(spans))),
    _span_text.map(ClarifyAnswer),
)
_scale = st.sampled_from(["", "percent"])
_gold = st.one_of(
    st.builds(
        lambda v, sc: gold("arithmetic", str(v), derivation=str(v), scale=sc),
        st.one_of(_number.map(float), _span_text),
        _scale,
    ),
    st.builds(lambda n, sc: gold("count", str(n), scale=sc), st.integers(0, 12), _scale),
    st.builds(lambda t, sc: gold("span", [t], scale=sc), _span_text, _scale),
    st.builds(lambda ts, sc: gold("multi-span", ts, scale=sc), st.lists(_span_text, min_size=1, max_size=3), _scale),
    st.builds(lambda t: gold("clarification", t, clari=t), _span_text),
)



@st.composite
def _marked_pair(draw):
    """The same numerals and words on both sides, each marked at random:
    numerals with currency and percent signs, words with case and
    punctuation. EM turns on the numeral marks; F1 ignores all of them."""
    stems = st.sampled_from(["7", "1,234.5", "1234.50", ".5", "0.99995", "revenue", "emea"])
    spans = draw(st.lists(st.lists(stems, min_size=1, max_size=2), min_size=1, max_size=3))

    def mark(stem):
        if stem[0].isalpha():
            return draw(st.sampled_from([stem, stem.title(), stem + ",", f"({stem})"]))
        return draw(st.sampled_from(["", "$", "€"])) + stem + draw(st.sampled_from(["", "%"]))

    predicted = SpanSetAnswer(tuple(" ".join(mark(t) for t in span) for span in spans))
    golds = [" ".join(mark(t) for t in span) for span in draw(st.permutations(spans))]
    return predicted, "", gold("multi-span" if len(golds) > 1 else "span", golds)

@settings(max_examples=500, deadline=None)
@given(
    turn=st.one_of(st.tuples(_predicted, _scale, _gold), _marked_pair()),
    precision=st.sampled_from([DEFAULT_PRECISION, 0, 2]),
)
def test_record_scores_matches_reference_property(turn, precision):
    predicted, scale, g = turn
    scored = record_scores(predicted, g, precision, scale)
    ref_em, ref_f1 = _ref_record_scores(predicted, g, precision, scale)
    # Pairings of equal total can sum their scores in another order.
    assert scored.em == ref_em and scored.f1 == pytest.approx(ref_f1, rel=0, abs=1e-12)


# A numeric answer is scored from its value (one rendering, one parse); a
# span answer through its text. Both must score like the rendered text.
_FAST_PATH_PRECISIONS = [0, DEFAULT_PRECISION, 10]
_fast_path_value = st.one_of(
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**12),
    # Negatives that round to "0" at every precision but 10.
    st.fractions(min_value=Fraction(-1, 10**10), max_value=0),
    # Around 10**30, where rounding can carry the rendering past 30 digits.
    st.builds(lambda n, k: Fraction(n, 10**k), st.integers(-(10**36), 10**36), st.integers(0, 6)),
)


def _as_rendered_text(answer, precision):
    return SpanSetAnswer(tuple(answer.text_spans(precision)))


@settings(max_examples=1000, deadline=None)
@given(
    value=_fast_path_value,
    # Gold is the predicted value moved by a few units at some place, so
    # renderings differ by less, and more, than the 1e-9 tolerance.
    offset=st.integers(-20, 20),
    places=st.sampled_from([0, 4, 9, 10, 11, 12]),
    precision=st.sampled_from(_FAST_PATH_PRECISIONS),
)
@example(value=Fraction(10**35 - 1, 10**5), offset=0, places=0, precision=_FAST_PATH_PRECISIONS[1])
@example(value=Fraction(-1, 10**6), offset=0, places=0, precision=_FAST_PATH_PRECISIONS[1])
@example(value=Fraction(1234567891, 10**10), offset=1, places=10, precision=_FAST_PATH_PRECISIONS[2])
@example(value=Fraction(5, 2), offset=-1, places=10, precision=_FAST_PATH_PRECISIONS[0])
def test_numeric_fast_path_matches_text_path_property(value, offset, places, precision):
    gold_numeral = render_decimal(value + Fraction(offset, 10**places), 12)
    numeric_gold = gold("arithmetic", gold_numeral, derivation=gold_numeral)
    text_gold = gold("span", numeric_gold.canonical.text_spans(precision))
    predicted = NumericAnswer(value)
    # The reference scores every answer through its rendered text.
    expected = _ref_record_scores(predicted, numeric_gold, precision)
    for pred in (predicted, _as_rendered_text(predicted, precision)):
        for g in (numeric_gold, text_gold):
            scored = record_scores(pred, g, precision)
            assert (scored.em, scored.f1) == expected


def test_lone_numeral_compares_at_its_rendered_value():
    # 1.00005 and 1.0000499999 lie within the 1e-9 tolerance, but score at
    # their renderings "1.0001" and "1", which do not.
    for pred, g in (("1.00005", "1.0000499999"), ("$1.00005", "1.0000499999%")):
        assert numeracy_f1(pred, g) == _ref_pair_f1(pred, g, DEFAULT_PRECISION) == 0.0
    assert numeracy_f1("1.00005", "1.00014999") == 1.0


# The rewritten helpers against Counter-based references.
_bag_tokens = st.lists(st.sampled_from(["alpha", "beta", "gamma", "7", "$7", ""]), max_size=8)


def _counter_bag_f1(pred, gold):
    pred_bag, gold_bag = Counter(pred), Counter(gold)
    overlap = sum((pred_bag & gold_bag).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred_bag.values())
    recall = overlap / sum(gold_bag.values())
    return 2 * precision * recall / (precision + recall)


@settings(max_examples=500, deadline=None)
@given(pred=_bag_tokens, gold=_bag_tokens)
def test_bag_f1_matches_counter_reference_property(pred, gold):
    assert _bag_f1(pred, gold) == _counter_bag_f1(pred, gold)


def _counter_rouge2_f1(pred, gold):
    def bigrams(text):
        tokens = text.lower().split()
        return Counter(zip(tokens, tokens[1:]))

    pred_grams, gold_grams = bigrams(pred), bigrams(gold)
    n_pred, n_gold = sum(pred_grams.values()), sum(gold_grams.values())
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if n_pred == 0 or n_gold == 0:
        return 0.0
    return _counter_bag_f1(list(pred_grams.elements()), list(gold_grams.elements()))


@settings(max_examples=500, deadline=None)
@given(pred=st.text(alphabet="abAB \n", max_size=24), gold=st.text(alphabet="abAB \n", max_size=24))
@example(pred="a b a b a", gold="a b a b")
def test_rouge2_matches_counter_reference_property(pred, gold):
    assert rouge2_f1(pred, gold) == _counter_rouge2_f1(pred, gold)


_em_forms = st.lists(st.sampled_from(["7", "$7", "emea", "americas", ""]), max_size=4)


@settings(max_examples=500, deadline=None)
@given(pred=_em_forms, gold=_em_forms)
def test_multiset_em_matches_counter_reference_property(pred, gold):
    def spans(forms):
        return [_Normalized(form, form.split(), None) for form in forms]

    assert _same_spans(spans(pred), spans(gold)) == int(Counter(pred) == Counter(gold))


def _full_normalize(text, precision):
    """`_normalize` with every token screened as a numeral: the path that the
    digit-free shortcut skips."""
    tokens = text.lower().split()
    while tokens and tokens[0] in ("a", "an", "the"):
        tokens.pop(0)
    em, f1 = [], []
    value = None
    for token in tokens:
        parsed = parse_numeral(token)
        if parsed is not None:
            value, prefix, suffix = parsed
            rendered = render_decimal(value, precision)
            em.append(prefix + rendered + suffix)
            f1.append(rendered)
        else:
            stripped = "".join(ch for ch in token if ch not in string.punctuation)
            if stripped:
                em.append(stripped)
                f1.append(stripped)
                value = None
    if len(f1) != 1:
        return _Normalized(" ".join(em), f1, None)
    if value is not None:
        return _Normalized(em[0], f1, decimal_fraction(f1[0]))
    parsed = parse_numeral(f1[0])
    if parsed is None:
        return _Normalized(em[0], f1, None)
    return _Normalized(em[0], [render_decimal(parsed[0], precision)], parsed[0])


_words = st.sampled_from(["a", "An", "THE", "the,", "(x)", "-", "...", "Revenue,", "e.g.", "²", "ß", "İ"])
_numerals = st.sampled_from(["7", "(2019)", "$1,234.50", "-.5%", "٣", "1.00005", "9" * 31, "x1"])
_spaces = st.sampled_from([" ", "  ", "\t", "\n", "　"])


@st.composite
def _scoring_text(draw, digits):
    tokens = draw(st.lists(_words | _numerals if digits else _words, max_size=5))
    return "".join(draw(_spaces) + token for token in tokens) + draw(st.sampled_from(["", " "]))


@settings(max_examples=1000, deadline=None)
@given(
    text=_scoring_text(digits=False) | _scoring_text(digits=True) | st.text(max_size=16),
    precision=st.sampled_from([0, 4, 10]),
)
def test_digit_free_normalize_matches_full_path_property(text, precision):
    assert _normalize(text, precision) == _full_normalize(text, precision)


_clarifying_gold = st.sampled_from(
    ["Which year are you asking about?", "which YEAR?", "the", "?", "", "2019", "(2019)", "$7"]
).map(lambda q: gold("clarification", q, clari=q))
_one_span_prediction = st.one_of(
    st.none(),
    _number.map(NumericAnswer),
    st.integers(0, 12).map(CountAnswer),
    _span_text.map(lambda t: SpanSetAnswer((t,))),
    _span_text.map(ClarifyAnswer),
)


@settings(max_examples=500, deadline=None)
@given(
    predicted=_one_span_prediction | st.lists(_span_text, max_size=3).map(lambda s: SpanSetAnswer(tuple(s))),
    g=_clarifying_gold,
    precision=st.sampled_from([DEFAULT_PRECISION, 0]),
)
@example(predicted=None, g=gold("clarification", "the", clari="the"), precision=DEFAULT_PRECISION)
@example(predicted=SpanSetAnswer(()), g=gold("clarification", "?", clari="?"), precision=DEFAULT_PRECISION)
def test_cqg_f1_is_the_joined_text_scored_property(predicted, g, precision):
    """The report reuses a one-span turn's F1 for CQG; that is the F1 of the
    prediction's text against the gold question."""
    report = aggregate_report([record_scores(predicted, g, precision)], precision)
    pred_text = predicted.text(precision) if predicted else ""
    assert report.cqg_token_f1 == numeracy_f1(pred_text, g.clarification_question, precision)


class TestEmptyBlocks:
    """A report without clarifying turns, or without answering turns, has a
    zero count and no figures for that block."""

    def test_no_clarifying_turns(self):
        report = aggregate_report([t for t in all_correct_turns() if not t.gold.req_clari])
        assert (report.cqg_count, report.cqg_rouge2, report.cqg_em, report.cqg_token_f1) == (0, None, None, None)
        assert report.cqa_count == 4
        lines = report.format_text().splitlines()
        assert not any(line.startswith("CQG") for line in lines)
        assert any(line.startswith("CQA (   4)") for line in lines)
        assert json.dumps(report.to_dict()["cqg"]) == '{"count": 0, "rouge2": null, "em": null, "token_f1": null}'

    def test_no_answering_turns(self):
        report = aggregate_report([t for t in all_correct_turns() if t.gold.req_clari])
        assert (report.cqa_count, report.cqa_em, report.cqa_f1) == (0, None, None)
        assert report.cqg_count == 1
        lines = report.format_text().splitlines()
        assert not any(line.startswith("CQA") for line in lines)
        assert any(line.startswith("CQG (   1)") for line in lines)
        assert json.dumps(report.to_dict()["cqa"]) == '{"count": 0, "em": null, "f1": null}'


_answering_gold = st.builds(
    lambda answer_type, source: gold(answer_type, "7", derivation="7", source=source),
    st.sampled_from(["span", "multi-span", "count", "arithmetic"]),
    st.sampled_from(["table", "text", "table-text"]),
)
_clarifying_gold_anywhere = st.builds(
    lambda question, source: gold("clarification", question, source=source, clari=question),
    st.sampled_from(["Which year are you asking about?", "which YEAR?", "2019", "$7"]),
    st.sampled_from(["table", "text", "table-text"]),
)


@st.composite
def _scored_turns(draw, precision):
    """Scored turns with any gold, prediction, EM and F1: the report only
    averages them, so they need not agree with each other."""
    turns = []
    for _ in range(draw(st.integers(1, 12))):
        g = draw(_answering_gold | _clarifying_gold_anywhere)
        spans_answer = st.lists(_span_text, max_size=3).map(lambda s: SpanSetAnswer(tuple(s)))
        predicted = draw(_one_span_prediction | spans_answer)
        spans = predicted.text_spans(precision) if predicted is not None else []
        f1 = draw(st.floats(0, 1) | st.sampled_from([0.0, 1.0, 1 / 3, 0.1]))
        turns.append(ScoredTurn(g, predicted, spans, draw(st.integers(0, 1)), f1))
    return turns


def _plain_mean(values):
    return sum(values) / len(values) if values else None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), precision=st.sampled_from([DEFAULT_PRECISION, 0]))
def test_report_figures_are_means_over_their_turns_property(data, precision):
    """Each EM/F1 figure is the plain sum over its turns, in list order,
    divided by their count."""
    turns = data.draw(_scored_turns(precision))
    report = aggregate_report(turns, precision)
    assert report.records == len(turns)
    assert report.overall_em == sum(t.em for t in turns) / len(turns)
    assert report.overall_f1 == sum(t.f1 for t in turns) / len(turns)
    answering = [t for t in turns if not t.gold.req_clari]
    assert report.cqa_count == len(answering)
    assert report.cqa_em == _plain_mean([t.em for t in answering])
    assert report.cqa_f1 == _plain_mean([t.f1 for t in answering])
    clarifying = [t for t in turns if t.gold.req_clari]
    questions = [(t.text, t.gold.clarification_question) for t in clarifying]
    assert report.cqg_count == len(clarifying)
    assert report.cqg_rouge2 == _plain_mean([rouge2_f1(p, q) for p, q in questions])
    assert report.cqg_em == _plain_mean(
        [int(bool(p) and normalize_answer_text(p) == normalize_answer_text(q)) for p, q in questions]
    )
    assert report.cqg_token_f1 == _plain_mean(
        [t.f1 if len(t.spans) == 1 else numeracy_f1(p, q, precision) for t, (p, q) in zip(clarifying, questions)]
    )
    cells = {}
    for t in turns:
        cells.setdefault((_TYPE_LABELS[t.gold.answer_type], _SOURCE_LABELS[t.gold.source]), []).append(t)
    assert report.breakdown.keys() == cells.keys()
    for key, cell in cells.items():
        expected = (len(cell), sum(t.em for t in cell) / len(cell), sum(t.f1 for t in cell) / len(cell))
        assert (report.breakdown[key].count, report.breakdown[key].em, report.breakdown[key].f1) == expected


# Span lists on which the library and reference_drop normalize alike: no
# lone article, which the reference keeps and the library drops.
_drop_span = st.lists(
    st.sampled_from(["b", "c", "d", "e", "f", "7", "$7", "7%", "1,234.5", "0.5"]), min_size=1, max_size=4
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(pred=st.lists(_drop_span, max_size=4), gold_spans=st.lists(_drop_span, max_size=4))
@example(pred=["a b c d", "a b"], gold_spans=["a b c", "c d"])
def test_optimal_pairing_matches_reference_drop_property(pred, gold_spans):
    assert numeracy_f1(pred, gold_spans) == pytest.approx(ref_numeracy_f1(pred, gold_spans), abs=1e-12)


def test_optimal_pairing_beats_greedy():
    # Greedy takes "a b c d"/"a b c" (F1 6/7) first and leaves "a b"/"c d" at 0.
    assert numeracy_f1(["a b c d", "a b"], ["a b c", "c d"]) == pytest.approx(11 / 15)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda rows: st.lists(
            st.lists(st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 1.0]), min_size=rows, max_size=rows),
            min_size=rows,
            max_size=7,
        ).map(lambda columns: [list(row) for row in zip(*columns)])
    )
)
def test_best_pairing_matches_exhaustive_search_property(matrix):
    scores = _best_pairing(matrix)
    assert len(scores) == len(matrix)
    assert sum(scores) == pytest.approx(_ref_best_total(matrix), abs=1e-12)


def test_pairing_of_many_spans_is_polynomial():
    # Every predicted span scores best against gold "z", so no row keeps its
    # best column and the Hungarian method runs on the full 120 x 120 matrix.
    n = 120
    pred = [f"z w{i}" for i in range(n)]
    gold_spans = ["z"] + [f"w{i} q r" for i in range(1, n)]
    assert numeracy_f1(pred, gold_spans) == pytest.approx((2 / 3 + 0.4 * (n - 1)) / n)
