import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcqa.corpus import GoldTurnAnswer
from pcqa.derivation import EvalConfig
from pcqa.metrics import (
    EmptyRecordSet,
    LengthMismatch,
    PredictionRecord,
    aggregate_report,
    classification_prf,
    exact_match,
    numeracy_f1,
    record_scores,
    rouge1_recall,
    rouge2_f1,
)
from pcqa.voting import ClarifyAnswer, CountAnswer, NumericAnswer, SpanSetAnswer

from reference_drop import ref_numeracy_f1

CONFIG = EvalConfig()


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


class TestExactMatch:
    def test_numeric_rendered_equality(self):
        g = gold("arithmetic", "0.7854", derivation="(36.6-20.5)/20.5")
        assert exact_match(NumericAnswer(Fraction(161, 205)), "", g, CONFIG) == 1

    def test_currency_preserved(self):
        g = gold("span", ["$148,502"])
        assert exact_match(SpanSetAnswer(("148,502",)), "", g, CONFIG) == 0
        assert exact_match(SpanSetAnswer(("$148,502",)), "", g, CONFIG) == 1

    def test_clarification_case_insensitive(self):
        g = gold("clarification", "Which period are you asking about?",
                 clari="Which period are you asking about?")
        assert exact_match(ClarifyAnswer("which PERIOD are you asking about?"), "", g, CONFIG) == 1

    def test_clarification_needs_clarify_prediction(self):
        g = gold("clarification", "Which period?", clari="Which period?")
        assert exact_match(SpanSetAnswer(("Which period?",)), "", g, CONFIG) == 0

    def test_scale_mismatch_scores_zero(self):
        g = gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5", scale="percent")
        assert exact_match(NumericAnswer(Fraction(161, 205)), "", g, CONFIG) == 0
        assert exact_match(NumericAnswer(Fraction(161, 205)), "percent", g, CONFIG) == 1

    def test_span_multiset_order_free(self):
        g = gold("multi-span", ["Americas", "EMEA"])
        assert exact_match(SpanSetAnswer(("EMEA", "Americas")), "", g, CONFIG) == 1
        assert exact_match(SpanSetAnswer(("EMEA",)), "", g, CONFIG) == 0

    def test_count_vs_numeric_cross_type(self):
        g = gold("count", 3, derivation="a, b, c")
        assert exact_match(CountAnswer(3), "", g, CONFIG) == 1
        assert exact_match(NumericAnswer(Fraction(3)), "", g, CONFIG) == 1

    def test_none_prediction(self):
        assert exact_match(None, "", gold("span", ["x"]), CONFIG) == 0

    def test_grouping_commas_equal(self):
        g = gold("span", ["148,502"])
        assert exact_match(SpanSetAnswer(("148502",)), "", g, CONFIG) == 1


class TestNumeracyF1:
    def test_identity_and_mismatch(self):
        assert numeracy_f1("2", "2", CONFIG) == 1.0
        assert numeracy_f1("2", "3", CONFIG) == 0.0

    def test_number_vs_text_zeroes(self):
        assert numeracy_f1("2", "two plans", CONFIG) == 0.0

    def test_bag_f1(self):
        assert numeracy_f1("Lease and loan receivables", "loan receivables", CONFIG) == (
            pytest.approx(2 * 0.5 * 1.0 / 1.5)
        )

    def test_fixture_oracle_agreement(self, fixtures_dir):
        pairs = json.loads((fixtures_dir / "numeracy_pairs.json").read_text())
        assert len(pairs) == 50
        for pair in pairs:
            actual = numeracy_f1(pair["pred"], pair["gold"], CONFIG)
            assert actual == pytest.approx(pair["expected_f1"], abs=1e-6), pair
            live = ref_numeracy_f1(pair["pred"], pair["gold"], CONFIG.render_precision)
            assert actual == pytest.approx(live, abs=1e-6), pair

    def test_multi_span_alignment(self):
        assert numeracy_f1(["Americas", "EMEA"], ["EMEA", "Americas"], CONFIG) == 1.0
        assert numeracy_f1(["Americas"], ["Americas", "EMEA"], CONFIG) == 0.5

    def test_empty_sides(self):
        assert numeracy_f1([], [], CONFIG) == 1.0
        assert numeracy_f1([], ["x"], CONFIG) == 0.0


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
        assert rouge1_recall("", "") == 1.0
        assert rouge1_recall("word", "") == 0.0

    def test_rouge1_recall(self):
        assert rouge1_recall("a b c", "a b d") == pytest.approx(2 / 3)

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
        with pytest.raises(LengthMismatch):
            classification_prf([True], [True, False])


def make_record(turn_id, predicted, g, clarify_pred=None, scale=""):
    if clarify_pred is None:
        clarify_pred = isinstance(predicted, ClarifyAnswer)
    return PredictionRecord(
        turn_id=turn_id,
        predicted=predicted,
        predicted_scale=scale,
        gold=g,
        clarification_pred=clarify_pred,
    )


def scored(records):
    return [(r, *record_scores(r, CONFIG)) for r in records]


def all_correct_records():
    return [
        make_record("t1", NumericAnswer(Fraction(161, 205)),
                    gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5")),
        make_record("t2", SpanSetAnswer(("two plans",)), gold("span", ["two plans"], source="text")),
        make_record("t3", CountAnswer(3), gold("count", 3, derivation="a, b, c")),
        make_record(
            "t4",
            ClarifyAnswer("Which period are you asking about?"),
            gold("clarification", "Which period are you asking about?",
                 source="table-text", clari="Which period are you asking about?"),
        ),
        make_record("t5", SpanSetAnswer(("EMEA", "Americas")),
                    gold("multi-span", ["Americas", "EMEA"])),
    ]


class TestAggregateReport:
    def test_all_correct(self):
        report = aggregate_report(scored(all_correct_records()), CONFIG)
        assert report.overall_em == 1.0
        assert report.overall_f1 == 1.0
        assert (report.cnp_precision, report.cnp_recall, report.cnp_f1) == (1.0, 1.0, 1.0)
        assert report.cqg_em == 1.0 and report.cqg_rouge2 == 1.0 and report.cqg_token_f1 == 1.0
        assert report.cqa_em == 1.0 and report.cqa_f1 == 1.0

    def test_single_record(self):
        record = all_correct_records()[0]
        report = aggregate_report(scored([record]), CONFIG)
        em, f1 = record_scores(record, CONFIG)
        assert report.overall_em == em and report.overall_f1 == f1

    def test_breakdown_grid_and_linearity(self):
        records = all_correct_records() + [
            make_record("t6", NumericAnswer(Fraction(99)), gold("arithmetic", 1, derivation="1"))
        ]
        report = aggregate_report(scored(records), CONFIG)
        weighted = sum(cell.em * cell.count for cell in report.breakdown.values())
        total = sum(cell.count for cell in report.breakdown.values())
        assert total == len(records)
        assert report.overall_em == pytest.approx(weighted / total)
        assert ("Arithmetic", "Table") in report.breakdown
        assert ("Question", "Table-text") in report.breakdown
        # absent cells are absent, not zero
        assert ("Counting", "Text") not in report.breakdown

    def test_report_rendering(self):
        report = aggregate_report(scored(all_correct_records()), CONFIG)
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
            aggregate_report([], CONFIG)

    def test_em_never_exceeds_f1(self):
        cases = [
            make_record("x1", NumericAnswer(Fraction(2)), gold("arithmetic", 3, derivation="3")),
            make_record("x2", SpanSetAnswer(("148,502",)), gold("span", ["$148,502"])),
            make_record("x3", SpanSetAnswer(("loan receivables",)),
                        gold("span", ["Lease and loan receivables"])),
            make_record("x4", None, gold("span", ["x"])),
        ] + all_correct_records()
        for record in cases:
            em, f1 = record_scores(record, CONFIG)
            assert em <= f1 + 1e-12


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
    record = make_record("p", NumericAnswer(Fraction(pred)), g)
    em, f1 = record_scores(record, CONFIG)
    assert 0.0 <= f1 <= 1.0
    assert em in (0, 1)
    assert em <= f1 + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5),
    b=st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta"]), min_size=1, max_size=5),
)
def test_bag_f1_symmetry_property(a, b):
    assert numeracy_f1(" ".join(a), " ".join(b), CONFIG) == pytest.approx(
        numeracy_f1(" ".join(b), " ".join(a), CONFIG)
    )
