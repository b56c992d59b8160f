"""The evaluation metric suite on hand-built predictions.

Exact match is strict (currency symbols and scale words count); the
numeracy-focused F1 forgives presentation but zeroes out numeric mistakes;
clarifying turns additionally get ROUGE-2 and token F1; everything rolls up
into one report with a type-by-source grid. A gold annotation compiles once
to the same answer types a prediction executes to, so both sides are
compared through the same text spans.
"""

from fractions import Fraction

from pcqa import (
    ClarifyAnswer,
    GoldTurnAnswer,
    NumericAnswer,
    PredictionRecord,
    SpanSetAnswer,
    aggregate_report,
    classification_prf,
    exact_match,
    numeracy_f1,
    record_scores,
    rouge2_f1,
)


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


# A value-correct but symbol-dropping prediction: EM misses, F1 forgives.
g = gold("span", ["$148,502"], source="text")
pred = SpanSetAnswer(("148,502",))
print("EM :", exact_match(pred, "", g))
print("F1 :", numeracy_f1("148,502", "$148,502"))

# Numeric mistakes are not forgiven at all.
print("F1 on 2 vs 3:", numeracy_f1("2", "3"))

# ROUGE-2 on a near-miss clarification question.
print("ROUGE-2:", rouge2_f1("which year are you asking about",
                            "which period are you asking about"))

# Clarification-need prediction is plain binary P/R/F1.
print("CNP PRF:", classification_prf([True, True, False, False],
                                     [True, False, True, False]))

# The gold side of a turn is a canonical answer too.
print("gold spans:", g.canonical.text_spans(), " as said to the user:", g.response_text())

# A small end-to-end report.
records = [
    PredictionRecord(
        turn_id="t1",
        predicted=NumericAnswer(Fraction(161, 205)),
        predicted_scale="",
        gold=gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5"),
        clarification_pred=False,
    ),
    PredictionRecord(
        turn_id="t2",
        predicted=ClarifyAnswer("Which period are you asking about?"),
        predicted_scale="",
        gold=gold("clarification", "Which period are you asking about?",
                  source="table-text", clari="Which period are you asking about?"),
        clarification_pred=True,
    ),
    PredictionRecord(
        turn_id="t3",
        predicted=NumericAnswer(Fraction(3)),
        predicted_scale="",
        gold=gold("arithmetic", 2, derivation="1+1", source="table"),
        clarification_pred=False,
    ),
]
# Each turn is scored once; the report sums those scores.
report = aggregate_report([(r, *record_scores(r)) for r in records])
print()
print(report.format_text())
