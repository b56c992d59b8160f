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
    SpanSetAnswer,
    aggregate_report,
    classification_prf,
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
print("EM :", record_scores(pred, g).em)
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

# A small end-to-end report: each turn is scored once, into one record, and
# the report sums those records.
report = aggregate_report([
    record_scores(NumericAnswer(Fraction(161, 205)),
                  gold("arithmetic", 0.7854, derivation="(36.6-20.5)/20.5")),
    record_scores(ClarifyAnswer("Which period are you asking about?"),
                  gold("clarification", "Which period are you asking about?",
                       source="table-text", clari="Which period are you asking about?")),
    record_scores(NumericAnswer(Fraction(3)), gold("arithmetic", 2, derivation="1+1", source="table")),
])
print()
print(report.format_text())
