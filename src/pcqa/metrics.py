"""Evaluation metrics: exact match, numeracy-focused F1, ROUGE, and reports.

Predictions and gold answers are the same canonical answer types
(`pcqa.derivation`) and are compared through their text spans, rendered at
the given precision. Normalization has two flavors. Exact match keeps
currency/percent symbols attached to numerals (so "148,502" against
"$148,502" is an EM miss), while the token-F1 side strips them (so the same
pair keeps a high F1). A numeric mismatch zeroes the pair F1 outright.
Each span is normalized once per turn, to both flavors and its plain
number; a numeric answer goes there straight from its rendering, parsed
once, and a span with no digit skips numeral parsing altogether. Token and
bigram overlaps are counted with one dict; multi-span answers pair under the
optimal assignment (Hungarian method). `record_scores` gives one
`ScoredTurn` per turn: the gold, the prediction, its text spans rendered once,
and the turn's EM and F1. `aggregate_report` sums those records. Its
clarifying-question block adds ROUGE-2 and the question EM over the joined
spans, and reuses the turn's F1 as the question token F1 unless the
prediction has several text spans, or none, which it scores as one.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .corpus import GoldTurnAnswer
from .derivation import (
    DEFAULT_PRECISION,
    NUMERIC_TOLERANCE,
    PUNCT_TABLE,
    CanonicalAnswer,
    ClarifyAnswer,
    NumericAnswer,
    decimal_fraction,
    decimal_value,
    normalize_answer_text,
    render_decimal,
)


class EmptyRecordSet(Exception):
    pass


_ARTICLES = ("a", "an", "the")
_CURRENCY = "$€£¥"
# At least one digit: a whole part (with or without thousands separators) and
# an optional fraction, or a fraction alone.
_NUMERAL = re.compile(r"^[$€£¥]?-?(?:(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+)%?$")
# A numeral holds at least one \d character: a Unicode decimal digit.
_HAS_DIGIT = re.compile(r"\d").search


def parse_numeral(token: str) -> tuple[Fraction, str, str] | None:
    """Parse one numeral token; returns (value, currency prefix, percent suffix).

    A numeral of more than MAX_NUMERAL_DIGITS digits is text, as in a
    derivation: it names no quantity the harness scores, and rendering it
    could pass Python's 4,300-digit limit on int/str conversion.
    """
    token = token.strip()
    if not _NUMERAL.match(token):
        return None
    prefix = token[0] if token[0] in _CURRENCY else ""
    body = token[len(prefix) :]
    suffix = "%" if body.endswith("%") else ""
    if suffix:
        body = body[:-1]
    value = decimal_value(body.replace(",", ""))
    return None if value is None else (value, prefix, suffix)


class _Normalized(NamedTuple):
    """One span normalized for scoring."""

    em: str  # the exact-match form: numerals keep currency and percent marks
    tokens: list[str]  # the token-F1 form: numerals without marks, no punctuation
    # The F1 form's value when it is one numeral; `tokens` is then that value
    # rendered, so two numbers with the same tokens are equal.
    number: Fraction | None


def _normalize(text: str, precision: int) -> _Normalized:
    """Lowercase, drop leading articles, canonicalize numerals at the given
    precision, strip punctuation from non-numeral tokens, collapse spaces."""
    lowered = text.lower()
    tokens = lowered.split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    if not _HAS_DIGIT(lowered):
        # No token can be a numeral: strip punctuation, which holds no
        # whitespace, and let split drop the tokens left empty.
        kept = " ".join(tokens).translate(PUNCT_TABLE).split()
        return _Normalized(" ".join(kept), kept, None)
    em, f1 = [], []
    value = None  # of the last token kept, when it is a numeral
    for token in tokens:
        parsed = parse_numeral(token)
        if parsed is not None:
            value, prefix, suffix = parsed
            rendered = render_decimal(value, precision)
            em.append(prefix + rendered + suffix)
            f1.append(rendered)
        else:
            stripped = token.translate(PUNCT_TABLE)
            if stripped:
                em.append(stripped)
                f1.append(stripped)
                value = None
    # Only a lone token can be a numeral; the regex admits no spaces.
    if len(f1) != 1:
        return _Normalized(" ".join(em), f1, None)
    if value is not None:
        # Rendering rounds only a value with more than `precision` places.
        if 10**precision % value.denominator:
            value = decimal_fraction(f1[0])
        return _Normalized(em[0], f1, value)
    # A token that is a numeral once stripped of punctuation, as "(2019)".
    parsed = parse_numeral(f1[0])
    if parsed is None:
        return _Normalized(em[0], f1, None)
    return _Normalized(em[0], [render_decimal(parsed[0], precision)], parsed[0])


def _numeric_span(rendered: str, precision: int) -> _Normalized:
    """`_normalize` of a numeric answer's rendering, parsing it once."""
    number = decimal_value(rendered)
    if number is None:
        return _normalize(rendered, precision)  # too long to be a numeral: text
    return _Normalized(rendered, [rendered], number)


Spans = Union[str, Sequence[str]]


def _as_spans(side: Spans) -> list[str]:
    if isinstance(side, str):
        return [side]
    return [str(s) for s in side]


def _answer_spans(answer: CanonicalAnswer | None, texts: Sequence[str], precision: int) -> list[_Normalized]:
    """`texts` is `answer.text_spans(precision)`, or none without an answer."""
    if isinstance(answer, NumericAnswer):
        return [_numeric_span(texts[0], precision)]
    return [_normalize(s, precision) for s in texts]


def _same_spans(pred: list[_Normalized], gold: list[_Normalized]) -> int:
    if len(pred) == 1 and len(gold) == 1:
        return int(pred[0].em == gold[0].em)
    return int(sorted(p.em for p in pred) == sorted(g.em for g in gold))


def _bag_f1(pred: list, gold: list) -> float:
    """F1 of two lists as bags (multisets); 0 when they share nothing."""
    left: dict = {}  # each gold item's count not yet matched
    for item in gold:
        left[item] = left.get(item, 0) + 1
    overlap = 0
    for item in pred:
        if left.get(item):
            left[item] -= 1
            overlap += 1
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred)
    recall = overlap / len(gold)
    return 2 * precision * recall / (precision + recall)


def _pair_f1(pred: _Normalized, gold: _Normalized) -> float:
    if pred.number is None and gold.number is None:
        if pred.tokens == gold.tokens:
            return 1.0
        return _bag_f1(pred.tokens, gold.tokens)
    if pred.number is None or gold.number is None:
        return 0.0
    # Equal within NUMERIC_TOLERANCE, or rendered alike: the tokens are the renderings.
    if pred.tokens == gold.tokens or abs(pred.number - gold.number) <= NUMERIC_TOLERANCE:
        return 1.0
    return 0.0


def numeracy_f1(pred: Spans, gold: Spans, precision: int = DEFAULT_PRECISION) -> float:
    """Numeracy-focused token F1 (DROP, TAT-QA).

    A numeric side that disagrees with the other side scores zero. Multi-span
    answers pair one-to-one under the pairing with the greatest total F1 (the
    optimal assignment, as the DROP and TAT-QA scorers solve it), and the
    total is divided by max(len(pred), len(gold)).
    """
    return _pairing_f1(
        [_normalize(s, precision) for s in _as_spans(pred)],
        [_normalize(s, precision) for s in _as_spans(gold)],
    )


def _pairing_f1(pred_list: list[_Normalized], gold_list: list[_Normalized]) -> float:
    if not pred_list and not gold_list:
        return 1.0
    if not pred_list or not gold_list:
        return 0.0
    if len(pred_list) == 1 and len(gold_list) == 1:
        return _pair_f1(pred_list[0], gold_list[0])
    matrix = [[_pair_f1(p, g) for g in gold_list] for p in pred_list]
    if len(pred_list) > len(gold_list):
        matrix = [list(column) for column in zip(*matrix)]
    total = 0.0
    # Largest first, so a best pairing that a greedy pass also finds sums to
    # the same float as that pass does.
    for score in sorted(_best_pairing(matrix), reverse=True):
        total += score
    return total / max(len(pred_list), len(gold_list))


def _best_pairing(matrix: list[list[float]]) -> list[float]:
    """The scores of a one-to-one pairing of the rows with the columns (no
    more rows than columns) that has the greatest total.

    When the rows that score above zero have their best scores in distinct
    columns, those scores are the pairing. Otherwise the Hungarian method
    solves it in O(rows² · columns): each row in turn joins by the cheapest
    augmenting path, cost being the negated score, with potentials `u` on
    rows and `v` on columns that keep every reduced cost non-negative.
    """
    best = [max(row) for row in matrix]
    columns = [row.index(b) for row, b in zip(matrix, best) if b > 0]
    if len(set(columns)) == len(columns):
        return best  # each row scores its best, which no pairing beats
    rows, cols = len(matrix), len(matrix[0])
    u = [0.0] * (rows + 1)
    v = [0.0] * (cols + 1)
    owner = [0] * (cols + 1)  # the 1-based row paired with each column; column 0 is the root
    way = [0] * (cols + 1)  # the column before each one on the path
    for i in range(1, rows + 1):
        owner[0] = i
        j0 = 0
        slack = [math.inf] * (cols + 1)
        used = [False] * (cols + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], math.inf, 0
            row = matrix[i0 - 1]
            for j in range(1, cols + 1):
                if not used[j]:
                    reduced = -row[j - 1] - u[i0] - v[j]
                    if reduced < slack[j]:
                        slack[j], way[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:  # flip the path from the free column back to the root
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return [matrix[owner[j] - 1][j - 1] for j in range(1, cols + 1) if owner[j]]


def _bigrams(text: str) -> list[tuple[str, str]]:
    tokens = text.lower().split()
    return list(zip(tokens, tokens[1:]))


def rouge2_f1(pred: str, gold: str) -> float:
    pred_grams, gold_grams = _bigrams(pred), _bigrams(gold)
    if not pred_grams and not gold_grams:
        return 1.0
    return _bag_f1(pred_grams, gold_grams)


def classification_prf(preds: Sequence[bool], golds: Sequence[bool]) -> tuple[float, float, float]:
    """Precision/recall/F1 with "needs clarification" as the positive class;
    lists of different lengths raise ValueError."""
    pairs = Counter(zip(map(bool, preds), map(bool, golds), strict=True))
    tp, fp, fn = pairs[True, True], pairs[True, False], pairs[False, True]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class ScoredTurn(NamedTuple):
    """One scored turn: its gold answer, the predicted answer, its text spans,
    rendered once, and the turn's EM and F1; `text` is the spans joined."""

    gold: GoldTurnAnswer
    predicted: CanonicalAnswer | None
    spans: list[str]
    em: int
    f1: float

    @property
    def clarification_pred(self) -> bool:
        return isinstance(self.predicted, ClarifyAnswer)

    @property
    def text(self) -> str:
        return ", ".join(self.spans)


def record_scores(
    predicted: CanonicalAnswer | None, gold: GoldTurnAnswer, precision: int = DEFAULT_PRECISION, scale: str = ""
) -> ScoredTurn:
    """Score one turn, rendering the predicted spans once and normalizing
    each span once for both EM and F1.

    EM is 1 iff the normalized spans are equal as multisets. Clarification
    questions only ever match clarification predictions, and the predicted
    `scale` must match the gold scale exactly for every answer type.
    """
    spans = predicted.text_spans(precision) if predicted is not None else []
    pred = _answer_spans(predicted, spans, precision)
    gold_spans = _answer_spans(gold.canonical, gold.canonical.text_spans(precision), precision)
    em = 0
    if predicted is not None and gold.req_clari == isinstance(predicted, ClarifyAnswer) and scale == gold.scale:
        em = _same_spans(pred, gold_spans)
    return ScoredTurn(gold, predicted, spans, em, _pairing_f1(pred, gold_spans))


_TYPE_LABELS = {
    "span": "Span",
    "multi-span": "Spans",
    "count": "Counting",
    "arithmetic": "Arithmetic",
    "clarification": "Question",
}
_SOURCE_LABELS = {"table": "Table", "text": "Text", "table-text": "Table-text"}


@dataclass(frozen=True)
class CellScore:
    count: int
    em: float
    f1: float


@dataclass(frozen=True)
class MetricReport:
    """All scores for one prediction set.

    Overall EM/F1 micro-average over every turn (clarifying and answering
    turns pooled). Values are fractions in [0, 1]; rendering multiplies by
    100 with one decimal.
    """

    records: int
    overall_em: float
    overall_f1: float
    cnp_precision: float
    cnp_recall: float
    cnp_f1: float
    cqg_count: int
    cqg_rouge2: float | None
    cqg_em: float | None
    cqg_token_f1: float | None
    cqa_count: int
    cqa_em: float | None
    cqa_f1: float | None
    breakdown: dict[tuple[str, str], CellScore]

    def to_dict(self) -> dict:
        def pct(x: float | None) -> float | None:
            return None if x is None else round(100 * x, 1)

        return {
            "records": self.records,
            "overall": {"em": pct(self.overall_em), "f1": pct(self.overall_f1)},
            "cnp": {
                "precision": pct(self.cnp_precision),
                "recall": pct(self.cnp_recall),
                "f1": pct(self.cnp_f1),
            },
            "cqg": {
                "count": self.cqg_count,
                "rouge2": pct(self.cqg_rouge2),
                "em": pct(self.cqg_em),
                "token_f1": pct(self.cqg_token_f1),
            },
            "cqa": {"count": self.cqa_count, "em": pct(self.cqa_em), "f1": pct(self.cqa_f1)},
            "breakdown": {
                f"{t}/{s}": {"count": c.count, "em": pct(c.em), "f1": pct(c.f1)}
                for (t, s), c in sorted(self.breakdown.items())
            },
        }

    def format_text(self) -> str:
        lines = [
            f"records: {self.records}",
            f"overall      EM {100 * self.overall_em:5.1f}   F1 {100 * self.overall_f1:5.1f}",
            (
                f"CNP          P  {100 * self.cnp_precision:5.1f}   R  {100 * self.cnp_recall:5.1f}"
                f"   F1 {100 * self.cnp_f1:5.1f}"
            ),
        ]
        if self.cqg_count:
            lines.append(
                f"CQG ({self.cqg_count:4d})   ROUGE-2 {100 * (self.cqg_rouge2 or 0):5.1f}"
                f"   EM {100 * (self.cqg_em or 0):5.1f}   F1 {100 * (self.cqg_token_f1 or 0):5.1f}"
            )
        if self.cqa_count:
            lines.append(
                f"CQA ({self.cqa_count:4d})   EM {100 * (self.cqa_em or 0):5.1f}"
                f"   F1 {100 * (self.cqa_f1 or 0):5.1f}"
            )
        lines.append("")
        lines.append(self._format_grid())
        return "\n".join(lines)

    def _format_grid(self) -> str:
        type_rows = [*_TYPE_LABELS.values(), "Total"]
        source_cols = [*_SOURCE_LABELS.values(), "Total"]
        header = f"{'EM/F1':<12}" + "".join(f"{c:>14}" for c in source_cols)
        lines = [header]
        for t in type_rows:
            cells = []
            for s in source_cols:
                cell = self._grid_cell(t, s)
                cells.append(
                    f"{100 * cell.em:.1f}/{100 * cell.f1:.1f}" if cell is not None else "-"
                )
            lines.append(f"{t:<12}" + "".join(f"{c:>14}" for c in cells))
        return "\n".join(lines)

    def _grid_cell(self, type_label: str, source_label: str) -> CellScore | None:
        keys = [
            (t, s)
            for (t, s) in self.breakdown
            if (type_label == "Total" or t == type_label)
            and (source_label == "Total" or s == source_label)
        ]
        total = sum(self.breakdown[k].count for k in keys)
        if total == 0:
            return None
        em = sum(self.breakdown[k].em * self.breakdown[k].count for k in keys) / total
        f1 = sum(self.breakdown[k].f1 * self.breakdown[k].count for k in keys) / total
        return CellScore(count=total, em=em, f1=f1)


def _mean(values: Sequence[float]) -> float | None:
    return sum(values) / len(values) if values else None


def _question_scores(t: ScoredTurn, precision: int) -> tuple[float, int, float]:
    """ROUGE-2, EM and token F1 of a clarifying turn's predicted question."""
    pred_text, gold_text = t.text, t.gold.clarification_question
    em = int(bool(pred_text) and normalize_answer_text(pred_text) == normalize_answer_text(gold_text))
    # The turn's F1 scored this one span against the gold question, the
    # gold's one span. Joined spans, or none, make a span of their own.
    f1 = t.f1 if len(t.spans) == 1 else numeracy_f1(pred_text, gold_text, precision)
    return rouge2_f1(pred_text, gold_text), em, f1


def aggregate_report(turns: Sequence[ScoredTurn], precision: int = DEFAULT_PRECISION) -> MetricReport:
    """Sum the per-turn records of `record_scores` into the full report.

    Clarifying gold turns contribute the CQG block, the rest the CQA block,
    and all of them the pooled overall EM/F1 and the type-by-source grid.
    Every EM/F1 figure is the mean over its turns, summed in the order given.
    """
    if not turns:
        raise EmptyRecordSet("no prediction records to aggregate")
    cnp_p, cnp_r, cnp_f = classification_prf(
        [t.clarification_pred for t in turns], [t.gold.req_clari for t in turns]
    )
    cells: dict[tuple[str, str], list[ScoredTurn]] = {}
    for t in turns:
        cells.setdefault((_TYPE_LABELS[t.gold.answer_type], _SOURCE_LABELS[t.gold.source]), []).append(t)
    answering = [t for t in turns if not t.gold.req_clari]
    questions = [_question_scores(t, precision) for t in turns if t.gold.req_clari]
    rouge2s, question_ems, question_f1s = zip(*questions) if questions else ((), (), ())
    return MetricReport(
        records=len(turns),
        overall_em=_mean([t.em for t in turns]),
        overall_f1=_mean([t.f1 for t in turns]),
        cnp_precision=cnp_p,
        cnp_recall=cnp_r,
        cnp_f1=cnp_f,
        cqg_count=len(questions),
        cqg_rouge2=_mean(rouge2s),
        cqg_em=_mean(question_ems),
        cqg_token_f1=_mean(question_f1s),
        cqa_count=len(answering),
        cqa_em=_mean([t.em for t in answering]),
        cqa_f1=_mean([t.f1 for t in answering]),
        breakdown={
            key: CellScore(len(cell), _mean([t.em for t in cell]), _mean([t.f1 for t in cell]))
            for key, cell in cells.items()
        },
    )
