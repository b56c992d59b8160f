"""Evaluation metrics: exact match, numeracy-focused F1, ROUGE, and reports.

Predictions and gold answers are the same canonical answer types
(`pcqa.derivation`) and are compared through their text spans, rendered at
the configured precision. Normalization has two flavors. Exact match keeps
currency/percent symbols attached to numerals (so "148,502" against
"$148,502" is an EM miss), while the token-F1 side strips them (so the same
pair keeps a high F1). A numeric mismatch zeroes the pair F1 outright.
Each span is normalized once per turn, to both flavors and its plain
number; a numeric answer goes there straight from its value, rendered and
parsed once. `record_scores` scores one turn; `aggregate_report` sums those
per-turn scores and never recomputes them.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .corpus import GoldTurnAnswer
from .derivation import (
    DEFAULT_CONFIG,
    NUMERIC_TOLERANCE,
    CanonicalAnswer,
    ClarifyAnswer,
    EvalConfig,
    NumericAnswer,
    decimal_fraction,
    decimal_value,
    normalize_answer_text,
    render_decimal,
)


class MetricError(Exception):
    pass


class LengthMismatch(MetricError):
    pass


class EmptyRecordSet(MetricError):
    pass


_ARTICLES = ("a", "an", "the")
_CURRENCY = "$€£¥"
# At least one digit: a whole part (with or without thousands separators) and
# an optional fraction, or a fraction alone.
_NUMERAL = re.compile(r"^[$€£¥]?-?(?:(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?|\.\d+)%?$")
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


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
    tokens = text.lower().split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
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
            stripped = token.translate(_PUNCT_TABLE)
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


def _numeric_span(value: Fraction, precision: int) -> _Normalized:
    """`_normalize` of the rendered value, rendering and parsing it once."""
    rendered = render_decimal(value, precision)
    number = decimal_value(rendered)
    if number is None:
        return _normalize(rendered, precision)  # too long to be a numeral: text
    return _Normalized(rendered, [rendered], number)


Spans = Union[str, Sequence[str]]


def _as_spans(side: Spans) -> list[str]:
    if isinstance(side, str):
        return [side]
    return [str(s) for s in side]


def _answer_spans(answer: CanonicalAnswer | None, config: EvalConfig) -> list[_Normalized]:
    if answer is None:
        return []
    if isinstance(answer, NumericAnswer):
        return [_numeric_span(answer.value, config.render_precision)]
    return [_normalize(s, config.render_precision) for s in answer.text_spans(config)]


def _em_comparable(pred: CanonicalAnswer | None, pred_scale: str, gold: GoldTurnAnswer) -> bool:
    return pred is not None and gold.req_clari == isinstance(pred, ClarifyAnswer) and pred_scale == gold.scale


def _same_spans(pred: list[_Normalized], gold: list[_Normalized]) -> int:
    if len(pred) == 1 and len(gold) == 1:
        return int(pred[0].em == gold[0].em)
    return int(Counter(p.em for p in pred) == Counter(g.em for g in gold))


def _bag_f1(pred_tokens: Counter, gold_tokens: Counter) -> float:
    overlap = sum((pred_tokens & gold_tokens).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred_tokens.values())
    recall = overlap / sum(gold_tokens.values())
    return 2 * precision * recall / (precision + recall)


def _pair_f1(pred: _Normalized, gold: _Normalized) -> float:
    if pred.number is None and gold.number is None:
        if pred.tokens == gold.tokens:
            return 1.0
        return _bag_f1(Counter(pred.tokens), Counter(gold.tokens))
    if pred.number is None or gold.number is None:
        return 0.0
    # Equal within NUMERIC_TOLERANCE, or rendered alike: the tokens are the renderings.
    if pred.tokens == gold.tokens or abs(pred.number - gold.number) <= NUMERIC_TOLERANCE:
        return 1.0
    return 0.0


def numeracy_f1(pred: Spans, gold: Spans, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Numeracy-focused token F1.

    A numeric side that disagrees with the other side scores zero. Multi-span
    answers pair greedily one-to-one: the highest-scoring free pair first,
    ties to the lowest indices, and the sum is divided by
    max(len(pred), len(gold)). Greedy pairing can miss the pairing with the
    highest mean F1; ROADMAP.md tracks that under "Score multi-span answers
    with the optimal pairing".
    """
    precision = config.render_precision
    return _greedy_f1(
        [_normalize(s, precision) for s in _as_spans(pred)],
        [_normalize(s, precision) for s in _as_spans(gold)],
    )


def _greedy_f1(pred_list: list[_Normalized], gold_list: list[_Normalized]) -> float:
    if not pred_list and not gold_list:
        return 1.0
    if not pred_list or not gold_list:
        return 0.0
    if len(pred_list) == 1 and len(gold_list) == 1:
        return _pair_f1(pred_list[0], gold_list[0])
    matrix = [[_pair_f1(p, g) for g in gold_list] for p in pred_list]
    free_pred = set(range(len(pred_list)))
    free_gold = set(range(len(gold_list)))
    total = 0.0
    while free_pred and free_gold:
        best = max(
            ((matrix[i][j], -i, -j) for i in free_pred for j in free_gold),
        )
        score, i, j = best[0], -best[1], -best[2]
        total += score
        free_pred.remove(i)
        free_gold.remove(j)
    return total / max(len(pred_list), len(gold_list))


def _bigrams(text: str) -> Counter:
    tokens = text.lower().split()
    return Counter(zip(tokens, tokens[1:]))


def rouge2_f1(pred: str, gold: str) -> float:
    pred_grams, gold_grams = _bigrams(pred), _bigrams(gold)
    overlap = sum((pred_grams & gold_grams).values())
    n_pred, n_gold = sum(pred_grams.values()), sum(gold_grams.values())
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if n_pred == 0 or n_gold == 0 or overlap == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / n_gold
    return 2 * precision * recall / (precision + recall)


def classification_prf(preds: Sequence[bool], golds: Sequence[bool]) -> tuple[float, float, float]:
    """Precision/recall/F1 with "needs clarification" as the positive class."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    tp = sum(1 for p, g in zip(preds, golds) if p and g)
    fp = sum(1 for p, g in zip(preds, golds) if p and not g)
    fn = sum(1 for p, g in zip(preds, golds) if not p and g)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class PredictionRecord:
    turn_id: str
    predicted: CanonicalAnswer | None
    predicted_scale: str
    gold: GoldTurnAnswer

    @property
    def clarification_pred(self) -> bool:
        return isinstance(self.predicted, ClarifyAnswer)


def record_scores(record: PredictionRecord, config: EvalConfig = DEFAULT_CONFIG) -> tuple[int, float]:
    """(EM, F1) of one turn, normalizing each span once for both.

    EM is 1 iff the normalized spans are equal as multisets. Clarification
    questions only ever match clarification predictions, and the scale
    strings must match exactly for every answer type.
    """
    pred = _answer_spans(record.predicted, config)
    gold = _answer_spans(record.gold.canonical, config)
    comparable = _em_comparable(record.predicted, record.predicted_scale, record.gold)
    return (_same_spans(pred, gold) if comparable else 0), _greedy_f1(pred, gold)


ScoredRecord = tuple[PredictionRecord, int, float]


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
        type_rows = ["Span", "Spans", "Counting", "Arithmetic", "Question", "Total"]
        source_cols = ["Table", "Text", "Table-text", "Total"]
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


def aggregate_report(
    per_record: Sequence[ScoredRecord], config: EvalConfig = DEFAULT_CONFIG
) -> MetricReport:
    """Assemble the full report from each record and its `record_scores`.

    Clarifying gold turns contribute the CQG block, the rest the CQA block,
    and all of them the pooled overall EM/F1 and the type-by-source grid.
    """
    if not per_record:
        raise EmptyRecordSet("no prediction records to aggregate")
    records = [r for r, _, _ in per_record]
    overall_em = sum(em for _, em, _ in per_record) / len(per_record)
    overall_f1 = sum(f1 for _, _, f1 in per_record) / len(per_record)
    cnp_p, cnp_r, cnp_f = classification_prf(
        [r.clarification_pred for r in records], [r.gold.req_clari for r in records]
    )
    clarifying = [r for r in records if r.gold.req_clari]
    answering = [(r, em, f1) for r, em, f1 in per_record if not r.gold.req_clari]
    cqg_rouge = cqg_em = cqg_f1 = None
    if clarifying:
        rouge_scores = []
        em_scores = []
        f1_scores = []
        for r in clarifying:
            pred_text = r.predicted.text(config) if r.predicted else ""
            gold_text = r.gold.clarification_question
            rouge_scores.append(rouge2_f1(pred_text, gold_text))
            em_scores.append(
                 1.0
                 if normalize_answer_text(pred_text) == normalize_answer_text(gold_text)
                 and pred_text
                 else 0.0
            )
            f1_scores.append(numeracy_f1(pred_text, gold_text, config))
        cqg_rouge = sum(rouge_scores) / len(rouge_scores)
        cqg_em = sum(em_scores) / len(em_scores)
        cqg_f1 = sum(f1_scores) / len(f1_scores)
    cqa_em = cqa_f1 = None
    if answering:
        cqa_em = sum(em for _, em, _ in answering) / len(answering)
        cqa_f1 = sum(f1 for _, _, f1 in answering) / len(answering)
    grid: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for r, em, f1 in per_record:
        key = (_TYPE_LABELS[r.gold.answer_type], _SOURCE_LABELS[r.gold.source])
        grid.setdefault(key, []).append((em, f1))
    breakdown = {
        key: CellScore(
            count=len(scores),
            em=sum(em for em, _ in scores) / len(scores),
            f1=sum(f1 for _, f1 in scores) / len(scores),
        )
        for key, scores in grid.items()
    }
    return MetricReport(
        records=len(records),
        overall_em=overall_em,
        overall_f1=overall_f1,
        cnp_precision=cnp_p,
        cnp_recall=cnp_r,
        cnp_f1=cnp_f,
        cqg_count=len(clarifying),
        cqg_rouge2=cqg_rouge,
        cqg_em=cqg_em,
        cqg_token_f1=cqg_f1,
        cqa_count=len(answering),
        cqa_em=cqa_em,
        cqa_f1=cqa_f1,
        breakdown=breakdown,
    )
