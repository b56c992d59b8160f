"""Evaluation metrics: exact match, numeracy-focused F1, ROUGE, and reports.

Predictions and gold answers are the same canonical answer types
(`pcqa.derivation`) and are compared through their text spans, rendered at
the configured precision. Normalization has two flavors. Exact match keeps
currency/percent symbols attached to numerals (so "148,502" against
"$148,502" is an EM miss), while the token-F1 side strips them (so the same
pair keeps a high F1). A numeric mismatch zeroes the pair F1 outright.
`record_scores` scores one turn; `aggregate_report` sums those per-turn
scores and never recomputes them.
"""

from __future__ import annotations

import re
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .corpus import GoldTurnAnswer
from .derivation import (
    DEFAULT_CONFIG,
    CanonicalAnswer,
    ClarifyAnswer,
    EvalConfig,
    normalize_answer_text,
    numbers_equal,
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
_NUMERAL = re.compile(
    r"^(?P<prefix>[$€£¥]?)-?(\d{1,3}(,\d{3})+|\d+)?(\.\d+)?(?P<suffix>%?)$"
)
_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def parse_numeral(token: str) -> tuple[Fraction, str, str] | None:
    """Parse one numeral token; returns (value, currency prefix, percent suffix)."""
    token = token.strip()
    if not token or not any(ch.isdigit() for ch in token):
        return None
    if not _NUMERAL.match(token):
        return None
    prefix = token[0] if token[0] in _CURRENCY else ""
    body = token[len(prefix) :]
    suffix = "%" if body.endswith("%") else ""
    if suffix:
        body = body[:-1]
    try:
        value = Fraction(body.replace(",", ""))
    except (ValueError, ZeroDivisionError):
        return None
    return value, prefix, suffix


def plain_number(text: str) -> Fraction | None:
    """The numeric value of a whole answer side, ignoring currency/percent marks."""
    parsed = parse_numeral(text.strip())
    return parsed[0] if parsed else None


def normalize_for_match(text: str, precision: int, keep_symbols: bool) -> str:
    """Shared normalization pipeline for EM and token F1.

    Lowercase, drop leading articles, canonicalize numerals at the given
    precision, strip punctuation from non-numeral tokens, collapse spaces.
    """
    tokens = text.lower().split()
    while tokens and tokens[0] in _ARTICLES:
        tokens.pop(0)
    out = []
    for token in tokens:
        parsed = parse_numeral(token)
        if parsed is not None:
            value, prefix, suffix = parsed
            rendered = render_decimal(value, precision)
            out.append(prefix + rendered + suffix if keep_symbols else rendered)
        else:
            stripped = token.translate(_PUNCT_TABLE)
            if stripped:
                out.append(stripped)
    return " ".join(out)


Spans = Union[str, Sequence[str]]


def _as_spans(side: Spans) -> list[str]:
    if isinstance(side, str):
        return [side]
    return [str(s) for s in side]


def exact_match(
    pred: CanonicalAnswer | None,
    pred_scale: str,
    gold: GoldTurnAnswer,
    config: EvalConfig = DEFAULT_CONFIG,
) -> int:
    """1 iff the normalized prediction equals the normalized gold answer.

    Clarification questions only ever match clarification predictions;
    span sets compare as normalized multisets; the scale strings must match
    exactly for every answer type.
    """
    if pred is None:
        return 0
    if gold.req_clari != isinstance(pred, ClarifyAnswer):
        return 0
    if pred_scale != gold.scale:
        return 0
    precision = config.render_precision
    pred_norm = [normalize_for_match(s, precision, keep_symbols=True) for s in pred.text_spans(config)]
    gold_norm = [normalize_for_match(s, precision, keep_symbols=True) for s in gold.canonical.text_spans(config)]
    return int(Counter(pred_norm) == Counter(gold_norm))


def _bag_f1(pred_tokens: Counter, gold_tokens: Counter) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = sum((pred_tokens & gold_tokens).values())
    if overlap == 0:
        return 0.0
    precision = overlap / sum(pred_tokens.values())
    recall = overlap / sum(gold_tokens.values())
    return 2 * precision * recall / (precision + recall)


def _pair_f1(pred: str, gold: str, config: EvalConfig) -> float:
    pred_norm = normalize_for_match(pred, config.render_precision, keep_symbols=False)
    gold_norm = normalize_for_match(gold, config.render_precision, keep_symbols=False)
    pred_num = plain_number(pred_norm)
    gold_num = plain_number(gold_norm)
    if pred_num is not None or gold_num is not None:
        if pred_num is not None and gold_num is not None and numbers_equal(pred_num, gold_num, config):
            return 1.0
        return 0.0
    return _bag_f1(Counter(pred_norm.split()), Counter(gold_norm.split()))


def numeracy_f1(pred: Spans, gold: Spans, config: EvalConfig = DEFAULT_CONFIG) -> float:
    """Numeracy-focused token F1.

    A numeric side that disagrees with the other side scores zero. Multi-span
    answers align greedily one-to-one, maximizing the mean pairwise F1 over
    max(len(pred), len(gold)) slots.
    """
    pred_list = _as_spans(pred)
    gold_list = _as_spans(gold)
    if not pred_list and not gold_list:
        return 1.0
    if not pred_list or not gold_list:
        return 0.0
    matrix = [[_pair_f1(p, g, config) for g in gold_list] for p in pred_list]
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


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _rouge_counts(pred: str, gold: str, n: int) -> tuple[int, int, int]:
    pred_grams = _ngrams(pred.lower().split(), n)
    gold_grams = _ngrams(gold.lower().split(), n)
    overlap = sum((pred_grams & gold_grams).values())
    return overlap, sum(pred_grams.values()), sum(gold_grams.values())


def rouge2_f1(pred: str, gold: str) -> float:
    overlap, n_pred, n_gold = _rouge_counts(pred, gold, 2)
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if n_pred == 0 or n_gold == 0 or overlap == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / n_gold
    return 2 * precision * recall / (precision + recall)


def rouge1_recall(pred: str, gold: str) -> float:
    overlap, n_pred, n_gold = _rouge_counts(pred, gold, 1)
    if n_gold == 0:
        return 1.0 if n_pred == 0 else 0.0
    return overlap / n_gold


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
    clarification_pred: bool

    @property
    def clarification_gold(self) -> bool:
        return self.gold.req_clari


def record_scores(record: PredictionRecord, config: EvalConfig = DEFAULT_CONFIG) -> tuple[int, float]:
    """(EM, F1) of one turn."""
    em = exact_match(record.predicted, record.predicted_scale, record.gold, config)
    pred_spans = record.predicted.text_spans(config) if record.predicted else []
    f1 = numeracy_f1(pred_spans, record.gold.canonical.text_spans(config), config)
    return em, f1


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
        [r.clarification_pred for r in records], [r.clarification_gold for r in records]
    )
    clarifying = [r for r in records if r.clarification_gold]
    answering = [(r, em, f1) for r, em, f1 in per_record if not r.clarification_gold]
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
