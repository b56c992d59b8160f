"""Corpus loading, validation, statistics, and gold target compilation.

On-disk schema (JSON, documented here and in the README): a top-level list
of blocks, one per dialogue:

    {
      "table":      {"uid": "...", "cells": [["Year", "2018", "2019"], ...]},
      "paragraphs": [{"uid": "...", "order": 1, "text": "..."}],
      "questions":  [{"uid": "...", "order": 1, "question": "...",
                      "answer": ... , "answer_type": "span|multi-span|count|arithmetic|clarification",
                      "answer_from": "table|text|table-text",
                      "derivation": "...", "scale": "",
                      "req_clari": false, "clari_question": ""}]
    }

A block may give "doc_uid" instead of "table"/"paragraphs" to attach a
dialogue to a document defined by an earlier block. Unknown fields are
ignored. Ragged table rows are right-padded at load time.

`load_release_file` is a schema-migration shim for the public source
dataset release (one file per split, same block structure but with the
table grid under "table"."table" and clarification turns marked by a
"req_clari" flag); it is the only place that should change if that
release's field names differ.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from .derivation import (
    DEFAULT_CONFIG,
    CanonicalAnswer,
    ClarifyAnswer,
    DerivationError,
    EvalConfig,
    NumericAnswer,
    SpanSetAnswer,
    StringList,
    UnreconstructibleDerivation,
    execute_source,
    parse_source,
    render,
)
from .linearize import (
    ConversationHistory,
    HybridDocument,
    LinearizeError,
    Task,
    build_model_input,
    check_no_markers,
    format_target,
    normalize_whitespace,
)

logger = logging.getLogger(__name__)

ANSWER_TYPES = ("span", "multi-span", "count", "arithmetic", "clarification")
SOURCES = ("table", "text", "table-text")
SCALES = ("", "thousand", "million", "billion", "percent")

# A gold number is a decimal numeral. Exponent notation is not one: "1e5000"
# would build a 5,001-digit number too long for int/str conversion to render.
_DECIMAL = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)")


class CorpusError(Exception):
    pass


class SchemaError(CorpusError):
    def __init__(self, location: str, detail: str):
        super().__init__(f"{location}: {detail}")
        self.location = location
        self.detail = detail


class InvariantViolation(CorpusError):
    def __init__(self, where: str, rule: str):
        super().__init__(f"{where}: {rule}")
        self.where = where
        self.rule = rule


@dataclass(frozen=True)
class GoldTurnAnswer:
    """Gold annotation for one turn.

    `canonical` is the annotation compiled once, at construction, to the
    answer type that executing a prediction yields, so scoring compares
    like with like and never re-parses the gold answer.
    """

    answer_type: str
    answer: Any  # str, number, or list of span strings
    derivation: str
    scale: str
    source: str
    req_clari: bool
    clarification_question: str
    canonical: CanonicalAnswer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.req_clari:
            canonical = ClarifyAnswer(self.clarification_question)
        elif self.answer_type not in ("arithmetic", "count"):
            canonical = SpanSetAnswer(tuple(self.span_values()))
        elif (value := self.numeric_value()) is not None:
            canonical = NumericAnswer(value)
        else:
            canonical = SpanSetAnswer((normalize_whitespace(str(self.answer)),))
        object.__setattr__(self, "canonical", canonical)

    def span_values(self) -> list[str]:
        if isinstance(self.answer, list):
            return [normalize_whitespace(str(a)) for a in self.answer]
        return [normalize_whitespace(str(self.answer))]

    def numeric_value(self) -> Fraction | None:
        """The gold answer as an exact rational, when it is a decimal numeral."""
        text = str(self.answer).strip().replace(",", "")
        return Fraction(text) if _DECIMAL.fullmatch(text) else None

    def count_items(self) -> list[str]:
        """Enumerated items behind a counting answer.

        Taken from a list-valued answer when present, otherwise from the
        derivation, split on "##" (release style) or on commas.
        """
        if isinstance(self.answer, list):
            return [normalize_whitespace(str(a)) for a in self.answer]
        text = self.derivation
        sep = "##" if "##" in text else ","
        items = [normalize_whitespace(part) for part in text.split(sep)]
        return [item for item in items if item]

    def response_text(self, config: EvalConfig = DEFAULT_CONFIG) -> str:
        """The gold response as shown to the user (used for gold history).

        A clarifying question is said without the turn's scale word.
        """
        text = self.canonical.text(config)
        return f"{text} {self.scale}" if self.scale and not self.req_clari else text


@dataclass(frozen=True)
class DialogueTurn:
    turn_id: str
    order: int
    question: str
    gold: GoldTurnAnswer


@dataclass(frozen=True)
class Dialogue:
    dialogue_id: str
    doc_uid: str
    turns: tuple[DialogueTurn, ...]


@dataclass(frozen=True)
class Corpus:
    documents: dict[str, HybridDocument]
    dialogues: tuple[Dialogue, ...]
    split: str = ""

    def turn_index(self) -> dict[str, tuple[Dialogue, DialogueTurn]]:
        return {
            turn.turn_id: (dialogue, turn)
            for dialogue in self.dialogues
            for turn in dialogue.turns
        }

    def turn_count(self) -> int:
        return sum(len(d.turns) for d in self.dialogues)


def load_corpus(path: str | Path, split: str = "") -> Corpus:
    """Load and fully validate a corpus file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise SchemaError(str(path), f"cannot read corpus JSON: {err}") from err
    return corpus_from_obj(raw, split=split, location=str(path))


def corpus_from_obj(raw: Any, split: str = "", location: str = "<memory>") -> Corpus:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(location, "corpus must be a non-empty list of dialogue blocks")
    documents: dict[str, HybridDocument] = {}
    dialogues: list[Dialogue] = []
    seen_dialogue_ids: set[str] = set()
    for i, block in enumerate(raw):
        where = f"{location}[{i}]"
        if not isinstance(block, dict):
            raise SchemaError(where, "dialogue block must be an object")
        doc_uid = _load_block_document(block, where, documents)
        dialogue = _load_block_dialogue(block, where, doc_uid, documents)
        if dialogue.dialogue_id in seen_dialogue_ids:
            raise InvariantViolation(dialogue.dialogue_id, "duplicate dialogue id")
        seen_dialogue_ids.add(dialogue.dialogue_id)
        dialogues.append(dialogue)
    return Corpus(documents=documents, dialogues=tuple(dialogues), split=split)


def _load_block_document(block: dict, where: str, documents: dict[str, HybridDocument]) -> str:
    table = block.get("table")
    if table is None:
        doc_uid = block.get("doc_uid")
        if not doc_uid:
            raise SchemaError(where, "block needs either a table or a doc_uid reference")
        if doc_uid not in documents:
            raise InvariantViolation(where, f"dialogue references missing document {doc_uid!r}")
        return doc_uid
    if not isinstance(table, dict) or "uid" not in table or "cells" not in table:
        raise SchemaError(where, "table must be an object with uid and cells")
    uid = str(table["uid"])
    cells = table["cells"]
    if not isinstance(cells, list) or not all(isinstance(row, list) for row in cells):
        raise SchemaError(f"{where}.table", "cells must be a list of rows")
    paragraphs = block.get("paragraphs", [])
    if not isinstance(paragraphs, list):
        raise SchemaError(f"{where}.paragraphs", "paragraphs must be a list")
    if not all(isinstance(p, dict) and "text" in p for p in paragraphs):
        raise SchemaError(f"{where}.paragraphs", "each paragraph needs a text field")
    texts = [str(p["text"]) for p in _by_order(paragraphs, f"{where}.paragraphs")]
    try:
        doc = HybridDocument.from_raw(uid, texts, cells)
    except (ValueError, LinearizeError) as err:
        raise InvariantViolation(uid, str(err)) from err
    if uid in documents:
        raise InvariantViolation(uid, "duplicate document uid")
    documents[uid] = doc
    return uid


def _load_block_dialogue(
    block: dict, where: str, doc_uid: str, documents: dict[str, HybridDocument]
) -> Dialogue:
    questions = block.get("questions")
    if not isinstance(questions, list) or not questions:
        raise SchemaError(where, "block must carry a non-empty questions list")
    dialogue_id = str(block.get("uid") or doc_uid)
    turns: list[DialogueTurn] = []
    for j, q in enumerate(questions):
        if not isinstance(q, dict):
            raise SchemaError(f"{where}.questions[{j}]", "question must be an object")
    for j, q in enumerate(_by_order(questions, f"{where}.questions")):
        qwhere = f"{where}.questions[{j}]"
        for key in ("uid", "order", "question", "answer", "answer_type", "answer_from"):
            if key not in q:
                raise SchemaError(qwhere, f"missing field {key!r}")
        turn_id = str(q["uid"])
        order = q["order"]
        if order != j + 1:
            raise InvariantViolation(turn_id, f"turn order must be contiguous from 1, got {order}")
        answer_type = q["answer_type"]
        if answer_type not in ANSWER_TYPES:
            raise InvariantViolation(turn_id, f"unknown answer_type {answer_type!r}")
        source = q["answer_from"]
        if source not in SOURCES:
            raise InvariantViolation(turn_id, f"unknown answer_from {source!r}")
        scale = str(q.get("scale", ""))
        if scale not in SCALES:
            raise InvariantViolation(turn_id, f"unknown scale {scale!r}")
        req_clari = bool(q.get("req_clari", False))
        if req_clari != (answer_type == "clarification"):
            raise InvariantViolation(turn_id, "req_clari and answer_type=clarification must agree")
        clari_question = normalize_whitespace(str(q.get("clari_question", "")))
        if req_clari and not clari_question:
            raise InvariantViolation(turn_id, "clarifying turn needs a clarification question")
        derivation = normalize_whitespace(str(q.get("derivation", "")))
        if answer_type == "arithmetic" and not derivation:
            raise InvariantViolation(turn_id, "arithmetic turn needs a derivation")
        answer = q["answer"]
        if isinstance(answer, list):
            answer = [normalize_whitespace(str(a)) for a in answer]
        elif isinstance(answer, str):
            answer = normalize_whitespace(answer)
        question_text = normalize_whitespace(str(q["question"]))
        if not question_text:
            raise InvariantViolation(turn_id, "empty question")
        gold = GoldTurnAnswer(
            answer_type=answer_type,
            answer=answer,
            derivation=derivation,
            scale=scale,
            source=source,
            req_clari=req_clari,
            clarification_question=clari_question,
        )
        try:
            check_no_markers(question_text)
            check_no_markers(gold.response_text())
        except LinearizeError as err:
            raise InvariantViolation(turn_id, str(err)) from err
        turns.append(DialogueTurn(turn_id=turn_id, order=order, question=question_text, gold=gold))
    if doc_uid not in documents:
        raise InvariantViolation(dialogue_id, f"dialogue references missing document {doc_uid!r}")
    return Dialogue(dialogue_id=dialogue_id, doc_uid=doc_uid, turns=tuple(turns))


def _by_order(entries: list[dict], where: str) -> list[dict]:
    try:
        return sorted(entries, key=lambda e: e.get("order", 0))
    except TypeError as err:
        raise SchemaError(where, f"order values cannot be compared: {err}") from err


@dataclass(frozen=True)
class CorpusStats:
    dialogues: int
    turns: int
    clarifying_turns: int
    avg_turns_per_dialogue: float
    avg_words_per_question: float
    avg_words_per_answer: float
    by_type_source: dict[tuple[str, str], int]

    def type_total(self, answer_type: str) -> int:
        return sum(v for (t, _), v in self.by_type_source.items() if t == answer_type)

    def source_total(self, source: str) -> int:
        return sum(v for (_, s), v in self.by_type_source.items() if s == source)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Deterministic counts; words are whitespace tokens."""
    turns = [turn for d in corpus.dialogues for turn in d.turns]
    grid: dict[tuple[str, str], int] = {}
    q_words = 0
    a_words = 0
    clarifying = 0
    for turn in turns:
        gold = turn.gold
        grid[(gold.answer_type, gold.source)] = grid.get((gold.answer_type, gold.source), 0) + 1
        q_words += len(turn.question.split())
        a_words += len(gold.response_text().split())
        if gold.req_clari:
            clarifying += 1
    n = len(turns)
    return CorpusStats(
        dialogues=len(corpus.dialogues),
        turns=n,
        clarifying_turns=clarifying,
        avg_turns_per_dialogue=n / len(corpus.dialogues),
        avg_words_per_question=q_words / n,
        avg_words_per_answer=a_words / n,
        by_type_source=grid,
    )


def reconstruct_code(gold: GoldTurnAnswer) -> str:
    """Rebuild the executable target payload from a gold annotation.

    arithmetic -> normalized derivation source; count -> len() over the
    enumerated items; span/multi-span -> string-list literal; clarification
    -> single-item string-list literal with the question.
    """
    if gold.req_clari:
        return render(StringList((gold.clarification_question,)))
    if gold.answer_type == "arithmetic":
        try:
            return render(parse_source(gold.derivation))
        except DerivationError as err:
            raise UnreconstructibleDerivation(
                f"derivation {gold.derivation!r}: {err}"
            ) from err
    if gold.answer_type == "count":
        items = gold.count_items()
        if not items:
            raise UnreconstructibleDerivation("count turn without enumerable items")
        return "len(" + render(StringList(tuple(items))) + ")"
    spans = gold.span_values()
    if not spans or any(not s for s in spans):
        raise UnreconstructibleDerivation("span turn without span text")
    try:
        return render(StringList(tuple(spans)))
    except DerivationError as err:
        raise UnreconstructibleDerivation(str(err)) from err


@dataclass(frozen=True)
class Example:
    """One Seq2Seq training/eval example."""

    turn_id: str
    dialogue_id: str
    input_text: str
    target_text: str
    answer_type: str
    clarification: bool


def build_examples(corpus: Corpus, task: Task, config: EvalConfig = DEFAULT_CONFIG) -> list[Example]:
    """Compile (input, target) pairs with gold-history teacher forcing.

    CQG examples cover only clarifying turns and CQA only non-clarifying
    ones; CNP and MultiTask cover every turn. Turns whose gold cannot be
    reconstructed into the derivation language are skipped and logged.
    """
    examples: list[Example] = []
    for dialogue in corpus.dialogues:
        doc = corpus.documents[dialogue.doc_uid]
        queries: list[str] = []
        responses: list[str] = []
        for turn in dialogue.turns:
            queries.append(turn.question)
            clarifying = turn.gold.req_clari
            skip = (task is Task.CQG and not clarifying) or (task is Task.CQA and clarifying)
            if not skip:
                try:
                    payload = "" if task is Task.CNP else reconstruct_code(turn.gold)
                    target = format_target(task, clarifying, payload)
                    history = ConversationHistory.from_turns(queries, responses)
                    examples.append(
                        Example(
                            turn_id=turn.turn_id,
                            dialogue_id=dialogue.dialogue_id,
                            input_text=build_model_input(doc, history),
                            target_text=target,
                            answer_type=turn.gold.answer_type,
                            clarification=clarifying,
                        )
                    )
                except (UnreconstructibleDerivation, LinearizeError) as err:
                    logger.warning("skipping turn %s: %s", turn.turn_id, err)
            responses.append(turn.gold.response_text(config))
    return examples


@dataclass(frozen=True)
class Finding:
    kind: str
    where: str
    detail: str


@dataclass(frozen=True)
class CorpusExpectations:
    """Expected statistics to diff against (absent fields are not checked).

    Averages compare after rounding to one decimal, matching how they are
    conventionally reported.
    """

    dialogues: int | None = None
    turns: int | None = None
    clarifying_turns: int | None = None
    avg_turns_per_dialogue: float | None = None
    avg_words_per_question: float | None = None
    avg_words_per_answer: float | None = None
    by_type: dict[str, int] = field(default_factory=dict)
    by_source: dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_obj(cls, raw: dict) -> "CorpusExpectations":
        """Read an expectations object; the key "total_questions" stands for turns."""
        if not isinstance(raw, dict):
            raise SchemaError("expectations", "expected statistics must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        fields = {k: v for k, v in raw.items() if k in known}
        if "turns" not in fields and "total_questions" in raw:
            fields["turns"] = raw["total_questions"]
        return cls(**fields)


@dataclass
class ValidationReport:
    stats: CorpusStats
    findings: list[Finding]
    arithmetic_turns: int
    validated_arithmetic_turns: int

    @property
    def passed(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "stats": {
                "dialogues": self.stats.dialogues,
                "turns": self.stats.turns,
                "clarifying_turns": self.stats.clarifying_turns,
                "avg_turns_per_dialogue": round(self.stats.avg_turns_per_dialogue, 1),
                "avg_words_per_question": round(self.stats.avg_words_per_question, 1),
                "avg_words_per_answer": round(self.stats.avg_words_per_answer, 1),
                "by_type_source": {
                    f"{t}/{s}": v for (t, s), v in sorted(self.stats.by_type_source.items())
                },
            },
            "arithmetic_turns": self.arithmetic_turns,
            "validated_arithmetic_turns": self.validated_arithmetic_turns,
            "findings": [
                {"kind": f.kind, "where": f.where, "detail": f.detail} for f in self.findings
            ],
        }


def validate_corpus(
    corpus: Corpus,
    expected: CorpusExpectations | None = None,
    config: EvalConfig = DEFAULT_CONFIG,
) -> ValidationReport:
    """Re-check invariants, execute reconstructed arithmetic targets, diff stats.

    Every arithmetic turn's reconstructed code is executed and compared to
    the gold answer at rendered precision; mismatches are reported, never
    raised.
    """
    findings: list[Finding] = []
    arithmetic = 0
    validated = 0
    for dialogue in corpus.dialogues:
        for turn in dialogue.turns:
            gold = turn.gold
            if gold.answer_type != "arithmetic":
                continue
            arithmetic += 1
            try:
                answer = execute_source(reconstruct_code(gold))
            except DerivationError as err:
                findings.append(Finding("UnreconstructibleDerivation", turn.turn_id, str(err)))
                continue
            if not isinstance(gold.canonical, NumericAnswer):
                findings.append(
                    Finding("ExecutionMismatch", turn.turn_id, "gold answer is not numeric")
                )
                continue
            executed = answer.text(config)
            rendered_gold = gold.canonical.rendered(config)
            if executed != rendered_gold:
                findings.append(
                    Finding(
                        "ExecutionMismatch",
                        turn.turn_id,
                        f"derivation executes to {executed}, gold is {rendered_gold}",
                    )
                )
            else:
                validated += 1
    stats = corpus_stats(corpus)
    if expected is not None:
        findings.extend(_diff_stats(stats, expected))
    return ValidationReport(
        stats=stats,
        findings=findings,
        arithmetic_turns=arithmetic,
        validated_arithmetic_turns=validated,
    )


def _diff_stats(stats: CorpusStats, expected: CorpusExpectations) -> list[Finding]:
    findings = []

    def check(name: str, actual, want, round_to: int | None = None):
        if want is None:
            return
        shown = round(actual, round_to) if round_to is not None else actual
        if shown != want:
            findings.append(Finding("StatMismatch", name, f"expected {want}, got {shown}"))

    check("dialogues", stats.dialogues, expected.dialogues)
    check("turns", stats.turns, expected.turns)
    check("clarifying_turns", stats.clarifying_turns, expected.clarifying_turns)
    check("avg_turns_per_dialogue", stats.avg_turns_per_dialogue, expected.avg_turns_per_dialogue, 1)
    check("avg_words_per_question", stats.avg_words_per_question, expected.avg_words_per_question, 1)
    check("avg_words_per_answer", stats.avg_words_per_answer, expected.avg_words_per_answer, 1)
    for answer_type, want in expected.by_type.items():
        check(f"by_type[{answer_type}]", stats.type_total(answer_type), want)
    for source, want in expected.by_source.items():
        check(f"by_source[{source}]", stats.source_total(source), want)
    return findings


def load_release_file(path: str | Path, split: str = "") -> Corpus:
    """Schema-migration shim for the public source-dataset release format.

    Maps blocks shaped like {"table": {"uid", "table": [[...]]},
    "paragraphs": [...], "questions": [...]} into the schema documented at
    the top of this module. Clarifying turns are recognized by a truthy
    "req_clari" field or an explicit "clarification" answer type.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        raise SchemaError(str(path), f"cannot read release JSON: {err}") from err
    if not isinstance(raw, list):
        raise SchemaError(str(path), "release file must be a list of blocks")
    blocks = []
    for i, item in enumerate(raw):
        where = f"{path}[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(where, "release block must be an object")
        table = item.get("table", {})
        if not isinstance(table, dict):
            raise SchemaError(f"{where}.table", "table must be an object")
        cells = table.get("table", table.get("cells", []))
        release_questions = item.get("questions", [])
        if not isinstance(release_questions, list) or not all(
            isinstance(q, dict) for q in release_questions
        ):
            raise SchemaError(f"{where}.questions", "questions must be a list of objects")
        questions = []
        for j, q in enumerate(release_questions):
            req_clari = bool(q.get("req_clari", False)) or q.get("answer_type") == "clarification"
            questions.append(
                {
                    "uid": q.get("uid", f"{table.get('uid', i)}-q{j + 1}"),
                    "order": q.get("order", j + 1),
                    "question": q.get("question", ""),
                    "answer": q.get("answer", ""),
                    "answer_type": "clarification" if req_clari else q.get("answer_type", "span"),
                    "answer_from": q.get("answer_from", "table-text"),
                    "derivation": q.get("derivation", ""),
                    "scale": q.get("scale", ""),
                    "req_clari": req_clari,
                    "clari_question": q.get("clari_question", q.get("answer", "") if req_clari else ""),
                }
            )
        blocks.append(
            {
                "table": {"uid": table.get("uid", f"doc-{i}"), "cells": cells},
                "paragraphs": item.get("paragraphs", []),
                "questions": questions,
            }
        )
    return corpus_from_obj(blocks, split=split, location=str(path))
