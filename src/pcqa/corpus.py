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

`load_release_file` reads the public source dataset release (one file per
split) through a key mapping, the only place to change if that release's
field names differ. It renames "table"."table" to "cells"; a question with
a truthy "req_clari" or answer_type "clarification" gets req_clari true,
answer_type "clarification" and a clari_question that, when absent or null,
falls back to its answer; and, as a trait of the release, a question
without "order" takes its position in the file. Every other field passes
through unchanged.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from .derivation import (
    DEFAULT_PRECISION,
    CanonicalAnswer,
    ClarifyAnswer,
    DerivationError,
    NumericAnswer,
    SpanSetAnswer,
    UnreconstructibleDerivation,
    canonical_source,
    decimal_value,
    execute_source,
    render_list,
)
from .linearize import (
    HybridDocument,
    LinearizeError,
    Task,
    add_response,
    build_model_input,
    check_no_markers,
    format_target,
    linearize_document,
    normalize_whitespace,
)

logger = logging.getLogger(__name__)

ANSWER_TYPES = ("span", "multi-span", "count", "arithmetic", "clarification")
SOURCES = ("table", "text", "table-text")
SCALES = ("", "thousand", "million", "billion", "percent")


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


@dataclass(frozen=True, slots=True)
class GoldTurnAnswer:
    """Gold annotation for one turn.

    `canonical` is the annotation compiled once, at construction, to the
    answer type that executing a prediction yields, so scoring compares
    like with like and never re-parses the gold answer.
    """

    answer_type: str
    answer: Any  # str, number, or list of span strings; whitespace-normalized
    derivation: str
    scale: str
    source: str
    req_clari: bool
    clarification_question: str
    canonical: CanonicalAnswer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        answer = self.answer
        # The answer, or each item of a list answer, is a string or a number,
        # and a bool is no number.
        if isinstance(answer, list) and any(type(a) not in (str, int, float) for a in answer):
            raise ValueError(f"each answer list item must be a string or a number, got {answer!r}")
        if type(answer) not in (list, str, int, float):
            raise ValueError(f"answer must be a string, a number or a list of them, got {answer!r}")
        if isinstance(answer, list) and self.answer_type == "arithmetic":
            if len(answer) != 1:
                raise ValueError("an arithmetic answer list needs one item")
            answer = answer[0]
        if isinstance(answer, list):
            answer = [normalize_whitespace(str(a)) for a in answer]
        elif isinstance(answer, str):
            answer = normalize_whitespace(answer)
        object.__setattr__(self, "answer", answer)
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
        """The answer's spans; a str or list answer was normalized at construction."""
        answer = self.answer
        if isinstance(answer, list):
            return list(answer)
        return [answer if isinstance(answer, str) else normalize_whitespace(str(answer))]

    def numeric_value(self) -> Fraction | None:
        """The gold answer as an exact rational, when it is a decimal numeral
        (a float read positionally, so 5e-05 is 0.00005), or a count's list
        of items, which counts them."""
        answer = self.answer
        if isinstance(answer, list):
            return Fraction(len(answer)) if self.answer_type == "count" else None
        if isinstance(answer, float):
            answer = format(Decimal(repr(answer)), "f")
        return decimal_value(str(answer).strip().replace(",", ""))

    def count_items(self) -> list[str]:
        """Enumerated items behind a counting answer.

        Taken from a list-valued answer when present, otherwise from the
        derivation, split on "##" (release style) or on commas.
        """
        if isinstance(self.answer, list):
            return list(self.answer)
        text = self.derivation
        sep = "##" if "##" in text else ","
        items = [normalize_whitespace(part) for part in text.split(sep)]
        return [item for item in items if item]

    def response_text(self, precision: int = DEFAULT_PRECISION) -> str:
        """The gold response as shown to the user (used for gold history).

        A clarifying question is said without the turn's scale word.
        """
        text = self.canonical.text(precision)
        return f"{text} {self.scale}" if self.scale and not self.req_clari else text


@dataclass(frozen=True, slots=True)
class DialogueTurn:
    turn_id: str
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

    def turn_count(self) -> int:
        return sum(len(d.turns) for d in self.dialogues)


def read_json(path: str | Path, what: str) -> Any:
    """Parse a UTF-8 JSON file; any failure to read it is a SchemaError,
    including an integer beyond Python's digit limit (a ValueError)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as err:
        raise SchemaError(str(path), f"cannot read {what} JSON: {err}") from err


def jsonl_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a UTF-8 file, numbered from 1, without its "\n".
    Lines are read one at a time and end at "\n", "\r\n" or "\r", never at
    the other code points that str.splitlines() takes for line ends."""
    with open(path, encoding="utf-8") as lines:
        for lineno, line in enumerate(lines, start=1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def load_corpus(path: str | Path) -> Corpus:
    """Load and fully validate a corpus file."""
    return corpus_from_obj(read_json(path, "corpus"), location=str(path))


def corpus_from_obj(raw: Any, location: str = "<memory>") -> Corpus:
    if not isinstance(raw, list) or not raw:
        raise SchemaError(location, "corpus must be a non-empty list of dialogue blocks")
    documents: dict[str, HybridDocument] = {}
    dialogues: list[Dialogue] = []
    seen_dialogue_ids: set[str] = set()
    seen_turn_ids: set[str] = set()
    for i, block in enumerate(raw):
        where = f"{location}[{i}]"
        if not isinstance(block, dict):
            raise SchemaError(where, "dialogue block must be an object")
        doc_uid = _load_block_document(block, where, documents)
        dialogue = _load_block_dialogue(block, where, doc_uid)
        if dialogue.dialogue_id in seen_dialogue_ids:
            raise InvariantViolation(dialogue.dialogue_id, "duplicate dialogue id")
        seen_dialogue_ids.add(dialogue.dialogue_id)
        for turn in dialogue.turns:
            if turn.turn_id in seen_turn_ids:
                raise InvariantViolation(turn.turn_id, "duplicate turn id")
            seen_turn_ids.add(turn.turn_id)
        dialogues.append(dialogue)
    return Corpus(documents=documents, dialogues=tuple(dialogues))


def _load_block_document(block: dict, where: str, documents: dict[str, HybridDocument]) -> str:
    table = block.get("table")
    if table is None:
        doc_uid = block.get("doc_uid")
        if not doc_uid or not isinstance(doc_uid, str):
            raise SchemaError(where, "block needs either a table or a doc_uid string")
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
    texts = [str(paragraphs[k]["text"]) for k in _by_order(paragraphs, f"{where}.paragraphs")]
    try:
        doc = HybridDocument.from_raw(uid, texts, cells)
    except (ValueError, LinearizeError) as err:
        raise InvariantViolation(uid, str(err)) from err
    if uid in documents:
        raise InvariantViolation(uid, "duplicate document uid")
    documents[uid] = doc
    return uid


def _load_block_dialogue(block: dict, where: str, doc_uid: str) -> Dialogue:
    questions = block.get("questions")
    if not isinstance(questions, list) or not questions:
        raise SchemaError(where, "block must carry a non-empty questions list")
    dialogue_id = block.get("uid")
    if dialogue_id is None:
        dialogue_id = doc_uid
    elif type(dialogue_id) not in (str, int):  # a bool is no integer
        raise SchemaError(f"{where}.uid", f"dialogue id must be a string or an integer, got {dialogue_id!r}")
    turns: list[DialogueTurn] = []
    for j, q in enumerate(questions):
        if not isinstance(q, dict):
            raise SchemaError(f"{where}.questions[{j}]", "question must be an object")
        for key in ("uid", "order", "question", "answer", "answer_type", "answer_from"):
            if key not in q:
                raise SchemaError(f"{where}.questions[{j}]", f"missing field {key!r}")
        if type(q["uid"]) not in (str, int):  # a bool is no integer
            raise SchemaError(
                f"{where}.questions[{j}].uid", f"turn id must be a string or an integer, got {q['uid']!r}"
            )
    for n, j in enumerate(_by_order(questions, f"{where}.questions"), start=1):
        q = questions[j]
        turn_id = str(q["uid"])
        order = q["order"]
        if order != n:
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
        clari_question = q.get("clari_question")
        if isinstance(clari_question, list) and len(clari_question) == 1:
            clari_question = clari_question[0]
        elif clari_question is None:
            clari_question = ""
        if not isinstance(clari_question, str):
            raise SchemaError(
                f"{where}.questions[{j}].clari_question", "clarification question must be a string or a list of one"
            )
        clari_question = normalize_whitespace(clari_question)
        if req_clari and not clari_question:
            raise InvariantViolation(turn_id, "clarifying turn needs a clarification question")
        derivation = normalize_whitespace(str(q.get("derivation", "")))
        if answer_type == "arithmetic" and not derivation:
            raise InvariantViolation(turn_id, "arithmetic turn needs a derivation")
        question_text = normalize_whitespace(str(q["question"]))
        if not question_text:
            raise InvariantViolation(turn_id, "empty question")
        try:
            gold = GoldTurnAnswer(
                answer_type=answer_type,
                answer=q["answer"],
                derivation=derivation,
                scale=scale,
                source=source,
                req_clari=req_clari,
                clarification_question=clari_question,
            )
        except ValueError as err:
            raise SchemaError(f"{where}.questions[{j}].answer", str(err)) from err
        try:
            check_no_markers(question_text)
            check_no_markers(gold.response_text())
        except LinearizeError as err:
            raise InvariantViolation(turn_id, str(err)) from err
        turns.append(DialogueTurn(turn_id=turn_id, question=question_text, gold=gold))
    return Dialogue(dialogue_id=str(dialogue_id), doc_uid=doc_uid, turns=tuple(turns))


def _by_order(entries: list[dict], where: str) -> list[int]:
    """The entries' indexes, sorted by their "order" (ties keep file order)."""
    try:
        return sorted(range(len(entries)), key=lambda j: entries[j].get("order", 0))
    except TypeError as err:
        raise SchemaError(where, f"order values cannot be compared: {err}") from err


# The statistics a corpus is summed up by, in report order, each with its
# label in the text report.
STAT_LABELS = {
    "dialogues": "dialogues",
    "turns": "turns",
    "clarifying_turns": "clarifying turns",
    "avg_turns_per_dialogue": "avg turns/dialogue",
    "avg_words_per_question": "avg words/question",
    "avg_words_per_answer": "avg words/answer",
}


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

    def summary(self) -> dict:
        """Each statistic of STAT_LABELS as reported: an average rounded to
        one decimal, a count as it is."""
        return {name: round(getattr(self, name), 1) for name in STAT_LABELS}


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
        return render_list([gold.clarification_question])
    if gold.answer_type == "arithmetic":
        try:
            return canonical_source(gold.derivation)
        except DerivationError as err:
            raise UnreconstructibleDerivation(
                f"derivation {gold.derivation!r}: {err}"
            ) from err
    if gold.answer_type == "count":
        items = gold.count_items()
        if not items:
            raise UnreconstructibleDerivation("count turn without enumerable items")
        return f"len({render_list(items)})"
    spans = gold.span_values()
    if not spans or any(not s for s in spans):
        raise UnreconstructibleDerivation("span turn without span text")
    try:
        return render_list(spans)
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


def build_examples(corpus: Corpus, task: Task, precision: int = DEFAULT_PRECISION) -> list[Example]:
    """Compile (input, target) pairs with gold-history teacher forcing.

    CQG examples cover only clarifying turns and CQA only non-clarifying
    ones; CNP and MultiTask cover every turn. Turns whose gold cannot be
    reconstructed into the derivation language are skipped and logged. A
    question or gold response that holds a reserved marker raises
    MarkerCollisionError, as it does in run_eval.
    """
    examples: list[Example] = []
    for dialogue in corpus.dialogues:
        for turn, model_input in gold_history_inputs(corpus, dialogue, precision):
            clarifying = turn.gold.req_clari
            skip = (task is Task.CQG and not clarifying) or (task is Task.CQA and clarifying)
            if not skip:
                try:
                    payload = "" if task is Task.CNP else reconstruct_code(turn.gold)
                    target = format_target(task, clarifying, payload)
                    examples.append(
                        Example(
                            turn_id=turn.turn_id,
                            dialogue_id=dialogue.dialogue_id,
                            input_text=model_input,
                            target_text=target,
                            answer_type=turn.gold.answer_type,
                            clarification=clarifying,
                        )
                    )
                except (UnreconstructibleDerivation, LinearizeError) as err:
                    logger.warning("skipping turn %s: %s", turn.turn_id, err)
    return examples


def gold_history_inputs(
    corpus: Corpus, dialogue: Dialogue, precision: int = DEFAULT_PRECISION
) -> Iterator[tuple[DialogueTurn, str]]:
    """Each turn of `dialogue` with its model input under gold history: the
    document, then every earlier turn's question and gold response."""
    context = linearize_document(corpus.documents[dialogue.doc_uid])
    for turn in dialogue.turns:
        model_input = build_model_input(context, turn.question)
        yield turn, model_input
        context = add_response(model_input, turn.gold.response_text(precision))


@dataclass(frozen=True)
class Finding:
    kind: str
    where: str
    detail: str


def read_expectations(raw: Any) -> dict:
    """Expected statistics to diff against: the names of STAT_LABELS, and
    "by_type" and "by_source", which map an answer type or a source to its
    turn count. The key "total_questions" stands for "turns" when "turns" is
    absent; other keys are dropped. Each value is a number; a null or absent
    one, or a null tally, is not checked, and an average compares as it is
    reported, rounded to one decimal.
    """
    if not isinstance(raw, dict):
        raise SchemaError("expectations", "expected statistics must be a JSON object")
    tallies = ("by_type", "by_source")
    expected = {k: v for k, v in raw.items() if k in STAT_LABELS or k in tallies and v is not None}
    values = [(name, v) for name, v in expected.items() if name in STAT_LABELS]
    if "turns" not in expected and "total_questions" in raw:
        expected["turns"] = raw["total_questions"]
        values.append(("total_questions", expected["turns"]))
    for name in tallies:
        tally = expected.get(name, {})
        if not isinstance(tally, dict):
            raise SchemaError(f"expectations.{name}", "must be a JSON object")
        values += [(f"{name}.{key}", v) for key, v in tally.items()]
    for where, value in values:
        if value is not None and type(value) not in (int, float):  # a bool is no number
            raise SchemaError(f"expectations.{where}", f"must be a number or null, got {value!r}")
    return expected


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
                **self.stats.summary(),
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
    expected: dict | None = None,
    precision: int = DEFAULT_PRECISION,
) -> ValidationReport:
    """Re-check invariants, execute reconstructed arithmetic targets, diff
    stats against `read_expectations`'s dict.

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
            executed = answer.text(precision)
            rendered_gold = gold.canonical.text(precision)
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


def _diff_stats(stats: CorpusStats, expected: dict) -> list[Finding]:
    checks = [(name, actual, expected.get(name)) for name, actual in stats.summary().items()]
    for answer_type, want in expected.get("by_type", {}).items():
        checks.append((f"by_type[{answer_type}]", stats.type_total(answer_type), want))
    for source, want in expected.get("by_source", {}).items():
        checks.append((f"by_source[{source}]", stats.source_total(source), want))
    return [
        Finding("StatMismatch", where, f"expected {want}, got {actual}")
        for where, actual, want in checks
        if want is not None and actual != want
    ]


def load_release_file(path: str | Path) -> Corpus:
    """Load a file of the public source-dataset release through the key
    mapping described at the top of this module."""
    raw = read_json(path, "release")
    for block in raw if isinstance(raw, list) else ():
        if not isinstance(block, dict):
            continue
        table = block.get("table")
        if isinstance(table, dict) and "table" in table:
            table["cells"] = table.pop("table")
        questions = block.get("questions")
        for j, q in enumerate(questions if isinstance(questions, list) else ()):
            if isinstance(q, dict):
                q.setdefault("order", j + 1)
                if q.get("req_clari") or q.get("answer_type") == "clarification":
                    q.update(req_clari=True, answer_type="clarification")
                    if q.get("clari_question") is None:
                        q["clari_question"] = q.get("answer")
    return corpus_from_obj(raw, location=str(path))
