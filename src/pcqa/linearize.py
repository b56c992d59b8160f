"""Hybrid input linearization and target sequence formats.

These are public wire formats: the generation service consumes the
linearized document+history string and produces target-format strings.

Input template (single spaces everywhere):

    [paragraph] p_1 </p> p_2 </p> ... p_k </p> [table]
    c_11 : c_12 | ... | c_1n </t> ... c_m1 : c_m2 | ... | c_mn
    [user] q_1 [system] r_1 ... [user] q_t

Target formats by task:

    CNP        "True" | "False"
    CQG        ["Which period are you asking about?"]
    CQA        (36.6-20.5)/20.5
    MultiTask  [clari.] False [resp.] (36.6-20.5)/20.5

Nothing is escaped, so source texts must not contain any reserved marker
token; that is validated at construction time and is itself part of the
contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


RESERVED_MARKERS = (
    "[paragraph]",
    "[table]",
    "[user]",
    "[system]",
    "[clari.]",
    "[resp.]",
    "</p>",
    "</t>",
)

_WS = re.compile(r"\s+")


class LinearizeError(Exception):
    pass


class MarkerCollisionError(LinearizeError):
    def __init__(self, marker: str, text: str):
        super().__init__(f"text contains reserved marker {marker!r}: {text[:60]!r}")
        self.marker = marker


class InvalidCombination(LinearizeError):
    """Task and payload do not fit together (e.g. CNP with a response)."""


class MalformedOutput(LinearizeError):
    """Decoded model output does not follow the expected target format."""


def normalize_whitespace(text: str) -> str:
    return _WS.sub(" ", text).strip()


def check_no_markers(text: str) -> str:
    for marker in RESERVED_MARKERS:
        if marker in text:
            raise MarkerCollisionError(marker, text)
    return text


class Task(str, Enum):
    CNP = "cnp"
    CQG = "cqg"
    CQA = "cqa"
    MULTI = "multi"


@dataclass(frozen=True)
class HybridDocument:
    """One report page: ordered paragraphs plus a single row-major table."""

    uid: str
    paragraphs: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.table or any(not row for row in self.table):
            raise ValueError(f"document {self.uid}: table must have at least one non-empty row")
        width = len(self.table[0])
        if width < 2:
            raise ValueError(f"document {self.uid}: table must have at least two columns")
        if any(len(row) != width for row in self.table):
            raise ValueError(f"document {self.uid}: table rows must have equal column count")
        for text in list(self.paragraphs) + [cell for row in self.table for cell in row]:
            check_no_markers(text)

    @classmethod
    def from_raw(
        cls, uid: str, paragraphs: list[str], rows: list[list[str]]
    ) -> "HybridDocument":
        """Build from messy source data: normalizes whitespace, right-pads ragged rows."""
        cleaned_rows = [[normalize_whitespace(str(cell)) for cell in row] for row in rows]
        width = max((len(row) for row in cleaned_rows), default=0)
        padded = tuple(tuple(row + [""] * (width - len(row))) for row in cleaned_rows)
        cleaned_paragraphs = tuple(
            p for p in (normalize_whitespace(str(t)) for t in paragraphs) if p
        )
        return cls(uid=uid, paragraphs=cleaned_paragraphs, table=padded)


@dataclass(frozen=True)
class ConversationHistory:
    """Alternating user/system utterances, ending with the current user query.

    Utterances at even indices are user queries, odd indices system
    responses. User queries must be non-empty; a system response may be
    empty (the turn failed to produce an answer in predicted-history runs).
    """

    utterances: tuple[str, ...]

    def __post_init__(self):
        if len(self.utterances) % 2 != 1:
            raise ValueError("history must end with a user query (odd utterance count)")
        for i, text in enumerate(self.utterances):
            if i % 2 == 0 and not text.strip():
                raise ValueError(f"user query at position {i} is empty")
            check_no_markers(text)

    @classmethod
    def from_turns(cls, queries: list[str], responses: list[str]) -> "ConversationHistory":
        if len(responses) != len(queries) - 1:
            raise ValueError("need exactly one fewer response than queries")
        flat: list[str] = []
        for i, q in enumerate(queries):
            flat.append(normalize_whitespace(q))
            if i < len(responses):
                flat.append(normalize_whitespace(responses[i]))
        return cls(tuple(flat))

    @property
    def current_query(self) -> str:
        return self.utterances[-1]


def linearize_document(doc: HybridDocument) -> str:
    parts = ["[paragraph]"]
    for paragraph in doc.paragraphs:
        parts.append(paragraph)
        parts.append("</p>")
    parts.append("[table]")
    rows = []
    for row in doc.table:
        head, rest = row[0], row[1:]
        rows.append(f"{head} : " + " | ".join(rest))
    parts.append(" </t> ".join(rows))
    return " ".join(parts)


def linearize_history(history: ConversationHistory) -> str:
    parts = []
    for i, text in enumerate(history.utterances):
        parts.append("[user]" if i % 2 == 0 else "[system]")
        if text:
            parts.append(text)
    return " ".join(parts)


def build_model_input(doc: HybridDocument, history: ConversationHistory) -> str:
    return linearize_document(doc) + " " + linearize_history(history)


def format_target(task: Task, clarification: bool, response: str) -> str:
    """Render the target sequence for one task.

    CNP carries only the label; CQG and CQA carry the bare payload;
    MultiTask prefixes the label: "[clari.] y [resp.] r".
    """
    response = response.strip()
    if task is Task.CNP:
        if response:
            raise InvalidCombination("CNP target carries no response payload")
        return "True" if clarification else "False"
    if not response:
        raise InvalidCombination(f"{task.value} target requires a response payload")
    if task is Task.CQG:
        if not clarification:
            raise InvalidCombination("CQG targets exist only for clarifying turns")
        return response
    if task is Task.CQA:
        if clarification:
            raise InvalidCombination("CQA targets exist only for non-clarifying turns")
        return response
    flag = "True" if clarification else "False"
    return f"[clari.] {flag} [resp.] {response}"


@dataclass(frozen=True)
class ParsedOutput:
    """Decoded model output split into clarification flag and payload."""

    clarification_flag: bool | None
    response_payload: str


def parse_output(decoded: str, task: Task = Task.MULTI) -> ParsedOutput:
    """Inverse of format_target. Raises MalformedOutput on anything else.

    For the multi-task format the flag token must be literally "True" or
    "False" between the "[clari.]" and "[resp.]" markers.
    """
    text = decoded.strip()
    if task is Task.CNP:
        if text not in ("True", "False"):
            raise MalformedOutput(f"CNP output must be True/False, got {text!r}")
        return ParsedOutput(text == "True", "")
    if task in (Task.CQG, Task.CQA):
        if not text:
            raise MalformedOutput("empty output")
        return ParsedOutput(None, text)
    if not text.startswith("[clari.]"):
        raise MalformedOutput("missing [clari.] marker")
    rest = text[len("[clari.]") :].strip()
    marker = rest.find("[resp.]")
    if marker < 0:
        raise MalformedOutput("missing [resp.] marker")
    flag_token = rest[:marker].strip()
    if flag_token not in ("True", "False"):
        raise MalformedOutput(f"clarification flag must be True/False, got {flag_token!r}")
    payload = rest[marker + len("[resp.]") :].strip()
    if not payload:
        raise MalformedOutput("empty response payload")
    return ParsedOutput(flag_token == "True", payload)
