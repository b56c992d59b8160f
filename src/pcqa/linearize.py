"""Hybrid input linearization and target sequence formats.

These are public wire formats: the generation service consumes the
linearized document+history string and produces multi-task target strings,
which `parse_output` splits back into flag and payload in one match. The
single-task formats exist only as training targets (`format_target`).

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
token; that is checked when a document is built and when an utterance is
appended to a model input, and is itself part of the contract.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


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
    """Runs of whitespace (as str.isspace counts it) become one space; ends are trimmed."""
    return " ".join(text.split())


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
        texts = [*self.paragraphs, *(cell for row in self.table for cell in row)]
        # One scan over all texts: no marker holds "\n", so none can span two
        # of them. Only on a hit is each text checked, to name the one at fault.
        joined = "\n".join(texts)
        if any(marker in joined for marker in RESERVED_MARKERS):
            for text in texts:
                check_no_markers(text)

    @classmethod
    def from_raw(
        cls, uid: str, paragraphs: list[str], rows: list[list[str]]
    ) -> "HybridDocument":
        """Build from messy source data: normalizes whitespace, right-pads ragged rows."""
        width = max((len(row) for row in rows), default=0)
        padded = tuple(
            tuple([normalize_whitespace(str(cell)) for cell in row] + [""] * (width - len(row)))
            for row in rows
        )
        cleaned_paragraphs = tuple(
            p for p in (normalize_whitespace(str(t)) for t in paragraphs) if p
        )
        return cls(uid=uid, paragraphs=cleaned_paragraphs, table=padded)


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


def build_model_input(context: str, query: str) -> str:
    """Append the next user query to a dialogue's model input so far.

    `context` is `linearize_document(doc)` for a dialogue's first turn, and
    the previous turn's input with `add_response` applied after that.
    """
    query = check_no_markers(normalize_whitespace(query))
    if not query:
        raise ValueError("user query is empty")
    return f"{context} [user] {query}"


def add_response(model_input: str, response: str) -> str:
    """Append the system response to the turn whose input this is. A
    response may be empty: a predicted-history turn that produced no answer."""
    response = check_no_markers(normalize_whitespace(response))
    return f"{model_input} [system] {response}" if response else f"{model_input} [system]"


def format_target(task: Task, clarification: bool, response: str) -> str:
    """Render the target sequence for one task.

    CNP carries only the label; CQG and CQA carry the bare payload;
    MultiTask prefixes the label: "[clari.] y [resp.] r". A payload holding
    a reserved marker raises MarkerCollisionError: parse_output rejects it.
    """
    response = check_no_markers(response.strip())
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


class ParsedOutput(NamedTuple):
    """Decoded model output split into clarification flag and payload."""

    clarification_flag: bool
    response_payload: str


# The markers, flag and payload in order, with any whitespace (or none) around
# each; the payload starts and ends with a character other than whitespace.
_MULTI_TASK = re.compile(
    r"\s*\[clari\.\]\s*(True|False)\s*\[resp\.\]\s*(\S(?:.*\S)?)\s*", re.DOTALL
).fullmatch


def parse_output(decoded: str) -> ParsedOutput:
    """Inverse of the multi-task format_target, split by one match; anything
    else raises MalformedOutput. The flag token must be literally "True" or
    "False" between the "[clari.]" and "[resp.]" markers, and the payload
    non-empty and free of reserved markers. Any whitespace, or none, may
    separate the parts.
    """
    match = _MULTI_TASK(decoded)
    if match is None:
        raise MalformedOutput("expected [clari.] True|False [resp.] payload")
    flag_token, payload = match.groups()
    try:
        check_no_markers(payload)
    except MarkerCollisionError as err:
        raise MalformedOutput(str(err)) from err
    return ParsedOutput(flag_token == "True", payload)
