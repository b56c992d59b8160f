"""Clients for the sequence-generation service.

Wire contract: one HTTP POST endpoint /generate taking

    {"input": "...", "mode": "greedy" | "sample", "num_samples": 40,
     "top_k": 40, "temperature": 0.5, "max_target_length": 128,
     "turn_id": "..."}

and returning {"outputs": [{"text": "...", "score": -1.23}, ...]} with
exactly one output in greedy mode and exactly num_samples in sample mode.
Any model server can implement this in minutes; ReplayGenerator implements
the same contract from a canned JSONL fixture keyed by (turn_id, mode),
one line per entry: {"turn_id": ..., "mode": ..., "outputs": [...]}.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import requests

GREEDY = "greedy"
SAMPLE = "sample"


class GenerationError(Exception):
    pass


class TransportError(GenerationError):
    """The service (or fixture) could not produce a response."""


class ContractViolation(GenerationError):
    """The service responded with the wrong number or shape of outputs."""


@dataclass(frozen=True)
class GenerationRequest:
    input: str
    mode: str = GREEDY
    num_samples: int = 40
    top_k: int = 40
    temperature: float = 0.5
    max_target_length: int = 128
    turn_id: str = ""

    def __post_init__(self):
        if self.mode not in (GREEDY, SAMPLE):
            raise ValueError(f"mode must be greedy or sample, got {self.mode!r}")
        if self.mode == SAMPLE and self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")

    def expected_outputs(self) -> int:
        return 1 if self.mode == GREEDY else self.num_samples

    def to_payload(self) -> dict:
        return {
            "input": self.input,
            "mode": self.mode,
            "num_samples": self.num_samples,
            "top_k": self.top_k,
            "temperature": self.temperature,
            "max_target_length": self.max_target_length,
            "turn_id": self.turn_id,
        }


@dataclass(frozen=True)
class GeneratedOutput:
    text: str
    score: float | None = None


@dataclass(frozen=True)
class GenerationResponse:
    outputs: tuple[GeneratedOutput, ...]


class Generator(Protocol):
    def generate(self, request: GenerationRequest) -> GenerationResponse: ...


def _check_contract(request: GenerationRequest, outputs: list[GeneratedOutput]) -> GenerationResponse:
    expected = request.expected_outputs()
    if len(outputs) != expected:
        raise ContractViolation(
            f"{request.mode} request for turn {request.turn_id!r} expected "
            f"{expected} outputs, got {len(outputs)}"
        )
    return GenerationResponse(outputs=tuple(outputs))


@dataclass
class HttpGenerator:
    """POSTs to <endpoint>/generate with bounded-backoff retries."""

    endpoint: str
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 0.5
    session: requests.Session = field(default_factory=requests.Session, repr=False)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        url = self.endpoint.rstrip("/") + "/generate"
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                response = self.session.post(url, json=request.to_payload(), timeout=self.timeout)
            except requests.RequestException as err:
                last_error = err
                continue
            if response.status_code >= 500:
                last_error = TransportError(f"server error {response.status_code}")
                continue
            if response.status_code != 200:
                raise TransportError(f"generation endpoint returned {response.status_code}")
            return _check_contract(request, _parse_outputs(response.json()))
        raise TransportError(
            f"generation failed after {self.max_attempts} attempts: {last_error}"
        )


def _parse_outputs(body: object) -> list[GeneratedOutput]:
    outputs = body.get("outputs") if isinstance(body, dict) else None
    if not isinstance(outputs, list):
        raise ContractViolation("response body must be an object carrying an outputs list")
    parsed = []
    for item in outputs:
        if not isinstance(item, dict) or "text" not in item:
            raise ContractViolation(f"malformed output entry: {item!r}")
        score = item.get("score")
        try:
            score = None if score is None else float(score)
        except (TypeError, ValueError) as err:
            raise ContractViolation(f"output score is not a number: {score!r}") from err
        parsed.append(GeneratedOutput(text=str(item["text"]), score=score))
    return parsed


class ReplayGenerator:
    """Fixture-backed stand-in returning canned decodes keyed by (turn_id, mode)."""

    def __init__(self, entries: dict[tuple[str, str], list[GeneratedOutput]]):
        self.entries = entries

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "ReplayGenerator":
        entries: dict[tuple[str, str], list[GeneratedOutput]] = {}
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as err:
            raise TransportError(f"cannot read replay fixture {path}: {err}") from err
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = (str(record["turn_id"]), str(record.get("mode", SAMPLE)))
            except (json.JSONDecodeError, KeyError, TypeError) as err:
                raise TransportError(f"{path}:{lineno}: bad replay line: {err}") from err
            entries[key] = _parse_outputs(record)
        return cls(entries)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        key = (request.turn_id, request.mode)
        if key not in self.entries:
            raise TransportError(f"replay fixture has no entry for {key}")
        return _check_contract(request, self.entries[key])
