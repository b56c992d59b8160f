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
Outputs are frozen, so the repeats of one decode (the same text and score)
within a line, or a response body, share one GeneratedOutput.

HttpGenerator speaks HTTP/1.1 through the standard library's http.client
and keeps its connections open between requests: one connection per
request in flight, reused by later requests from any thread. It connects
directly to the endpoint's host; proxy environment variables and ~/.netrc
are not consulted.
"""

from __future__ import annotations

import http.client
import json
import math
import select
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

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


@dataclass(frozen=True, slots=True)
class GeneratedOutput:
    text: str
    score: float | None = None


class Generator(Protocol):
    def generate(self, request: GenerationRequest) -> tuple[GeneratedOutput, ...]: ...


def _check_contract(
    request: GenerationRequest, outputs: list[GeneratedOutput]
) -> tuple[GeneratedOutput, ...]:
    expected = request.expected_outputs()
    if len(outputs) != expected:
        raise ContractViolation(
            f"{request.mode} request for turn {request.turn_id!r} expected "
            f"{expected} outputs, got {len(outputs)}"
        )
    return tuple(outputs)


_HEADERS = {"Content-Type": "application/json"}


def _closed_by_peer(sock) -> bool:
    """Whether an idle keep-alive socket is readable, which means the server
    has closed it (or sent bytes no request asked for): it must not be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


@dataclass
class HttpGenerator:
    """POSTs to <endpoint>/generate with bounded-backoff retries.

    Idle connections are kept on the generator, so they outlive the threads
    and run_eval calls that used them. A request takes one from the stack
    (or opens a new one) and puts it back after reading the response, so
    no two requests share a connection at once and the number of
    connections is bounded by the number of requests in flight. A
    connection the server closed while idle is reopened without spending
    an attempt. close() closes the idle connections.
    """

    endpoint: str
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        url = urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        https = url.scheme == "https"
        self._connection_class = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._address = (url.hostname, url.port)
        self._path = url.path.rstrip("/") + "/generate"
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _acquire(self) -> http.client.HTTPConnection:
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connection_class(*self._address, timeout=self.timeout)
        if connection.sock is not None and _closed_by_peer(connection.sock):
            connection.close()  # the next request on it reconnects
        return connection

    def _post(self, body: bytes) -> tuple[int, bytes]:
        connection = self._acquire()
        try:
            connection.request("POST", self._path, body, _HEADERS)
            response = connection.getresponse()
            result = response.status, response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            raise
        with self._lock:
            self._idle.append(connection)
        return result

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def generate(self, request: GenerationRequest) -> tuple[GeneratedOutput, ...]:
        body = json.dumps(request.to_payload()).encode()
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(self.backoff_base * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as err:
                last_error = err
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                continue
            if status != 200:
                raise TransportError(f"generation endpoint returned {status}")
            try:
                payload = json.loads(data)
            except (ValueError, RecursionError) as err:
                raise ContractViolation(f"response body is not JSON: {err}") from err
            return _check_contract(request, _parse_outputs(payload))
        raise TransportError(
            f"generation failed after {self.max_attempts} attempts: {last_error}"
        )


def _parse_outputs(body: object) -> list[GeneratedOutput]:
    outputs = body.get("outputs") if isinstance(body, dict) else None
    if not isinstance(outputs, list):
        raise ContractViolation("response body must be an object carrying an outputs list")
    parsed = []
    # Sampled decodes repeat: each distinct (text, score) is checked and built
    # once, and its repeats share the frozen output. Sharing is kept to str
    # texts with no score or a non-zero float one; elsewhere equal keys can
    # give unequal outputs (the texts 1 and True, the scores 0.0 and -0.0).
    shared: dict[tuple[str, float | None], GeneratedOutput] = {}
    for item in outputs:
        if not isinstance(item, dict) or "text" not in item:
            raise ContractViolation(f"malformed output entry: {item!r}")
        text = item["text"]
        score = item.get("score")
        shareable = type(text) is str and (score is None or type(score) is float and score)
        output = shared.get((text, score)) if shareable else None
        if output is None:
            try:
                score = None if score is None else float(score)
            except (TypeError, ValueError, OverflowError) as err:
                raise ContractViolation(f"output score is not a number: {score!r}") from err
            if score is not None and not math.isfinite(score):
                raise ContractViolation(f"output score is not finite: {score!r}")
            output = GeneratedOutput(str(text), score)
            if shareable:
                shared[text, score] = output
        parsed.append(output)
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
        except (OSError, UnicodeDecodeError) as err:
            raise TransportError(f"cannot read replay fixture {path}: {err}") from err
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                key = (str(record["turn_id"]), str(record.get("mode", SAMPLE)))
            except (ValueError, RecursionError, KeyError, TypeError) as err:
                raise TransportError(f"{path}:{lineno}: bad replay line: {err}") from err
            entries[key] = _parse_outputs(record)
        return cls(entries)

    def generate(self, request: GenerationRequest) -> tuple[GeneratedOutput, ...]:
        key = (request.turn_id, request.mode)
        if key not in self.entries:
            raise TransportError(f"replay fixture has no entry for {key}")
        return _check_contract(request, self.entries[key])
