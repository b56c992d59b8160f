"""Clients for the sequence-generation service.

Wire contract: one HTTP POST endpoint /generate taking

    {"input": "...", "mode": "greedy" | "sample", "num_samples": 40,
     "top_k": 40, "temperature": 0.5, "max_target_length": 128,
     "turn_id": "..."}

and returning {"outputs": [{"text": "...", "score": -1.23}, ...]} with
exactly one output in greedy mode and exactly num_samples in sample mode.
Any model server can implement this in minutes; ReplayGenerator implements
the same contract from a canned JSONL fixture keyed by (turn_id, mode),
one line per entry: {"turn_id": ..., "mode": ..., "outputs": [...]}, with
a string or integer turn id and mode "greedy" or "sample" (absent: "sample").
Outputs are frozen, so the repeats of one decode (the same text and score)
within a line, or a response body, share one GeneratedOutput.

HttpGenerator speaks HTTP/1.1 over its own keep-alive sockets: each
request goes out in one write, and the reply is read through the
connection's buffer (Content-Length, chunked, or up to the close; 1xx
replies skipped). A connection is reused only after an HTTP/1.1 reply
without Connection: close that left no unread bytes, one per request in
flight, by later requests from any thread. It connects directly to the
endpoint's host; proxy environment variables and ~/.netrc are not
consulted.
"""

from __future__ import annotations

import json
import math
import re
import select
import socket
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol
from urllib.parse import urlsplit

from .corpus import SchemaError, jsonl_lines, read_id

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
        """The JSON body: every field, in declaration order."""
        return dict(vars(self))


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


class ProtocolError(Exception):
    """The service's reply is not well-formed HTTP/1.x (module-private)."""


_MAX_LINE = 65536  # http.client's limits on one header line and on the header count
_MAX_HEADERS = 100
_STATUS_LINE = re.compile(rb"HTTP/1\.(\d) ([1-9]\d\d)(?: [^\r\n]*)?\r?\n")
_HEX = re.compile(rb"[0-9A-Fa-f]+")


def _read_line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ProtocolError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-reply")
    return line


def _read_exact(reader, size: int) -> bytes:
    data = reader.read(min(size, sys.maxsize))  # a larger size cannot be read, nor held
    if len(data) < size:
        raise ProtocolError(f"connection closed with {size - len(data)} body bytes unread")
    return data


def _read_headers(reader) -> dict[bytes, bytes]:
    """The header fields up to the blank line, names lower-cased; a repeated
    name keeps its first value, as http.client does."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader)
        if line == b"\r\n" or line == b"\n":
            return headers
        name, colon, value = line.partition(b":")
        if not colon:
            raise ProtocolError(f"malformed header line {line[:40]!r}")
        headers.setdefault(name.strip().lower(), value.strip())
    raise ProtocolError(f"reply has more than {_MAX_HEADERS} headers")


def _read_chunked(reader) -> bytes:
    parts = []
    while True:
        field = _read_line(reader).split(b";", 1)[0].strip()
        if not _HEX.fullmatch(field):
            raise ProtocolError(f"bad chunk size {field[:40]!r}")
        size = int(field, 16)
        if not size:
            _read_headers(reader)  # the trailer
            return b"".join(parts)
        parts.append(_read_exact(reader, size))
        if _read_line(reader) not in (b"\r\n", b"\n"):
            raise ProtocolError("chunk longer than its size")


def _read_response(reader) -> tuple[int, bytes, bool]:
    """Reads one reply from a reader with a buffered file's readline(limit)
    and read(size=-1) (a _Connection, or io.BytesIO): its status, its body and
    whether the connection may carry the next request. Raises ProtocolError
    on a malformed or truncated reply."""
    while True:
        match = _STATUS_LINE.fullmatch(_read_line(reader))
        if match is None:
            raise ProtocolError("malformed status line")
        status = int(match[2])
        headers = _read_headers(reader)
        if status >= 200:
            break
    reusable = match[1] != b"0" and b"close" not in headers.get(b"connection", b"").lower()
    if status in (204, 304):
        return status, b"", reusable
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        return status, _read_chunked(reader), reusable
    length = headers.get(b"content-length")
    if length is None:
        return status, reader.read(), False  # the body ends when the server closes
    if not length.isdigit():
        raise ProtocolError(f"bad Content-Length {length[:40]!r}")
    return status, _read_exact(reader, int(length)), reusable


def _closed_by_peer(sock) -> bool:
    """Whether an idle keep-alive socket is readable, which means the server
    has closed it (or sent bytes no request asked for): it must not be reused."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class _Connection:
    """A connected socket and the bytes received on it that no reply has used
    yet, read through readline and read as from a buffered file. Unlike a
    file's buffer, the leftover stays visible: a connection holding bytes
    no request asked for must not carry the next request."""

    __slots__ = ("sock", "buffer")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buffer = bytearray()

    def _fill(self) -> bool:
        data = self.sock.recv(65536)
        self.buffer += data
        return bool(data)

    def readline(self, limit: int) -> bytes:
        end = self.buffer.find(b"\n", 0, limit)
        while end < 0 and len(self.buffer) < limit and self._fill():
            end = self.buffer.find(b"\n", 0, limit)
        return self._take(limit if end < 0 else end + 1)

    def read(self, size: int = -1) -> bytes:
        # Grows with the bytes received, not with the size asked for.
        while (size < 0 or len(self.buffer) < size) and self._fill():
            pass
        return self._take(len(self.buffer) if size < 0 else size)

    def _take(self, size: int) -> bytes:
        data = bytes(self.buffer[:size])
        del self.buffer[:size]
        return data

    def close(self) -> None:
        self.sock.close()


@dataclass
class HttpGenerator:
    """POSTs to <endpoint>/generate with bounded-backoff retries.

    Each request is its head and JSON body in one sendall on a TCP_NODELAY
    socket (TLS-wrapped for https://, certificates checked against the
    system trust store); the reply is read by _read_response. Idle
    connections are kept on the generator, so they outlive the threads and
    run_eval calls that used them. A request takes one from the stack (or
    opens a new one) and puts it back after a reply that allows reuse and
    left nothing unread, so no two requests share a connection at once and
    the number of connections is bounded by the number of requests in
    flight. A connection the server closed while idle is reopened without
    spending an attempt. close() closes the idle connections, and a request
    in flight when it runs closes its connection instead of pooling it; the
    generator stays usable, and later requests open new connections.
    """

    endpoint: str
    timeout: float = 60.0
    max_attempts: int = 3
    backoff_base: float = 0.5

    def __post_init__(self):
        url = urlsplit(self.endpoint)
        host = url.netloc.rpartition("@")[2]
        path = url.path.rstrip("/") + "/generate"
        # The request line and Host header are written as they are: printable ASCII only.
        if url.scheme not in ("http", "https") or not url.hostname or not re.fullmatch(r"[!-~]+", host + path):
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {self.endpoint!r}")
        https = url.scheme == "https"
        self._tls = None
        if https:
            import ssl  # only here: importing it costs milliseconds and megabytes at every start

            self._tls = ssl.create_default_context()
        self._address = (url.hostname, url.port or (443 if https else 80))
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode()
        self._idle: list[_Connection] = []
        self._closes = 0  # close() calls so far: a request pools only if none ran during it
        self._lock = threading.Lock()

    def _acquire(self) -> _Connection:
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        if connection is not None:
            if not _closed_by_peer(connection.sock):
                return connection
            connection.close()  # the server closed it while idle: reconnect, no attempt spent
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except OSError:
            sock.close()
            raise
        return _Connection(sock)

    def _post(self, body: bytes) -> tuple[int, bytes]:
        closes = self._closes
        connection = self._acquire()
        try:
            connection.sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
            status, data, reusable = _read_response(connection)
        except (OSError, ProtocolError):
            connection.close()
            raise
        with self._lock:
            pooled = reusable and not connection.buffer and closes == self._closes
            if pooled:
                self._idle.append(connection)
        if not pooled:
            connection.close()
        return status, data

    def close(self) -> None:
        with self._lock:
            self._closes += 1
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
            except (OSError, ProtocolError) as err:
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
            for lineno, line in jsonl_lines(path):
                try:
                    record = json.loads(line)
                    turn_id = read_id(record["turn_id"], "turn_id", "turn id")
                    mode = record.get("mode", SAMPLE)
                    if mode not in (GREEDY, SAMPLE):
                        raise ValueError(f"mode must be {GREEDY!r} or {SAMPLE!r}, got {mode!r}")
                except (ValueError, RecursionError, KeyError, TypeError, SchemaError) as err:
                    raise TransportError(f"{path}:{lineno}: bad replay line: {err}") from err
                entries[turn_id, mode] = _parse_outputs(record)
        except (OSError, UnicodeDecodeError) as err:
            raise TransportError(f"cannot read replay fixture {path}: {err}") from err
        return cls(entries)

    def generate(self, request: GenerationRequest) -> tuple[GeneratedOutput, ...]:
        key = (request.turn_id, request.mode)
        if key not in self.entries:
            raise TransportError(f"replay fixture has no entry for {key}")
        return _check_contract(request, self.entries[key])
