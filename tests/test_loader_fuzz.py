"""Fuzzed loaders: fixture-shaped JSON with values replaced or deleted.

Each property starts from a small piece of a real fixture, replaces the
values at one to three random paths with arbitrary JSON or deletes them,
and checks that the loader either returns or raises its own error type.
Anything else (a TypeError, an AttributeError) is a crash the CLI would
print as a traceback. The generation service's response bodies are fuzzed
the same way, with numbers beyond float range and beyond Python's digit
limit on int/str conversion among the values, and so are the HTTP replies
around them: the reply reader returns or raises its ProtocolError.
"""

import copy
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.corpus import (
    SchemaError,
    corpus_from_obj,
    load_release_file,
    read_expectations,
    validate_corpus,
)
from pcqa.generation import (
    GenerationError,
    GenerationRequest,
    HttpGenerator,
    ProtocolError,
    ReplayGenerator,
    _Connection,
    _parse_outputs,
    _read_response,
)
from pcqa.metrics import EmptyRecordSet
from pcqa.runner import UnknownTurnId, score_predictions

FIXTURES = Path(__file__).parent / "fixtures"
# The first dialogue defines its document; the second refers to it by doc_uid.
BLOCKS = json.loads((FIXTURES / "corpus_small.json").read_text(encoding="utf-8"))[:2]
EXPECTED = json.loads((FIXTURES / "corpus_small_expected.json").read_text(encoding="utf-8"))
PREDICTIONS = []
for _line in (FIXTURES / "corpus_small_predictions.jsonl").read_text(encoding="utf-8").splitlines():
    try:
        PREDICTIONS.append(json.loads(_line))
    except ValueError:
        pass
REPLAY = [
    {**entry, "outputs": entry["outputs"][:3]}
    for entry in map(json.loads, (FIXTURES / "corpus_small_replay.jsonl").read_text(encoding="utf-8").splitlines()[:3])
]
RELEASE = [
    {
        "table": {"uid": BLOCKS[0]["table"]["uid"], "table": BLOCKS[0]["table"]["cells"]},
        "paragraphs": BLOCKS[0]["paragraphs"],
        "questions": [
            *BLOCKS[0]["questions"][:2],
            {"uid": "rel-q3", "question": "And the change?", "answer": "Which year?", "req_clari": True,
             "answer_from": "table"},
        ],
    }
]

# Integers a float cannot hold: 2**1024 is the first.
HUGE_INTEGERS = st.integers(min_value=2**1024, max_value=10**400) | st.integers(
    min_value=-(10**400), max_value=-(2**1024)
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | HUGE_INTEGERS | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)
# JSON numbers as written; json.loads cannot build ints of over 4,300 digits.
RAW_NUMBERS = ["9" * 400, "-" + "9" * 400, "1" * 5000, "1e400", "-1e999", "0." + "0" * 5000 + "1"]


@st.composite
def mutated(draw, base):
    """`base` with the values at one to three random paths replaced by
    arbitrary JSON or deleted; the top-level container stays."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, obj
        for _ in range(draw(st.integers(1, 6))):
            if not isinstance(node, (dict, list)) or not node:
                break
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        if draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = draw(JSON)
    return obj


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """One directory for every example's file; each example overwrites it."""
    return tmp_path_factory.mktemp("fuzz")


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def _jsonl(lines):
    return "".join(json.dumps(line) + "\n" for line in lines)


@settings(max_examples=300, deadline=None)
@given(raw=mutated(BLOCKS))
@example(raw=[BLOCKS[0], {**BLOCKS[1], "doc_uid": [BLOCKS[1]["doc_uid"]]}])
def test_corpus_from_obj_fuzz(raw):
    try:
        corpus_from_obj(raw)
    except SchemaError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=mutated(EXPECTED))
@example(raw={**EXPECTED, "by_type": ["span", 5]})
@example(raw={**EXPECTED, "by_source": None})
def test_corpus_expectations_fuzz(small_corpus, raw):
    try:
        expected = read_expectations(raw)
    except SchemaError:
        return
    # The expectations are only read when diffed against a corpus.
    validate_corpus(small_corpus, expected)


@settings(max_examples=200, deadline=None)
@given(raw=mutated(RELEASE))
def test_load_release_file_fuzz(scratch, raw):
    path = _write(scratch / "release.json", json.dumps(raw))
    try:
        load_release_file(path)
    except SchemaError:
        pass


@settings(max_examples=200, deadline=None)
@given(lines=mutated(PREDICTIONS))
def test_score_predictions_fuzz(scratch, small_corpus, lines):
    path = _write(scratch / "predictions.jsonl", _jsonl(lines))
    try:
        score_predictions(path, small_corpus)
    except (EmptyRecordSet, UnknownTurnId):
        pass


@settings(max_examples=200, deadline=None)
@given(lines=mutated(REPLAY))
def test_replay_from_jsonl_fuzz(scratch, lines):
    path = _write(scratch / "replay.jsonl", _jsonl(lines))
    try:
        ReplayGenerator.from_jsonl(path)
    except GenerationError:
        pass


RESPONSE = {"outputs": [{"text": "[clari.] False [resp.] 2", "score": -0.5}, {"text": "x", "score": None}]}


@settings(max_examples=300, deadline=None)
@given(body=mutated(RESPONSE) | JSON)
@example(body={"outputs": [{"text": "x", "score": 10**400}]})
@example(body={"outputs": [{"text": "x", "score": -(2**1024)}]})
def test_parse_outputs_fuzz(body):
    try:
        _parse_outputs(body)
    except GenerationError:
        pass


@st.composite
def response_bodies(draw):
    """A mutated response as bytes, with some values swapped for raw numbers."""
    obj = draw(mutated(RESPONSE))
    text = json.dumps(obj)
    for _ in range(draw(st.integers(0, 2))):
        value = json.dumps(draw(st.sampled_from(["[clari.] False [resp.] 2", -0.5, None])))
        text = text.replace(value, draw(st.sampled_from(RAW_NUMBERS)), 1)
    return text.encode()


@settings(max_examples=300, deadline=None)
@given(data=response_bodies())
@example(data=b'{"outputs": [{"text": "x", "score": ' + b"9" * 400 + b"}]}")
@example(data=b'{"outputs": [{"text": "x", "score": ' + b"9" * 5000 + b"}]}")
def test_http_generator_response_body_fuzz(data):
    generator = HttpGenerator(endpoint="http://127.0.0.1:9")
    generator._post = lambda body: (200, data)  # the service's reply, without a socket
    try:
        generator.generate(GenerationRequest(input="q", turn_id="t1"))
    except GenerationError:
        pass


REPLY_BODY = json.dumps(RESPONSE).encode()
# Well-formed choices are repeated so that most replies get past their head.
STATUS_LINES = [b"HTTP/1.1 200 OK"] * 4 + [b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content", b"HTTP/1.1 304",
                b"HTTP/1.1 503 Busy", b"HTTP/1.1 099 X", b"HTTP/1.1 2000 X", b"HTTP/2 200", b"HTTP/1.1 20O", b""]
LINE_ENDS = [b"\r\n"] * 4 + [b"\n", b"\r"]
HEADER_NAMES = [b"Content-Length", b"Transfer-Encoding", b"Connection", b"X-Other", b"", b"Bad Name"]
HEADER_VALUES = [b"chunked", b"close", b"keep-alive", b"0", b"5", b"-1", b"+5", b" 5 ", b"1e3", b"0x10",
                 b"99999999999999999999", b"\xff", b""]
CHUNK_SIZES = [b"0", b"1", b"5", b"14", b"f", b"ffffffffffffffffffff", b"-1", b"0x5", b"1_0", b"g", b"", b"5;x=y"]


@st.composite
def http_replies(draw):
    """Reply bytes from mutated parts: 1xx replies, status line, framing and
    other headers, chunk sizes, lengths and line ends, then a truncation or
    a byte flip."""
    eol = draw(st.sampled_from(LINE_ENDS))
    parts = [b"HTTP/1.1 100 Continue" + eol + eol] * draw(st.integers(0, 2))
    parts.append(draw(st.sampled_from(STATUS_LINES)) + eol)
    framing = draw(st.sampled_from(["chunked", "length", "close"]))
    body = REPLY_BODY[: draw(st.integers(0, len(REPLY_BODY)))]
    if framing == "chunked":
        parts.append(b"Transfer-Encoding: chunked" + eol)
    elif framing == "length":
        length = max(0, len(body) + draw(st.sampled_from([0, 0, 0, -1, 1, -20, 20])))
        parts.append(b"Content-Length: %d" % length + eol)
    headers = draw(st.lists(st.tuples(st.sampled_from(HEADER_NAMES), st.sampled_from(HEADER_VALUES)), max_size=3))
    parts += [name + b": " + value + eol for name, value in headers]
    parts.append(draw(st.sampled_from([eol] * 6 + [b"", b"x" * 70_000 + eol])))
    if framing == "chunked":
        for _ in range(draw(st.integers(0, 3))):
            size = draw(st.sampled_from(CHUNK_SIZES))
            parts += [size + eol, REPLY_BODY[: draw(st.integers(0, 20))], eol]
        parts.append(draw(st.sampled_from([b"0" + eol + eol, b"0" + eol + b"T: 1" + eol + eol, b""])))
    else:
        parts.append(body)
    data = b"".join(parts)
    cut = draw(st.sampled_from(["none", "none", "truncate", "flip"]))
    if cut != "none" and data:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] if cut == "truncate" else data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1 :]
    return data


@settings(max_examples=500, deadline=None)
@given(data=http_replies() | st.binary(max_size=64))
@example(data=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffffffff\r\nx")
@example(data=b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\nx")
@example(data=b"HTTP/1.1 200 OK\r\n" + b"X: 1\r\n" * 101 + b"\r\n")
def test_read_response_fuzz(data):
    try:
        status, body, reusable = _read_response(io.BytesIO(data))
    except ProtocolError:
        return
    assert type(status) is int and 200 <= status <= 999
    assert type(body) is bytes and type(reusable) is bool


def _outcome(reader):
    try:
        return _read_response(reader)
    except ProtocolError as err:
        return str(err)


class _Pieces:
    """A socket stand-in whose recv hands out the data in the given pieces
    (at most the size asked for), then b"" as after the peer's shutdown."""

    def __init__(self, pieces):
        self.pieces = [piece for piece in pieces if piece]

    def recv(self, size):
        if not self.pieces:
            return b""
        piece = self.pieces.pop(0)
        if len(piece) > size:
            self.pieces.insert(0, piece[size:])
        return piece[:size]


@settings(max_examples=300, deadline=None)
@given(data=http_replies(), cuts=st.lists(st.integers(-8, -1) | st.integers(0, 2**17), max_size=4))
@example(data=b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabcde", cuts=[-2])
@example(data=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nabcde\r\n0\r\n\r\n", cuts=[20, 40, 50])
def test_connection_reads_like_a_buffered_file(data, cuts):
    """A reply that arrives in pieces reads through _Connection as the same
    bytes read from io.BytesIO, and leaves the same bytes unread."""
    file = io.BytesIO(data)
    expected = _outcome(file), file.read()
    bounds = [0, *sorted(cut % (len(data) + 1) for cut in cuts), len(data)]  # -2: one byte before the end
    connection = _Connection(_Pieces(data[start:end] for start, end in zip(bounds, bounds[1:])))
    assert (_outcome(connection), connection.read()) == expected
