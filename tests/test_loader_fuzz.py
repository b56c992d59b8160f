"""Fuzzed loaders: fixture-shaped JSON with values replaced or deleted.

Each property starts from a small piece of a real fixture, replaces the
values at one to three random paths with arbitrary JSON or deletes them,
and checks that the loader either returns or raises its own error type.
Anything else (a TypeError, an AttributeError) is a crash the CLI would
print as a traceback. The generation service's response bodies are fuzzed
the same way, with numbers beyond float range and beyond Python's digit
limit on int/str conversion among the values.
"""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.corpus import (
    CorpusError,
    CorpusExpectations,
    SchemaError,
    corpus_from_obj,
    load_release_file,
    validate_corpus,
)
from pcqa.generation import (
    GenerationError,
    GenerationRequest,
    HttpGenerator,
    ReplayGenerator,
    _parse_outputs,
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
            {"uid": "rel-q3", "question": "And the change?", "answer": "Which year?", "req_clari": True},
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
    except CorpusError:
        pass


@settings(max_examples=300, deadline=None)
@given(raw=mutated(EXPECTED))
@example(raw={**EXPECTED, "by_type": ["span", 5]})
@example(raw={**EXPECTED, "by_source": None})
def test_corpus_expectations_fuzz(small_corpus, raw):
    try:
        expected = CorpusExpectations.from_obj(raw)
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
    except CorpusError:
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
