"""Golden `execute_source` outcomes: the sources and how one is recorded.

`tests/fixtures/execute_outcomes.jsonl` holds one JSON object a line: the
source and either the failing stage, error class and message, or the
answer's `describe()` at precisions 4 and 10 and its `text()`. The sources
are every distinct payload in the fixture replay and prediction files plus
seeded random sources that reach every stage and every error class,
divisions by zero included. Regenerate the file with

    PYTHONPATH=src python tests/execute_outcomes.py > tests/fixtures/execute_outcomes.jsonl

only when an outcome is meant to change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from pcqa.derivation import ExecutionFailure, execute_source
from pcqa.linearize import MalformedOutput, parse_output

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 271828

_PIECES = [*"0123456789", "٣", ",", ".", '"', "'", "[", "]", "(", ")",
           "+", "-", "*", "/", "len", " ", " ", "x"]
_ITEMS = ["a", " EMEA ", "Asia Pacific", "2018", "", "   ", "it's", 'say "hi"', "x,y", "1+2"]


def outcome(source: str) -> dict:
    """What executing `source` yields, as one JSON-ready record."""
    try:
        answer = execute_source(source)
    except ExecutionFailure as err:
        return {
            "source": source,
            "stage": err.stage,
            "error": type(err.detail).__name__,
            "message": str(err.detail),
        }
    return {
        "source": source,
        "describe4": answer.describe(4),
        "describe10": answer.describe(10),
        "text": answer.text(),
    }


def fixture_payloads() -> list[str]:
    texts = []
    for name in ("corpus_small_replay.jsonl", "table7_replay.jsonl"):
        for line in (FIXTURES / name).read_text(encoding="utf-8").splitlines():
            texts += [str(output.get("text")) for output in json.loads(line)["outputs"]]
    for line in (FIXTURES / "corpus_small_predictions.jsonl").read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            texts += [str(record[k]) for k in ("output", "response") if k in record]
    payloads = []
    for text in texts:
        try:
            payloads.append(parse_output(text).response_payload)
        except MalformedOutput:
            payloads.append(text)
    return payloads


def _numeral(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.15:
        return rng.choice(["0", "0.0", "00", ".0"])
    if roll < 0.25:
        return f"{rng.randint(1, 999)},{rng.randint(0, 999):03d}"
    if roll < 0.3:
        return "." + str(rng.randint(0, 99))
    whole = str(rng.randint(0, 9999))
    return whole + ("." + str(rng.randint(0, 999)) if rng.random() < 0.4 else "")


def _arithmetic(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        text = _numeral(rng)
    elif rng.random() < 0.1:
        text = "(" + _arithmetic(rng, depth - 1) + ")"
    else:
        op = rng.choice("+-*/")
        if op == "/" and rng.random() < 0.2:
            right = rng.choice(["0", "(1-1)", "(2.5-2.50)", "0*7", "-0"])
        else:
            right = _arithmetic(rng, depth - 1)
        space = rng.choice(["", "", " "])
        text = _arithmetic(rng, depth - 1) + space + op + space + right
        if rng.random() < 0.5:
            text = "(" + text + ")"
    if rng.random() < 0.1:
        text = "-" * rng.randint(1, 3) + text
    return text


def _string_list(rng: random.Random) -> str:
    items = []
    for _ in range(rng.randint(1, 4)):
        item = rng.choice(_ITEMS)
        quote = "'" if '"' in item else "'" if rng.random() < 0.2 else '"'
        items.append(quote + item + quote)
    return "[" + rng.choice([",", ", "]).join(items) + "]"


def _mutated(rng: random.Random, source: str) -> str:
    pos = rng.randint(0, len(source))
    roll = rng.random()
    if roll < 0.4:
        return source[:pos] + rng.choice(_PIECES) + source[pos:]
    if roll < 0.8:
        return source[:pos] + source[pos + 1 :]
    return source[:pos] + rng.choice(_PIECES) + source[pos + 1 :]


def random_sources(rng: random.Random) -> list[str]:
    sources = []
    for _ in range(800):
        sources.append("".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 30))))
    for _ in range(1800):
        source = _arithmetic(rng, rng.randint(0, 4))
        sources.append(source if rng.random() < 0.6 else _mutated(rng, source))
    for _ in range(600):
        source = _string_list(rng)
        roll = rng.random()
        if roll < 0.4:
            source = "len(" + source + ")"
        elif roll < 0.55:
            source = rng.choice(["1+", "2*", "(", "-"]) + source
        elif roll < 0.7:
            source = source + rng.choice(["+1", "*2", " 1", ")", "]", ","])
        if rng.random() < 0.25:
            source = _mutated(rng, source)
        sources.append(source)
    # The size limits, at and just over each one.
    for count in (127, 128, 129):
        sources.append("+".join(["1"] * count))
        sources.append("-" + "+1" * (count - 1) + "/0")
    for digits in (29, 30, 31):
        sources.append("9" * digits)
        sources.append("1" * (digits - 15) + "." + "1" * 15)
    for depth in (126, 127, 128, 255, 256):
        sources.append("(" * depth + "1" + ")" * depth)
        sources.append("-" * depth + "1")
    sources.append("*".join(["9" * 30] * 128))
    sources.append("/".join(["1"] + ["0." + "0" * 28 + "1"] * 127))
    return sources


def all_sources() -> list[str]:
    return list(dict.fromkeys(fixture_payloads() + random_sources(random.Random(SEED))))


if __name__ == "__main__":
    for source in all_sources():
        print(json.dumps(outcome(source), sort_keys=True))
