"""Seeded input generator for the pcqa benchmark.

Every file the program under test reads is written here: a corpus JSON, a
replay JSONL (cv-gold), a predictions JSONL (score-offline) or the stub's
answer book (predicted-http). Each turn's expected outcome is recorded from
how the generator built it, with this module's own integer arithmetic; no
expectation is copied from the program's output.

Numbers are drawn as integers in hundredths, so every derivation value is an
exact ratio of integers and its 4-place rendering (round half away from
zero) is computed here without ``fractions`` or the program's renderer.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path

NUM_SAMPLES = 40
PRECISION = 4

# Answer-type mix, in tenths of a percent. Clarification is the test split's
# share (270 of 1,939 turns) and arithmetic the share over all PACIFIC splits
# (6,961 of 19,008), both from the official totals that tests/test_acceptance.py
# holds. How the other 49.5% divides among span, multi-span and count turns
# is an assumption: the repository holds no figure for it.
TYPE_WEIGHTS = {
    "clarification": 139,
    "arithmetic": 366,
    "span": 301,
    "multi-span": 118,
    "count": 76,
}
ARITH_SCALES = ["", "", "", "", "percent", "percent", "thousand", "million"]
YEARS = ["2019", "2018", "2017"]

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()
_WORDS = [o1 + v1 + o2 + v2 + "n" for o1 in _ONSETS for v1 in _VOWELS for o2 in _ONSETS[:6] for v2 in _VOWELS[:2]]
# Gold spans and documents use GOLD_WORDS only; wrong answers use WRONG_WORDS
# only, so a wrong span shares no token with its gold span. Clarification
# questions use plain English words that neither list contains.
GOLD_WORDS = _WORDS[0::2]
WRONG_WORDS = _WORDS[1::2]
CLARI_QUESTIONS = [
    "Which year are you asking about?",
    "Which segment do you mean?",
    "Do you mean the current or the previous period?",
    "Which region are you referring to?",
    "Are you asking about revenue or profit?",
]

# The stub service answers each request after this delay (predicted-http).
STUB_DELAY_MS = 20.0

# score-offline carries CROSS_TURNS multi-span turns whose predicted spans
# straddle the gold spans. They are drawn from CROSS_SEED, not from --seed, so
# that the turns on which numeracy_f1's greedy pairing falls short of the
# optimal one are the same in every run.
CROSS_TURNS = 80
CROSS_SEED = "cross-overlap"

# ---------------------------------------------------------------- arithmetic

def ratio(num: int, den: int) -> tuple[int, int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den) or 1
    return num // g, den // g


def render(value: tuple[int, int], places: int = PRECISION) -> str:
    """Round half away from zero at `places`, drop trailing zeros."""
    num, den = value
    units, rem = divmod(abs(num) * 10**places, den)
    if 2 * rem >= den:
        units += 1
    digits = str(units).rjust(places + 1, "0")
    whole, frac = digits[:-places], digits[-places:].rstrip("0")
    text = whole + ("." + frac if frac else "")
    return "-" + text if num < 0 and units else text


def numeral(hundredths: int) -> str:
    """Table text of a value: comma-grouped integer or a 2-place decimal."""
    if hundredths % 100 == 0:
        return f"{hundredths // 100:,}"
    return f"{hundredths // 100}.{hundredths % 100:02d}"


# Each template: (canonical source, equivalent source, value) over operand
# texts a, b, c and their values A, B, C in hundredths.
def _templates(a, b, c, A, B, C):
    return [
        (f"({a}-{b})/{b}", f"{a}/{b}-1", ratio(A - B, B)),
        (f"{a}-{b}", f"-{b}+{a}", ratio(A - B, 100)),
        (f"({a}+{b}+{c})/3", f"({c}+{a}+{b})/3", ratio(A + B + C, 300)),
        (f"{a}/{b}", f"({a})/{b}", ratio(A, B)),
        (f"{a}+{b}", f"{b}+{a}", ratio(A + B, 100)),
    ]


# ---------------------------------------------------------------- answers

@dataclass(frozen=True)
class Answer:
    """One canonical answer and the payloads that denote it."""

    kind: str  # number | count | spans | clarify
    spans: tuple[str, ...]  # as the metric sees it: rendered number, count, spans or question
    payload: str  # executable target payload
    alt_payload: str  # a different payload text with the same canonical value

    @property
    def clarify(self) -> bool:
        return self.kind == "clarify"

    def target(self, alt: bool = False) -> str:
        flag = "True" if self.clarify else "False"
        return f"[clari.] {flag} [resp.] {self.alt_payload if alt else self.payload}"

    def response(self) -> str:
        """What the runner says to the user for this answer."""
        return ", ".join(self.spans)

    def key(self) -> tuple:
        if self.kind in ("number", "count"):
            return ("num", self.spans[0])
        if self.kind == "spans":
            return ("spans", tuple(sorted(s.lower() for s in self.spans)))
        return ("clarify", self.spans[0].lower())


def number_answer(source: str, alt: str, value: tuple[int, int]) -> Answer:
    return Answer("number", (render(value),), source, alt)


def count_answer(items: list[str]) -> Answer:
    listed = ", ".join(f'"{i}"' for i in items)
    permuted = ", ".join(f'"{i}"' for i in items[1:] + items[:1])
    return Answer("count", (str(len(items)),), f"len([{listed}])", f"len([{permuted}])")


def spans_answer(spans: list[str]) -> Answer:
    double = ", ".join(f'"{s}"' for s in spans)
    single = ", ".join(f"'{s}'" for s in spans)
    return Answer("spans", tuple(spans), f"[{double}]", f"[{single}]")


def clarify_answer(question: str) -> Answer:
    return Answer("clarify", (question,), f'["{question}"]', f"['{question}']")


MALFORMED = [
    "[clari.] False [resp.] ({a}+",
    "[clari.] Maybe [resp.] {a}",
    "[resp.] {a}",
    "[clari.] False [resp.] {a}/0",
    '[clari.] True [resp.] ["{w}", "{w}"]',
    '[clari.] False [resp.] len(["{w}"])+1',
    "[clari.] False [resp.]",
    "[clari.] False [resp.] {a} @ 3",
]


# ---------------------------------------------------------------- corpus

@dataclass
class Turn:
    turn_id: str
    answer_type: str
    scale: str
    gold: Answer
    wrong: list[Answer]  # two answers with distinct keys, both unequal to gold
    operands: list[str] = field(default_factory=list)


@dataclass
class Corpus:
    blocks: list[dict]
    turns: list[Turn]
    dialogue_turns: list[list[Turn]]
    queries: dict[str, str]


class _Draw:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def words(self, pool: list[str], n: int, avoid: set[str] = frozenset()) -> list[str]:
        out: list[str] = []
        while len(out) < n:
            w = self.rng.choice(pool)
            if w not in out and w not in avoid:
                out.append(w)
        return out

    def hundredths(self) -> int:
        if self.rng.random() < 0.5:
            return self.rng.randint(1_000, 99_999) * 100  # "3,711"
        return self.rng.randint(100, 99_999)  # "36.61"


def _arith(draw: _Draw, cells: list[tuple[str, int]]) -> tuple[Answer, list[Answer], list[str]]:
    rng = draw.rng
    while True:
        (a, A), (b, B), (c, C) = rng.sample(cells, 3)
        options = _templates(a, b, c, A, B, C)
        pick = rng.randrange(len(options))
        gold = number_answer(*options[pick])
        wrong = [number_answer(*o) for i, o in enumerate(options) if i != pick]
        distinct = {}
        for w in wrong:
            distinct.setdefault(w.spans[0], w)
        distinct.pop(gold.spans[0], None)
        if len(distinct) >= 2:
            return gold, rng.sample(list(distinct.values()), 2), [a, b, c]


def _wrong_spans(draw: _Draw, sizes: list[int], avoid: Answer | None = None) -> Answer:
    used = {w for s in avoid.spans for w in s.split()} if avoid else set()
    spans = []
    for n in sizes:
        ws = draw.words(WRONG_WORDS, n, used)
        used.update(ws)
        spans.append(" ".join(ws))
    return spans_answer(spans)


def _make_turn(draw: _Draw, dialogue_id: str, order: int, doc) -> tuple[Turn, dict]:
    rng = draw.rng
    labels, cells, paragraphs = doc
    answer_type = rng.choices(list(TYPE_WEIGHTS), list(TYPE_WEIGHTS.values()))[0]
    turn_id = f"{dialogue_id}-q{order}"
    scale = ""
    derivation = ""
    operands: list[str] = []
    label = rng.choice(labels)
    if answer_type == "arithmetic":
        gold, wrong, operands = _arith(draw, cells)
        scale = rng.choice(ARITH_SCALES)
        derivation = gold.payload
        answer: object = gold.spans[0]
        question = f"What is the {rng.choice(['change', 'ratio', 'average', 'total'])} of {label} over {rng.choice(YEARS)}?"
    elif answer_type == "count":
        n = rng.randint(2, min(5, len(labels)))
        items = rng.sample(labels, n)
        gold = count_answer(items)
        extra = [" ".join(draw.words(WRONG_WORDS, 2)) for _ in range(2)]
        other = items[:-1] if n > 2 else items + extra  # n - 1 or n + 2 items
        wrong = [count_answer(items + extra[:1]), count_answer(other)]
        derivation = "##".join(items)
        answer = n
        question = f"How many items are listed for {rng.choice(YEARS)}?"
    elif answer_type in ("span", "multi-span"):
        n_spans = 1 if answer_type == "span" else rng.randint(2, 3)
        spans: list[str] = []
        used: set[str] = set()
        while len(spans) < n_spans:
            text = rng.choice(paragraphs).split()
            start = rng.randrange(len(text) - 3)
            ws = text[start : start + rng.randint(1, 3)]
            if used.isdisjoint(ws) and len(set(ws)) == len(ws):
                spans.append(" ".join(ws))
                used.update(ws)
        gold = spans_answer(spans)
        sizes = [len(s.split()) for s in spans]
        first = _wrong_spans(draw, sizes)
        wrong = [first, _wrong_spans(draw, sizes[:1], avoid=first)]
        answer = spans if answer_type == "multi-span" else spans[0]
        question = f"Which {rng.choice(['terms', 'phrases', 'items'])} describe {label}?"
    else:
        gold = clarify_answer(rng.choice(CLARI_QUESTIONS))
        wrong = [_wrong_spans(draw, [2]), number_answer(*_templates("1", "2", "3", 100, 200, 300)[0])]
        answer = gold.spans[0]
        question = f"What was the value of {label}?"
    source = rng.choice(["table", "text", "table-text"])
    if answer_type == "clarification" and rng.random() < 0.3:
        wrong[1] = clarify_answer(rng.choice([q for q in CLARI_QUESTIONS if q != gold.spans[0]]))
    elif answer_type != "clarification" and rng.random() < 0.15:
        wrong[1] = clarify_answer(rng.choice(CLARI_QUESTIONS))  # asks when it should answer
    record = {
        "uid": turn_id,
        "order": order,
        "question": question,
        "answer": answer,
        "answer_type": answer_type,
        "answer_from": source,
        "derivation": derivation,
        "scale": scale,
        "req_clari": answer_type == "clarification",
        "clari_question": gold.spans[0] if answer_type == "clarification" else "",
    }
    turn = Turn(turn_id, answer_type, scale, gold, wrong, operands)
    return turn, record


def _document(draw: _Draw, uid: str):
    rng = draw.rng
    labels = [" ".join(draw.words(GOLD_WORDS, 2)) for _ in range(rng.randint(6, 10))]
    rows = [["Item"] + YEARS]
    cells: list[tuple[str, int]] = []
    for label in labels:
        row = [label]
        for _ in YEARS:
            v = draw.hundredths()
            cells.append((numeral(v), v))
            row.append(numeral(v))
        rows.append(row)
    paragraphs = [" ".join(draw.words(GOLD_WORDS, rng.randint(24, 40))) for _ in range(3)]
    table = {"uid": uid, "cells": rows}
    para_records = [{"uid": f"{uid}-p{i + 1}", "order": i + 1, "text": t} for i, t in enumerate(paragraphs)]
    return (labels, cells, paragraphs), table, para_records


def dialogue_lengths(rng: random.Random, total: int) -> list[int]:
    lengths = []
    while total > 0:
        n = min(total, rng.randint(4, 10))
        lengths.append(n)
        total -= n
    return lengths


def make_corpus(seed: int, turns: int, prefix: str) -> Corpus:
    draw = _Draw(random.Random(seed))
    blocks, all_turns, by_dialogue = [], [], []
    queries: dict[str, str] = {}
    for d, n in enumerate(dialogue_lengths(draw.rng, turns)):
        dialogue_id = f"{prefix}{d:04d}"
        doc, table, paragraphs = _document(draw, f"doc-{dialogue_id}")
        questions, dlg_turns = [], []
        for order in range(1, n + 1):
            turn, record = _make_turn(draw, dialogue_id, order, doc)
            questions.append(record)
            dlg_turns.append(turn)
            queries[turn.turn_id] = record["question"]
        blocks.append({"uid": dialogue_id, "table": table, "paragraphs": paragraphs, "questions": questions})
        all_turns.extend(dlg_turns)
        by_dialogue.append(dlg_turns)
    return Corpus(blocks, all_turns, by_dialogue, queries)


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


def write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------- expectations

@dataclass
class Expect:
    """What the program must report for one turn."""

    turn_id: str
    gold_spans: tuple[str, ...]
    pred_spans: tuple[str, ...]  # expected prediction, as the metric sees it
    text: str  # expected final_response
    em: int
    fallback: bool = False
    pred_clarify: bool = False
    gold_clarify: bool = False
    winner_votes: int = 0
    discarded: int = 0


def expect(turn: Turn, pred: Answer | None, scale: str = "", **extra) -> Expect:
    """EM is 1 only for the gold answer with the gold scale: run_eval predicts
    no scale, so a scaled gold turn never matches there."""
    em = pred is not None and pred.key() == turn.gold.key() and scale == turn.scale
    return Expect(
        turn.turn_id,
        turn.gold.spans,
        pred.spans if pred else (),
        pred.response() if pred else "",
        int(em),
        pred_clarify=pred is not None and pred.clarify,
        gold_clarify=turn.gold.clarify,
        **extra,
    )


# ---------------------------------------------------------------- cv-gold

def make_cv_gold(seed: int, workdir: Path, turns: int = 1960) -> dict[str, Expect]:
    """40 sampled decodes per turn with a strict plurality, plus fallback turns."""
    corpus = make_corpus(seed, turns, "cv")
    rng = random.Random(seed * 7919 + 1)
    fallback_ids = set(rng.sample([t.turn_id for t in corpus.turns], max(1, turns // 100)))
    expects: dict[str, Expect] = {}
    replay = []
    for turn in corpus.turns:
        a = turn.operands[0] if turn.operands else "7"
        w = turn.gold.spans[0].split()[0]
        malformed = [m.format(a=a, w=w) for m in MALFORMED]
        if turn.turn_id in fallback_ids:
            samples = [rng.choice(malformed) for _ in range(NUM_SAMPLES)]
            greedy = turn.gold if rng.random() < 0.7 else turn.wrong[0]
            replay.append({"turn_id": turn.turn_id, "mode": "greedy", "outputs": [{"text": greedy.target()}]})
            winner, votes, discarded = greedy, 0, NUM_SAMPLES
        else:
            correct = rng.random() < 0.85
            winner = turn.gold if correct else turn.wrong[0]
            others = turn.wrong if correct else [turn.gold, turn.wrong[1]]
            votes = rng.randint(16, 30)
            discarded = rng.randint(0, 4)
            rest = NUM_SAMPLES - votes - discarded
            first = rng.randint((rest + 1) // 2, min(rest, votes - 1))
            alt = rng.randint(0, votes)
            samples = (
                [winner.target()] * (votes - alt)
                + [winner.target(alt=True)] * alt
                + [others[0].target()] * first
                + [others[1].target()] * (rest - first)
                + [rng.choice(malformed) for _ in range(discarded)]
            )
            rng.shuffle(samples)
        outputs = [{"text": s} for s in samples]
        if rng.random() < 0.5:
            for o in outputs:
                o["score"] = round(-rng.random() * 5, 3)
        replay.append({"turn_id": turn.turn_id, "mode": "sample", "outputs": outputs})
        expects[turn.turn_id] = expect(
            turn, winner, fallback=turn.turn_id in fallback_ids, winner_votes=votes, discarded=discarded
        )
    write_json(workdir / "corpus.json", corpus.blocks)
    write_jsonl(workdir / "replay.jsonl", replay)
    return expects


# ---------------------------------------------------------------- score-offline

def _partial_spans(draw: _Draw, gold: Answer) -> Answer:
    """Each predicted span overlaps its own gold span only. Predictions that
    straddle gold spans are drawn in the cross-overlap block instead, where
    they do not depend on --seed."""
    rng = draw.rng
    spans = []
    for s in gold.spans:
        ws = s.split()
        if len(ws) > 1 and rng.random() < 0.5:
            ws = ws[:-1]
        ws = ws + draw.words(WRONG_WORDS, 1)
        spans.append(" ".join(ws))
    if rng.random() < 0.3:
        spans.append(" ".join(draw.words(WRONG_WORDS, 2)))
    rng.shuffle(spans)
    return spans_answer(spans)


def _windows(rng: random.Random, phrase: list[str], n: int) -> list[str]:
    """n distinct runs of 1-3 consecutive words of the phrase; runs may overlap."""
    out: list[str] = []
    while len(out) < n:
        start = rng.randrange(len(phrase))
        text = " ".join(phrase[start : start + rng.randint(1, 3)])
        if text not in out:
            out.append(text)
    return out


def _cross_block() -> tuple[dict, list[Expect], list[dict]]:
    """CROSS_TURNS multi-span turns whose gold and predicted spans are windows
    of one short phrase, so a predicted span often straddles two gold spans.
    Each turn's F1 is checked against the optimal pairing; where the greedy
    pairing of numeracy_f1 gives less, the turn fails. None is left out."""
    draw = _Draw(random.Random(CROSS_SEED))
    rng = draw.rng
    questions, expects, predictions = [], [], []
    for order in range(1, CROSS_TURNS + 1):
        turn_id = f"cross-q{order}"
        phrase = draw.words(GOLD_WORDS, rng.randint(4, 6))
        gold = _windows(rng, phrase, rng.randint(2, 3))
        spans = _windows(rng, phrase, rng.randint(1, 3))
        if rng.random() < 0.3:
            spans[rng.randrange(len(spans))] += " " + draw.words(WRONG_WORDS, 1)[0]
        pred = spans_answer(spans)
        questions.append({
            "uid": turn_id, "order": order, "question": f"Which phrases describe item {order}?",
            "answer": gold, "answer_type": "multi-span", "answer_from": "text",
            "derivation": "", "scale": "", "req_clari": False, "clari_question": "",
        })
        predictions.append({"turn_id": turn_id, "output": pred.target()})
        em = pred.key() == spans_answer(gold).key()
        expects.append(Expect(turn_id, tuple(gold), pred.spans, pred.response(), int(em)))
    table = {"uid": "doc-cross", "cells": [["Item", "2019"], ["fixed", "1"]]}
    block = {"uid": "cross", "table": table, "paragraphs": [], "questions": questions}
    return block, expects, predictions


def make_score_offline(seed: int, workdir: Path, turns: int = 8000) -> dict[str, Expect]:
    """One decode per turn: exact, equivalent, numerically wrong, scale-mismatched,
    partially overlapping, malformed and missing predictions, plus the
    cross-overlap block, the same for every seed."""
    cross_block, cross_expects, cross_predictions = _cross_block()
    corpus = make_corpus(seed, turns - len(cross_expects), "so")
    draw = _Draw(random.Random(seed * 7919 + 2))
    rng = draw.rng
    expects: dict[str, Expect] = {}
    predictions = []
    for turn in corpus.turns:
        pred: Answer | None = turn.gold
        scale = turn.scale
        raw = None
        roll = rng.random()
        if roll < 0.06:
            pred, raw = None, rng.choice(MALFORMED).format(a="7", w="x")
        elif roll < 0.09:
            pred = None  # no prediction line at all
        elif roll < 0.45:
            if turn.answer_type == "multi-span" or (turn.answer_type == "span" and roll < 0.25):
                pred = _partial_spans(draw, turn.gold)
            elif turn.answer_type == "arithmetic" and roll < 0.25:
                scale = rng.choice([s for s in set(ARITH_SCALES) if s != turn.scale])
            else:
                pred = rng.choice(turn.wrong)
        if raw is None and pred is not None:
            alt = rng.random() < 0.3
            if rng.random() < 0.5:
                line = {"turn_id": turn.turn_id, "output": pred.target(alt)}
            else:
                payload = pred.alt_payload if alt else pred.payload
                line = {"turn_id": turn.turn_id, "clarification": pred.clarify, "response": payload}
            if scale or rng.random() < 0.5:
                line["scale"] = scale
            predictions.append(line)
        elif raw is not None:
            predictions.append({"turn_id": turn.turn_id, "output": raw})
        expects[turn.turn_id] = expect(turn, pred, scale)
    for e in cross_expects:
        expects[e.turn_id] = e
    write_json(workdir / "corpus.json", corpus.blocks + [cross_block])
    write_jsonl(workdir / "predictions.jsonl", predictions + cross_predictions)
    return expects


# ---------------------------------------------------------------- predicted-http

def history_suffix(queries: list[str], responses: list[str]) -> str:
    """The end of the model input for the turn asking queries[-1]."""
    parts = []
    for i, q in enumerate(queries):
        parts += ["[user]", q]
        if i < len(responses):
            parts.append("[system]")
            if responses[i]:
                parts.append(responses[i])
    return " ".join(parts)


def make_predicted_http(seed: int, workdir: Path, turns: int = 400) -> dict[str, Expect]:
    """One greedy decode per turn, some wrong or malformed, so that the
    program's own answers (not gold) make up the history the stub checks."""
    corpus = make_corpus(seed, turns, "ph")
    rng = random.Random(seed * 7919 + 3)
    expects: dict[str, Expect] = {}
    book = []
    for dlg in corpus.dialogue_turns:
        queries: list[str] = []
        responses: list[str] = []
        for turn in dlg:
            queries.append(corpus.queries[turn.turn_id])
            roll = rng.random()
            pred: Answer | None = turn.gold if roll < 0.75 else turn.wrong[0] if roll < 0.95 else None
            text = pred.target(rng.random() < 0.3) if pred else rng.choice(MALFORMED).format(a="7", w="x")
            book.append({"turn_id": turn.turn_id, "text": text, "history": history_suffix(queries, responses)})
            expects[turn.turn_id] = expect(turn, pred)
            responses.append(pred.response() if pred else "")
    write_json(workdir / "corpus.json", corpus.blocks)
    write_jsonl(workdir / "stub_book.jsonl", book)
    return expects


WORKLOADS = {
    "cv-gold": make_cv_gold,
    "score-offline": make_score_offline,
    "predicted-http": make_predicted_http,
}
