"""Every object the loaders build from the test fixtures, field for field.

`fixtures/loaded_objects.jsonl` holds one JSON line per loaded object:
each document's paragraphs and table and each turn's fields, its canonical
answer and its gold response text, for `corpus_small.json`,
`table7_corpus.json` and a release-format file built here from
`corpus_small.json` with messy whitespace and ragged rows; then every key of
both replay fixtures with its `(text, score)` list. Rewrite the file with
`PYTHONPATH=src python tests/test_loaded_objects.py`, and only when what the
loaders build is meant to change.
"""

import json
import tempfile
from pathlib import Path

from pcqa.corpus import load_corpus, load_release_file
from pcqa.generation import ReplayGenerator

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "loaded_objects.jsonl"
CORPORA = ("corpus_small.json", "table7_corpus.json")
REPLAYS = ("corpus_small_replay.jsonl", "table7_replay.jsonl")
# Whitespace that str.split and the regex \s both count, beyond the ASCII space.
MESS = ("\t", "\n", "\u00a0", "\u2003", "\u3000", "\x1c", "\u2028", "\r\n ")


def _messy(text: str, i: int) -> str:
    """`text` with its spaces swapped for assorted whitespace and padded at both ends."""
    pieces = text.split(" ")
    out = pieces[0]
    for j, piece in enumerate(pieces[1:]):
        out += MESS[(i + j) % len(MESS)] + piece
    return f"{MESS[i % len(MESS)]}{out}{MESS[(i + 3) % len(MESS)]} "


def write_release_file(path: Path) -> None:
    """`corpus_small.json` in the public release's shape: the grid under
    table.table, rows cut ragged, whitespace made messy, orders dropped and
    clarifying turns marked only by req_clari with the question as answer."""
    blocks = json.loads((FIXTURES / "corpus_small.json").read_text(encoding="utf-8"))
    release = []
    counter = 0
    for block in blocks:
        if "table" not in block:
            continue
        cells = [
            [_messy(cell, counter + k) for k, cell in enumerate(row)]
            for row in block["table"]["cells"]
        ]
        cells[-1] = cells[-1][:-1]  # ragged: right-padded at load
        paragraphs = [
            {**p, "text": _messy(p["text"], counter)} for p in block["paragraphs"]
        ] + [{"uid": "blank", "order": 99, "text": "  \t "}]
        questions = []
        for q in block["questions"]:
            counter += 1
            entry = {
                "uid": q["uid"],
                "question": _messy(q["question"], counter),
                "answer_type": q["answer_type"],
                "answer_from": q["answer_from"],
                "derivation": _messy(q["derivation"], counter) if q["derivation"] else "",
                "scale": q["scale"],
            }
            if q["req_clari"]:
                entry.update(req_clari=True, answer=_messy(q["clari_question"], counter))
                del entry["answer_type"]
            elif isinstance(q["answer"], list):
                entry["answer"] = [_messy(a, counter) for a in q["answer"]]
            else:
                entry["answer"] = q["answer"]
            questions.append(entry)
        release.append(
            {
                "table": {"uid": block["table"]["uid"], "table": cells},
                "paragraphs": paragraphs,
                "questions": questions,
            }
        )
    path.write_text(json.dumps(release, ensure_ascii=False), encoding="utf-8")


def _corpus_lines(name: str, corpus) -> list[dict]:
    lines = []
    for uid, doc in corpus.documents.items():
        lines.append(
            {
                "corpus": name,
                "document": uid,
                "paragraphs": list(doc.paragraphs),
                "table": [list(row) for row in doc.table],
            }
        )
    for dialogue in corpus.dialogues:
        for turn in dialogue.turns:
            gold = turn.gold
            lines.append(
                {
                    "corpus": name,
                    "dialogue": dialogue.dialogue_id,
                    "doc_uid": dialogue.doc_uid,
                    "turn_id": turn.turn_id,
                    "question": turn.question,
                    "answer_type": gold.answer_type,
                    "answer": gold.answer,
                    "derivation": gold.derivation,
                    "scale": gold.scale,
                    "source": gold.source,
                    "req_clari": gold.req_clari,
                    "clarification_question": gold.clarification_question,
                    "canonical": gold.canonical.describe(),
                    "response_text": gold.response_text(),
                }
            )
    return lines


def collect_loaded_objects(scratch: Path) -> list[dict]:
    lines = []
    for name in CORPORA:
        lines += _corpus_lines(name, load_corpus(FIXTURES / name))
    release_path = scratch / "release.json"
    write_release_file(release_path)
    lines += _corpus_lines("release", load_release_file(release_path))
    for name in REPLAYS:
        replay = ReplayGenerator.from_jsonl(FIXTURES / name)
        for (turn_id, mode), outputs in replay.entries.items():
            lines.append(
                {
                    "replay": name,
                    "turn_id": turn_id,
                    "mode": mode,
                    "outputs": [[o.text, o.score] for o in outputs],
                }
            )
    return lines


def test_loaded_objects_match_golden(tmp_path):
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    collected = collect_loaded_objects(tmp_path)
    assert len(collected) == len(golden)
    for got, want in zip(collected, golden):
        assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch, open(GOLDEN, "w", encoding="utf-8") as handle:
        for line in collect_loaded_objects(Path(scratch)):
            handle.write(json.dumps(line, ensure_ascii=False) + "\n")
