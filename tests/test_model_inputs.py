"""Every model input the package builds for the test fixtures, byte for byte.

`fixtures/model_inputs.jsonl` holds one JSON line per input: each
`request.input` a generator receives from `run_eval` on both fixture corpora
(cv and greedy, gold and predicted history, concurrency 1), each
`build_examples(..., Task.MULTI)` input, and the `pcqa linearize` output for
every turn of every `corpus_small` dialogue. Rewrite the file with
`PYTHONPATH=src python tests/test_model_inputs.py`, and only when the input
format is meant to change.
"""

import contextlib
import io
import json
from pathlib import Path

from pcqa.cli import main
from pcqa.corpus import build_examples, load_corpus
from pcqa.generation import ReplayGenerator
from pcqa.linearize import Task
from pcqa.runner import RunConfig, run_eval

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "model_inputs.jsonl"
CORPORA = {
    "corpus_small": ("corpus_small.json", "corpus_small_replay.jsonl"),
    "table7_corpus": ("table7_corpus.json", "table7_replay.jsonl"),
}


class RecordingGenerator:
    """Replays canned decodes and keeps every request it receives."""

    def __init__(self, replay):
        self.replay = replay
        self.requests = []

    def generate(self, request):
        self.requests.append(request)
        return self.replay.generate(request)


def collect_model_inputs() -> list[dict]:
    lines = []
    for name, (corpus_file, replay_file) in CORPORA.items():
        corpus = load_corpus(FIXTURES / corpus_file)
        replay = ReplayGenerator.from_jsonl(FIXTURES / replay_file)
        for mode in ("cv", "greedy"):
            for history in ("gold", "predicted"):
                recorder = RecordingGenerator(replay)
                run_eval(corpus, recorder, RunConfig(mode=mode, history=history, concurrency=1))
                for request in recorder.requests:
                    lines.append(
                        {
                            "source": "run",
                            "corpus": name,
                            "mode": mode,
                            "history": history,
                            "turn_id": request.turn_id,
                            "request": request.mode,
                            "input": request.input,
                        }
                    )
        for example in build_examples(corpus, Task.MULTI):
            lines.append(
                {
                    "source": "examples",
                    "corpus": name,
                    "turn_id": example.turn_id,
                    "input": example.input_text,
                }
            )
    corpus_path = FIXTURES / "corpus_small.json"
    for dialogue in load_corpus(corpus_path).dialogues:
        for turn in range(1, len(dialogue.turns) + 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(
                    ["linearize", str(corpus_path), "--dialogue", dialogue.dialogue_id, "--turn", str(turn)]
                )
            assert code == 0
            lines.append(
                {
                    "source": "linearize",
                    "corpus": "corpus_small",
                    "dialogue": dialogue.dialogue_id,
                    "turn": turn,
                    "input": out.getvalue().rstrip("\n"),
                }
            )
    return lines


def test_model_inputs_match_golden():
    golden = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
    collected = collect_model_inputs()
    assert len(collected) == len(golden)
    for got, want in zip(collected, golden):
        assert got == want


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        for line in collect_model_inputs():
            handle.write(json.dumps(line, ensure_ascii=False) + "\n")
