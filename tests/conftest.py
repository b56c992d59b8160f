import sys
from pathlib import Path

import pytest

from pcqa.corpus import Corpus, DialogueTurn, load_corpus

FIXTURES = Path(__file__).parent / "fixtures"

# Make the oracle helpers importable from any test module.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return load_corpus(FIXTURES / "corpus_small.json")


@pytest.fixture(scope="session")
def table7_corpus() -> Corpus:
    return load_corpus(FIXTURES / "table7_corpus.json")


@pytest.fixture(scope="session")
def table7_replay_path() -> Path:
    return FIXTURES / "table7_replay.jsonl"


@pytest.fixture(scope="session")
def golden_input() -> str:
    return (FIXTURES / "linearize_golden.txt").read_text(encoding="utf-8").rstrip("\n")


def turn_by_id(corpus: Corpus, turn_id: str) -> DialogueTurn:
    """The corpus turn with this id."""
    turns = (turn for dialogue in corpus.dialogues for turn in dialogue.turns)
    return next(turn for turn in turns if turn.turn_id == turn_id)
