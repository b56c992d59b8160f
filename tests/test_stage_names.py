"""The stage names the benchmark's tracer wraps are all still called.

`bench/tracing.py` replaces these module attributes with timing wrappers
and stops a traced run when one of them records no call. A rewrite that
inlines a stage, or calls it under another name, fails here first.
"""

import pcqa
from pcqa import derivation, generation, runner, voting
from pcqa.generation import ReplayGenerator
from pcqa.runner import RunConfig

# (owner, attribute) as bench/tracing.py's install() wraps them.
TRACED = [
    (pcqa, "run_eval"),
    (pcqa, "score_predictions"),
    (runner, "run_turn"),
    (runner, "build_model_input"),
    (runner, "consensus_vote"),
    (runner, "greedy_select"),
    (runner, "canonicalize"),
    (runner, "record_scores"),  # the tracer also wraps metrics.record_scores into the same span
    (runner, "aggregate_report"),
    (voting, "parse_output"),
    (voting, "execute_source"),
    (derivation, "tokenize"),
    (derivation, "parse"),
    (derivation, "evaluate"),
    (generation.ReplayGenerator, "generate"),
]


def test_every_traced_name_is_called(monkeypatch, fixtures_dir, small_corpus):
    calls = dict.fromkeys([(owner.__name__, attr) for owner, attr in TRACED], 0)
    for owner, attr in TRACED:
        original = getattr(owner, attr)

        def counted(*args, _key=(owner.__name__, attr), _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    replay = ReplayGenerator.from_jsonl(fixtures_dir / "corpus_small_replay.jsonl")
    pcqa.run_eval(small_corpus, replay, RunConfig(mode="cv"))
    pcqa.run_eval(small_corpus, replay, RunConfig(mode="greedy"))
    pcqa.score_predictions(fixtures_dir / "corpus_small_predictions.jsonl", small_corpus)

    assert [key for key, count in calls.items() if count == 0] == []


def test_build_model_input_gives_every_request_input(monkeypatch, fixtures_dir, small_corpus):
    """The tracer's linearize.build_input span times input building and its
    input_kb reads the size of what it returns: that holds only while the
    runner calls it once per turn and sends exactly what it returned."""
    built = []
    sent = []
    original_build = runner.build_model_input
    original_generate = ReplayGenerator.generate

    def build(*args):
        built.append(original_build(*args))
        return built[-1]

    def generate(self, request):
        sent.append(request.input)
        return original_generate(self, request)

    monkeypatch.setattr(runner, "build_model_input", build)
    monkeypatch.setattr(ReplayGenerator, "generate", generate)
    replay = ReplayGenerator.from_jsonl(fixtures_dir / "corpus_small_replay.jsonl")
    for mode in ("cv", "greedy"):
        built.clear()
        sent.clear()
        pcqa.run_eval(small_corpus, replay, RunConfig(mode=mode))
        assert len(built) == small_corpus.turn_count()
        assert all(isinstance(text, str) for text in built)
        assert sent and all(any(text is b for b in built) for text in sent)


def test_setup_entry_points_the_benchmark_calls(fixtures_dir):
    """bench/workload.py sets each workload up through these public names and
    keywords; a loader rewrite that renames one fails here, not in the benchmark."""
    corpus = pcqa.load_corpus(fixtures_dir / "corpus_small.json")
    replay = pcqa.ReplayGenerator.from_jsonl(fixtures_dir / "corpus_small_replay.jsonl")
    http = pcqa.HttpGenerator(endpoint="http://127.0.0.1:9")  # connects only on a request
    http.close()
    pcqa.RunConfig(mode="greedy", history="predicted", concurrency=2)
    config = pcqa.RunConfig(mode="cv", history="gold", concurrency=1)
    dialogues = corpus.dialogues
    part = pcqa.Corpus(documents=corpus.documents, dialogues=dialogues[: len(dialogues) // 2])
    assert part.turn_count() == sum(len(d.turns) for d in part.dialogues) > 0
    assert corpus.turn_count() == sum(len(d.turns) for d in dialogues)
    report, logs = pcqa.run_eval(part, replay, config)
    assert len(logs) == part.turn_count()
