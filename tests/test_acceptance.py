"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail output.
"""

import json
import os
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pcqa.corpus import (
    Corpus,
    Dialogue,
    DialogueTurn,
    GoldTurnAnswer,
    build_examples,
    corpus_stats,
    load_corpus,
    load_release_file,
    read_expectations,
    validate_corpus,
)
from pcqa.derivation import (
    DEFAULT_PRECISION,
    DivisionByZeroError,
    ExecutionFailure,
    execute_source,
)
from pcqa.generation import GeneratedOutput, ReplayGenerator
from pcqa.linearize import HybridDocument, Task
from pcqa.metrics import classification_prf, numeracy_f1, rouge2_f1
from pcqa.runner import RunConfig, run_eval, score_predictions
from pcqa.voting import (
    ClarifyAnswer,
    NumericAnswer,
    canonicalize,
    consensus_vote,
)

from oracle_rational import oracle_eval, random_arithmetic_expr, to_source
from reference_drop import ref_numeracy_f1


def _passed(line: str) -> None:
    print(f"\nACCEPTANCE PASS: {line}")


def test_derivation_evaluator_oracle_suite():
    """10,000 fuzzed sources execute exactly as the brute-force evaluator says, < 5 s."""
    rng = random.Random(16180339)
    started = time.perf_counter()
    checked = 0
    zero_divisions = 0
    for _ in range(10_000):
        expr = random_arithmetic_expr(rng)
        source = to_source(expr)
        try:
            expected = oracle_eval(expr)
        except ZeroDivisionError:
            with pytest.raises(ExecutionFailure) as err:
                execute_source(source)
            assert isinstance(err.value.detail, DivisionByZeroError)
            zero_divisions += 1
            continue
        value = execute_source(source).value
        assert (value.numerator, value.denominator) == expected
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked + zero_divisions == 10_000
    # the error path must agree too, whatever the fuzz happened to draw
    forced = ("div", ("num", "1"), ("sub", ("num", "2"), ("num", "2")))
    with pytest.raises(ZeroDivisionError):
        oracle_eval(forced)
    with pytest.raises(ExecutionFailure) as err:
        execute_source(to_source(forced))
    assert isinstance(err.value.detail, DivisionByZeroError)
    assert elapsed < 5.0, f"fuzz suite took {elapsed:.2f}s"
    _passed(
        f"oracle fuzz: 10,000 expressions ({checked} values, {zero_divisions} "
        f"agreed division-by-zero) in {elapsed:.2f}s"
    )


def test_paper_execution_examples():
    """Quotient renders 0.7854; the count example yields 2; equivalent derivations share a group."""
    quotient = execute_source("(36.6-20.5)/20.5")
    assert quotient.text() == "0.7854"
    assert quotient.value == Fraction(161, 205)
    count = execute_source('len(["2018","2019"])')
    assert count.count == 2
    a = canonicalize("[clari.] False [resp.] (88-105)/105")
    b = canonicalize("[clari.] False [resp.] 88/105-1")
    assert a.key() == b.key()
    assert a.value == Fraction(-17, 105)
    _passed("execution examples: 0.7854, count=2, (88-105)/105 == 88/105-1 exactly")


def test_table7_case_studies(table7_corpus, table7_replay_path):
    """Replay reproduces both vote distributions and both greedy baselines exactly."""
    generator = ReplayGenerator.from_jsonl(table7_replay_path)
    _, logs = run_eval(table7_corpus, generator, RunConfig(mode="cv"))
    by_turn = {log["turn_id"]: log for log in logs}

    case1 = by_turn["t7c1-q1"]
    assert [t["votes"] for t in case1["vote"]["tallies"]] == [24, 12, 4]
    assert case1["final_response"] == "2.0033"
    winner_key = ("num", 601, 300)
    for order in ("(1.06+0.91+4.04)/3", "(1.06+4.04+0.91)/3"):
        answer = canonicalize(f"[clari.] False [resp.] {order}")
        assert answer.key() == winner_key
    raws = case1["samples"]
    assert any("(1.06+0.91+4.04)/3" in raw for raw in raws)
    assert any("(1.06+4.04+0.91)/3" in raw for raw in raws)

    case2 = by_turn["t7c2-q1"]
    assert [t["votes"] for t in case2["vote"]["tallies"]] == [22, 10, 4, 2]
    assert case2["vote"]["discarded"] == 2
    assert case2["clarification_pred"] is True
    assert case2["final_response"] == "Which period are you asking about?"

    _, greedy_logs = run_eval(table7_corpus, generator, RunConfig(mode="greedy"))
    greedy = {log["turn_id"]: log["final_response"] for log in greedy_logs}
    assert greedy["t7c1-q1"] == "1.9933"  # (1.06+0.91+4.01)/3
    assert greedy["t7c2-q1"] == "0"  # (576523-576523)/576523
    _passed("case studies: tallies 24/12/4 and 22/10/4/2, both greedy rows reproduced")


OFFICIAL_EXPECTATIONS = {
    "train": {"dialogues": 2201, "turns": 15087, "clarifying_turns": 1872},
    "dev": {"dialogues": 278, "turns": 1982, "clarifying_turns": 320},
    "test": {"dialogues": 278, "turns": 1939, "clarifying_turns": 270},
}
OFFICIAL_TOTALS = {"turns": 19008, "arithmetic": 6961, "clarification": 2462}


def _official_data_dir() -> Path | None:
    candidates = []
    if os.environ.get("PACIFIC_DATA_DIR"):
        candidates.append(Path(os.environ["PACIFIC_DATA_DIR"]))
    candidates.append(Path(__file__).resolve().parents[1] / "data" / "pacific")
    for candidate in candidates:
        if candidate.is_dir() and any(candidate.glob("*.json")):
            return candidate
    return None


def _find_split_file(data_dir: Path, split: str) -> Path | None:
    for pattern in (f"{split}.json", f"*{split}*.json"):
        matches = sorted(data_dir.glob(pattern))
        if matches:
            return matches[0]
    return None


def test_corpus_validation_statistics(fixtures_dir):
    """Official-release stats when supplied; the hand-counted fixture otherwise."""
    data_dir = _official_data_dir()
    if data_dir is not None:
        totals = {"turns": 0, "arithmetic": 0, "clarification": 0}
        for split, want in OFFICIAL_EXPECTATIONS.items():
            split_file = _find_split_file(data_dir, split)
            assert split_file is not None, f"missing {split} file under {data_dir}"
            corpus = load_release_file(split_file)
            stats = corpus_stats(corpus)
            assert stats.dialogues == want["dialogues"], split
            assert stats.turns == want["turns"], split
            assert stats.clarifying_turns == want["clarifying_turns"], split
            totals["turns"] += stats.turns
            totals["arithmetic"] += stats.type_total("arithmetic")
            totals["clarification"] += stats.type_total("clarification")
        assert totals == OFFICIAL_TOTALS
        _passed("corpus statistics match the published split and type totals")
        return
    corpus = load_corpus(fixtures_dir / "corpus_small.json")
    expected = read_expectations(
        json.loads((fixtures_dir / "corpus_small_expected.json").read_text())
    )
    report = validate_corpus(corpus, expected)
    assert report.passed, [f"{f.kind}@{f.where}: {f.detail}" for f in report.findings]
    stats = report.stats
    assert (stats.dialogues, stats.turns, stats.clarifying_turns) == (5, 16, 2)
    assert round(stats.avg_turns_per_dialogue, 1) == 3.2
    assert round(stats.avg_words_per_question, 1) == 6.6
    assert round(stats.avg_words_per_answer, 1) == 2.0
    assert stats.type_total("arithmetic") == 7
    assert stats.type_total("clarification") == 2
    _passed(
        "corpus statistics: official release absent; 5-dialogue fixture matches "
        "hand-counted stats exactly"
    )


def test_reconstruction_soundness(fixtures_dir):
    """Reconstructed arithmetic targets execute to the gold answer at rendered precision."""
    data_dir = _official_data_dir()
    if data_dir is not None:
        corpora = [
            load_release_file(_find_split_file(data_dir, split))
            for split in OFFICIAL_EXPECTATIONS
        ]
    else:
        corpora = [load_corpus(fixtures_dir / "corpus_small.json")]
    total = 0
    validated = 0
    mismatches = []
    for corpus in corpora:
        report = validate_corpus(corpus, None)
        total += report.arithmetic_turns
        validated += report.validated_arithmetic_turns
        mismatches += [f"{f.where}: {f.detail}" for f in report.findings]
    for line in mismatches:
        print("MISMATCH", line)
    assert total > 0
    rate = validated / total
    assert rate >= 0.99, f"only {validated}/{total} arithmetic turns validate"
    _passed(f"reconstruction soundness: {validated}/{total} arithmetic turns validate")


def test_metric_oracle_suite(fixtures_dir):
    """Numeracy F1 matches the independent reference within 1e-6; hand cases exact."""
    pairs = json.loads((fixtures_dir / "numeracy_pairs.json").read_text())
    assert len(pairs) == 50
    worst = 0.0
    for pair in pairs:
        actual = numeracy_f1(pair["pred"], pair["gold"])
        frozen = pair["expected_f1"]
        live = ref_numeracy_f1(pair["pred"], pair["gold"], DEFAULT_PRECISION)
        worst = max(worst, abs(actual - frozen), abs(actual - live))
        assert abs(actual - frozen) <= 1e-6, pair
        assert abs(actual - live) <= 1e-6, pair
    rouge = rouge2_f1("which year are you asking about", "which period are you asking about")
    assert rouge == pytest.approx(0.6, abs=1e-12)
    prf = classification_prf([True, True, False, False], [True, False, True, False])
    assert prf == (0.5, 0.5, 0.5)
    _passed(
        f"metric oracles: 50-pair reference agreement (max |diff| {worst:.2e}), "
        "ROUGE-2 = 0.6, CNP PRF = (0.5, 0.5, 0.5)"
    )


def _synthetic_corpus(n_dialogues: int = 277, turns_per_dialogue: int = 7) -> Corpus:
    doc = HybridDocument(
        uid="synth-doc",
        paragraphs=("Synthetic financial report paragraph for throughput testing.",),
        table=(("Item", "2018", "2019"), ("Revenue", "100", "140")),
    )
    dialogues = []
    for d in range(n_dialogues):
        turns = []
        for t in range(1, turns_per_dialogue + 1):
            a = d + t
            b = d + 2 * t + 1
            gold = GoldTurnAnswer(
                answer_type="arithmetic",
                answer=(a + b) / 2,
                derivation=f"({a}+{b})/2",
                scale="",
                source="table",
                req_clari=False,
                clarification_question="",
            )
            turns.append(
                DialogueTurn(
                    turn_id=f"s{d}-q{t}",
                    question=f"What is the average of {a} and {b}?",
                    gold=gold,
                )
            )
        dialogues.append(Dialogue(dialogue_id=f"synth-{d}", doc_uid="synth-doc", turns=tuple(turns)))
    return Corpus(documents={"synth-doc": doc}, dialogues=tuple(dialogues))


def test_offline_scoring_throughput(tmp_path):
    """1,939 turns score in < 10 s; a 40-sample vote takes < 5 ms."""
    corpus = _synthetic_corpus()
    assert corpus.turn_count() == 1939
    path = tmp_path / "preds.jsonl"
    with open(path, "w") as fh:
        for dialogue in corpus.dialogues:
            for turn in dialogue.turns:
                line = {
                    "turn_id": turn.turn_id,
                    "output": f"[clari.] False [resp.] {turn.gold.derivation}",
                }
                fh.write(json.dumps(line) + "\n")
    started = time.perf_counter()
    report, _ = score_predictions(path, corpus)
    elapsed = time.perf_counter() - started
    assert report.overall_em == 1.0
    assert elapsed < 10.0, f"scoring took {elapsed:.2f}s"

    texts = (
        ["[clari.] False [resp.] (1.06+0.91+4.04)/3"] * 13
        + ["[clari.] False [resp.] (1.06+4.04+0.91)/3"] * 11
        + ["[clari.] False [resp.] (1.06+0.91+4.01)/3"] * 12
        + ["[clari.] False [resp.] (1.06+0.91+4.04)/2"] * 4
    )
    samples = tuple(GeneratedOutput(text) for text in texts)
    rounds = 200
    started = time.perf_counter()
    for _ in range(rounds):
        vote = consensus_vote(samples)
    per_vote = (time.perf_counter() - started) / rounds
    assert vote.counts() == [24, 12, 4]
    assert per_vote < 0.005, f"vote took {per_vote * 1000:.2f} ms"
    _passed(
        f"throughput: 1,939 turns scored in {elapsed:.2f}s; "
        f"40-sample vote in {per_vote * 1000:.2f} ms"
    )


def _oracle_replay(corpus: Corpus) -> ReplayGenerator:
    entries = {}
    for example in build_examples(corpus, Task.MULTI):
        entries[(example.turn_id, "greedy")] = [GeneratedOutput(text=example.target_text)]
    return ReplayGenerator(entries)


def test_model_quality_substitute(small_corpus):
    """Oracle replay scores perfectly; corrupting k of n turns lowers EM by exactly k/n.

    The published model-quality numbers need fine-tuned generators behind the
    wire and are out of desk-scale reach; this property stands in for them.
    """
    generator = _oracle_replay(small_corpus)
    report, _ = run_eval(small_corpus, generator, RunConfig(mode="greedy"))
    assert report.overall_em == 1.0
    assert report.overall_f1 == 1.0
    assert report.cnp_f1 == 1.0

    n = small_corpus.turn_count()
    assert n == 16
    corrupted_ids = ["a1-q4", "a2-q1", "b2-q2", "c-q2"]  # k = 4 arithmetic turns
    corrupted = _oracle_replay(small_corpus)
    for turn_id in corrupted_ids:
        corrupted.entries[(turn_id, "greedy")] = [
            GeneratedOutput(text="[clari.] False [resp.] (1+1)/2")
        ]
    report_k, logs_k = run_eval(small_corpus, corrupted, RunConfig(mode="greedy"))
    k = len(corrupted_ids)
    assert report_k.overall_em == (n - k) / n  # exact: n is a power of two
    assert report.overall_em - report_k.overall_em == k / n
    wrong = [log["turn_id"] for log in logs_k if log["em"] == 0]
    assert sorted(wrong) == sorted(corrupted_ids)
    _passed(
        "model-quality substitute: oracle replay EM=F1=CNP F1=1.0; "
        f"corrupting {k}/{n} turns lowers EM by exactly {k}/{n}"
    )
