import heapq
import io
import json
import random
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa import metrics, runner
from pcqa.corpus import build_examples, corpus_from_obj
from pcqa.generation import GeneratedOutput, ReplayGenerator, TransportError
from pcqa.linearize import Task, build_model_input, linearize_document
from pcqa.metrics import EmptyRecordSet, record_scores
from pcqa.runner import RunConfig, UnknownTurnId, run_eval, run_turn, score_predictions, write_jsonl
from pcqa.voting import NumericAnswer


def replay_from_examples(corpus, mode="greedy"):
    """Oracle generator: canned outputs are exactly the gold targets."""
    entries = {}
    for example in build_examples(corpus, Task.MULTI):
        entries[(example.turn_id, mode)] = [GeneratedOutput(text=example.target_text)]
    return ReplayGenerator(entries)


class RecordingGenerator:
    """Passes requests through and keeps each turn's model input."""

    def __init__(self, inner):
        self.inner = inner
        self.inputs = {}

    def generate(self, request):
        self.inputs[request.turn_id] = request.input
        return self.inner.generate(request)


def chain_corpus(lengths):
    """One dialogue of each length, every turn asking for the same span."""
    blocks = []
    for d, n in enumerate(lengths):
        questions = [
            {"uid": f"d{d}-q{t}", "order": t, "question": f"Revenue in 2019 ({t})?", "answer": "5",
             "answer_type": "span", "answer_from": "table"}
            for t in range(1, n + 1)
        ]
        table = {"uid": f"doc{d}", "cells": [["Item", "2019"], ["Revenue", "5"]]}
        blocks.append({"uid": f"d{d}", "table": table, "paragraphs": [], "questions": questions})
    return corpus_from_obj(blocks)


class OrderGenerator:
    """Answers every request with the gold span and notes the order of the
    requests. The first `meet` requests wait for each other, so none of them
    finishes before all of them have been made. A turn in `failing` waits the
    seconds it maps to, then raises a TransportError that names it."""

    def __init__(self, meet=0, interrupt=None, failing=None):
        self.requests = []
        self.lock = threading.Lock()
        self.meet = meet
        self.barrier = threading.Barrier(meet, timeout=10) if meet else None
        self.interrupt = interrupt
        self.failing = failing or {}

    def generate(self, request):
        with self.lock:
            self.requests.append(request.turn_id)
            first = len(self.requests) <= self.meet
        if first:
            self.barrier.wait()
        if request.turn_id == self.interrupt:
            raise KeyboardInterrupt
        if request.turn_id in self.failing:
            time.sleep(self.failing[request.turn_id])
            raise TransportError(request.turn_id)
        return (GeneratedOutput(text='[clari.] False [resp.] ["5"]'),)


class TestRunTurnAndEval:
    def test_table7_cv_run(self, table7_corpus, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        report, logs = run_eval(table7_corpus, generator, RunConfig(mode="cv"))
        by_turn = {log["turn_id"]: log for log in logs}
        case1 = by_turn["t7c1-q1"]
        assert case1["final_response"] == "2.0033"
        assert [t["votes"] for t in case1["vote"]["tallies"]] == [24, 12, 4]
        case2 = by_turn["t7c2-q1"]
        assert case2["final_response"] == "Which period are you asking about?"
        assert case2["clarification_pred"] is True
        assert [t["votes"] for t in case2["vote"]["tallies"]] == [22, 10, 4, 2]
        assert case2["vote"]["discarded"] == 2
        assert report.overall_em == 1.0

    def test_table7_greedy_rows(self, table7_corpus, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        dialogue = table7_corpus.dialogues[0]
        context = linearize_document(table7_corpus.documents[dialogue.doc_uid])
        model_input = build_model_input(context, dialogue.turns[0].question)
        result = run_turn(model_input, dialogue.turns[0], generator, RunConfig(mode="greedy"))
        assert result.answer == NumericAnswer(Fraction(598, 300))
        assert ", ".join(record_scores(result.answer, dialogue.turns[0].gold).spans) == "1.9933"

    def test_replay_determinism(self, table7_corpus, table7_replay_path):
        generator = ReplayGenerator.from_jsonl(table7_replay_path)
        runs = []
        for _ in range(2):
            stream = io.StringIO()
            report, _ = run_eval(table7_corpus, generator, RunConfig(mode="cv"), log_stream=stream)
            payload = stream.getvalue()
            # latency is wall-clock; strip it before comparing
            lines = [json.loads(line) for line in payload.splitlines()]
            for line in lines:
                line.pop("latency_ms")
            runs.append((json.dumps(lines, sort_keys=True), report.to_dict()))
        assert runs[0] == runs[1]

    def test_fallback_to_greedy_then_empty(self, table7_corpus):
        turn_id = "t7c1-q1"
        entries = {
            (turn_id, "sample"): [GeneratedOutput(text="garbage")] * 40,
            (turn_id, "greedy"): [GeneratedOutput(text="also garbage")],
        }
        generator = ReplayGenerator(entries)
        dialogue = table7_corpus.dialogues[0]
        context = linearize_document(table7_corpus.documents[dialogue.doc_uid])
        model_input = build_model_input(context, dialogue.turns[0].question)
        result = run_turn(model_input, dialogue.turns[0], generator, RunConfig(mode="cv"))
        assert result.fallback_used is True
        assert result.answer is None
        assert ", ".join(record_scores(result.answer, dialogue.turns[0].gold).spans) == ""

    def test_fallback_recovers_via_greedy(self, table7_corpus):
        turn_id = "t7c1-q1"
        entries = {
            (turn_id, "sample"): [GeneratedOutput(text="garbage")] * 40,
            (turn_id, "greedy"): [GeneratedOutput(text="[clari.] False [resp.] 5")],
        }
        generator = ReplayGenerator(entries)
        dialogue = table7_corpus.dialogues[0]
        context = linearize_document(table7_corpus.documents[dialogue.doc_uid])
        model_input = build_model_input(context, dialogue.turns[0].question)
        result = run_turn(model_input, dialogue.turns[0], generator, RunConfig(mode="cv"))
        assert result.answer == NumericAnswer(Fraction(5))

    def test_oracle_replay_scores_perfectly(self, small_corpus):
        generator = replay_from_examples(small_corpus)
        report, logs = run_eval(small_corpus, generator, RunConfig(mode="greedy"))
        assert report.overall_em == 1.0
        assert report.overall_f1 == 1.0
        assert report.cnp_f1 == 1.0
        assert len(logs) == 16

    def test_predicted_history_mode(self, small_corpus):
        generator = replay_from_examples(small_corpus)
        report, logs = run_eval(
            small_corpus, generator, RunConfig(mode="greedy", history="predicted")
        )
        # canned decodes ignore the input, so scores stay perfect; the mode
        # must still process every turn in dialogue order
        assert report.overall_em == 1.0
        assert [log["turn_id"] for log in logs][:4] == ["a1-q1", "a1-q2", "a1-q3", "a1-q4"]
        assert all(log["history"] == "predicted" for log in logs)

    @pytest.mark.parametrize("history", ["gold", "predicted"])
    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_transport_error_aborts_with_partial_log(self, small_corpus, history, concurrency):
        generator = replay_from_examples(small_corpus)
        del generator.entries[("b2-q2", "greedy")]
        stream = io.StringIO()
        with pytest.raises(TransportError):
            run_eval(
                small_corpus,
                generator,
                RunConfig(mode="greedy", history=history, concurrency=concurrency),
                log_stream=stream,
            )
        written = [json.loads(line)["turn_id"] for line in stream.getvalue().splitlines()]
        corpus_order = [t.turn_id for d in small_corpus.dialogues for t in d.turns]
        assert written == corpus_order[: corpus_order.index("b2-q2")]

    @pytest.mark.parametrize("concurrency", [1, 8])
    def test_earliest_failing_dialogue_is_raised(self, small_corpus, concurrency):
        # b2 fails at its second turn, a2 at its third; whichever fails first
        # in time, a2's error is raised and the log stops before a2-q3.
        generator = replay_from_examples(small_corpus)
        del generator.entries[("b2-q2", "greedy")]
        del generator.entries[("a2-q3", "greedy")]
        stream = io.StringIO()
        with pytest.raises(TransportError, match="a2-q3"):
            run_eval(
                small_corpus,
                generator,
                RunConfig(mode="greedy", history="predicted", concurrency=concurrency),
                log_stream=stream,
            )
        written = [json.loads(line)["turn_id"] for line in stream.getvalue().splitlines()]
        corpus_order = [t.turn_id for d in small_corpus.dialogues for t in d.turns]
        assert written == corpus_order[: corpus_order.index("a2-q3")]

    def test_abort_stops_dialogues_in_flight(self, small_corpus):
        # a1-q1 fails only once a2-q1 has been requested, and a2-q1 is still
        # waiting on its decode then; once the run aborts, dialogue a2
        # requests no further turn.
        requested = []
        a2_requested = threading.Event()

        class SlowGenerator:
            def __init__(self, inner):
                self.inner = inner

            def generate(self, request):
                requested.append(request.turn_id)
                if request.turn_id == "a1-q1":
                    assert a2_requested.wait(timeout=10)
                elif request.turn_id == "a2-q1":
                    a2_requested.set()
                    time.sleep(0.5)
                return self.inner.generate(request)

        inner = replay_from_examples(small_corpus)
        del inner.entries[("a1-q1", "greedy")]
        with pytest.raises(TransportError):
            run_eval(
                small_corpus,
                SlowGenerator(inner),
                RunConfig(mode="greedy", history="predicted", concurrency=2),
            )
        assert "a2-q1" in requested
        assert "a2-q2" not in requested

    def test_one_wrong_cnp_flag_moves_cnp_scores(self, small_corpus):
        generator = replay_from_examples(small_corpus)
        # flip the flag on one non-clarifying turn: its payload stays valid
        generator.entries[("a1-q1", "greedy")] = [
            GeneratedOutput(text='[clari.] True [resp.] ["Which regions are reported?"]')
        ]
        report, _ = run_eval(small_corpus, generator, RunConfig(mode="greedy"))
        # 2 true positives, 1 false positive, 0 false negatives
        assert report.cnp_precision == pytest.approx(2 / 3)
        assert report.cnp_recall == 1.0
        assert report.overall_em == pytest.approx(15 / 16)

    def test_predicted_history_feeds_previous_response(self, small_corpus):
        generator = RecordingGenerator(replay_from_examples(small_corpus))
        run_eval(small_corpus, generator, RunConfig(mode="greedy", history="predicted"))
        # turn 2 of dlg-a1 must see the system's own turn-1 response
        assert "[system] Americas, EMEA, Asia Pacific" in generator.inputs["a1-q2"]
        # and the clarify turn's own question feeds the following turn
        assert "[system] Which year are you asking about?" in generator.inputs["a2-q4"]

    def test_predicted_response_normalized_on_append(self, small_corpus):
        replay = replay_from_examples(small_corpus)
        decode = '[clari.] False [resp.] ["Americas \n\n EMEA"]'
        replay.entries[("a1-q1", "greedy")] = [GeneratedOutput(text=decode)]
        generator = RecordingGenerator(replay)
        logs = run_eval(small_corpus, generator, RunConfig(mode="greedy", history="predicted"))[1]
        assert logs[0]["final_response"] == "Americas \n\n EMEA"
        assert "[system] Americas EMEA [user] " in generator.inputs["a1-q2"]

    @pytest.mark.parametrize("history", ["gold", "predicted"])
    def test_scores_and_logs_independent_of_concurrency(self, small_corpus, history):
        generator = replay_from_examples(small_corpus)
        runs = []
        for width in (1, 8):
            report, logs = run_eval(
                small_corpus, generator, RunConfig(mode="greedy", history=history, concurrency=width)
            )
            for log in logs:
                log.pop("latency_ms")
            runs.append((report.to_dict(), logs))
        assert runs[0] == runs[1]

    def test_predicted_history_runs_dialogues_concurrently(self, small_corpus):
        # The first turns of two dialogues wait for each other: a run that
        # holds one dialogue at a time breaks the barrier after its timeout.
        barrier = threading.Barrier(2, timeout=10)

        class MeetingGenerator:
            def __init__(self, inner):
                self.inner = inner

            def generate(self, request):
                if request.turn_id in ("a1-q1", "a2-q1"):
                    barrier.wait()
                return self.inner.generate(request)

        generator = MeetingGenerator(replay_from_examples(small_corpus))
        report, logs = run_eval(
            small_corpus, generator, RunConfig(mode="greedy", history="predicted", concurrency=2)
        )
        assert report.overall_em == 1.0
        assert len(logs) == 16

    def test_long_dialogue_last_in_corpus_starts_first(self):
        # Corpus order would start d3 only after a short dialogue ends and
        # then run its six turns alone while the other worker idles.
        corpus = chain_corpus([2, 2, 2, 6])
        generator = OrderGenerator(meet=2)
        report, logs = run_eval(corpus, generator, RunConfig(mode="greedy", history="predicted", concurrency=2))
        assert "d3-q1" in generator.requests[:2]
        assert report.overall_em == 1.0
        assert [log["turn_id"] for log in logs] == [t.turn_id for d in corpus.dialogues for t in d.turns]

    def test_concurrency_one_requests_in_corpus_order(self):
        corpus = chain_corpus([2, 2, 2, 6])
        generator = OrderGenerator()
        run_eval(corpus, generator, RunConfig(mode="greedy", history="predicted", concurrency=1))
        assert generator.requests == [t.turn_id for d in corpus.dialogues for t in d.turns]

    def test_interrupt_joins_every_worker(self):
        corpus = chain_corpus([2, 2, 2, 6])
        generator = OrderGenerator(meet=2, interrupt="d0-q1")
        with pytest.raises(KeyboardInterrupt):
            run_eval(corpus, generator, RunConfig(mode="greedy", history="predicted", concurrency=2))
        assert not [t for t in threading.enumerate() if t.name.startswith("pcqa-run")]
        # the other worker stops after the turn it had in flight
        assert len(generator.requests) <= 3

    def test_many_workers_hand_over_every_turn_once(self):
        # More workers than cores and a short switch interval, so threads
        # interleave inside the hand-over; a lost update drops, repeats or
        # reorders a turn.
        corpus = chain_corpus([2 + (7 * d) % 9 for d in range(40)])
        generator = OrderGenerator()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report, logs = run_eval(corpus, generator, RunConfig(mode="greedy", history="predicted", concurrency=8))
        finally:
            sys.setswitchinterval(interval)
        corpus_order = [t.turn_id for d in corpus.dialogues for t in d.turns]
        assert sorted(generator.requests) == sorted(corpus_order)
        assert [log["turn_id"] for log in logs] == corpus_order
        assert report.overall_em == 1.0

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_schedule_meets_the_lower_bound(self, workers):
        """In unit-time turns, every worker busy until the longest dialogue
        or the even share of turns allows: max(longest, ceil(turns / workers))."""
        lengths = [5, 7, 9, 4, 8, 5, 10]
        end, _ = unit_time_run(lengths, workers, WorkerOrder(reverse=False))
        assert end == max(max(lengths), -(-sum(lengths) // workers))

    def test_corpus_without_turns_raises_empty_record_set(self, small_corpus):
        no_turns = tuple(replace(d, turns=()) for d in small_corpus.dialogues)
        for dialogues in ((), no_turns):
            with pytest.raises(EmptyRecordSet, match="no prediction records"):
                run_eval(replace(small_corpus, dialogues=dialogues), OrderGenerator(), RunConfig(mode="greedy"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="beam")
        with pytest.raises(ValueError):
            RunConfig(history="oracle")
        with pytest.raises(ValueError):
            RunConfig(concurrency=0)
        for precision in (-1, 11):
            with pytest.raises(ValueError, match=r"render_precision must be in \[0, 10\]"):
                RunConfig(precision=precision)


class WorkerOrder(random.Random):
    """Workers that finish together reach the lock in worker-index order, or
    in its reverse."""

    def __init__(self, reverse):
        super().__init__()
        self.reverse = reverse

    def shuffle(self, workers):
        workers.sort(reverse=self.reverse)

    def __repr__(self):
        return f"WorkerOrder(reverse={self.reverse})"


def unit_time_run(lengths, workers, order):
    """Drive `_Schedule` as `run_eval`'s workers do, every turn taking one
    time unit: the workers holding a turn finish it together and reach the
    lock in the order `order.shuffle` puts them in (at the start, when the
    workers are alike, in worker-index order). Returns the time the last turn
    ends and the dialogue of each turn in the order handed out."""
    schedule = runner._Schedule(lengths, workers)
    running = dict.fromkeys(range(workers))  # worker -> dialogue of its turn
    handed, end = [], 0
    while running:
        arriving = list(running)
        if end:
            order.shuffle(arriving)
        for w in arriving:
            own = running.pop(w)
            if own is not None:
                schedule.finish(own, None)
            chosen = schedule.take(own)
            if chosen is not None:
                assert chosen not in running.values()  # one turn of a dialogue at a time
                running[w] = chosen
                handed.append(chosen)
        end += bool(running)
    assert schedule.left == [0] * len(lengths)
    return end, handed


def corpus_order_pool(lengths, workers):
    """The end time when each free worker takes the next whole dialogue in
    corpus order."""
    free = [0] * workers
    for n in lengths:
        heapq.heapreplace(free, free[0] + n)
    return max(free)


class TestScheduleProperties:
    @settings(max_examples=400, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 12), min_size=1, max_size=12),
        workers=st.integers(1, 6),
        order=st.randoms(use_true_random=False),
    )
    @example(lengths=[5, 9, 4, 5], workers=3, order=WorkerOrder(reverse=True))
    def test_schedule_meets_the_lower_bound(self, lengths, workers, order):
        """In unit-time turns, every worker busy until the longest dialogue
        or the even share of turns allows: max(longest, ceil(turns / workers)),
        whichever worker reaches the lock first."""
        end, handed = unit_time_run(lengths, workers, order)
        assert end == max(max(lengths), -(-sum(lengths) // workers))
        assert end <= corpus_order_pool(lengths, workers)
        if workers == 1:
            assert handed == [i for i, n in enumerate(lengths) for _ in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(
        lengths=st.lists(st.integers(1, 5), min_size=1, max_size=8),
        concurrency=st.integers(1, 8),
        history=st.sampled_from(["gold", "predicted"]),
        data=st.data(),
    )
    def test_run_eval_contracts(self, lengths, concurrency, history, data):
        """Logs equal those at concurrency 1; the earliest failing dialogue's
        error is raised; the stream holds exactly the turns before the first
        failing turn, in corpus order."""
        corpus = chain_corpus(lengths)
        corpus_order = [t.turn_id for d in corpus.dialogues for t in d.turns]
        # a slow failure can end after a failure in an earlier dialogue
        failing = data.draw(st.dictionaries(st.sampled_from(corpus_order), st.sampled_from([0, 0.005]), max_size=2))
        config = RunConfig(mode="greedy", history=history)

        def run(width):
            stream = io.StringIO()
            error = logs = None
            try:
                _, logs = run_eval(corpus, OrderGenerator(failing=failing), replace(config, concurrency=width), stream)
            except TransportError as err:
                error = str(err)
            streamed = [json.loads(line) for line in stream.getvalue().splitlines()]
            if logs is not None:
                assert logs == streamed
            for log in streamed:
                log.pop("latency_ms")
            return error, streamed

        error, streamed = run(concurrency)
        assert (error, streamed) == run(1)
        first = min(failing, key=corpus_order.index, default=None)
        assert error == first
        assert [log["turn_id"] for log in streamed] == corpus_order[: corpus_order.index(first) if failing else None]


class TestScoringCounts:
    """Each turn is scored once, and the report sums those records without
    scoring any turn again."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        aggregating = []

        def count_scores(original):
            def counted(*args, **kwargs):
                counts["record_scores"] += 1
                counts["record_scores inside aggregate_report"] += bool(aggregating)
                return original(*args, **kwargs)

            return counted

        def count_aggregate(original):
            def counted(*args, **kwargs):
                counts["aggregate_report"] += 1
                aggregating.append(True)
                try:
                    return original(*args, **kwargs)
                finally:
                    aggregating.pop()

            return counted

        monkeypatch.setattr(runner, "record_scores", count_scores(runner.record_scores))
        monkeypatch.setattr(metrics, "record_scores", count_scores(metrics.record_scores))
        monkeypatch.setattr(runner, "aggregate_report", count_aggregate(runner.aggregate_report))
        return counts

    @pytest.mark.parametrize(
        "run",
        [
            RunConfig(mode="cv"),
            RunConfig(mode="greedy"),
            RunConfig(mode="cv", history="predicted"),
            "score_predictions",
        ],
        ids=["cv", "greedy", "predicted-history-cv", "score_predictions"],
    )
    def test_one_score_per_turn_and_one_report(self, counts, fixtures_dir, small_corpus, run):
        if run == "score_predictions":
            score_predictions(fixtures_dir / "corpus_small_predictions.jsonl", small_corpus)
        else:
            run_eval(small_corpus, ReplayGenerator.from_jsonl(fixtures_dir / "corpus_small_replay.jsonl"), run)
        turns = sum(len(d.turns) for d in small_corpus.dialogues)
        assert counts == {
            "record_scores": turns,
            "record_scores inside aggregate_report": 0,
            "aggregate_report": 1,
        }


class TestScorePredictions:
    def write_predictions(self, tmp_path, lines):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return path

    def gold_prediction_lines(self, corpus):
        return [
            {"turn_id": e.turn_id, "output": e.target_text}
            for e in build_examples(corpus, Task.MULTI)
        ]

    def test_gold_predictions_score_one(self, small_corpus, tmp_path):
        path = self.write_predictions(tmp_path, self.gold_prediction_lines(small_corpus))
        report, logs = score_predictions(path, small_corpus)
        assert report.overall_em == 1.0
        assert report.overall_f1 == 1.0
        assert len(logs) == 16

    def test_pre_split_flag_and_payload(self, small_corpus, tmp_path):
        lines = []
        for e in build_examples(small_corpus, Task.MULTI):
            payload = e.target_text.split("[resp.]", 1)[1].strip()
            lines.append(
                {"turn_id": e.turn_id, "clarification": e.clarification, "response": payload}
            )
        path = self.write_predictions(tmp_path, lines)
        report, _ = score_predictions(path, small_corpus)
        assert report.overall_em == 1.0

    def test_derivation_variant_gets_full_credit(self, small_corpus, tmp_path):
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":  # gold derivation (105-88)/88
                line["output"] = "[clari.] False [resp.] 105/88-1"
        path = self.write_predictions(tmp_path, lines)
        report, _ = score_predictions(path, small_corpus)
        assert report.overall_em == 1.0

    def test_oversized_decode_scores_zero(self, small_corpus, tmp_path):
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":
                line["output"] = "[clari.] False [resp.] " + "+".join(["1"] * 1000)
        path = self.write_predictions(tmp_path, lines)
        report, logs = score_predictions(path, small_corpus)
        by_turn = {log["turn_id"]: log for log in logs}
        assert (by_turn["a1-q4"]["em"], by_turn["a1-q4"]["f1"]) == (0, 0)
        assert report.overall_em == pytest.approx(15 / 16)

    def test_long_numeral_span_scores_zero(self, small_corpus, tmp_path):
        # A string item escapes the tokenizer's digit limit; rendering it as a
        # number at 4 places would pass the 4,300-digit int/str limit.
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":
                line["output"] = f'[clari.] False [resp.] ["{"9" * 4297}"]'
        path = self.write_predictions(tmp_path, lines)
        report, logs = score_predictions(path, small_corpus)
        by_turn = {log["turn_id"]: log for log in logs}
        assert (by_turn["a1-q4"]["em"], by_turn["a1-q4"]["f1"]) == (0, 0)
        assert report.overall_em == pytest.approx(15 / 16)

    def test_unknown_turn_id(self, small_corpus, tmp_path):
        path = self.write_predictions(tmp_path, [{"turn_id": "bogus", "output": "[clari.] False [resp.] 1"}])
        with pytest.raises(UnknownTurnId):
            score_predictions(path, small_corpus)

    def test_malformed_line_skipped_turn_scores_zero(self, small_corpus, tmp_path, caplog):
        lines = self.gold_prediction_lines(small_corpus)
        path = tmp_path / "preds.jsonl"
        encoded = [json.dumps(line) for line in lines if line["turn_id"] != "a1-q3"]
        encoded.append("{ this is not json")
        path.write_text("\n".join(encoded) + "\n")
        with caplog.at_level("WARNING"):
            report, logs = score_predictions(path, small_corpus)
        assert any("malformed" in m for m in caplog.messages)
        by_turn = {log["turn_id"]: log for log in logs}
        assert by_turn["a1-q3"]["em"] == 0
        assert report.overall_em == pytest.approx(15 / 16)

    @pytest.mark.parametrize("flag", ["false", 0, None])
    def test_non_boolean_clarification_line_skipped(self, small_corpus, tmp_path, caplog, flag):
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":  # a non-clarifying turn
                payload = line.pop("output").split("[resp.]", 1)[1].strip()
                line.update(clarification=flag, response=payload)
        path = self.write_predictions(tmp_path, lines)
        with caplog.at_level("WARNING"):
            report, logs = score_predictions(path, small_corpus)
        assert any("malformed" in m and "clarification" in m for m in caplog.messages)
        by_turn = {log["turn_id"]: log for log in logs}
        assert by_turn["a1-q4"]["prediction"] is None
        assert by_turn["a1-q4"]["em"] == 0
        assert report.overall_em == pytest.approx(15 / 16)

    @pytest.mark.parametrize("field", ["output", "response", "scale"])
    @pytest.mark.parametrize("value", [None, 0, ["x"]])
    def test_non_string_field_line_skipped(self, small_corpus, tmp_path, caplog, field, value):
        """A JSON null (or any non-string) is not read as the text "None"."""
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":  # a non-clarifying turn with an empty gold scale
                if field == "response":
                    line.pop("output")
                    line.update(clarification=False)
                line[field] = value
        path = self.write_predictions(tmp_path, lines)
        with caplog.at_level("WARNING"):
            report, logs = score_predictions(path, small_corpus)
        assert any("malformed" in m and f"{field} must be a string" in m for m in caplog.messages)
        by_turn = {log["turn_id"]: log for log in logs}
        assert by_turn["a1-q4"]["prediction"] is None
        assert by_turn["a1-q4"]["em"] == 0
        assert report.overall_em == pytest.approx(15 / 16)

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
    def test_unicode_line_separator_inside_a_decode(self, small_corpus, tmp_path, caplog, separator):
        """JSON allows these raw inside a string, and write_jsonl writes them raw."""
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a1-q4":
                line["output"] = f"[clari.] False [resp.] 1{separator}2"
        path = tmp_path / "preds.jsonl"
        write_jsonl(lines, path)
        assert separator in path.read_text(encoding="utf-8")
        with caplog.at_level("WARNING"):
            report, logs = score_predictions(path, small_corpus)
        assert not caplog.messages
        by_turn = {log["turn_id"]: log for log in logs}
        assert by_turn["a1-q4"]["prediction"] == f"[clari.] False [resp.] 1{separator}2"
        assert report.overall_em == pytest.approx(15 / 16)

    def test_crlf_file_names_the_bad_line(self, small_corpus, tmp_path, caplog):
        encoded = [json.dumps(line) for line in self.gold_prediction_lines(small_corpus)]
        encoded[2] = "{ this is not json"
        path = tmp_path / "preds.jsonl"
        path.write_bytes("\r\n".join(encoded).encode() + b"\r\n")
        with caplog.at_level("WARNING"):
            report, _ = score_predictions(path, small_corpus)
        assert [m.split(": malformed")[0] for m in caplog.messages] == [f"{path}:3"]
        assert report.overall_em == pytest.approx(15 / 16)

    def test_empty_predictions_file(self, small_corpus, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(EmptyRecordSet):
            score_predictions(path, small_corpus)

    def test_scale_field_participates(self, small_corpus, tmp_path):
        lines = self.gold_prediction_lines(small_corpus)
        for line in lines:
            if line["turn_id"] == "a2-q1":
                line["scale"] = "million"  # gold scale is empty
        path = self.write_predictions(tmp_path, lines)
        report, logs = score_predictions(path, small_corpus)
        by_turn = {log["turn_id"]: log for log in logs}
        assert by_turn["a2-q1"]["em"] == 0
        assert report.overall_em == pytest.approx(15 / 16)

    def test_write_jsonl(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl([{"a": 1}, {"b": 2}], path)
        assert [json.loads(l) for l in path.read_text().splitlines()] == [{"a": 1}, {"b": 2}]
