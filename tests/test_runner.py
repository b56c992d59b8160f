import io
import json
import threading
import time
from fractions import Fraction

import pytest

from pcqa.corpus import build_examples
from pcqa.generation import GeneratedOutput, ReplayGenerator, TransportError
from pcqa.linearize import Task
from pcqa.metrics import EmptyRecordSet
from pcqa.runner import RunConfig, UnknownTurnId, run_eval, run_turn, score_predictions, write_jsonl
from pcqa.voting import NumericAnswer


def replay_from_examples(corpus, mode="greedy"):
    """Oracle generator: canned outputs are exactly the gold targets."""
    entries = {}
    for example in build_examples(corpus, Task.MULTI):
        entries[(example.turn_id, mode)] = [GeneratedOutput(text=example.target_text)]
    return ReplayGenerator(entries)


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
        doc = table7_corpus.documents[dialogue.doc_uid]
        from pcqa.linearize import ConversationHistory

        history = ConversationHistory((dialogue.turns[0].question,))
        result = run_turn(doc, history, dialogue.turns[0], generator, RunConfig(mode="greedy"))
        assert result.answer == NumericAnswer(Fraction(598, 300))
        assert result.final_text == "1.9933"

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
        doc = table7_corpus.documents[dialogue.doc_uid]
        from pcqa.linearize import ConversationHistory

        history = ConversationHistory((dialogue.turns[0].question,))
        result = run_turn(doc, history, dialogue.turns[0], generator, RunConfig(mode="cv"))
        assert result.fallback_used is True
        assert result.answer is None
        assert result.final_text == ""

    def test_fallback_recovers_via_greedy(self, table7_corpus):
        turn_id = "t7c1-q1"
        entries = {
            (turn_id, "sample"): [GeneratedOutput(text="garbage")] * 40,
            (turn_id, "greedy"): [GeneratedOutput(text="[clari.] False [resp.] 5")],
        }
        generator = ReplayGenerator(entries)
        dialogue = table7_corpus.dialogues[0]
        doc = table7_corpus.documents[dialogue.doc_uid]
        from pcqa.linearize import ConversationHistory

        history = ConversationHistory((dialogue.turns[0].question,))
        result = run_turn(doc, history, dialogue.turns[0], generator, RunConfig(mode="cv"))
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

    def test_abort_stops_dialogues_in_flight(self, small_corpus):
        # a1-q1 fails while a2-q1 is still waiting on its decode; once the
        # run aborts, dialogue a2 requests no further turn.
        requested = []

        class SlowGenerator:
            def __init__(self, inner):
                self.inner = inner

            def generate(self, request):
                requested.append(request.turn_id)
                if request.turn_id == "a2-q1":
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
        captured = {}

        class RecordingGenerator:
            def __init__(self, inner):
                self.inner = inner

            def generate(self, request):
                captured[request.turn_id] = request.input
                return self.inner.generate(request)

        generator = RecordingGenerator(replay_from_examples(small_corpus))
        run_eval(small_corpus, generator, RunConfig(mode="greedy", history="predicted"))
        # turn 2 of dlg-a1 must see the system's own turn-1 response
        assert "[system] Americas, EMEA, Asia Pacific" in captured["a1-q2"]
        # and the clarify turn's own question feeds the following turn
        assert "[system] Which year are you asking about?" in captured["a2-q4"]

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(mode="beam")
        with pytest.raises(ValueError):
            RunConfig(history="oracle")
        with pytest.raises(ValueError):
            RunConfig(concurrency=0)


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
