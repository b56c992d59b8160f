import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from pcqa import cli
from pcqa.cli import main
from pcqa.corpus import build_examples, load_corpus
from pcqa.generation import HttpGenerator, ReplayGenerator
from pcqa.linearize import Task


@pytest.fixture
def corpus_path(fixtures_dir):
    return str(fixtures_dir / "corpus_small.json")


@pytest.fixture
def gold_predictions(fixtures_dir, tmp_path):
    corpus = load_corpus(fixtures_dir / "corpus_small.json")
    path = tmp_path / "gold_preds.jsonl"
    with open(path, "w") as fh:
        for e in build_examples(corpus, Task.MULTI):
            fh.write(json.dumps({"turn_id": e.turn_id, "output": e.target_text}) + "\n")
    return str(path)


class TestValidate:
    def test_fixture_with_expectations(self, corpus_path, fixtures_dir, capsys):
        expected = str(fixtures_dir / "corpus_small_expected.json")
        code = main(["validate", corpus_path, "--expected", expected])
        out = capsys.readouterr().out
        assert code == 0
        assert "OK" in out
        assert "turns: 16" in out

    def test_corrupted_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["validate", str(bad)]) == 2

    def test_integer_beyond_digit_limit_exits_2(self, corpus_path, tmp_path, capsys):
        # json.loads cannot build an int of over 4,300 digits
        bad = tmp_path / "huge.json"
        text = Path(corpus_path).read_text(encoding="utf-8")
        bad.write_text(text.replace('"order": 1', '"order": ' + "1" * 5000, 1), encoding="utf-8")
        assert main(["validate", str(bad)]) == 2
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blocks: blocks[2]["paragraphs"].__setitem__(0, "a bare string"),
            lambda blocks: blocks[0]["questions"][1].__setitem__("order", "2"),
        ],
        ids=["paragraph-not-object", "order-mixes-int-and-str"],
    )
    def test_malformed_entry_exits_2(self, corpus_path, tmp_path, capsys, mutate):
        with open(corpus_path, encoding="utf-8") as f:
            blocks = json.load(f)
        mutate(blocks)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blocks))
        assert main(["validate", str(bad)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_expectations_not_an_object_exits_2(self, corpus_path, tmp_path):
        expected = tmp_path / "exp.json"
        expected.write_text("[16]")
        assert main(["validate", corpus_path, "--expected", str(expected)]) == 2

    @pytest.mark.parametrize("field", ["by_type", "by_source"])
    def test_expected_tallies_not_objects_exit_2(self, corpus_path, tmp_path, capsys, field):
        expected = tmp_path / "exp.json"
        expected.write_text(json.dumps({field: 5}))
        assert main(["validate", corpus_path, "--expected", str(expected)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_null_expected_tally_exits_0(self, corpus_path, fixtures_dir, tmp_path, capsys):
        raw = json.loads((fixtures_dir / "corpus_small_expected.json").read_text())
        expected = tmp_path / "exp.json"
        expected.write_text(json.dumps({**raw, "by_type": None}))
        assert main(["validate", corpus_path, "--expected", str(expected)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_expected_statistic_not_a_number_exits_2(self, corpus_path, tmp_path, capsys):
        expected = tmp_path / "exp.json"
        expected.write_text(json.dumps({"turns": "16", "by_type": {"span": "5"}}))
        assert main(["validate", corpus_path, "--expected", str(expected)]) == 2
        err = capsys.readouterr().err
        assert "schema error" in err
        assert "expectations.turns" in err

    def test_non_utf8_corpus_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'[{"uid": "caf\xe9"}]')
        assert main(["validate", str(bad)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_findings_exit_1(self, corpus_path, tmp_path, capsys):
        expected = tmp_path / "exp.json"
        expected.write_text(json.dumps({"turns": 99}))
        code = main(["validate", corpus_path, "--expected", str(expected)])
        assert code == 1
        assert "StatMismatch" in capsys.readouterr().out

    def test_json_report(self, corpus_path, capsys):
        code = main(["validate", corpus_path, "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["dialogues"] == 5


class TestEvalDerivation:
    def test_quotient(self, capsys):
        assert main(["eval-derivation", "(36.6-20.5)/20.5"]) == 0
        assert capsys.readouterr().out.strip() == "0.7854"

    def test_count(self, capsys):
        assert main(["eval-derivation", 'len(["a"])']) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_division_by_zero_exits_1(self, capsys):
        assert main(["eval-derivation", "1/0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_precision_flag(self, capsys):
        for places, expected in (("2", "0.79"), ("0", "1"), ("10", "0.7853658537")):
            assert main(["--precision", places, "eval-derivation", "(36.6-20.5)/20.5"]) == 0
            assert capsys.readouterr().out.strip() == expected

    def test_span_list(self, capsys):
        assert main(["eval-derivation", '["a", "b"]']) == 0
        assert json.loads(capsys.readouterr().out) == ["a", "b"]


class TestLinearize:
    def test_golden(self, corpus_path, golden_input, capsys):
        code = main(["linearize", corpus_path, "--dialogue", "dlg-a1", "--turn", "2"])
        assert code == 0
        assert capsys.readouterr().out.rstrip("\n") == golden_input

    def test_first_turn_ends_with_query(self, corpus_path, capsys):
        code = main(["linearize", corpus_path, "--dialogue", "dlg-a1", "--turn", "1"])
        assert code == 0
        assert capsys.readouterr().out.rstrip("\n").endswith("[user] Which regions are reported?")

    def test_unknown_dialogue_exits_1(self, corpus_path, capsys):
        assert main(["linearize", corpus_path, "--dialogue", "nope", "--turn", "1"]) == 1

    def test_turn_out_of_range_exits_1(self, corpus_path):
        assert main(["linearize", corpus_path, "--dialogue", "dlg-a1", "--turn", "9"]) == 1


class TestScore:
    def test_gold_predictions_all_correct(self, corpus_path, gold_predictions, capsys):
        code = main(["score", gold_predictions, corpus_path, "--report", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"]["em"] == 100.0
        assert payload["overall"]["f1"] == 100.0

    def test_breakdown_grid_in_text_report(self, corpus_path, gold_predictions, capsys):
        assert main(["score", gold_predictions, corpus_path]) == 0
        out = capsys.readouterr().out
        for label in ("Span", "Spans", "Counting", "Arithmetic", "Question", "Total", "Table-text"):
            assert label in out

    def test_missing_predictions_file_exits_2(self, corpus_path, tmp_path):
        assert main(["score", str(tmp_path / "nope.jsonl"), corpus_path]) == 2

    def test_log_written(self, corpus_path, gold_predictions, tmp_path, capsys):
        log = tmp_path / "per_turn.jsonl"
        assert main(["score", gold_predictions, corpus_path, "--log", str(log)]) == 0
        lines = [json.loads(l) for l in log.read_text().splitlines()]
        assert len(lines) == 16
        assert all(line["em"] == 1 for line in lines)


class TestRun:
    def test_replay_cv_reproduces_case_studies(self, fixtures_dir, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                str(fixtures_dir / "table7_corpus.json"),
                "--fixture",
                str(fixtures_dir / "table7_replay.jsonl"),
                "--mode",
                "cv",
                "--log",
                str(log),
                "--report",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overall"]["em"] == 100.0
        lines = {json.loads(l)["turn_id"]: json.loads(l) for l in log.read_text().splitlines()}
        assert [t["votes"] for t in lines["t7c1-q1"]["vote"]["tallies"]] == [24, 12, 4]
        assert [t["votes"] for t in lines["t7c2-q1"]["vote"]["tallies"]] == [22, 10, 4, 2]

    def test_replay_greedy_reproduces_greedy_rows(self, fixtures_dir, tmp_path):
        log = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                str(fixtures_dir / "table7_corpus.json"),
                "--fixture",
                str(fixtures_dir / "table7_replay.jsonl"),
                "--mode",
                "greedy",
                "--log",
                str(log),
            ]
        )
        assert code == 0
        lines = {json.loads(l)["turn_id"]: json.loads(l) for l in log.read_text().splitlines()}
        assert lines["t7c1-q1"]["final_response"] == "1.9933"
        assert lines["t7c2-q1"]["final_response"] == "0"

    @pytest.mark.parametrize(
        "score, code, message",
        [("9" * 400, 1, "not a number"), ("9" * 5000, 3, "bad replay line")],
        ids=["beyond-float-range", "beyond-digit-limit"],
    )
    def test_oversized_score_in_fixture(self, fixtures_dir, tmp_path, capsys, score, code, message):
        fixture = tmp_path / "replay.jsonl"
        lines = (fixtures_dir / "table7_replay.jsonl").read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].replace("}", ', "score": ' + score + "}", 1)
        fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["run", str(fixtures_dir / "table7_corpus.json"), "--fixture", str(fixture)]
        assert main(argv) == code
        assert message in capsys.readouterr().err

    def test_unreachable_endpoint_exits_3(self, fixtures_dir, capsys):
        code = main(
            [
                "run",
                str(fixtures_dir / "table7_corpus.json"),
                "--endpoint",
                "http://127.0.0.1:1",
                "--concurrency",
                "1",
            ]
        )
        assert code == 3
        assert "transport error" in capsys.readouterr().err

    def test_non_json_reply_exits_1(self, fixtures_dir, capsys):
        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b"<html><body>Bad gateway</body></html>"
                self.send_response(200)
                self.send_header("Content-Type", "text/html")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            code = main(
                [
                    "run",
                    str(fixtures_dir / "table7_corpus.json"),
                    "--endpoint",
                    f"http://127.0.0.1:{server.server_address[1]}",
                    "--concurrency",
                    "1",
                ]
            )
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert code == 1
        assert "not JSON" in capsys.readouterr().err

    def test_decode_with_reserved_marker_in_predicted_history(
        self, corpus_path, tmp_path, monkeypatch
    ):
        """A decode whose payload holds a reserved marker is discarded, so it
        never reaches the next turn's history: the next input holds an empty
        response, the run scores it 0 and exits 0."""
        fixture = tmp_path / "replay.jsonl"
        decode = '[clari.] False [resp.] ["</p> x"]'
        dialogues = load_corpus(corpus_path).dialogues
        with open(fixture, "w") as fh:
            for dialogue in dialogues:
                for turn in dialogue.turns:
                    entry = {"turn_id": turn.turn_id, "mode": "greedy", "outputs": [{"text": decode}]}
                    fh.write(json.dumps(entry) + "\n")
        inputs = {}
        replay = ReplayGenerator.generate

        def recording(self, request):
            inputs[request.turn_id] = request.input
            return replay(self, request)

        monkeypatch.setattr(ReplayGenerator, "generate", recording)
        log = tmp_path / "run.jsonl"
        code = main(
            [
                "run",
                corpus_path,
                "--fixture",
                str(fixture),
                "--mode",
                "greedy",
                "--history",
                "predicted",
                "--log",
                str(log),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 16
        assert all(line["final_response"] == "" and line["f1"] == 0 for line in lines)
        for dialogue in dialogues:
            for position, turn in enumerate(dialogue.turns):
                assert inputs[turn.turn_id].count("[system] [user] ") == position

    def test_zero_concurrency_exits_1(self, fixtures_dir, capsys):
        code = main(
            [
                "run",
                str(fixtures_dir / "table7_corpus.json"),
                "--fixture",
                str(fixtures_dir / "table7_replay.jsonl"),
                "--concurrency",
                "0",
            ]
        )
        assert code == 1
        assert "concurrency" in capsys.readouterr().err

    def test_ctrl_c_exits_130_and_closes_log_and_generator(self, fixtures_dir, tmp_path, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        closed = []
        close = HttpGenerator.close
        monkeypatch.setattr(cli, "run_eval", interrupted)
        monkeypatch.setattr(HttpGenerator, "close", lambda self: closed.append(close(self)))
        log = tmp_path / "run.jsonl"
        argv = ["run", str(fixtures_dir / "table7_corpus.json"), "--endpoint", "http://127.0.0.1:1", "--log", str(log)]
        assert main(argv) == 130
        assert capsys.readouterr() == ("", "interrupted\n")
        assert closed == [None]
        assert log.read_text() == ""

    def test_bad_precision_exits_1(self, capsys):
        for places in ("-1", "11", "99"):
            assert main(["--precision", places, "eval-derivation", "1"]) == 1
            assert capsys.readouterr().err == "error: render_precision must be in [0, 10]\n"
