import json

import pytest

from pcqa.cli import main
from pcqa.corpus import build_examples, load_corpus
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
        assert main(["--precision", "2", "eval-derivation", "(36.6-20.5)/20.5"]) == 0
        assert capsys.readouterr().out.strip() == "0.79"

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

    def test_bad_precision_exits_1(self, fixtures_dir):
        assert main(["--precision", "99", "eval-derivation", "1"]) == 1
