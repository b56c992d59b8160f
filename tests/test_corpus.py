import copy
import json

import pytest

from pcqa.corpus import (
    CorpusExpectations,
    InvariantViolation,
    SchemaError,
    UnreconstructibleDerivation,
    build_examples,
    corpus_from_obj,
    corpus_stats,
    load_corpus,
    load_release_file,
    reconstruct_code,
    validate_corpus,
)
from pcqa.derivation import SpanSetAnswer
from pcqa.linearize import Task


@pytest.fixture
def raw_blocks(fixtures_dir):
    return json.loads((fixtures_dir / "corpus_small.json").read_text())


class TestLoadCorpus:
    def test_well_formed_fixture(self, small_corpus):
        assert len(small_corpus.dialogues) == 5
        assert small_corpus.turn_count() == 16
        assert set(small_corpus.documents) == {"doc-alpha", "doc-beta", "doc-gamma"}

    def test_load_determinism(self, fixtures_dir):
        a = load_corpus(fixtures_dir / "corpus_small.json")
        b = load_corpus(fixtures_dir / "corpus_small.json")
        assert a == b
        assert corpus_stats(a) == corpus_stats(b)

    def test_missing_document_reference(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[1]["doc_uid"] = "doc-nope"
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_non_contiguous_turn_order(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][1]["order"] = 7
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_unknown_answer_type(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][0]["answer_type"] = "essay"
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_unknown_scale(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][0]["scale"] = "dozen"
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_req_clari_must_agree_with_type(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[1]["questions"][2]["req_clari"] = False
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_marker_in_paragraph_rejected(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["paragraphs"][0]["text"] = "mentions [table] inline"
        with pytest.raises(InvariantViolation):
            corpus_from_obj(blocks)

    def test_ragged_rows_padded(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["table"]["cells"][2] = ["EMEA", "70"]
        corpus = corpus_from_obj(blocks)
        assert corpus.documents["doc-alpha"].table[2] == ("EMEA", "70", "")

    def test_schema_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(SchemaError):
            load_corpus(bad)
        with pytest.raises(SchemaError):
            corpus_from_obj([])
        with pytest.raises(SchemaError):
            corpus_from_obj([{"questions": []}])

    def test_missing_question_field(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        del blocks[0]["questions"][0]["answer_type"]
        with pytest.raises(SchemaError):
            corpus_from_obj(blocks)


def _set(path, value):
    """A mutation that sets blocks[path[0]][path[1]]...[path[-1]] = value."""

    def mutate(blocks):
        target = blocks
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return mutate


_RELEASE = [
    {
        "table": {"uid": "rel-doc", "table": [["Year", "2019"], ["Revenue", "105"]]},
        "paragraphs": [],
        "questions": [
            {"uid": "rel-q1", "question": "Revenue in 2019?", "answer": ["105"],
             "answer_type": "span", "answer_from": "table"},
        ],
    }
]


@pytest.mark.parametrize(
    "release,mutate",
    [
        (False, _set((2, "paragraphs", 0), "a bare string")),
        (False, _set((0, "questions", 1), 7)),
        (False, _set((2, "paragraphs", 0, "order"), "1")),
        (False, _set((0, "questions", 1, "order"), "2")),
        (True, _set((0,), "a bare string")),
        (True, _set((0, "table"), ["not", "an", "object"])),
        (True, _set((0, "questions", 0), None)),
    ],
    ids=[
        "paragraph-not-object",
        "question-not-object",
        "paragraph-order-mixes-int-and-str",
        "question-order-mixes-int-and-str",
        "release-block-not-object",
        "release-table-not-object",
        "release-question-not-object",
    ],
)
def test_malformed_entries_are_schema_errors(raw_blocks, tmp_path, release, mutate):
    blocks = copy.deepcopy(_RELEASE if release else raw_blocks)
    mutate(blocks)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(blocks))
    with pytest.raises(SchemaError):
        (load_release_file if release else load_corpus)(path)


def test_expectations_key_total_questions_means_turns():
    assert CorpusExpectations.from_obj({"total_questions": 16}).turns == 16
    assert CorpusExpectations.from_obj({"turns": 3, "total_questions": 16}).turns == 3
    with pytest.raises(SchemaError):
        CorpusExpectations.from_obj([16])


class TestCorpusStats:
    def test_hand_counted_fixture(self, small_corpus):
        stats = corpus_stats(small_corpus)
        assert stats.dialogues == 5
        assert stats.turns == 16
        assert stats.clarifying_turns == 2
        assert stats.avg_turns_per_dialogue == pytest.approx(3.2)
        assert round(stats.avg_words_per_question, 1) == 6.6
        assert stats.avg_words_per_answer == pytest.approx(2.0)

    def test_grid_totals(self, small_corpus):
        stats = corpus_stats(small_corpus)
        assert sum(stats.by_type_source.values()) == stats.turns
        assert stats.type_total("arithmetic") == 7
        assert stats.source_total("table") == 10


class TestReconstructCode:
    def test_arithmetic_passthrough(self, small_corpus):
        turn = small_corpus.turn_index()["a1-q4"][1]
        assert reconstruct_code(turn.gold) == "(105-88)/88"

    def test_arithmetic_normalizes_commas_and_spaces(self, small_corpus):
        turn = small_corpus.turn_index()["b2-q3"][1]
        assert reconstruct_code(turn.gold) == "3711+4801"

    def test_count_over_items(self, small_corpus):
        turn = small_corpus.turn_index()["a1-q2"][1]
        assert reconstruct_code(turn.gold) == 'len(["Americas", "EMEA", "Asia Pacific"])'

    def test_multi_span_list(self, small_corpus):
        turn = small_corpus.turn_index()["a1-q1"][1]
        assert reconstruct_code(turn.gold) == '["Americas", "EMEA", "Asia Pacific"]'

    def test_clarification_single_item_list(self, small_corpus):
        turn = small_corpus.turn_index()["a2-q3"][1]
        assert reconstruct_code(turn.gold) == '["Which year are you asking about?"]'

    def test_unreconstructible(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["derivation"] = "increase of about 5"
        corpus = corpus_from_obj(blocks)
        turn = corpus.turn_index()["a1-q4"][1]
        with pytest.raises(UnreconstructibleDerivation):
            reconstruct_code(turn.gold)

    def test_count_items_release_separator(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][1]["derivation"] = "Americas##EMEA##Asia Pacific"
        corpus = corpus_from_obj(blocks)
        turn = corpus.turn_index()["a1-q2"][1]
        assert reconstruct_code(turn.gold) == 'len(["Americas", "EMEA", "Asia Pacific"])'


class TestGoldCompilation:
    @pytest.mark.parametrize(
        "turn_id,kind,spans,text",
        [
            ("a1-q1", "SpanSetAnswer", ["Americas", "EMEA", "Asia Pacific"], "Americas, EMEA, Asia Pacific"),
            ("a1-q2", "NumericAnswer", ["3"], "3"),
            ("a1-q4", "NumericAnswer", ["0.1932"], "0.1932"),
            ("a2-q3", "ClarifyAnswer", ["Which year are you asking about?"], "Which year are you asking about?"),
            ("b2-q2", "NumericAnswer", ["7187"], "7187"),
        ],
    )
    def test_gold_compiles_to_canonical_answer(self, small_corpus, turn_id, kind, spans, text):
        gold = small_corpus.turn_index()[turn_id][1].gold
        assert type(gold.canonical).__name__ == kind
        assert gold.canonical.text_spans() == spans
        assert gold.response_text() == text

    def test_scale_follows_answers_but_not_questions(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["scale"] = "percent"
        blocks[1]["questions"][2]["scale"] = "million"
        index = corpus_from_obj(blocks).turn_index()
        assert index["a1-q4"][1].gold.response_text() == "0.1932 percent"
        assert index["a2-q3"][1].gold.response_text() == "Which year are you asking about?"


class TestBuildExamples:
    def test_multitask_targets(self, small_corpus):
        examples = {e.turn_id: e for e in build_examples(small_corpus, Task.MULTI)}
        assert len(examples) == 16
        assert examples["a1-q4"].target_text == "[clari.] False [resp.] (105-88)/88"
        assert examples["a2-q3"].target_text == (
            '[clari.] True [resp.] ["Which year are you asking about?"]'
        )

    def test_gold_history_teacher_forcing(self, small_corpus, golden_input):
        examples = {e.turn_id: e for e in build_examples(small_corpus, Task.MULTI)}
        assert examples["a1-q2"].input_text == golden_input

    def test_cnp_label_projection(self, small_corpus):
        examples = {e.turn_id: e for e in build_examples(small_corpus, Task.CNP)}
        assert examples["a2-q3"].target_text == "True"
        assert examples["a1-q1"].target_text == "False"

    def test_cqg_covers_only_clarifying(self, small_corpus):
        examples = build_examples(small_corpus, Task.CQG)
        assert sorted(e.turn_id for e in examples) == ["a2-q3", "b1-q3"]
        assert all(e.target_text.startswith("[") for e in examples)

    def test_cqa_skips_clarifying(self, small_corpus):
        examples = build_examples(small_corpus, Task.CQA)
        assert len(examples) == 14
        assert all(not e.clarification for e in examples)

    def test_unreconstructible_turns_skipped_and_logged(self, raw_blocks, caplog):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["derivation"] = "not a formula at all"
        corpus = corpus_from_obj(blocks)
        with caplog.at_level("WARNING"):
            examples = build_examples(corpus, Task.MULTI)
        assert len(examples) == 15
        assert any("a1-q4" in message for message in caplog.messages)


class TestValidateCorpus:
    def test_fixture_validates_cleanly(self, small_corpus, fixtures_dir):
        expected = CorpusExpectations.from_obj(
            json.loads((fixtures_dir / "corpus_small_expected.json").read_text())
        )
        report = validate_corpus(small_corpus, expected)
        assert report.passed
        assert report.arithmetic_turns == 7
        assert report.validated_arithmetic_turns == 7

    def test_execution_mismatch_detected(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        q = blocks[0]["questions"][3]
        q["derivation"] = "2.1 - 1.3"
        q["answer"] = 0.3
        corpus = corpus_from_obj(blocks)
        report = validate_corpus(corpus)
        kinds = [f.kind for f in report.findings]
        assert "ExecutionMismatch" in kinds
        assert any("a1-q4" == f.where for f in report.findings)

    @pytest.mark.parametrize("derivation,shown", [('len(["a"])', "1"), ('["a", "b"]', "a, b")])
    def test_non_numeric_derivation_is_a_finding(self, raw_blocks, derivation, shown):
        blocks = copy.deepcopy(raw_blocks)
        q = blocks[0]["questions"][3]
        q["derivation"] = derivation
        q["answer"] = 2
        report = validate_corpus(corpus_from_obj(blocks))
        [finding] = report.findings
        assert (finding.kind, finding.where) == ("ExecutionMismatch", "a1-q4")
        assert finding.detail == f"derivation executes to {shown}, gold is 2"

    def test_exponent_notation_gold_is_not_numeric(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["answer"] = "1e5000"
        corpus = corpus_from_obj(blocks)
        gold = corpus.turn_index()["a1-q4"][1].gold
        assert gold.canonical == SpanSetAnswer(("1e5000",))
        [finding] = validate_corpus(corpus).findings
        assert (finding.kind, finding.where, finding.detail) == (
            "ExecutionMismatch",
            "a1-q4",
            "gold answer is not numeric",
        )

    def test_stat_diff_reported(self, small_corpus):
        report = validate_corpus(small_corpus, CorpusExpectations(turns=99))
        assert any(f.kind == "StatMismatch" for f in report.findings)

    def test_no_expectations_stats_only(self, small_corpus):
        report = validate_corpus(small_corpus)
        assert report.passed
        assert report.stats.turns == 16

    def test_report_serializes(self, small_corpus):
        payload = validate_corpus(small_corpus).to_dict()
        assert payload["passed"] is True
        assert payload["stats"]["turns"] == 16
        json.dumps(payload)


class TestReleaseShim:
    def test_release_format_maps_into_schema(self, tmp_path):
        release = [
            {
                "table": {"uid": "rel-doc", "table": [["Year", "2018", "2019"], ["Revenue", "88", "105"]]},
                "paragraphs": [{"uid": "p1", "order": 1, "text": "Revenue by year."}],
                "questions": [
                    {
                        "uid": "rel-q1",
                        "order": 1,
                        "question": "What was revenue in 2019?",
                        "answer": ["105"],
                        "answer_type": "span",
                        "answer_from": "table",
                        "derivation": "",
                        "scale": "",
                    },
                    {
                        "uid": "rel-q2",
                        "order": 2,
                        "question": "What is the change of it?",
                        "answer": "Which period are you asking about?",
                        "req_clari": True,
                        "answer_from": "table",
                        "scale": "",
                    },
                ],
            }
        ]
        path = tmp_path / "release.json"
        path.write_text(json.dumps(release))
        corpus = load_release_file(path, split="dev")
        assert corpus.split == "dev"
        stats = corpus_stats(corpus)
        assert stats.turns == 2
        assert stats.clarifying_turns == 1
        turn = corpus.turn_index()["rel-q2"][1]
        assert turn.gold.answer_type == "clarification"
        assert turn.gold.clarification_question == "Which period are you asking about?"
