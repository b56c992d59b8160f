import copy
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from pcqa.corpus import (
    Corpus,
    GoldTurnAnswer,
    InvariantViolation,
    SchemaError,
    UnreconstructibleDerivation,
    build_examples,
    corpus_from_obj,
    corpus_stats,
    load_corpus,
    load_release_file,
    read_expectations,
    reconstruct_code,
    validate_corpus,
)
from pcqa.derivation import MAX_NUMERAL_DIGITS, ClarifyAnswer, NumericAnswer, SpanSetAnswer, execute_source
from pcqa.generation import ReplayGenerator
from pcqa.linearize import MarkerCollisionError, Task
from pcqa.runner import RunConfig, run_eval

from conftest import turn_by_id


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

    @pytest.mark.parametrize(
        "uids",
        [{(1, 0): "a1-q1"}, {(0, 1): "a1-q1"}, {(0, 0): "7", (4, 1): 7}],
        ids=["across-dialogues", "within-a-dialogue", "integer-and-string"],
    )
    def test_duplicate_turn_id(self, raw_blocks, uids):
        """Predictions and replay entries are keyed by turn id: one id is one turn."""
        blocks = copy.deepcopy(raw_blocks)
        for (block, question), uid in uids.items():
            blocks[block]["questions"][question]["uid"] = uid
        with pytest.raises(InvariantViolation) as caught:
            corpus_from_obj(blocks)
        assert (caught.value.where, caught.value.rule) == (str(uid), "duplicate turn id")

    def test_integer_turn_id_is_its_decimal_text(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[4]["questions"][0]["uid"] = 41
        assert [t.turn_id for t in corpus_from_obj(blocks).dialogues[4].turns][0] == "41"

    @pytest.mark.parametrize("uid,expected", [(0, "0"), ("", ""), (None, "doc-alpha"), ("absent", "doc-alpha")])
    def test_dialogue_id_falls_back_to_document_only_when_absent(self, raw_blocks, uid, expected):
        blocks = copy.deepcopy(raw_blocks)
        if uid == "absent":
            del blocks[0]["uid"]
        else:
            blocks[0]["uid"] = uid
        assert corpus_from_obj(blocks).dialogues[0].dialogue_id == expected

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


def _reverse_questions_and_drop_first_answer(blocks):
    """The first block's questions in reverse file order, the first in the
    file (the last turn) without its answer."""
    blocks[0]["questions"].reverse()
    del blocks[0]["questions"][0]["answer"]


@pytest.mark.parametrize(
    "release,mutate,where",
    [
        (False, _set((2, "paragraphs", 0), "a bare string"), "[2].paragraphs"),
        (False, _set((0, "questions", 1), 7), "[0].questions[1]"),
        (False, _set((2, "paragraphs", 0, "order"), "1"), "[2].paragraphs"),
        (False, _set((0, "questions", 1, "order"), "2"), "[0].questions"),
        (False, _set((1, "doc_uid"), ["doc-alpha"]), "[1]"),
        (False, _reverse_questions_and_drop_first_answer, "[0].questions[0]"),
        (False, _set((0, "questions", 3, "answer"), []), "[0].questions[3].answer"),
        (False, _set((0, "questions", 3, "answer"), ["0.1932", "0.2"]), "[0].questions[3].answer"),
        (False, _set((1, "questions", 2, "clari_question"), ["Which year?", "Which period?"]), "[1].questions[2].clari_question"),
        (False, _set((1, "questions", 2, "clari_question"), [None]), "[1].questions[2].clari_question"),
        (False, _set((0, "questions", 0, "clari_question"), 5), "[0].questions[0].clari_question"),
        (False, _set((0, "questions", 0, "answer"), [{"a": 1}]), "[0].questions[0].answer"),
        (False, _set((0, "questions", 3, "answer"), [[0.1932]]), "[0].questions[3].answer"),
        (False, _set((0, "questions", 1, "uid"), None), "[0].questions[1].uid"),
        (False, _set((0, "questions", 1, "uid"), True), "[0].questions[1].uid"),
        (False, _set((0, "questions", 1, "uid"), 1.5), "[0].questions[1].uid"),
        (False, _set((0, "questions", 2, "answer"), None), "[0].questions[2].answer"),
        (False, _set((0, "questions", 2, "answer"), True), "[0].questions[2].answer"),
        (False, _set((0, "questions", 2, "answer"), {"a": 1}), "[0].questions[2].answer"),
        (False, _set((0, "uid"), ["x"]), "[0].uid"),
        (False, _set((0, "uid"), {"a": 1}), "[0].uid"),
        (False, _set((0, "uid"), False), "[0].uid"),
        (True, _set((0,), "a bare string"), "[0]"),
        (True, _set((0, "table"), ["not", "an", "object"]), "[0]"),
        (True, _set((0, "questions", 0), None), "[0].questions[0]"),
        (
            True,
            _set((0, "questions", 0), {"uid": "q1", "question": "Revenue?", "answer": ["Which year?", "Which period?"],
                                       "req_clari": True, "answer_from": "table"}),
            "[0].questions[0].clari_question",
        ),
        (True, _set((0, "questions", 0, "uid"), None), "[0].questions[0].uid"),
    ],
    ids=[
        "paragraph-not-object",
        "question-not-object",
        "paragraph-order-mixes-int-and-str",
        "question-order-mixes-int-and-str",
        "doc-uid-not-string",
        "missing-field-located-in-file-order",
        "arithmetic-answer-empty-list",
        "arithmetic-answer-two-item-list",
        "clari-question-two-item-list",
        "clari-question-list-of-null",
        "clari-question-number",
        "answer-list-item-object",
        "arithmetic-answer-list-of-a-list",
        "turn-id-null",
        "turn-id-bool",
        "turn-id-float",
        "answer-null",
        "answer-bool",
        "answer-object",
        "dialogue-id-list",
        "dialogue-id-object",
        "dialogue-id-bool",
        "release-block-not-object",
        "release-table-not-object",
        "release-question-not-object",
        "release-clari-question-from-a-list-answer-of-two",
        "release-turn-id-null",
    ],
)
def test_malformed_entries_are_schema_errors(raw_blocks, tmp_path, release, mutate, where):
    blocks = copy.deepcopy(_RELEASE if release else raw_blocks)
    mutate(blocks)
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(blocks))
    with pytest.raises(SchemaError) as caught:
        (load_release_file if release else load_corpus)(path)
    assert caught.value.location == f"{path}{where}"


@pytest.mark.parametrize(
    "content", [b"\xff\xfe[]", b"[" * 100_000], ids=["not-utf-8", "nested-too-deep"]
)
@pytest.mark.parametrize("loader", [load_corpus, load_release_file], ids=["corpus", "release"])
def test_unreadable_json_is_schema_error(tmp_path, loader, content):
    path = tmp_path / "corpus.json"
    path.write_bytes(content)
    with pytest.raises(SchemaError):
        loader(path)


@pytest.mark.parametrize("field", ["by_type", "by_source"])
def test_expected_tallies_must_be_objects(field):
    for tally in (["span", 5], [], 0, False, "", "span"):
        with pytest.raises(SchemaError) as caught:
            read_expectations({field: tally})
        assert caught.value.location == f"expectations.{field}"


@pytest.mark.parametrize("field", ["by_type", "by_source"])
def test_null_expected_tally_is_not_checked(small_corpus, field):
    expected = read_expectations({"turns": 16, field: None})
    assert validate_corpus(small_corpus, expected).passed
    assert validate_corpus(small_corpus, read_expectations({"turns": 99, field: None})).findings


@pytest.mark.parametrize(
    "raw, where",
    [
        ({"turns": "16"}, "expectations.turns"),
        ({"dialogues": True}, "expectations.dialogues"),
        ({"avg_words_per_question": [7.4]}, "expectations.avg_words_per_question"),
        ({"clarifying_turns": {"n": 2}}, "expectations.clarifying_turns"),
        ({"total_questions": "16"}, "expectations.total_questions"),
        ({"by_type": {"span": "5"}}, "expectations.by_type.span"),
        ({"by_source": {"text": False}}, "expectations.by_source.text"),
    ],
)
def test_expected_statistics_must_be_numbers(raw, where):
    with pytest.raises(SchemaError) as caught:
        read_expectations(raw)
    assert caught.value.location == where


def test_expectations_key_total_questions_means_turns():
    assert read_expectations({"total_questions": 16})["turns"] == 16
    assert read_expectations({"turns": 3, "total_questions": 16})["turns"] == 3
    with pytest.raises(SchemaError):
        read_expectations([16])


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
        turn = turn_by_id(small_corpus, "a1-q4")
        assert reconstruct_code(turn.gold) == "(105-88)/88"

    def test_arithmetic_normalizes_commas_and_spaces(self, small_corpus):
        turn = turn_by_id(small_corpus, "b2-q3")
        assert reconstruct_code(turn.gold) == "3711+4801"

    def test_count_over_items(self, small_corpus):
        turn = turn_by_id(small_corpus, "a1-q2")
        assert reconstruct_code(turn.gold) == 'len(["Americas", "EMEA", "Asia Pacific"])'

    def test_multi_span_list(self, small_corpus):
        turn = turn_by_id(small_corpus, "a1-q1")
        assert reconstruct_code(turn.gold) == '["Americas", "EMEA", "Asia Pacific"]'

    def test_clarification_single_item_list(self, small_corpus):
        turn = turn_by_id(small_corpus, "a2-q3")
        assert reconstruct_code(turn.gold) == '["Which year are you asking about?"]'

    def test_unreconstructible(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["derivation"] = "increase of about 5"
        corpus = corpus_from_obj(blocks)
        turn = turn_by_id(corpus, "a1-q4")
        with pytest.raises(UnreconstructibleDerivation):
            reconstruct_code(turn.gold)

    def test_count_items_release_separator(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][1]["derivation"] = "Americas##EMEA##Asia Pacific"
        corpus = corpus_from_obj(blocks)
        turn = turn_by_id(corpus, "a1-q2")
        assert reconstruct_code(turn.gold) == 'len(["Americas", "EMEA", "Asia Pacific"])'

    def test_span_with_double_quote_is_single_quoted(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][0]["answer"] = ['the "Americas"', "EMEA"]
        turn = turn_by_id(corpus_from_obj(blocks), "a1-q1")
        assert reconstruct_code(turn.gold) == """['the "Americas"', "EMEA"]"""

    def test_span_with_both_quotes_is_unreconstructible(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][0]["answer"] = ["the \"Americas\" and Europe's", "EMEA"]
        turn = turn_by_id(corpus_from_obj(blocks), "a1-q1")
        with pytest.raises(UnreconstructibleDerivation, match="both quote styles"):
            reconstruct_code(turn.gold)


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
        gold = turn_by_id(small_corpus, turn_id).gold
        assert type(gold.canonical).__name__ == kind
        assert gold.canonical.text_spans() == spans
        assert gold.response_text() == text

    def test_listed_count_answer_counts_its_items(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][1]["answer"] = ["Americas", "EMEA", "Asia Pacific"]
        gold = turn_by_id(corpus_from_obj(blocks), "a1-q2").gold
        assert gold.canonical == NumericAnswer(Fraction(3))
        assert gold.response_text() == "3"
        target = reconstruct_code(gold)
        assert target == 'len(["Americas", "EMEA", "Asia Pacific"])'
        assert execute_source(target).key() == gold.canonical.key()

    def test_exponent_float_gold_validates(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        q = blocks[0]["questions"][3]
        q["derivation"], q["answer"] = "0.0001/2", json.loads("5e-05")
        report = validate_corpus(corpus_from_obj(blocks))
        assert report.passed
        assert report.validated_arithmetic_turns == report.arithmetic_turns

    def test_one_item_arithmetic_answer_list_takes_its_item(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["answer"] = [0.1932]
        corpus = corpus_from_obj(blocks)
        assert turn_by_id(corpus, "a1-q4").gold.canonical == NumericAnswer(Fraction("0.1932"))
        report = validate_corpus(corpus)
        assert report.findings == []
        assert report.validated_arithmetic_turns == report.arithmetic_turns

    def test_direct_arithmetic_answer_list(self):
        gold = GoldTurnAnswer("arithmetic", [0.1932], "(105-88)/88", "", "table", False, "")
        assert gold.answer == 0.1932
        assert gold.canonical == NumericAnswer(Fraction("0.1932"))
        for answer in ([], [0.1932, 0.2]):
            with pytest.raises(ValueError, match="an arithmetic answer list needs one item"):
                GoldTurnAnswer("arithmetic", answer, "(105-88)/88", "", "table", False, "")

    def test_answer_list_items_are_strings_or_numbers(self):
        gold = GoldTurnAnswer("multi-span", ["EMEA", 7, 0.5], "", "", "table", False, "")
        assert gold.canonical == SpanSetAnswer(("EMEA", "7", "0.5"))
        for answer_type, answer in (
            ("arithmetic", [[0.1932]]),
            ("span", [{"a": 1}]),
            ("multi-span", ["EMEA", None]),
            ("count", ["a", True]),
        ):
            with pytest.raises(ValueError, match="each answer list item must be a string or a number"):
                GoldTurnAnswer(answer_type, answer, "(105-88)/88", "", "table", False, "")

    def test_clarification_question_list_of_one_takes_its_item(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[1]["questions"][2]["clari_question"] = ["Which  year are you asking about?"]
        gold = turn_by_id(corpus_from_obj(blocks), "a2-q3").gold
        assert gold.clarification_question == "Which year are you asking about?"
        assert gold.canonical == ClarifyAnswer("Which year are you asking about?")

    def test_null_clarification_question_is_absent(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["clari_question"] = None
        assert turn_by_id(corpus_from_obj(blocks), "a1-q4").gold.clarification_question == ""
        blocks[1]["questions"][2]["clari_question"] = None
        with pytest.raises(InvariantViolation, match="needs a clarification question"):
            corpus_from_obj(blocks)

    def test_scale_follows_answers_but_not_questions(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["scale"] = "percent"
        blocks[1]["questions"][2]["scale"] = "million"
        corpus = corpus_from_obj(blocks)
        assert turn_by_id(corpus, "a1-q4").gold.response_text() == "0.1932 percent"
        assert turn_by_id(corpus, "a2-q3").gold.response_text() == "Which year are you asking about?"


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

    def test_marker_in_question_raises_like_run_eval(self, small_corpus, fixtures_dir):
        """load_corpus rejects such a question; a hand-built corpus can hold one."""
        first, *rest = small_corpus.dialogues
        turns = list(first.turns)
        turns[1] = replace(turns[1], question="and in [table] terms?")
        corpus = Corpus(small_corpus.documents, (replace(first, turns=tuple(turns)), *rest))
        with pytest.raises(MarkerCollisionError):
            build_examples(corpus, Task.MULTI)
        replay = ReplayGenerator.from_jsonl(fixtures_dir / "corpus_small_replay.jsonl")
        with pytest.raises(MarkerCollisionError):
            run_eval(corpus, replay, RunConfig(mode="greedy"))


class TestValidateCorpus:
    def test_fixture_validates_cleanly(self, small_corpus, fixtures_dir):
        expected = read_expectations(
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

    def test_unparseable_derivation_is_a_finding(self, raw_blocks):
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["derivation"] = "(1+2"
        report = validate_corpus(corpus_from_obj(blocks))
        [finding] = report.findings
        assert (finding.kind, finding.where) == ("UnreconstructibleDerivation", "a1-q4")
        assert "(1+2" in finding.detail
        assert (report.arithmetic_turns, report.validated_arithmetic_turns) == (7, 6)

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
        gold = turn_by_id(corpus, "a1-q4").gold
        assert gold.canonical == SpanSetAnswer(("1e5000",))
        [finding] = validate_corpus(corpus).findings
        assert (finding.kind, finding.where, finding.detail) == (
            "ExecutionMismatch",
            "a1-q4",
            "gold answer is not numeric",
        )

    def test_long_numeral_gold_is_not_numeric(self, raw_blocks):
        # 4,297 digits rendered at 4 places pass the 4,300-digit int/str limit
        blocks = copy.deepcopy(raw_blocks)
        blocks[0]["questions"][3]["answer"] = "9" * 4297
        corpus = corpus_from_obj(blocks)
        gold = turn_by_id(corpus, "a1-q4").gold
        assert gold.canonical == SpanSetAnswer(("9" * 4297,))
        [finding] = validate_corpus(corpus).findings
        assert (finding.kind, finding.where, finding.detail) == (
            "ExecutionMismatch",
            "a1-q4",
            "gold answer is not numeric",
        )

    def test_numeral_digit_limit(self, raw_blocks):
        for answer, canonical in [
            ("9" * MAX_NUMERAL_DIGITS, NumericAnswer(Fraction(10**30 - 1))),
            ("-." + "5" * MAX_NUMERAL_DIGITS, NumericAnswer(-Fraction("." + "5" * 30))),
            ("9" * (MAX_NUMERAL_DIGITS + 1), SpanSetAnswer(("9" * 31,))),
            # A JSON float is read in positional notation, under the same limit.
            (0.00005, NumericAnswer(Fraction(1, 20000))),
            (1.5e16, NumericAnswer(Fraction(15 * 10**15))),
            (1e300, SpanSetAnswer(("1e+300",))),
            (1e-40, SpanSetAnswer(("1e-40",))),
            (float("nan"), SpanSetAnswer(("nan",))),
            (float("inf"), SpanSetAnswer(("inf",))),
        ]:
            blocks = copy.deepcopy(raw_blocks)
            blocks[0]["questions"][3]["answer"] = answer
            gold = turn_by_id(corpus_from_obj(blocks), "a1-q4").gold
            assert gold.canonical == canonical

    def test_stat_diff_reported(self, small_corpus):
        report = validate_corpus(small_corpus, read_expectations({"turns": 99}))
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
        corpus = load_release_file(path)
        stats = corpus_stats(corpus)
        assert stats.turns == 2
        assert stats.clarifying_turns == 1
        turn = turn_by_id(corpus, "rel-q2")
        assert turn.gold.answer_type == "clarification"
        assert turn.gold.clarification_question == "Which period are you asking about?"

    @pytest.mark.parametrize("extra", [{}, {"clari_question": None}], ids=["absent", "null"])
    def test_list_answer_gives_the_clarification_question(self, tmp_path, extra):
        release = copy.deepcopy(_RELEASE)
        release[0]["questions"][0].update(answer=["Which year?"], req_clari=True, **extra)
        path = tmp_path / "release.json"
        path.write_text(json.dumps(release))
        gold = turn_by_id(load_release_file(path), "rel-q1").gold
        assert gold.clarification_question == "Which year?"
        assert gold.canonical == ClarifyAnswer("Which year?")

    def test_renamed_grid_loads_as_the_corpus(self, fixtures_dir, raw_blocks, tmp_path):
        for block in raw_blocks:
            if "table" in block:
                block["table"]["table"] = block["table"].pop("cells")
        path = tmp_path / "release.json"
        path.write_text(json.dumps(raw_blocks))
        assert load_release_file(path) == load_corpus(fixtures_dir / "corpus_small.json")

    @pytest.mark.parametrize(
        "path, field",
        [
            (("questions", 0, "uid"), "uid"),
            (("questions", 0, "question"), "question"),
            (("questions", 0, "answer"), "answer"),
            (("questions", 0, "answer_from"), "answer_from"),
            (("questions", 0, "answer_type"), "answer_type"),
            (("table", "uid"), "uid"),
        ],
        ids=["uid", "question", "answer", "answer_from", "answer_type", "table-uid"],
    )
    def test_missing_release_field_is_schema_error(self, tmp_path, path, field):
        release = copy.deepcopy(_RELEASE)
        target = release[0]
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        release_path = tmp_path / "release.json"
        release_path.write_text(json.dumps(release))
        with pytest.raises(SchemaError) as caught:
            load_release_file(release_path)
        assert field in caught.value.detail
