import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.linearize import (
    RESERVED_MARKERS,
    HybridDocument,
    InvalidCombination,
    MalformedOutput,
    MarkerCollisionError,
    Task,
    add_response,
    build_model_input,
    check_no_markers,
    format_target,
    linearize_document,
    normalize_whitespace,
    parse_output,
)


@pytest.fixture
def doc():
    return HybridDocument(
        uid="d1",
        paragraphs=("Alpha.",),
        table=(("Year", "2018", "2019"), ("Revenue", "88", "105")),
    )


class TestLinearizeDocument:
    def test_template(self, doc):
        assert linearize_document(doc) == (
            "[paragraph] Alpha. </p> [table] Year : 2018 | 2019 </t> Revenue : 88 | 105"
        )

    def test_degenerate_no_paragraphs(self):
        doc = HybridDocument(uid="d", paragraphs=(), table=(("r", "c"),))
        assert linearize_document(doc) == "[paragraph] [table] r : c"

    def test_golden_file(self, small_corpus, golden_input):
        dialogue = small_corpus.dialogues[0]
        first, second = dialogue.turns[:2]
        context = linearize_document(small_corpus.documents[dialogue.doc_uid])
        context = add_response(build_model_input(context, first.question), first.gold.response_text())
        assert build_model_input(context, second.question) == golden_input

    def test_separator_count_matches_columns(self):
        doc = HybridDocument(
            uid="d", paragraphs=(), table=(("a", "b", "c", "d"), ("e", "f", "g", "h"))
        )
        text = linearize_document(doc)
        rows = text.split("[table] ")[1].split(" </t> ")
        for row in rows:
            assert row.count(" : ") + row.count(" | ") == 3

    def test_from_raw_pads_and_normalizes(self):
        doc = HybridDocument.from_raw(
            "d", ["  two\t spaces "], [["a", "b", "c"], ["d", "e"]]
        )
        assert doc.paragraphs == ("two spaces",)
        assert doc.table[1] == ("d", "e", "")

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            HybridDocument(uid="d", paragraphs=(), table=())
        with pytest.raises(ValueError):
            HybridDocument(uid="d", paragraphs=(), table=(("only",),))
        with pytest.raises(ValueError):
            HybridDocument(uid="d", paragraphs=(), table=(("a", "b"), ("c",)))


class TestLinearizeHistory:
    def test_first_turn(self):
        assert build_model_input("[table] a : b", "q1") == "[table] a : b [user] q1"

    def test_alternation(self):
        model_input = add_response(build_model_input("C", "q1"), "r1")
        assert build_model_input(model_input, "q2") == "C [user] q1 [system] r1 [user] q2"

    def test_empty_user_query_rejected(self):
        with pytest.raises(ValueError):
            build_model_input("C [user] q1 [system] r1", "  ")

    def test_empty_system_response_allowed(self):
        model_input = add_response(build_model_input("C", "q1"), "")
        assert build_model_input(model_input, "q2") == "C [user] q1 [system] [user] q2"

    def test_whitespace_normalized_on_append(self):
        model_input = add_response(build_model_input("C", " q \n 1\t"), "Americas \n\n EMEA ")
        assert model_input == "C [user] q 1 [system] Americas EMEA"
        assert add_response("C [user] q1", " \t\n") == "C [user] q1 [system]"

    def test_concatenation(self, doc):
        assert build_model_input(linearize_document(doc), "q1") == linearize_document(doc) + " [user] q1"


class TestMarkerRejection:
    @pytest.mark.parametrize("marker", RESERVED_MARKERS)
    def test_document_text_rejected(self, marker):
        with pytest.raises(MarkerCollisionError):
            HybridDocument(uid="d", paragraphs=(f"has {marker} inside",), table=(("a", "b"),))
        with pytest.raises(MarkerCollisionError):
            HybridDocument(uid="d", paragraphs=(), table=((f"x {marker}", "b"),))

    @pytest.mark.parametrize("marker", RESERVED_MARKERS)
    def test_query_rejected(self, marker):
        with pytest.raises(MarkerCollisionError):
            build_model_input("C", f"what about {marker}?")

    @pytest.mark.parametrize("marker", RESERVED_MARKERS)
    def test_response_rejected(self, marker):
        with pytest.raises(MarkerCollisionError):
            add_response("C [user] q1", f"maybe {marker}")


_WS = re.compile(r"\s+")


def regex_normalize(text: str) -> str:
    """The regular-expression definition that normalize_whitespace replaces."""
    return _WS.sub(" ", text).strip()


EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))
# What the regex takes for whitespace; test_every_code_point_as_the_regex
# shows that normalize_whitespace takes the same code points.
WHITESPACE = re.findall(r"\s", EVERY_CODE_POINT)


class TestNormalizeWhitespace:
    def test_every_code_point_as_the_regex(self):
        """Each code point in a run of its neighbours and alone between two
        letters: a code point one side counts as whitespace and the other
        does not changes the output."""
        for text in (EVERY_CODE_POINT, "a" + "b|a".join(EVERY_CODE_POINT) + "b"):
            assert normalize_whitespace(text) == regex_normalize(text)

    @pytest.mark.parametrize("context", ["{}", "a {} b", "{0} x {0} {0}", " {}"])
    def test_whitespace_code_points_in_context(self, context):
        assert len(WHITESPACE) == 29  # Unicode's 25 White_Space code points and U+001C-U+001F
        for char in [*WHITESPACE, "x", "\u180e", "\u200b", "\ufeff", "\x00"]:
            text = context.format(char)
            assert normalize_whitespace(text) == regex_normalize(text), repr(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=st.sampled_from(WHITESPACE) | st.characters(), max_size=40))
    def test_random_strings_as_the_regex(self, text):
        assert normalize_whitespace(text) == regex_normalize(text)


def per_text_marker_check(texts) -> None:
    """The reference: each text checked on its own, in order."""
    for text in texts:
        check_no_markers(text)


_marker_pieces = st.sampled_from(
    [*RESERVED_MARKERS, "[par", "agraph]", "[", "]", "</", "p>", "t>", "[user", "\n", "a", " "]
)
_marker_texts = st.lists(_marker_pieces, max_size=4).map("".join)


class TestDocumentMarkerScan:
    def test_marker_split_across_texts_is_no_collision(self):
        HybridDocument(uid="d", paragraphs=("[par",), table=(("agraph]", "[sys"), ("tem]", "</")))
        HybridDocument(uid="d", paragraphs=("<", "/p>"), table=(("[user\n", "]"),))

    def test_first_text_and_first_marker_named(self):
        with pytest.raises(MarkerCollisionError) as err:
            HybridDocument(uid="d", paragraphs=("ok",), table=(("a </t> [user]", "[table]"),))
        assert err.value.marker == "[user]"
        assert str(err.value) == "text contains reserved marker '[user]': 'a </t> [user]'"

    @settings(max_examples=300, deadline=None)
    @given(
        paragraphs=st.lists(_marker_texts, max_size=3),
        cells=st.lists(_marker_texts, min_size=2, max_size=6).filter(lambda c: len(c) % 2 == 0),
    )
    def test_raises_exactly_what_the_per_text_scan_raises(self, paragraphs, cells):
        table = tuple(zip(cells[::2], cells[1::2]))
        try:
            per_text_marker_check([*paragraphs, *cells])
        except MarkerCollisionError as expected:
            with pytest.raises(MarkerCollisionError) as err:
                HybridDocument(uid="d", paragraphs=tuple(paragraphs), table=table)
            assert (err.value.marker, str(err.value)) == (expected.marker, str(expected))
        else:
            HybridDocument(uid="d", paragraphs=tuple(paragraphs), table=table)


class TestFormatTarget:
    def test_multitask_answer(self):
        assert format_target(Task.MULTI, False, "(1.06+0.91+4.04)/3") == (
            "[clari.] False [resp.] (1.06+0.91+4.04)/3"
        )

    def test_multitask_clarify(self):
        assert format_target(Task.MULTI, True, '["Which period are you asking about?"]') == (
            '[clari.] True [resp.] ["Which period are you asking about?"]'
        )

    def test_cnp_label_only(self):
        assert format_target(Task.CNP, True, "") == "True"
        assert format_target(Task.CNP, False, "") == "False"

    def test_single_task_payloads(self):
        assert format_target(Task.CQA, False, "(88-105)/105") == "(88-105)/105"
        assert format_target(Task.CQG, True, '["Which year?"]') == '["Which year?"]'

    @pytest.mark.parametrize(
        "task,flag,response",
        [
            (Task.CNP, True, "payload"),
            (Task.CQA, False, ""),
            (Task.CQG, True, ""),
            (Task.MULTI, False, ""),
            (Task.CQG, False, '["x"]'),
            (Task.CQA, True, "(1+2)"),
        ],
    )
    def test_invalid_combinations(self, task, flag, response):
        with pytest.raises(InvalidCombination):
            format_target(task, flag, response)


# The one message for every output not in the multi-task shape.
_SHAPE = r"^expected \[clari\.\] True\|False \[resp\.\] payload$"


class TestParseOutput:
    def test_multitask(self):
        parsed = parse_output("[clari.] False [resp.] (88-105)/105")
        assert parsed.clarification_flag is False
        assert parsed.response_payload == "(88-105)/105"

    def test_missing_flag_marker(self):
        with pytest.raises(MalformedOutput, match=_SHAPE):
            parse_output("[resp.] only")

    def test_missing_resp_marker(self):
        with pytest.raises(MalformedOutput, match=_SHAPE):
            parse_output("[clari.] False 42")

    def test_bad_flag_token(self):
        with pytest.raises(MalformedOutput, match=_SHAPE):
            parse_output("[clari.] maybe [resp.] 42")

    def test_empty_payload(self):
        with pytest.raises(MalformedOutput, match=_SHAPE):
            parse_output("[clari.] True [resp.] ")


_text = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789+-*/()[],.\"' ?<>", max_size=60)
_payloads = st.one_of(
    _text,
    # A reserved marker somewhere in the payload.
    st.builds(lambda a, m, b: a + m + b, _text, st.sampled_from(RESERVED_MARKERS), _text),
).map(str.strip).filter(bool)


@settings(max_examples=1000, deadline=None)
@given(flag=st.booleans(), response=_payloads)
def test_format_parse_round_trip(flag, response):
    """Marker-free payloads round-trip; a payload holding a marker is
    rejected by both directions."""
    decoded = f"[clari.] {flag} [resp.] {response}"
    if any(marker in response for marker in RESERVED_MARKERS):
        with pytest.raises(MarkerCollisionError):
            format_target(Task.MULTI, flag, response)
        with pytest.raises(MalformedOutput):
            parse_output(decoded)
        return
    assert format_target(Task.MULTI, flag, response) == decoded
    parsed = parse_output(decoded)
    assert parsed.clarification_flag is flag
    assert parsed.response_payload == response



def reference_parse_output(decoded: str) -> tuple[bool, str]:
    """The step-by-step split that parse_output's single match stands in for."""
    text = decoded.strip()
    if not text.startswith("[clari.]"):
        raise MalformedOutput("missing [clari.] marker")
    rest = text[len("[clari.]") :].strip()
    marker = rest.find("[resp.]")
    if marker < 0:
        raise MalformedOutput("missing [resp.] marker")
    flag_token = rest[:marker].strip()
    if flag_token not in ("True", "False"):
        raise MalformedOutput(f"clarification flag must be True/False, got {flag_token!r}")
    payload = rest[marker + len("[resp.]") :].strip()
    if not payload:
        raise MalformedOutput("empty response payload")
    try:
        check_no_markers(payload)
    except MarkerCollisionError as err:
        raise MalformedOutput(str(err)) from err
    return flag_token == "True", payload


def _parsed(parse, decoded):
    """The flag and payload; the message of a reserved marker in the payload;
    or, for any other malformed output, only that it is malformed."""
    try:
        return tuple(parse(decoded))
    except MalformedOutput as err:
        return str(err) if isinstance(err.__cause__, MarkerCollisionError) else "malformed"


_output_pieces = st.sampled_from(
    ["[clari.]", "[resp.]", "True", "False", "true", " ", "  ", "\n", "\u00a0", "\u3000", "\x1c",
     "\u2028", "x", "(1+2)", '["a"]', "[user]", "</p>", "[", "]"]
)


@settings(max_examples=1000, deadline=None)
@given(st.lists(_output_pieces, max_size=10).map("".join))
@example("[clari.] False [resp.] (88-105)/105")
@example("[clari.] True [resp.]  x ")
@example(" [clari.] True [resp.] x")
@example("[clari.] True [resp.] x [resp.] y")
@example("[clari.] True [resp.] [user]")
@example("[clari.] True  [resp.] x\n")
@example("[clari.] False [resp.] \u00a0")
@example("[clari.]True[resp.]x")
@example("\u3000[clari.]\x1cTrue\u2028[resp.]\u3000x\x1c")
@example("\x1c[clari.]\u2028False\u3000[resp.]\x1cx y\u2028")
@example("\n \t[clari.] False [resp.] x")
@example("[clari.] True [resp.] \u3000\x1c\u2028 \n")
def test_parse_output_as_the_step_by_step_split(decoded):
    assert _parsed(parse_output, decoded) == _parsed(reference_parse_output, decoded)
