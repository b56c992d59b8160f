import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa import voting
from pcqa.derivation import NUMERIC_TOLERANCE
from pcqa.generation import GeneratedOutput
from pcqa.voting import (
    AllSamplesDiscarded,
    ClarifyAnswer,
    CountAnswer,
    NumericAnswer,
    SpanSetAnswer,
    canonicalize,
    consensus_vote,
    greedy_select,
)


# Decodes beyond the derivation language's size limits: too many tokens
# (three shapes) or too many digits in one numeral.
OVERSIZED_PAYLOADS = [
    "+".join(["1"] * 1000),
    "(" * 2000 + "1" + ")" * 2000,
    "-" * 5000 + "1",
    "7" * 5000,
]


def outputs(texts, scores=None):
    return tuple(
        GeneratedOutput(text, scores[i] if scores else None) for i, text in enumerate(texts)
    )


class TestCanonicalize:
    def test_numeric(self):
        answer = canonicalize("[clari.] False [resp.] (1.06+0.91+4.04)/3")
        assert answer == NumericAnswer(Fraction(601, 300))

    def test_clarify(self):
        answer = canonicalize('[clari.] True [resp.] ["Which period are you asking about?"]')
        assert isinstance(answer, ClarifyAnswer)
        assert answer.normalized() == "which period are you asking about"

    def test_execution_failure_discards(self):
        assert canonicalize("[clari.] False [resp.] 1/(3-3)") is None

    def test_malformed_discards(self):
        assert canonicalize("no markers here") is None

    def test_clarify_payload_must_be_single_item_list(self):
        assert canonicalize("[clari.] True [resp.] (1+2)") is None
        assert canonicalize('[clari.] True [resp.] ["a", "b"]') is None

    @pytest.mark.parametrize("payload", OVERSIZED_PAYLOADS, ids=["sum", "nesting", "negation", "digits"])
    def test_oversized_payload_discards(self, payload):
        assert canonicalize(f"[clari.] False [resp.] {payload}") is None

    def test_count_and_spans(self):
        assert canonicalize('[clari.] False [resp.] len(["a", "b"])') == CountAnswer(2)
        answer = canonicalize('[clari.] False [resp.] ["EMEA", "Americas"]')
        assert isinstance(answer, SpanSetAnswer)
        assert answer.spans == ("EMEA", "Americas")


class TestGrouping:
    def test_derivation_equivalence(self):
        a = canonicalize("[clari.] False [resp.] (88-105)/105")
        b = canonicalize("[clari.] False [resp.] 88/105-1")
        assert a.key() == b.key()

    def test_count_permutation_equivalence(self):
        a = canonicalize('[clari.] False [resp.] len(["Americas", "EMEA", "Asia Pacific"])')
        b = canonicalize('[clari.] False [resp.] len(["EMEA", "Americas", "Asia Pacific"])')
        assert a.key() == b.key()

    def test_count_groups_with_equal_number(self):
        # executing len([...]) and executing a bare numeral denote the same value
        a = canonicalize('[clari.] False [resp.] len(["a", "b"])')
        b = canonicalize("[clari.] False [resp.] 2")
        assert a.key() == b.key()

    def test_span_sets_ignore_order_and_case(self):
        a = SpanSetAnswer(("EMEA", "Americas"))
        b = SpanSetAnswer(("americas", "emea"))
        assert a.key() == b.key()

    def test_clarify_normalization(self):
        a = ClarifyAnswer("Which period are you asking about?")
        b = ClarifyAnswer("which period are you asking about")
        assert a.key() == b.key()

    def test_different_kinds_do_not_group(self):
        assert NumericAnswer(Fraction(2)).key() != SpanSetAnswer(("2",)).key()
        assert ClarifyAnswer("x").key() != SpanSetAnswer(("x",)).key()


def table7_case1_samples():
    texts = (
        ["[clari.] False [resp.] (1.06+0.91+4.04)/3"] * 13
        + ["[clari.] False [resp.] (1.06+4.04+0.91)/3"] * 11
        + ["[clari.] False [resp.] (1.06+0.91+4.01)/3"] * 12
        + ["[clari.] False [resp.] (1.06+0.91+4.04)/2"] * 4
    )
    return outputs(texts)


def table7_case2_samples():
    texts = (
        ['[clari.] True [resp.] ["Which period are you asking about?"]'] * 12
        + ["[clari.] True [resp.] ['Which period are you asking about?']"] * 10
        + ["[clari.] False [resp.] (576523-576523)/576523"] * 10
        + ["[clari.] False [resp.] (576523-537891)/537891"] * 4
        + ["[clari.] False [resp.] (566523-576891)/576523"] * 2
        + ["[resp.] missing flag", "[clari.] False [resp.] 1/(576523-576523)"]
    )
    return outputs(texts)


class TestConsensusVote:
    def test_case_study_numeric(self):
        vote = consensus_vote(table7_case1_samples())
        assert vote.counts() == [24, 12, 4]
        assert vote.discarded == 0
        assert vote.winner == NumericAnswer(Fraction(601, 300))
        # the winning group pools both operand orders
        assert vote.tallies[0][1] == 24

    def test_case_study_clarify(self):
        vote = consensus_vote(table7_case2_samples())
        assert vote.counts() == [22, 10, 4, 2]
        assert vote.discarded == 2
        assert isinstance(vote.winner, ClarifyAnswer)
        assert vote.winner.normalized() == "which period are you asking about"

    def test_single_sample(self):
        vote = consensus_vote(outputs(["[clari.] False [resp.] 5"]))
        assert vote.winner == NumericAnswer(Fraction(5))
        assert vote.counts() == [1]

    def test_tally_conservation(self):
        for samples in (table7_case1_samples(), table7_case2_samples()):
            vote = consensus_vote(samples)
            assert sum(vote.counts()) + vote.discarded == len(samples)

    def test_all_discarded(self):
        with pytest.raises(AllSamplesDiscarded):
            consensus_vote(outputs(["junk", "[resp.] x", "[clari.] False [resp.] 1/0"]))

    def test_permutation_invariance_without_ties(self):
        base = table7_case1_samples()
        rng = random.Random(11)
        texts = [o.text for o in base]
        for _ in range(5):
            rng.shuffle(texts)
            vote = consensus_vote(outputs(texts))
            assert vote.counts() == [24, 12, 4]
            assert vote.winner == NumericAnswer(Fraction(601, 300))

    def test_tie_breaks_on_score_sum(self):
        samples = outputs(["[clari.] False [resp.] 1", "[clari.] False [resp.] 2"], [-2.0, -0.5])
        vote = consensus_vote(samples)
        assert vote.winner == NumericAnswer(Fraction(2))

    def test_tie_breaks_on_lowest_index_without_scores(self):
        samples = outputs(
            ["[clari.] False [resp.] 7", "[clari.] False [resp.] 9"]
        )
        vote = consensus_vote(samples)
        assert vote.winner == NumericAnswer(Fraction(7))

    def test_tie_with_an_unscored_group_breaks_on_lowest_index(self):
        # Not every tied sample carries a score, so the scores of 1 and 3 are
        # not compared: the lowest index wins.
        samples = outputs(
            ["[clari.] False [resp.] 1", "[clari.] False [resp.] 3", "[clari.] False [resp.] 2"],
            [-3.0, -1.0, None],
        )
        vote = consensus_vote(samples)
        assert vote.winner == NumericAnswer(Fraction(1))
        assert [answer for answer, _ in vote.tallies] == [
            NumericAnswer(Fraction(n)) for n in (1, 3, 2)
        ]

    def test_monotonicity_duplicating_never_demotes(self):
        texts = (
            ["[clari.] False [resp.] 1"] * 3
            + ["[clari.] False [resp.] 2"] * 2
            + ["[clari.] False [resp.] 3"]
        )
        base_rank = [
            answer.key() for answer, _ in consensus_vote(outputs(texts)).tallies
        ]
        boosted = consensus_vote(outputs(texts + ["[clari.] False [resp.] 2"]))
        boosted_rank = [answer.key() for answer, _ in boosted.tallies]
        target = NumericAnswer(Fraction(2)).key()
        assert boosted_rank.index(target) <= base_rank.index(target)

    def test_numeric_tolerance_merges_groups(self):
        assert NUMERIC_TOLERANCE == Fraction(1e-9)
        samples = outputs(
            [
                "[clari.] False [resp.] 1",
                "[clari.] False [resp.] 1.0000000001",
                "[clari.] False [resp.] 1.000000002",
                "[clari.] False [resp.] 5",
            ]
        )
        vote = consensus_vote(samples)
        assert vote.counts() == [2, 1, 1]
        assert vote.exemplars == (
            "[clari.] False [resp.] 1",
            "[clari.] False [resp.] 1.000000002",
            "[clari.] False [resp.] 5",
        )


class TestExecutionCount:
    @pytest.fixture
    def executed(self, monkeypatch):
        sources = []
        original = voting.execute_source

        def counting(source):
            sources.append(source)
            return original(source)

        monkeypatch.setattr(voting, "execute_source", counting)
        return sources

    def test_each_distinct_text_executes_once(self, executed):
        vote = consensus_vote(table7_case1_samples())
        assert vote.counts() == [24, 12, 4]
        assert len(executed) == 4
        assert len(set(executed)) == 4

    def test_discarded_text_executes_once(self, executed):
        # seven distinct texts; the one without a flag never reaches execution
        vote = consensus_vote(table7_case2_samples() * 2)
        assert vote.discarded == 4
        assert len(executed) == 6

    def test_executions_do_not_carry_over_between_votes(self, executed):
        consensus_vote(table7_case1_samples())
        consensus_vote(table7_case1_samples())
        assert len(executed) == 8


class TestGreedySelect:
    def test_zero_change(self):
        answer = greedy_select(
            outputs(["[clari.] False [resp.] (576523-576523)/576523"])
        )
        assert answer == NumericAnswer(Fraction(0))

    def test_misread_operand(self):
        answer = greedy_select(
            outputs(["[clari.] False [resp.] (1.06+0.91+4.01)/3"])
        )
        assert answer == NumericAnswer(Fraction(598, 300))

    def test_malformed_discards(self):
        assert greedy_select(outputs(["garbage"])) is None

    def test_requires_exactly_one(self):
        with pytest.raises(ValueError):
            greedy_select(table7_case1_samples())


@settings(max_examples=200, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    junk=st.integers(min_value=0, max_value=4),
)
def test_tally_conservation_property(counts, junk):
    texts = []
    for value, count in enumerate(counts):
        texts += [f"[clari.] False [resp.] {value}"] * count
    texts += ["not parseable"] * junk
    rng = random.Random(42)
    rng.shuffle(texts)
    samples = outputs(texts)
    vote = consensus_vote(samples)
    assert sum(vote.counts()) + vote.discarded == len(samples)
    assert vote.discarded == junk
    assert sorted(vote.counts(), reverse=True) == sorted(counts, reverse=True)


DERIVATION_PIECES = list("0123456789.,+-*/()[]'\" ") + ["len"]


@settings(max_examples=300, deadline=None)
@given(
    prefix=st.sampled_from(["", "[clari.] False [resp.] "]),
    body=st.one_of(st.text(), st.lists(st.sampled_from(DERIVATION_PIECES)).map("".join)),
)
@example(prefix="[clari.] False [resp.] ", body=OVERSIZED_PAYLOADS[0])
@example(prefix="[clari.] False [resp.] ", body=OVERSIZED_PAYLOADS[1])
@example(prefix="[clari.] False [resp.] ", body=OVERSIZED_PAYLOADS[2])
@example(prefix="[clari.] False [resp.] ", body=OVERSIZED_PAYLOADS[3])
@example(prefix="[clari.] False [resp.] ", body="²")
def test_canonicalize_never_raises(prefix, body):
    answer = canonicalize(prefix + body)
    if answer is not None:
        answer.text(10)
        answer.describe(10)


def reference_vote(samples):
    """`consensus_vote` as plainly as possible: canonicalize every sample."""
    groups = {}  # vote key -> group, in order of first appearance
    discarded = 0
    for index, output in enumerate(samples):
        answer = canonicalize(output.text)
        if answer is None:
            discarded += 1
            continue
        group = groups.setdefault(
            answer.key(),
            {
                "answer": answer,
                "count": 0,
                "first": index,
                "scores": [],
                "text": output.text,
            },
        )
        group["count"] += 1
        group["scores"].append(output.score)
    if not groups:
        raise AllSamplesDiscarded
    tol = Fraction(1e-9)
    numeric = [key for key in groups if key[0] == "num"]
    for i, key in enumerate(numeric):
        if key not in groups:
            continue
        for other in numeric[i + 1 :]:
            if other in groups and abs(Fraction(*key[1:]) - Fraction(*other[1:])) <= tol:
                guest = groups.pop(other)
                host = groups[key]
                host["count"] += guest["count"]
                host["scores"] += guest["scores"]
                host["first"] = min(host["first"], guest["first"])

    # Groups with the same count are tied. A tie ranks by higher score sum,
    # added up exactly, only when every one of its groups is fully scored, then
    # by lowest index.
    ordered = []
    for count in sorted({g["count"] for g in groups.values()}, reverse=True):
        tied = sorted((g for g in groups.values() if g["count"] == count), key=lambda g: g["first"])
        if all(None not in g["scores"] for g in tied):
            tied.sort(key=lambda g: -math.fsum(g["scores"]))  # stable: equal sums keep index order
        ordered += tied
    return (
        ordered[0]["answer"],
        tuple((g["answer"], g["count"]) for g in ordered),
        discarded,
        tuple(g["text"] for g in ordered),
    )


# Repeats, equivalent derivations, numbers within the tolerance (1 absorbs
# 1.0000000008 but not 1.0000000016, unless 1.0000000008 comes first),
# clarifications in two quotings, malformed text and a failing execution.
VOTE_POOL = [
    "[clari.] False [resp.] (88-105)/105",
    "[clari.] False [resp.] 88/105-1",
    "[clari.] False [resp.] 1",
    "[clari.] False [resp.] 1.0000000008",
    "[clari.] False [resp.] 1.0000000016",
    "[clari.] False [resp.] 2",
    '[clari.] False [resp.] len(["a", "b"])',
    '[clari.] False [resp.] ["EMEA", "Americas"]',
    "[clari.] False [resp.] ['americas', 'emea']",
    '[clari.] True [resp.] ["Which period are you asking about?"]',
    "[clari.] True [resp.] ['which period are you asking about']",
    "[clari.] True [resp.] (1+2)",
    "[clari.] False [resp.] 1/(3-3)",
    "[resp.] missing flag",
    "junk",
]


VOTE_SAMPLES = st.lists(
    st.builds(
        GeneratedOutput,
        st.sampled_from(VOTE_POOL),
        st.one_of(st.none(), st.sampled_from([-1.0, -0.5, -0.25]), st.floats(-5, 0)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(samples=VOTE_SAMPLES)
# Three groups tied at one vote, one of them unscored: the lowest index wins.
@example(samples=outputs(["[clari.] False [resp.] 1", "[clari.] False [resp.] 2", "junk", "[clari.] False [resp.] 88/105-1"], [-3.0, -1.0, None, None]))
# 2 and 1 tie at three votes on the exact sum -1 - 2e-16, so 2 wins; added up
# in sample order, 1's -1.0 - 1e-16 - 1e-16 would round to -1.0 and win.
@example(samples=outputs(["[clari.] False [resp.] 2"] * 3 + ["[clari.] False [resp.] 1"] * 3, [-1.0000000000000002, 0.0, 0.0, -1.0, -1e-16, -1e-16]))
def test_vote_matches_reference_property(samples):
    samples = tuple(samples)
    try:
        expected = reference_vote(samples)
    except AllSamplesDiscarded:
        with pytest.raises(AllSamplesDiscarded):
            consensus_vote(samples)
        return
    vote = consensus_vote(samples)
    assert (vote.winner, vote.tallies, vote.discarded, vote.exemplars) == expected


def reorder_within_texts(samples):
    """The samples with each text's later samples in reverse order, every
    text's first sample kept in place."""
    positions = {}
    for index, output in enumerate(samples):
        positions.setdefault(output.text, []).append(index)
    reordered = list(samples)
    for indexes in positions.values():
        for index, source in zip(indexes[1:], reversed(indexes[1:])):
            reordered[index] = samples[source]
    return tuple(reordered)


@settings(max_examples=300, deadline=None)
@given(samples=VOTE_SAMPLES)
# 1's later scores, reversed, add up in sample order to -1.0000000000000002
# (a tie that 2 wins) instead of -1.0.
@example(samples=outputs(["[clari.] False [resp.] 2"] * 3 + ["[clari.] False [resp.] 1"] * 3, [-1.0000000000000002, 0.0, 0.0, -1e-16, -1.0, -1e-16]))
def test_vote_ignores_sample_order_within_a_text(samples):
    samples = tuple(samples)
    try:
        vote = consensus_vote(samples)
    except AllSamplesDiscarded:
        return
    assert consensus_vote(reorder_within_texts(samples)) == vote


def test_tie_break_sums_beyond_float_range():
    # Both sums overflow a float; exactly, 2's 2.5e308 beats 1's 2e308.
    samples = outputs(["[clari.] False [resp.] 1"] * 2 + ["[clari.] False [resp.] 2"] * 2, [1e308, 1e308, 1e308, 1.5e308])
    assert consensus_vote(samples).winner == NumericAnswer(Fraction(2))
