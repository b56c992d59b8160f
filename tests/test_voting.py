import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcqa.derivation import EvalConfig
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
        config = EvalConfig(numeric_tolerance=0.01)
        samples = outputs(
            [
                "[clari.] False [resp.] 1.000",
                "[clari.] False [resp.] 1.001",
                "[clari.] False [resp.] 5",
            ]
        )
        vote = consensus_vote(samples, config)
        assert vote.counts() == [2, 1]
        assert vote.exemplars == ("[clari.] False [resp.] 1.000", "[clari.] False [resp.] 5")


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
def test_canonicalize_never_raises(prefix, body):
    answer = canonicalize(prefix + body)
    if answer is not None:
        config = EvalConfig(render_precision=10)
        answer.text(config)
        answer.describe(config)
