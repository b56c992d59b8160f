"""Consensus voting over sampled decodes.

The samples are the generator's outputs (`GeneratedOutput`) in the order it
returned them; a sample's index is its position in that tuple. Each decoded
text is canonicalized by executing its payload, which yields one of the four
canonical answers defined in `pcqa.derivation`; samples whose answers share a
vote key form one group, so distinct derivations with the same value
("(88-105)/105" vs "88/105-1", or permuted count lists) pool their votes, and
numeric groups within `NUMERIC_TOLERANCE` of each other merge. The plurality
group wins. Samples that fail to parse or execute, including those beyond the
derivation language's size limits, cast no vote.

Sampled decodes repeat, so samples are gathered into one score list per
distinct text, each executed once per vote; ties break on the exact score
sum, whatever order the samples arrive in. Nothing is kept between votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# The answer classes live with the evaluator that produces them; voting is
# where most callers look for them, so they are re-exported here.
from .derivation import (
    DEFAULT_PRECISION,
    NUMERIC_TOLERANCE,
    CanonicalAnswer,
    ClarifyAnswer,
    CountAnswer,
    DerivationError,
    NumericAnswer,
    SpanSetAnswer,
    execute_source,
)
from .generation import GeneratedOutput
from .linearize import MalformedOutput, parse_output


class AllSamplesDiscarded(Exception):
    """Every sample failed parsing or execution; fall back to greedy decode."""


def canonicalize(text: str) -> CanonicalAnswer | None:
    """Execute one multi-task decode into a canonical answer; None = discard.

    Clarifying outputs must carry a single-item string list as payload;
    everything else is executed through the derivation language.
    """
    try:
        parsed = parse_output(text)
        answer = execute_source(parsed.response_payload)
    except (MalformedOutput, DerivationError):
        return None
    if not parsed.clarification_flag:
        return answer
    if not isinstance(answer, SpanSetAnswer) or len(answer.spans) != 1:
        return None
    return ClarifyAnswer(answer.spans[0])


@dataclass
class _Group:
    answer: CanonicalAnswer
    exemplar: str
    scores: list[float | None]


@dataclass(frozen=True)
class VoteResult:
    """Groups in rank order; `exemplars[i]` is the text of group i's first sample."""

    winner: CanonicalAnswer
    tallies: tuple[tuple[CanonicalAnswer, int], ...]
    discarded: int
    exemplars: tuple[str, ...]

    def counts(self) -> list[int]:
        return [count for _, count in self.tallies]

    def to_record(self, precision: int = DEFAULT_PRECISION) -> dict:
        return {
            "winner": self.winner.describe(precision),
            "tallies": [
                {"answer": answer.describe(precision), "votes": count, "exemplar": exemplar}
                for (answer, count), exemplar in zip(self.tallies, self.exemplars)
            ],
            "discarded": self.discarded,
        }


def consensus_vote(outputs: tuple[GeneratedOutput, ...]) -> VoteResult:
    """Plurality vote over the canonicalized outputs of one sampling request.

    Groups with the same count are tied. Ties break on higher total sequence
    score, summed exactly whatever the sample order, when every sample in the
    tied groups carries one, then on the lowest exemplar sampling index.
    """
    scores_by_text: dict[str, list[float | None]] = {}
    for output in outputs:
        scores_by_text.setdefault(output.text, []).append(output.score)
    groups: dict[tuple, _Group] = {}  # in order of first appearance
    discarded = 0
    for text, scores in scores_by_text.items():
        answer = canonicalize(text)
        if answer is None:
            discarded += len(scores)
        elif (group := groups.get(key := answer.key())) is None:
            groups[key] = _Group(answer, text, scores)
        else:
            group.scores += scores
    if not groups:
        raise AllSamplesDiscarded(f"all {len(outputs)} samples discarded")
    _merge_numeric_within_tolerance(groups)
    # A count whose groups all carry full scores ranks them by score sum. The
    # sort is stable, so groups still tied stay in order of first appearance.
    unscored = {len(g.scores) for g in groups.values() if None in g.scores}
    ordered = sorted(
        groups.values(),
        key=lambda g: (-len(g.scores), 0.0 if len(g.scores) in unscored else -_exact_sum(g.scores)),
    )
    return VoteResult(
        winner=ordered[0].answer,
        tallies=tuple((g.answer, len(g.scores)) for g in ordered),
        discarded=discarded,
        exemplars=tuple(g.exemplar for g in ordered),
    )


def _exact_sum(scores: list[float]) -> float | Fraction:
    """The correctly rounded, so order-free, sum; a Fraction past float range."""
    try:
        return math.fsum(scores)
    except OverflowError:
        return sum(map(Fraction, scores))


def _merge_numeric_within_tolerance(groups: dict[tuple, _Group]) -> None:
    """Fold numeric groups whose exact values differ by at most NUMERIC_TOLERANCE.

    Exact rational execution makes equivalent derivations collide exactly, so
    this almost never fires; it exists so "the same number" means the same
    thing for voting as for scoring. Earlier groups absorb later ones
    and keep their exemplar and rank.
    """
    numeric_keys = [k for k in groups if k[0] == "num"]
    tolerance_num, tolerance_den = NUMERIC_TOLERANCE.numerator, NUMERIC_TOLERANCE.denominator
    for i, key in enumerate(numeric_keys):
        if key not in groups:
            continue
        for other in numeric_keys[i + 1 :]:
            (_, p, q), (_, r, s) = key, other
            # |p/q - r/s| <= tolerance, cross-multiplied (q and s are positive)
            if other in groups and abs(p * s - r * q) * tolerance_den <= tolerance_num * q * s:
                groups[key].scores += groups.pop(other).scores


def greedy_select(outputs: tuple[GeneratedOutput, ...]) -> CanonicalAnswer | None:
    """Canonical answer of the single greedy decode (baseline and fallback)."""
    if len(outputs) != 1:
        raise ValueError("greedy selection expects exactly one sample")
    return canonicalize(outputs[0].text)
