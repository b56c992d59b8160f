"""Consensus voting over sampled decodes.

The samples are the generator's outputs (`GeneratedOutput`) in the order it
returned them; a sample's index is its position in that tuple. Each decoded
text is canonicalized by executing its payload, which yields one of the four
canonical answers defined in `pcqa.derivation`; samples whose answers share a
vote key form one group, so distinct derivations with the same value
("(88-105)/105" vs "88/105-1", or permuted count lists) pool their votes. The
plurality group wins. Samples that fail to parse or execute, including those
beyond the derivation language's size limits, cast no vote.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

# The answer classes live with the evaluator that produces them; voting is
# where most callers look for them, so they are re-exported here.
from .derivation import (
    DEFAULT_CONFIG,
    CanonicalAnswer,
    ClarifyAnswer,
    CountAnswer,
    DerivationError,
    EvalConfig,
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
    if parsed.clarification_flag is not True:
        return answer
    if not isinstance(answer, SpanSetAnswer) or len(answer.spans) != 1:
        return None
    return ClarifyAnswer(answer.spans[0])


@dataclass
class _Group:
    answer: CanonicalAnswer
    count: int
    min_index: int
    score_sum: float
    all_scored: bool
    exemplar: str


@dataclass(frozen=True)
class VoteResult:
    """Groups in rank order; `exemplars[i]` is the text of group i's first sample."""

    winner: CanonicalAnswer
    tallies: tuple[tuple[CanonicalAnswer, int], ...]
    discarded: int
    exemplars: tuple[str, ...]

    def counts(self) -> list[int]:
        return [count for _, count in self.tallies]

    def to_record(self, config: EvalConfig = DEFAULT_CONFIG) -> dict:
        return {
            "winner": self.winner.describe(config),
            "tallies": [
                {"answer": answer.describe(config), "votes": count, "exemplar": exemplar}
                for (answer, count), exemplar in zip(self.tallies, self.exemplars)
            ],
            "discarded": self.discarded,
        }


def consensus_vote(
    outputs: tuple[GeneratedOutput, ...], config: EvalConfig = DEFAULT_CONFIG
) -> VoteResult:
    """Plurality vote over the canonicalized outputs of one sampling request.

    Ties break on higher total sequence score when every sample in the tied
    groups carries one, then on the lowest exemplar sampling index; both
    rules make repeated runs deterministic.
    """
    groups: dict[tuple, _Group] = {}
    discarded = 0
    for index, output in enumerate(outputs):
        answer = canonicalize(output.text)
        if answer is None:
            discarded += 1
            continue
        key = answer.key()
        group = groups.get(key)
        if group is None:
            groups[key] = _Group(
                answer=answer,
                count=1,
                min_index=index,
                score_sum=output.score or 0.0,
                all_scored=output.score is not None,
                exemplar=output.text,
            )
        else:
            group.count += 1
            group.score_sum += output.score or 0.0
            group.all_scored = group.all_scored and output.score is not None
    if not groups:
        raise AllSamplesDiscarded(f"all {len(outputs)} samples discarded")
    _merge_numeric_within_tolerance(groups, config)

    def compare(a: _Group, b: _Group) -> int:
        if a.count != b.count:
            return -1 if a.count > b.count else 1
        if a.all_scored and b.all_scored and a.score_sum != b.score_sum:
            return -1 if a.score_sum > b.score_sum else 1
        return -1 if a.min_index < b.min_index else 1

    ordered = sorted(groups.values(), key=functools.cmp_to_key(compare))
    return VoteResult(
        winner=ordered[0].answer,
        tallies=tuple((g.answer, g.count) for g in ordered),
        discarded=discarded,
        exemplars=tuple(g.exemplar for g in ordered),
    )


def _merge_numeric_within_tolerance(groups: dict[tuple, _Group], config: EvalConfig) -> None:
    """Fold numeric groups whose exact values differ by at most the tolerance.

    Exact rational execution makes equivalent derivations collide exactly, so
    this almost never fires; it exists so the configured tolerance means the
    same thing for voting as for scoring. Earlier-seen groups absorb later
    ones and keep their exemplar.
    """
    tol = Fraction(config.numeric_tolerance)
    numeric_keys = [k for k in groups if k[0] == "num"]
    absorbed: set[tuple] = set()
    for i, key in enumerate(numeric_keys):
        if key in absorbed:
            continue
        for other in numeric_keys[i + 1 :]:
            if other in absorbed:
                continue
            if abs(key[1] - other[1]) <= tol:
                host, guest = groups[key], groups[other]
                host.count += guest.count
                host.score_sum += guest.score_sum
                host.all_scored = host.all_scored and guest.all_scored
                host.min_index = min(host.min_index, guest.min_index)
                absorbed.add(other)
    for key in absorbed:
        del groups[key]


def greedy_select(outputs: tuple[GeneratedOutput, ...]) -> CanonicalAnswer | None:
    """Canonical answer of the single greedy decode (baseline and fallback)."""
    if len(outputs) != 1:
        raise ValueError("greedy selection expects exactly one sample")
    return canonicalize(outputs[0].text)
