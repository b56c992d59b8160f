"""Consensus voting over sampled decodes.

Forty sampled outputs per turn, exactly as the generator returns them; each
is executed to a canonical answer and answers with the same vote key pool
their votes. Wrong derivations scatter across values while correct ones (in
any operand order) pile onto one group. When the question is ambiguous the
samples fail to agree on any single calculation and the clarification
question tends to win the plurality.
"""

from pcqa import GeneratedOutput, consensus_vote, greedy_select


def decodes(texts):
    """The generator's outputs for one request; scores left out."""
    return tuple(GeneratedOutput(text) for text in texts)


# An unambiguous averaging question. 24 samples get it right via two operand
# orders, 12 misread one operand, 4 divide by the wrong count.
case1 = decodes(
    ["[clari.] False [resp.] (1.06+0.91+4.04)/3"] * 13
    + ["[clari.] False [resp.] (1.06+4.04+0.91)/3"] * 11
    + ["[clari.] False [resp.] (1.06+0.91+4.01)/3"] * 12
    + ["[clari.] False [resp.] (1.06+0.91+4.04)/2"] * 4
)
vote = consensus_vote(case1)
print("case 1 tallies:", vote.counts(), "discarded:", vote.discarded)
print("winner:", vote.winner.text(), "  (greedy alone would have said", end=" ")
greedy = greedy_select(decodes(["[clari.] False [resp.] (1.06+0.91+4.01)/3"]))
print(f"{greedy.text()})")

# An ambiguous question: the period is unspecified, so the sampled
# derivations disagree and the clarification question carries the vote.
case2 = decodes(
    ['[clari.] True [resp.] ["Which period are you asking about?"]'] * 22
    + ["[clari.] False [resp.] (576523-576523)/576523"] * 10
    + ["[clari.] False [resp.] (576523-537891)/537891"] * 4
    + ["[clari.] False [resp.] (566523-576891)/576523"] * 2
    + ["[resp.] malformed sample", "[clari.] False [resp.] 1/(576523-576523)"]
)
vote2 = consensus_vote(case2)
print()
print("case 2 tallies:", vote2.counts(), "discarded:", vote2.discarded)
print("winner:", vote2.winner.question)

# The full tally table, serialized the way run logs record it.
print()
for entry in vote2.to_record()["tallies"]:
    print(f"{entry['votes']:>3} votes  {entry['answer']}  first sample: {entry['exemplar']}")
