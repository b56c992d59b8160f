"""How documents, conversations, and targets become flat strings.

The generation service sees exactly one input string per turn and produces
one output string; these are the wire formats on both sides.
"""

from pcqa import (
    HybridDocument,
    Task,
    add_response,
    build_model_input,
    format_target,
    linearize_document,
    parse_output,
)

doc = HybridDocument(
    uid="demo-doc",
    paragraphs=("Revenue grew across all regions in 2019.",),
    table=(
        ("Region", "2018", "2019"),
        ("Americas", "88", "105"),
        ("EMEA", "70", "84"),
    ),
)
context = linearize_document(doc)
print("document (a dialogue's first context):")
print(" ", context)

# Each turn appends its question to the context; the turn's response is then
# appended to that input to give the next turn's context. Whitespace is
# normalized and reserved markers are rejected as each utterance is appended.
first = build_model_input(context, "Which regions are reported?")
print("turn 1 input:")
print(" ", first)

context = add_response(first, "Americas,\n EMEA")
second = build_model_input(context, "What was the revenue for Americas in 2019?")
print("turn 2 input:")
print(" ", second)

# Training targets, one per task; the service decodes the multi-task one.
print()
print("CNP target:      ", format_target(Task.CNP, False, ""))
print("CQA target:      ", format_target(Task.CQA, False, "(105-88)/88"))
print("CQG target:      ", format_target(Task.CQG, True, '["Which year are you asking about?"]'))
print("MultiTask target:", format_target(Task.MULTI, False, "(105-88)/88"))

# Decoded outputs split back into flag + payload.
print()
parsed = parse_output("[clari.] True [resp.] ['Which year are you asking about?']")
print("flag:   ", parsed.clarification_flag)
print("payload:", parsed.response_payload)
