"""How documents, conversations, and targets become flat strings.

The generation service sees exactly one input string per turn and produces
one output string; these are the wire formats on both sides.
"""

from pcqa import (
    ConversationHistory,
    HybridDocument,
    Task,
    build_model_input,
    format_target,
    linearize_document,
    linearize_history,
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
print("document:")
print(" ", linearize_document(doc))

history = ConversationHistory.from_turns(
    queries=["Which regions are reported?", "What was the revenue for Americas in 2019?"],
    responses=["Americas, EMEA"],
)
print("history:")
print(" ", linearize_history(history))

print("model input:")
print(" ", build_model_input(doc, history))

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
