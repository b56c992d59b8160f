"""Tour of the executable derivation language.

Answers are small programs: arithmetic over written decimals, a len() call
for counting, and bracketed string lists for span or clarification answers.
Everything numeric runs in exact rational arithmetic and is rendered to a
decimal string only at the very end. Executing a derivation yields the
canonical answer itself (NumericAnswer, CountAnswer or SpanSetAnswer), the
same objects that voting groups and the metrics score.
"""

from fractions import Fraction

from pcqa import (
    EvalConfig,
    ExecutionFailure,
    execute_source,
    parse_source,
    render,
    tokenize,
)
from pcqa.derivation import MAX_NUMERAL_DIGITS, MAX_TOKENS

# A percentage-change derivation, straight from a gold annotation.
source = "(36.6-20.5)/20.5"
print("source:   ", source)
print("tokens:   ", [t.text for t in tokenize(source)])
answer = execute_source(source)
print("answer:   ", answer)                # NumericAnswer(value=Fraction(161, 205))
print("rendered: ", answer.rendered())     # 0.7854 (4 places, half away from zero)

# Counting is a len() call over a string list.
print()
count = execute_source('len(["Americas", "EMEA", "Asia Pacific"])')
print("count:    ", count.count)
print("vote key: ", count.key())           # ('num', Fraction(3, 1)): a count votes with the number 3
print("log entry:", count.describe())

# A span list keeps its items as written.
print()
spans = execute_source('["EMEA", "Americas"]')
print("spans:    ", spans.text_spans(), " vote key:", spans.key())

# Digit-grouping commas merge into numerals outside lists.
print()
grouped = execute_source("3,711 + 4,801 + 1,882")
print("3,711 + 4,801 + 1,882 =", grouped.rendered())

# Two derivations with the same value collide exactly, not approximately.
print()
a = execute_source("(88-105)/105").value
b = execute_source("88/105-1").value
print("(88-105)/105 =", a, " 88/105-1 =", b, " equal:", a == b)
assert a == b == Fraction(-17, 105)

# Rendering precision is a knob; the exact value never changes.
print()
for places in (2, 4, 6):
    config = EvalConfig(render_precision=places)
    print(f"precision {places}:", answer.rendered(config))

# Parsing is strict: only this grammar runs, nothing else, and only up to
# MAX_TOKENS tokens with numerals of at most MAX_NUMERAL_DIGITS digits.
print()
print(f"limits: {MAX_TOKENS} tokens, {MAX_NUMERAL_DIGITS}-digit numerals")
for bad in ("import os", '["a"] + 1', "1/(2-2)", "+".join(["1"] * 1000), "9" * 5000):
    try:
        execute_source(bad)
    except ExecutionFailure as err:
        print(f"rejected {bad[:20]!r}: {err.stage} stage, {err.detail}")

# Round trip: parse then render gives canonical source.
print()
print("canonical:", render(parse_source("3,711  +  1,882")))
