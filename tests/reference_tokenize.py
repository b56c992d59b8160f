"""Reference derivation tokenizer: the original character-by-character loop.

`pcqa.derivation.tokenize` scans the whole source with one compiled pattern
and returns token texts as written, and `pcqa.derivation.token_starts` gives
their positions; this module walks the source one character at a time, so
the property test can check that both give the same tokens, and the same
error at the same position, on any source. Tokens are (kind, text, position,
end) tuples: the kind is "NUMBER", "STRING" or the text of `len` or the
punctuation character, and the text is a numeral without its grouping commas
or a string without its quotes.
"""

from __future__ import annotations

from pcqa.derivation import (
    MAX_NUMERAL_DIGITS,
    MAX_TOKENS,
    DerivationSyntaxError,
    UnknownCharacterError,
    UnterminatedStringError,
)

_SINGLE = "()[]+-*/,"


def reference_tokenize(source: str) -> list[tuple[str, str, int, int]]:
    if not source or not source.strip():
        raise DerivationSyntaxError(0, "non-empty derivation source")
    tokens: list[tuple[str, str, int, int]] = []
    i = 0
    n = len(source)
    bracket_depth = 0
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SINGLE:
            if ch == "[":
                bracket_depth += 1
            elif ch == "]":
                bracket_depth = max(0, bracket_depth - 1)
            tokens.append((ch, ch, i, i + 1))
            i += 1
        elif ch in "\"'":
            j = i + 1
            while j < n and source[j] != ch:
                j += 1
            if j >= n:
                raise UnterminatedStringError(i)
            tokens.append(("STRING", source[i + 1 : j], i, j + 1))
            i = j + 1
        elif ch.isdecimal() or (ch == "." and i + 1 < n and source[i + 1].isdecimal()):
            start = i
            text, i = _lex_number(source, i, grouping=bracket_depth == 0)
            if len(text) - ("." in text) > MAX_NUMERAL_DIGITS:
                raise DerivationSyntaxError(start, f"a numeral of at most {MAX_NUMERAL_DIGITS} digits")
            tokens.append(("NUMBER", text, start, i))
        elif source.startswith("len", i):
            tokens.append(("len", "len", i, i + 3))
            i += 3
        else:
            raise UnknownCharacterError(ch, i)
    if len(tokens) > MAX_TOKENS:
        raise DerivationSyntaxError(tokens[MAX_TOKENS][2], f"at most {MAX_TOKENS} tokens")
    return tokens


def _lex_number(source: str, i: int, grouping: bool) -> tuple[str, int]:
    """Lex one numeral starting at i; returns (text with commas removed, next index)."""
    n = len(source)
    out: list[str] = []
    while i < n and source[i].isdecimal():
        out.append(source[i])
        i += 1
    if grouping:
        # "3,711" and "1,000,000" merge; "1,06" and "1,0623" do not.
        while i < n and source[i] == "," and out and out[-1].isdecimal():
            group = source[i + 1 : i + 4]
            if len(group) == 3 and group.isdecimal() and (i + 4 >= n or not source[i + 4].isdecimal()):
                out.append(group)
                i += 4
            else:
                break
    if i < n and source[i] == "." and i + 1 < n and source[i + 1].isdecimal():
        out.append(".")
        i += 1
        while i < n and source[i].isdecimal():
            out.append(source[i])
            i += 1
    return "".join(out), i
