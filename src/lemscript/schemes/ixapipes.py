"""Ixapipes-style labels: indexed edits over the reversed wordform.

Label grammar (bit-exact):

    label := "O" | "1" token* | token+
    token := "R" decimal char char | "D" decimal char | "I" decimal char

Indices refer to positions in the reversed wordform (0 = last character
of the surface word), so suffix edits get stable low indices. Tokens are
listed by decreasing index and applied in that order, which keeps every
index valid while the buffer mutates: inserts are the one exception, a
multi-character insertion at one gap repeats its index, serialized in
reversed character order so sequential application lands them correctly.
"O" means the word is already its lemma; a leading "1" means the first
character of the surface word is lowercased before the edits run.
"""

from __future__ import annotations

from typing import NamedTuple

from ..alignment import DELETE, INSERT, REPLACE, levenshtein_align
from ..casing import CaseClass, char_class, shift_lower
from ..errors import CharMismatch, EmptyInput, IndexOutOfRange, ParseError, SchemeMismatch
from ..model import Scheme, SesLabel

IDENTITY = "O"
LOWER_FLAG = "1"


class IxaToken(NamedTuple):
    kind: str   # "R", "D" or "I"
    index: int  # 0-based position in the reversed wordform
    chars: str  # old+new for R, the single affected character for D/I


def encode(form: str, lemma: str) -> SesLabel:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    lower_first = char_class(form[0]) is CaseClass.UPPER and lemma[0] == shift_lower(form[0])
    base = shift_lower(form[0]) + form[1:] if lower_first else form
    if base == lemma:
        return SesLabel(Scheme.IXAPIPES, LOWER_FLAG if lower_first else IDENTITY)

    source = base[::-1]
    target = lemma[::-1]
    # the script visits indices in increasing order; one chunk per index
    # holds its insert run, latest character first, then its D or R
    chunks: list[str] = []
    chunk = ""
    pos = 0
    j = 0
    for op in levenshtein_align(source, target, delete_before_replace=True):
        if op == INSERT:
            chunk = f"I{pos}{target[j]}" + chunk
            j += 1
            continue
        if op == DELETE:
            chunk += f"D{pos}{source[pos]}"
        elif op == REPLACE:
            chunk += f"R{pos}{source[pos]}{target[j]}"
            j += 1
        else:
            j += 1
        if chunk:
            chunks.append(chunk)
            chunk = ""
        pos += 1
    chunks.append(chunk)
    text = "".join(reversed(chunks))
    return SesLabel(Scheme.IXAPIPES, LOWER_FLAG + text if lower_first else text)


def decode(form: str, label: SesLabel) -> str:
    if label.scheme is not Scheme.IXAPIPES:
        raise SchemeMismatch(f"expected ixapipes label, got {label.scheme.value}")
    lower_first, tokens = parse_label(label.text)
    if label.text == IDENTITY:
        return form
    buffer = list(form)
    if lower_first and buffer:
        buffer[0] = shift_lower(buffer[0])
    buffer.reverse()
    for token in tokens:
        i = token.index
        if token.kind == "I":
            if i > len(buffer):
                raise IndexOutOfRange(f"insert at {i} beyond buffer of {len(buffer)}")
            buffer.insert(i, token.chars)
            continue
        if i >= len(buffer):
            raise IndexOutOfRange(f"{token.kind} at {i} beyond buffer of {len(buffer)}")
        if buffer[i] != token.chars[0]:
            raise CharMismatch(
                f"{token.kind}{i} expects {token.chars[0]!r}, wordform has {buffer[i]!r}"
            )
        if token.kind == "D":
            del buffer[i]
        else:
            buffer[i] = token.chars[1]
    buffer.reverse()
    return "".join(buffer)


def parse_label(text: str) -> tuple[bool, list[IxaToken]]:
    """Parse into (lower_first, tokens in label order).

    Digit operand characters make the grammar locally ambiguous (in
    "I15" the index may be 15 or 1); the parser resolves this by trying
    the longest index first and backtracking until the whole label
    parses, which reproduces the encoder's serialization.
    """
    if not text:
        raise ParseError("empty ixapipes label")
    if text == IDENTITY:
        return False, []
    lower_first = text.startswith(LOWER_FLAG)
    body = text[1:] if lower_first else text
    tokens = _parse_tokens_greedy(body)
    if tokens is None:
        tokens = _parse_tokens(body, 0)
    if tokens is None:
        raise ParseError(f"malformed ixapipes label {text!r}")
    return lower_first, tokens


def _parse_tokens_greedy(text: str) -> list[IxaToken] | None:
    """Single-pass parse committing to the longest index at each token.

    Succeeds on every label the encoder emits unless a digit operand
    collides with the next token's opcode; such labels (and malformed
    ones) return None and go through the backtracking parser, whose
    first full success makes exactly these greedy choices.
    """
    tokens: list[IxaToken] = []
    pos = 0
    n = len(text)
    while pos < n:
        kind = text[pos]
        if kind not in "RDI":
            return None
        arity = 2 if kind == "R" else 1
        digits_start = pos + 1
        digits_end = digits_start
        while digits_end < n and "0" <= text[digits_end] <= "9":
            digits_end += 1
        end = min(digits_end, n - arity)  # leave room for trailing operands
        if end < digits_start + 1:
            return None
        tokens.append(IxaToken(kind, int(text[digits_start:end]), text[end : end + arity]))
        pos = end + arity
    return tokens


def _parse_tokens(text: str, pos: int) -> list[IxaToken] | None:
    if pos == len(text):
        return []
    kind = text[pos]
    if kind not in "RDI":
        return None
    arity = 2 if kind == "R" else 1
    digits_end = pos + 1
    while digits_end < len(text) and "0" <= text[digits_end] <= "9":
        digits_end += 1
    if digits_end == pos + 1:
        return None
    for end in range(digits_end, pos + 1, -1):
        if end + arity > len(text):
            continue
        rest = _parse_tokens(text, end + arity)
        if rest is not None:
            token = IxaToken(kind, int(text[pos + 1 : end]), text[end : end + arity])
            return [token] + rest
    return None
