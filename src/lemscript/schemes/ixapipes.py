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
No D follows an insert at the insert's index, and no R keeps its
character; the parser rejects both, as no encoder writes them.
"O" means the word is already its lemma; a leading "1" means the first
character of the surface word is lowercased before the edits run.

A label from encode or schemes.from_text carries the plan decode
applies; decode parses the text of a label without one. A plan is
(lower_first, ((kind, index, chars), ...)).
"""

from __future__ import annotations

from ..alignment import DELETE, INSERT, MATCH, REPLACE, levenshtein_align
from ..casing import shift_lower
from ..errors import CharMismatch, EmptyInput, IndexOutOfRange, ParseError, SchemeMismatch
from ..model import Scheme, SesLabel

IDENTITY = "O"
LOWER_FLAG = "1"
_SCHEME = Scheme.IXAPIPES


def encode(form: str, lemma: str) -> SesLabel:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    lower_first = lemma[0] == shift_lower(form[0]) != form[0]
    base = shift_lower(form[0]) + form[1:] if lower_first else form
    if base == lemma:
        return SesLabel(_SCHEME, LOWER_FLAG if lower_first else IDENTITY, (lower_first, ()))

    source = base[::-1]
    target = lemma[::-1]
    # walk the script backwards, so indices come in label order; the D or
    # R at an index waits until the inserts before it in the script, which
    # the label lists first, are out. The trailing MATCH run emits nothing.
    script = levenshtein_align(source, target, True)  # delete_before_replace
    edits = script.rstrip(MATCH)
    tokens: list[tuple[str, int, str]] = []
    pending = None
    pos = len(source) - len(script) + len(edits)
    j = len(target) - len(script) + len(edits)
    for op in reversed(edits):
        if op == INSERT:
            j -= 1
            tokens.append(("I", pos, target[j]))
            continue
        if pending:
            tokens.append(pending)
        pos -= 1
        if op == DELETE:
            pending = "D", pos, source[pos]
        elif op == REPLACE:
            j -= 1
            pending = "R", pos, source[pos] + target[j]
        else:
            j -= 1
            pending = None
    if pending:
        tokens.append(pending)
    text = "".join([f"{kind}{index}{chars}" for kind, index, chars in tokens])
    text = LOWER_FLAG + text if lower_first else text
    return SesLabel(_SCHEME, text, (lower_first, tuple(tokens)))


def decode(form: str, label: SesLabel) -> str:
    if label.scheme is not _SCHEME:
        raise SchemeMismatch(f"expected ixapipes label, got {label.scheme.value}")
    lower_first, tokens = label.plan or parse_label(label.text)
    buffer = list(form)
    if lower_first and buffer:
        buffer[0] = shift_lower(buffer[0])
    for kind, i, chars in tokens:
        n = len(buffer)  # i indexes the reversed buffer, so counts from the end
        if kind == "I":
            if i > n:
                raise IndexOutOfRange(f"insert at {i} beyond buffer of {n}")
            buffer.insert(n - i, chars)
            continue
        if i >= n:
            raise IndexOutOfRange(f"{kind} at {i} beyond buffer of {n}")
        j = n - 1 - i
        if buffer[j] != chars[0]:
            raise CharMismatch(f"{kind}{i} expects {chars[0]!r}, wordform has {buffer[j]!r}")
        if kind == "D":
            del buffer[j]
        else:
            buffer[j] = chars[1]
    return "".join(buffer)


def parse_label(text: str) -> tuple[bool, tuple[tuple[str, int, str], ...]]:
    """Parse into (lower_first, tokens in label order); a token is
    (kind, index, chars), with chars old+new for R and one character else.

    Digit operand characters make the grammar locally ambiguous (in
    "I15" the index may be 15 or 1); the parser resolves this by trying
    the longest index first and backtracking until the whole label
    parses, which reproduces the encoder's serialization. Only the
    encoder's order parses: each token has a lower index than the one
    before it, or the same index after an insert unless it is a D; no R
    replaces a character with itself, and no index has a leading zero.
    The search keeps its own stack of token offsets and needs no memo:
    where two splits first differ, their tokens have one kind and arity
    a, and the shorter index ends at most a characters before the
    longer, or its next token would start on a digit. Then the shorter
    split's next token needs a digit where the longer one's needs its
    kind, unless a is 2, the gap is two, and both go on as R tokens with
    one-digit indices two characters apart. So no two splits start a
    token at one offset, and each offset is tried once.
    """
    if not text:
        raise ParseError("empty ixapipes label")
    if text == IDENTITY:
        return False, ()
    lower_first = text.startswith(LOWER_FLAG)
    body = text[1:] if lower_first else text
    n = len(body)
    tokens: list[tuple[str, int, str]] = []
    spans: list[tuple[int, int]] = []  # (start, index end) of each token
    pos = 0
    end = -1  # next index end to try at pos; -1 on arrival
    while pos < n:
        kind = body[pos]
        arity = 2 if kind == "R" else 1
        if end < 0:  # longest index first, leaving room for the operands
            end = pos + 1
            if kind in "RDI":
                while end < n and "0" <= body[end] <= "9":
                    end += 1
                if end > n - arity:
                    end = n - arity
                if end > pos + 2 and body[pos + 1] == "0":  # only "0" itself
                    end = pos + 2
        if end <= pos + 1:  # no index length left: back up to the previous token
            if not tokens:
                raise ParseError(f"malformed ixapipes label {text!r}")
            tokens.pop()
            pos, end = spans.pop()
            end -= 1
            continue
        try:
            index = int(body[pos + 1 : end])
        except ValueError:  # beyond the interpreter's int-string limit
            raise ParseError("ixapipes index too long to convert") from None
        in_order = True  # the first token has none before it
        if tokens:
            last_kind, last, _ = tokens[-1]
            in_order = index < last or index == last and last_kind == "I" and kind != "D"
        if not in_order or kind == "R" and body[end] == body[end + 1]:
            end -= 1
            continue
        tokens.append((kind, index, body[end : end + arity]))
        spans.append((pos, end))
        pos = end + arity
        end = -1
    return lower_first, tuple(tokens)
