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
    encoder's order parses: indices never increase, only an I or an R
    may follow an insert at the insert's own index, no R replaces a
    character with itself, and no index has a leading zero. To bound
    the next token with one number, the search ranks a token 2 × index,
    plus one for a D: an insert keeps its rank as the next bound, and
    any other token lowers it to one below the rank of an I at its
    index. The search keeps its own stack, with each token's bound on
    it, and remembers, per offset, the largest bound under which the
    rest cannot parse; a smaller bound cannot parse either, so the rest
    of a label is never parsed twice from one offset and bound.
    """
    if not text:
        raise ParseError("empty ixapipes label")
    if text == IDENTITY:
        return False, ()
    lower_first = text.startswith(LOWER_FLAG)
    body = text[1:] if lower_first else text
    n = len(body)
    tokens: list[tuple[str, int, str]] = []
    spans: list[tuple[int, int, float]] = []  # (start, index end, bound there) of each token
    dead: dict[int, float] = {}  # offset -> largest bound its rest fails under
    pos = 0
    end = -1                     # next index end to try at pos; -1 on arrival
    bound: float = float("inf")  # largest rank the token at pos may have
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
            dead[pos] = bound
            if not tokens:
                raise ParseError(f"malformed ixapipes label {text!r}")
            tokens.pop()
            pos, end, bound = spans.pop()
            end -= 1
            continue
        try:
            index = int(body[pos + 1 : end])
        except ValueError:  # beyond the interpreter's int-string limit
            raise ParseError("ixapipes index too long to convert") from None
        rank = 2 * index + (kind == "D")
        if rank > bound or kind == "R" and body[end] == body[end + 1]:
            end -= 1
            continue
        after = rank if kind == "I" else 2 * index - 1
        if end + arity in dead and dead[end + arity] >= after:
            end -= 1
        else:
            tokens.append((kind, index, body[end : end + arity]))
            spans.append((pos, end, bound))
            pos = end + arity
            end = -1
            bound = after
    return lower_first, tuple(tokens)
