"""Reference encoders for the label tests.

The three encoders lemscript had before its performance work, copied
unchanged but for their imports and module-level names: they align with
the reference dynamic program of `align_reference`, and the udpipe
encoder finds its root with the quadratic longest-common-substring table
of the same time. `reference_encode(scheme, form, lemma)` returns the
label text the matching encoder writes, so the tests can require equal
labels. Only the encoders are kept: the decoders have been tightened on
purpose since, so they are no oracle. The casing rule is kept too, as it
was first written, with its shift and a per-character fold built on it,
so that a fault in lemscript.casing cannot reach both sides of a test.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from align_reference import DELETE, INSERT, MATCH, AlignOp, levenshtein_align, min_script_align
from lemscript.errors import EmptyInput
from lemscript.model import Scheme


def reference_encode(scheme: Scheme, form: str, lemma: str) -> str:
    """The label text the reference encoder of scheme writes for the pair."""
    return _ENCODERS[Scheme(scheme)](form, lemma)


# --- the casing rule, as it stood in lemscript.casing ---------------------

class CaseClass(Enum):
    UPPER = "upper"
    LOWER = "lower"


def char_class(ch: str) -> CaseClass | None:
    """Classify a single character as UPPER, LOWER, or caseless (None)."""
    lo = ch.lower()
    if len(lo) == 1 and lo != ch and lo.upper() == ch:
        return CaseClass.UPPER
    up = ch.upper()
    if len(up) == 1 and up != ch and up.lower() == ch:
        return CaseClass.LOWER
    return None


def shift_lower(ch: str) -> str:
    """Lowercase one character, but only if it is invertibly uppercase."""
    return ch.lower() if char_class(ch) is CaseClass.UPPER else ch


def shift_upper(ch: str) -> str:
    """Uppercase one character, but only if it is invertibly lowercase."""
    return ch.upper() if char_class(ch) is CaseClass.LOWER else ch


def fold_lower(text: str) -> str:
    """shift_lower on every character."""
    return "".join(map(shift_lower, text))


def fold_upper(text: str) -> str:
    """shift_upper on every character."""
    return "".join(map(shift_upper, text))


# --- the longest common substring, as it stood in lemscript.alignment ----

class LcsResult(NamedTuple):
    start_in_a: int
    start_in_b: int
    length: int


def longest_common_substring(a: str, b: str) -> LcsResult:
    """Longest common substring; ties broken by smallest start in a, then b.

    Returns (0, 0, 0) when the strings share no character.
    """
    if not a or not b:
        return LcsResult(0, 0, 0)
    if a == b:
        return LcsResult(0, 0, len(a))
    best_len = 0
    best_a = 0
    best_b = 0
    n = len(b)
    bt = tuple(b)
    prev = [0] * (n + 1)
    for i, ca in enumerate(a):
        cur = [0] * (n + 1)
        for j in range(n):
            if ca == bt[j]:
                length = prev[j] + 1
                cur[j + 1] = length
                # strict > keeps the first (leftmost-in-a, then -in-b) maximum
                if length > best_len:
                    best_len = length
                    best_a = i - length + 1
                    best_b = j - length + 1
        prev = cur
    return LcsResult(best_a, best_b, best_len)


# --- udpipe ---------------------------------------------------------------

UP_MARK = "↑"      # ↑
DOWN_MARK = "↓"    # ↓
SCRIPT_SEP = "¦"   # ¦
COPY_MARK = "→"    # →
DELETE_MARK = "-"
INSERT_MARK = "+"
ABSOLUTE_MARK = "a"


def udpipe_encode(form: str, lemma: str) -> str:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    low_form = fold_lower(form)
    low_lemma = fold_lower(lemma)
    root = longest_common_substring(low_form, low_lemma)
    if root.length == 0:
        return ABSOLUTE_MARK + lemma
    prefix = min_script_align(low_form[: root.start_in_a], low_lemma[: root.start_in_b])
    suffix = min_script_align(
        low_form[root.start_in_a + root.length :],
        low_lemma[root.start_in_b + root.length :],
    )
    casing = _casing_segments(lemma)
    return "{};d{}{}{}".format(
        SCRIPT_SEP.join(_serialize_segment(seg) for seg in casing),
        _serialize_ops(prefix),
        SCRIPT_SEP,
        _serialize_ops(suffix),
    )


_ALL_LOWER = [(CaseClass.LOWER, 0)]


def _casing_segments(lemma: str) -> list[tuple[CaseClass, int]]:
    # the segment at 0 takes the class of the first cased character;
    # caseless characters continue the running class; lower when none
    if lemma.isascii() and lemma.islower():
        return _ALL_LOWER
    segments: list[tuple[CaseClass, int]] = []
    current = None
    for pos, ch in enumerate(lemma):
        cls = char_class(ch)
        if cls is None or cls is current:
            continue
        segments.append((cls, pos if segments else 0))
        current = cls
    return segments or _ALL_LOWER


def _serialize_segment(segment: tuple[CaseClass, int]) -> str:
    direction, start = segment
    mark = UP_MARK if direction is CaseClass.UPPER else DOWN_MARK
    return f"{mark}{start}"


def _serialize_ops(ops: list[AlignOp]) -> str:
    parts = []
    for op in ops:
        if op.kind == MATCH:
            parts.append(COPY_MARK)
        elif op.kind == DELETE:
            parts.append(DELETE_MARK)
        elif op.kind == INSERT:
            parts.append(INSERT_MARK + op.b_char)
        else:  # pragma: no cover - min_script_align never emits REPLACE
            raise AssertionError(op.kind)
    return "".join(parts)


# --- ixapipes -------------------------------------------------------------

IDENTITY = "O"
LOWER_FLAG = "1"


class IxaToken(NamedTuple):
    kind: str   # "R", "D" or "I"
    index: int  # 0-based position in the reversed wordform
    chars: str  # old+new for R, the single affected character for D/I


def ixapipes_encode(form: str, lemma: str) -> str:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    lower_first = char_class(form[0]) is CaseClass.UPPER and lemma[0] == shift_lower(form[0])
    base = shift_lower(form[0]) + form[1:] if lower_first else form
    if base == lemma:
        return LOWER_FLAG if lower_first else IDENTITY

    ops = levenshtein_align(base[::-1], lemma[::-1], delete_before_replace=True)
    tokens: list[IxaToken] = []
    pos = 0
    for op in ops:
        if op.kind == MATCH:
            pos += 1
        elif op.kind == DELETE:
            tokens.append(IxaToken("D", pos, op.a_char))
            pos += 1
        elif op.kind == INSERT:
            tokens.append(IxaToken("I", pos, op.b_char))
        else:
            tokens.append(IxaToken("R", pos, op.a_char + op.b_char))
            pos += 1
    tokens = _reverse_insert_runs(tokens)
    tokens.sort(key=lambda t: -t.index)  # stable: insert runs keep their order
    text = "".join(f"{kind}{index}{chars}" for kind, index, chars in tokens)
    return LOWER_FLAG + text if lower_first else text


def _reverse_insert_runs(tokens: list[IxaToken]) -> list[IxaToken]:
    out: list[IxaToken] = []
    k = 0
    while k < len(tokens):
        t = tokens[k]
        if t.kind != "I":
            out.append(t)
            k += 1
            continue
        j = k
        while j < len(tokens) and tokens[j].kind == "I" and tokens[j].index == t.index:
            j += 1
        out.extend(reversed(tokens[k:j]))
        k = j
    return out


# --- morpheus -------------------------------------------------------------

TOKEN_SEP = "|"
SAME = "s"
DEL = "d"
LOWER = "l"
REPLACE_MARK = "r_"


def morpheus_encode(form: str, lemma: str) -> str:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    if form == lemma:
        return TOKEN_SEP.join(SAME * len(form))

    # tokens[k] describes form[k]; (kind, payload), payload for "r" only
    tokens: list[tuple[str, str]] = []
    leading: list[str] = []  # insert run seen before any consuming op
    for op in levenshtein_align(form, lemma):
        if op.kind == INSERT:
            if tokens:
                tokens[-1] = _absorb_after(tokens[-1], form[len(tokens) - 1], op.b_char)
            else:
                leading.append(op.b_char)
            continue
        if op.kind == MATCH:
            token = (SAME, "")
        elif op.kind == DELETE:
            token = (DEL, "")
        else:
            token = ("r", op.b_char)
        if leading:
            token = _absorb_before(token, form[len(tokens)], "".join(leading))
            leading.clear()
        tokens.append(token)

    parts = []
    for pos, (kind, payload) in enumerate(tokens):
        if (
            kind == "r"
            and len(payload) == 1
            and char_class(form[pos]) is CaseClass.UPPER
            and payload == shift_lower(form[pos])
        ):
            parts.append(LOWER)
        elif kind == "r":
            parts.append(REPLACE_MARK + payload)
        else:
            parts.append(kind)
    return TOKEN_SEP.join(parts)


def _absorb_after(token: tuple[str, str], form_char: str, inserted: str) -> tuple[str, str]:
    kind, payload = token
    if kind == SAME:
        return ("r", form_char + inserted)
    if kind == "r":
        return ("r", payload + inserted)
    # delete followed by insert collapses to a replace
    return ("r", inserted)


def _absorb_before(token: tuple[str, str], form_char: str, inserted: str) -> tuple[str, str]:
    kind, payload = token
    if kind == SAME:
        return ("r", inserted + form_char)
    if kind == "r":
        return ("r", inserted + payload)
    return ("r", inserted)


_ENCODERS = {
    Scheme.UDPIPE: udpipe_encode,
    Scheme.IXAPIPES: ixapipes_encode,
    Scheme.MORPHEUS: morpheus_encode,
}
