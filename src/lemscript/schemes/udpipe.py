"""Udpipe-style labels: a casing script plus prefix/suffix edit scripts.

Label grammar (bit-exact):

    label  := "a" lemma | casing ";d" prefix "¦" suffix
    casing := seg ("¦" seg)*
    seg    := ("↑" | "↓") decimal
    prefix := op*          suffix := op*
    op     := "→" | "-" | "+" char

An absolute label ("a" + verbatim lemma) is emitted when form and lemma
share no character at all after lowercasing. Otherwise the longest common
substring of the lowered pair is kept as an unchanged root and the
flanking prefix/suffix are rewritten by copy/delete/insert ops chosen to
minimize the serialized script length (insert costs 2 characters, copy
and delete cost 1). A prefix never ends, and a suffix never starts,
with a copy, which would lengthen the root, and no insert directly
precedes a delete, as the aligner writes the delete first; the parser
rejects such scripts. Casing segments index positions in the lemma; each
segment re-cases characters from its start up to the next segment.

A label from encode or schemes.from_text carries the plan decode
applies; decode parses the text of a label without one. A plan is
(absolute, segments, prefix ops, suffix ops, front, back), with each
segment a (mark, start) pair holding the label's own "↑" or "↓" and the
ops as serialized strings.
"""

from __future__ import annotations

from ..alignment import DELETE, INSERT, MATCH, longest_common_substring, min_script_align
from ..casing import fold_lower, fold_upper
from ..errors import EmptyInput, LengthMismatch, ParseError, SchemeMismatch
from ..model import Scheme, SesLabel

UP_MARK = "↑"      # ↑
DOWN_MARK = "↓"    # ↓
SCRIPT_SEP = "¦"   # ¦
COPY_MARK = "→"    # →
DELETE_MARK = "-"
INSERT_MARK = "+"
ABSOLUTE_MARK = "a"
RULE_MARK = ";d"

_LOWER_ONLY = ((DOWN_MARK, 0),)
# marks no encoder writes side by side (see the module docstring)
_NEVER_ADJACENT = {
    COPY_MARK + SCRIPT_SEP: "a prefix ending in a copy",
    SCRIPT_SEP + COPY_MARK: "a suffix starting with a copy",
    INSERT_MARK + DELETE_MARK: "an insert followed by a delete",
}
_SCHEME = Scheme.UDPIPE


def encode(form: str, lemma: str) -> SesLabel:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    low_form = fold_lower(form)
    low_lemma = fold_lower(lemma)
    root = longest_common_substring(low_form, low_lemma)
    if root.length == 0:
        return SesLabel(_SCHEME, ABSOLUTE_MARK + lemma, (lemma, (), "", "", 0, 0))
    front = root.start_in_a
    head = low_lemma[: root.start_in_b]
    tail = low_lemma[root.start_in_b + root.length :]
    prefix = _serialize_ops(min_script_align(low_form[:front], head), head)
    suffix = _serialize_ops(min_script_align(low_form[front + root.length :], tail), tail)
    segments = _casing_segments(lemma, low_lemma)
    marks = [f"{mark}{start}" for mark, start in segments]
    plan = None, segments, prefix, suffix, front, len(form) - front - root.length
    return SesLabel(_SCHEME, f"{SCRIPT_SEP.join(marks)};d{prefix}{SCRIPT_SEP}{suffix}", plan)


def decode(form: str, label: SesLabel) -> str:
    if label.scheme is not _SCHEME:
        raise SchemeMismatch(f"expected udpipe label, got {label.scheme.value}")
    absolute, segments, prefix_ops, suffix_ops, front, back = (
        label.plan or parse_label(label.text))
    if absolute is not None:
        return absolute
    if front + back > len(form):
        raise LengthMismatch(
            f"label consumes {front + back} characters, wordform has {len(form)}"
        )
    lowered = fold_lower(form)
    back_start = len(lowered) - back
    head = _replay(prefix_ops, lowered[:front])
    tail = _replay(suffix_ops, lowered[back_start:])
    return _apply_casing(head + lowered[front:back_start] + tail, segments)


def parse_label(text: str) -> tuple:
    """Parse a label into (absolute, segments, prefix ops, suffix ops,
    characters the prefix consumes, characters the suffix consumes).

    The ops stay in their serialized form, which _replay reads.
    """
    if not text:
        raise ParseError("empty udpipe label")
    if text[0] == ABSOLUTE_MARK:
        if len(text) == 1:
            raise ParseError("absolute label without a lemma")
        return text[1:], (), "", "", 0, 0
    # casing characters never include ";", so the first RULE_MARK ends it
    casing, found, script = text.partition(RULE_MARK)
    segments = _parse_casing(casing)
    if not found:
        raise ParseError(f"casing not closed by '{RULE_MARK}'")

    split = -1  # offset of the prefix/suffix separator in script
    front = consumed = 0
    last = ""  # the mark of the op before c, or the separator
    chars = enumerate(script)
    for k, c in chars:
        if last + c in _NEVER_ADJACENT:
            raise ParseError(f"edit script has {_NEVER_ADJACENT[last + c]}")
        last = c
        if c == COPY_MARK or c == DELETE_MARK:
            consumed += 1
        elif c == INSERT_MARK:
            if next(chars, None) is None:
                raise ParseError("insert op missing its character")
        elif c != SCRIPT_SEP:
            raise ParseError(f"unexpected character {c!r} in edit script")
        elif split < 0:
            split, front, consumed = k, consumed, 0
        else:
            raise ParseError("more than one prefix/suffix separator")
    if split < 0:
        raise ParseError("missing prefix/suffix separator")
    return None, segments, script[:split], script[split + 1 :], front, consumed


def _parse_casing(casing: str) -> tuple[tuple[str, int], ...]:
    segments: list[tuple[str, int]] = []
    for seg in casing.split(SCRIPT_SEP):
        direction = seg[:1]
        if direction not in (UP_MARK, DOWN_MARK):
            raise ParseError(f"expected casing segment, got {seg!r}")
        digits = seg[1:]
        if not (digits.isdigit() and digits.isascii()):
            raise ParseError(f"casing segment {seg!r} needs a decimal position")
        if digits[0] == "0" and len(digits) > 1:  # the encoder writes ↑1, never ↑01
            raise ParseError(f"casing position {digits!r} has a leading zero")
        try:
            position = int(digits)
        except ValueError:  # beyond the interpreter's int-string limit
            raise ParseError("casing position too long") from None
        # the encoder opens at 0, then alternates direction at increasing positions
        if segments:
            if position <= segments[-1][1] or direction == segments[-1][0]:
                raise ParseError(f"non-canonical casing segment {seg!r}")
        elif position:
            raise ParseError("first casing segment must start at 0")
        segments.append((direction, position))
    return tuple(segments)


def _casing_segments(lemma: str, low_lemma: str) -> tuple[tuple[str, int], ...]:
    # the segment at 0 takes the class of the first cased character;
    # caseless characters continue the running class; lower when none.
    # fold_lower and fold_upper change exactly the upper and the lower
    # characters, so comparing against them classifies every position.
    if low_lemma == lemma:
        return _LOWER_ONLY
    up_lemma = fold_upper(lemma)
    if up_lemma == lemma:
        return ((UP_MARK, 0),)
    segments: list[tuple[str, int]] = []
    current = None
    for pos, ch in enumerate(lemma):
        if ch != low_lemma[pos]:
            direction = UP_MARK
        elif ch != up_lemma[pos]:
            direction = DOWN_MARK
        else:
            continue
        if direction != current:
            segments.append((direction, pos if segments else 0))
            current = direction
    return tuple(segments)


def _serialize_ops(script: str, target: str) -> str:
    # a min-script alignment producing target; it never replaces
    if INSERT not in script:
        return script.replace(MATCH, COPY_MARK)
    parts = []
    j = 0
    for op in script:
        if op == DELETE:
            parts.append(DELETE_MARK)
        elif op == MATCH:
            parts.append(COPY_MARK)
            j += 1
        else:
            parts.append(INSERT_MARK + target[j])
            j += 1
    return "".join(parts)


def _replay(ops: str, source: str) -> str:
    out: list[str] = []
    pos = 0
    chars = iter(ops)
    for c in chars:
        if c == COPY_MARK:
            out.append(source[pos])
            pos += 1
        elif c == DELETE_MARK:
            pos += 1
        else:  # an insert, followed by its character
            out.append(next(chars))
    return "".join(out)


def _apply_casing(text: str, segments: tuple[tuple[str, int], ...]) -> str:
    if len(segments) == 1:
        direction = segments[0][0]
        return fold_upper(text) if direction == UP_MARK else fold_lower(text)
    parts = []
    for k, (direction, start) in enumerate(segments):
        end = segments[k + 1][1] if k + 1 < len(segments) else len(text)
        piece = text[start:end]
        parts.append(fold_upper(piece) if direction == UP_MARK else fold_lower(piece))
    return "".join(parts)
