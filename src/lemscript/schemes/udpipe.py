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
and delete cost 1). Casing segments index positions in the lemma; each
segment re-cases characters from its start up to the next segment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..alignment import DELETE, MATCH, longest_common_substring, min_script_align
from ..casing import CaseClass, char_class, fold_lower, fold_upper
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

# parsed edit ops: (kind, payload); payload used by "insert" only
COPY = "copy"
DEL = "del"
INS = "ins"
_PLAIN_OPS = {COPY_MARK: (COPY, ""), DELETE_MARK: (DEL, "")}


@dataclass(frozen=True, slots=True)
class UdpipeLabel:
    """Parsed form of a udpipe label: absolute lemma or casing + edits."""

    absolute: str | None = None
    segments: tuple[tuple[CaseClass, int], ...] = ()
    prefix_ops: tuple[tuple[str, str], ...] = ()
    suffix_ops: tuple[tuple[str, str], ...] = ()


def encode(form: str, lemma: str) -> SesLabel:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    low_form = fold_lower(form)
    low_lemma = fold_lower(lemma)
    root = longest_common_substring(low_form, low_lemma)
    if root.length == 0:
        return SesLabel(Scheme.UDPIPE, ABSOLUTE_MARK + lemma)
    head = low_lemma[: root.start_in_b]
    tail = low_lemma[root.start_in_b + root.length :]
    prefix = min_script_align(low_form[: root.start_in_a], head)
    suffix = min_script_align(low_form[root.start_in_a + root.length :], tail)
    casing = _casing_segments(lemma)
    text = "{};d{}{}{}".format(
        SCRIPT_SEP.join(
            f"{UP_MARK if cls is CaseClass.UPPER else DOWN_MARK}{start}" for cls, start in casing
        ),
        _serialize_ops(prefix, head),
        SCRIPT_SEP,
        _serialize_ops(suffix, tail),
    )
    return SesLabel(Scheme.UDPIPE, text)


def decode(form: str, label: SesLabel) -> str:
    if label.scheme is not Scheme.UDPIPE:
        raise SchemeMismatch(f"expected udpipe label, got {label.scheme.value}")
    parsed = parse_label(label.text)
    if parsed.absolute is not None:
        return parsed.absolute
    consume_front = sum(1 for kind, _ in parsed.prefix_ops if kind != INS)
    consume_back = sum(1 for kind, _ in parsed.suffix_ops if kind != INS)
    if consume_front + consume_back > len(form):
        raise LengthMismatch(
            f"label consumes {consume_front + consume_back} characters, "
            f"wordform has {len(form)}"
        )
    lowered = fold_lower(form)
    root = lowered[consume_front : len(lowered) - consume_back]
    head = _replay(parsed.prefix_ops, lowered[:consume_front])
    tail = _replay(parsed.suffix_ops, lowered[len(lowered) - consume_back :])
    return _apply_casing(head + root + tail, parsed.segments)


def parse_label(text: str) -> UdpipeLabel:
    if not text:
        raise ParseError("empty udpipe label")
    if text[0] == ABSOLUTE_MARK:
        if len(text) == 1:
            raise ParseError("absolute label without a lemma")
        return UdpipeLabel(absolute=text[1:])

    n = len(text)
    segments: list[tuple[CaseClass, int]] = []
    i = 0
    while True:
        if i >= n or text[i] not in (UP_MARK, DOWN_MARK):
            raise ParseError(f"expected casing segment at offset {i}")
        direction = CaseClass.UPPER if text[i] == UP_MARK else CaseClass.LOWER
        i += 1
        start = i
        while i < n and "0" <= text[i] <= "9":
            i += 1
        if i == start:
            raise ParseError(f"casing segment missing position at offset {start}")
        try:
            position = int(text[start:i])
        except ValueError:  # beyond the interpreter's int-string limit
            raise ParseError(f"casing position too long at offset {start}") from None
        # the encoder opens at 0, then alternates direction at increasing positions
        if segments:
            if position <= segments[-1][1] or direction is segments[-1][0]:
                raise ParseError(f"non-canonical casing segment at offset {start - 1}")
        elif position:
            raise ParseError("first casing segment must start at 0")
        segments.append((direction, position))
        if i < n and text[i] == SCRIPT_SEP:
            i += 1
            continue
        if text.startswith(RULE_MARK, i):
            i += len(RULE_MARK)
            break
        raise ParseError(f"expected '{SCRIPT_SEP}' or '{RULE_MARK}' at offset {i}")

    prefix: list[tuple[str, str]] = []
    suffix: list[tuple[str, str]] = []
    current = prefix
    seen_sep = False
    while i < n:
        c = text[i]
        op = _PLAIN_OPS.get(c)
        if op is not None:
            current.append(op)
            i += 1
        elif c == INSERT_MARK:
            if i + 1 >= n:
                raise ParseError("insert op missing its character")
            current.append((INS, text[i + 1]))
            i += 2
        elif c == SCRIPT_SEP:
            if seen_sep:
                raise ParseError("more than one prefix/suffix separator")
            seen_sep = True
            current = suffix
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} in edit script")
    if not seen_sep:
        raise ParseError("missing prefix/suffix separator")
    return UdpipeLabel(
        segments=tuple(segments),
        prefix_ops=tuple(prefix),
        suffix_ops=tuple(suffix),
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


def _serialize_ops(script: str, target: str) -> str:
    # a min-script alignment producing target; it never replaces
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


def _replay(ops: tuple[tuple[str, str], ...], source: str) -> str:
    out: list[str] = []
    pos = 0
    for kind, payload in ops:
        if kind == COPY:
            out.append(source[pos])
            pos += 1
        elif kind == DEL:
            pos += 1
        else:
            out.append(payload)
    return "".join(out)


def _apply_casing(text: str, segments: tuple[tuple[CaseClass, int], ...]) -> str:
    if len(segments) == 1:
        direction = segments[0][0]
        return fold_upper(text) if direction is CaseClass.UPPER else fold_lower(text)
    parts = []
    for k, (direction, start) in enumerate(segments):
        end = segments[k + 1][1] if k + 1 < len(segments) else len(text)
        piece = text[start:end]
        parts.append(fold_upper(piece) if direction is CaseClass.UPPER else fold_lower(piece))
    return "".join(parts)
