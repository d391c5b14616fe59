"""Character-level casing primitives shared by all label schemes.

The one casing rule: a character shifts to its simple case mapping only
when that mapping is a single other code point which maps back to the
character. Everything else (German ss-eszett, dotted Istanbul I, Kelvin
sign, titlecase digraphs, ...) is caseless and passes through every
transform unchanged, which keeps per-position casing scripts losslessly
reversible. A character is uppercase when shift_lower changes it and
lowercase when shift_upper does.
"""

from __future__ import annotations


class _ShiftTable(dict):
    """Lazy str.translate table: code point -> its shift under the rule."""

    def __init__(self, to, back):
        super().__init__()
        self._to = to
        self._back = back

    def __missing__(self, codepoint: int) -> str:
        ch = chr(codepoint)
        out = self._to(ch)
        if len(out) != 1 or out == ch or self._back(out) != ch:
            out = ch
        self[codepoint] = out
        return out


_LOWER_TABLE = _ShiftTable(str.lower, str.upper)
_UPPER_TABLE = _ShiftTable(str.upper, str.lower)


def shift_lower(ch: str) -> str:
    """Lowercase one character, but only if it is invertibly uppercase."""
    return _LOWER_TABLE[ord(ch)]


def shift_upper(ch: str) -> str:
    """Uppercase one character, but only if it is invertibly lowercase."""
    return _UPPER_TABLE[ord(ch)]


def fold_lower(text: str) -> str:
    """Per-character lowercasing restricted to invertibly cased characters."""
    if text.isascii():
        return text.lower()
    return text.translate(_LOWER_TABLE)


def fold_upper(text: str) -> str:
    """Per-character uppercasing restricted to invertibly cased characters."""
    if text.isascii():
        return text.upper()
    return text.translate(_UPPER_TABLE)
