"""Character-level casing primitives shared by all label schemes.

A character counts as cased only when its simple case conversion is
one-to-one and invertible: the mapped character is a single code point
and maps back to the original. Everything else (German ss-eszett, dotted
Istanbul I, Kelvin sign, titlecase digraphs, ...) is treated as caseless
and passes through every transform unchanged, which keeps per-position
casing scripts losslessly reversible.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache


class CaseClass(Enum):
    UPPER = "upper"
    LOWER = "lower"


# hot paths read these globals: a sixth of the cost of an Enum member lookup
UPPER = CaseClass.UPPER
LOWER = CaseClass.LOWER


@lru_cache(maxsize=None)
def char_class(ch: str) -> CaseClass | None:
    """Classify a single character as UPPER, LOWER, or caseless (None)."""
    lo = ch.lower()
    if len(lo) == 1 and lo != ch and lo.upper() == ch:
        return UPPER
    up = ch.upper()
    if len(up) == 1 and up != ch and up.lower() == ch:
        return LOWER
    return None


def shift_lower(ch: str) -> str:
    """Lowercase one character, but only if it is invertibly uppercase."""
    return ch.lower() if char_class(ch) is UPPER else ch


def shift_upper(ch: str) -> str:
    """Uppercase one character, but only if it is invertibly lowercase."""
    return ch.upper() if char_class(ch) is LOWER else ch


class _ShiftTable(dict):
    """Lazy str.translate table over one of the shift functions."""

    def __init__(self, shift):
        super().__init__()
        self._shift = shift

    def __missing__(self, codepoint: int) -> str:
        out = self._shift(chr(codepoint))
        self[codepoint] = out
        return out


_LOWER_TABLE = _ShiftTable(shift_lower)
_UPPER_TABLE = _ShiftTable(shift_upper)


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
