"""The casing rule: a character is uppercase when shift_lower changes it,
lowercase when shift_upper changes it, and caseless when neither does."""

from __future__ import annotations

import string
import sys

from hypothesis import given
from hypothesis import strategies as st

import scheme_reference as reference
from lemscript import casing
from lemscript.casing import fold_lower, fold_upper, shift_lower, shift_upper


def is_upper(ch):
    return shift_lower(ch) != ch == shift_upper(ch)


def is_lower(ch):
    return shift_upper(ch) != ch == shift_lower(ch)


def is_caseless(ch):
    return shift_lower(ch) == ch == shift_upper(ch)


def test_ascii_classes():
    assert is_upper("A")
    assert is_lower("a")
    assert is_caseless("5")
    assert is_caseless(".")


def test_non_invertible_characters_are_caseless():
    # eszett uppercases to two characters
    assert is_caseless("ß")
    # dotted capital I lowercases to i + combining dot
    assert is_caseless("İ")
    # dotless i uppercases to plain I, which does not lower back
    assert is_caseless("ı")
    # Kelvin sign lowercases to plain k, which uppers to plain K
    assert is_caseless("\u212a")


def test_cyrillic_and_turkish_pairs():
    assert is_upper("Ж")
    assert is_lower("ж")
    assert is_upper("Ş")
    assert is_lower("ş")


def test_shifts_only_touch_invertible_characters():
    assert shift_lower("A") == "a"
    assert shift_lower("ß") == "ß"
    assert shift_lower("İ") == "İ"
    assert shift_upper("a") == "A"
    assert shift_upper("ı") == "ı"


def test_fold_lower():
    assert fold_lower("DiD") == "did"
    assert fold_lower("Straße") == "straße"
    assert fold_lower("İstanbul") == "İstanbul"[0] + "stanbul"
    assert fold_lower("ЖУК") == "жук"


def test_shifts_equal_the_reference_rule_on_every_code_point():
    # this interpreter's Unicode database, a block at a time; the lazy
    # tables are emptied after each block, so the test does not leave an
    # entry for every code point behind
    block = 1 << 16
    for start in range(0, sys.maxunicode + 1, block):
        chars = [chr(cp) for cp in range(start, min(start + block, sys.maxunicode + 1))]
        try:
            lower = [ch for ch in chars if shift_lower(ch) != reference.shift_lower(ch)]
            upper = [ch for ch in chars if shift_upper(ch) != reference.shift_upper(ch)]
        finally:
            casing._LOWER_TABLE.clear()
            casing._UPPER_TABLE.clear()
        assert not lower and not upper, (lower[:5], upper[:5])


# any text, and ASCII-only text, which folds through str.lower and str.upper
TEXTS = st.one_of(st.text(), st.text(string.printable))


@given(TEXTS)
def test_folds_shift_every_character(text):
    assert fold_lower(text) == "".join(map(shift_lower, text))
    assert fold_upper(text) == "".join(map(shift_upper, text))
