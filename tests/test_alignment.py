"""Alignment primitives against brute-force oracles and fixed fixtures."""

from __future__ import annotations

import functools
import itertools
import os
import random

from hypothesis import given
from hypothesis import strategies as st

from align_reference import check_script, reference_levenshtein, reference_min_script
from lemscript.alignment import (
    DELETE,
    INSERT,
    MATCH,
    REPLACE,
    LcsResult,
    levenshtein_align,
    longest_common_substring,
    min_script_align,
)
from lemscript.model import Scheme
from lemscript.schemes import decode, encode


# --- independent oracles -------------------------------------------------

def lcs_by_enumeration(a: str, b: str) -> LcsResult:
    """All-substrings oracle with the same tie rule."""
    best = LcsResult(0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best.length:
                best = LcsResult(i, j, k)
    return best


@functools.lru_cache(maxsize=None)
def distance_recursive(a: str, b: str) -> int:
    """Textbook recursive Levenshtein distance, independent of the DP."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(
        distance_recursive(a[1:], b[1:]) + (a[0] != b[0]),
        distance_recursive(a[1:], b) + 1,
        distance_recursive(a, b[1:]) + 1,
    )


def edit_count(script: str) -> int:
    return len(script) - script.count(MATCH)


WORDS = st.text(alphabet="abcdабвгßİı", min_size=0, max_size=8)


# --- longest common substring --------------------------------------------

def test_lcs_examples():
    assert longest_common_substring("cats", "cat") == (0, 0, 3)
    assert longest_common_substring("did", "do") == (0, 0, 1)
    assert longest_common_substring("xyz", "абв") == (0, 0, 0)
    assert longest_common_substring("", "abc") == (0, 0, 0)
    # one string inside the other: its first occurrence is the root
    assert longest_common_substring("abab", "ab") == (0, 0, 2)
    assert longest_common_substring("ab", "xabab") == (0, 1, 2)
    assert longest_common_substring("xabab", "bab") == (2, 0, 3)


def test_lcs_within_bound_matches_oracle():
    strings = ["".join(p) for n in range(4) for p in itertools.product("abc", repeat=n)]
    for a in strings:
        for b in strings:
            got = longest_common_substring(a, b)
            want = lcs_by_enumeration(a, b)
            assert got == want, (a, b)
            assert a[got.start_in_a : got.start_in_a + got.length] == (
                b[got.start_in_b : got.start_in_b + got.length]
            )


@given(WORDS, WORDS)
def test_lcs_property(a, b):
    got = longest_common_substring(a, b)
    want = lcs_by_enumeration(a, b)
    assert got.length == want.length
    assert got == want


# --- levenshtein_align ----------------------------------------------------

def test_levenshtein_fixtures():
    assert levenshtein_align("did", "do") == "=~-"
    assert levenshtein_align("", "ab") == "++"
    assert levenshtein_align("cats", "cat") == "===-"


def test_levenshtein_small_universe_matches_distance_oracle():
    strings = ["".join(p) for n in range(4) for p in itertools.product("abcd", repeat=n)]
    for a in strings:
        for b in strings:
            script = levenshtein_align(a, b)
            assert edit_count(script) == distance_recursive(a, b), (a, b)
            check_script(script, a, b)


def test_levenshtein_sampled_length6_universe():
    rng = random.Random(20240501)
    alphabet = "abcd"
    for _ in range(4000):
        a = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
        b = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
        for tie in (False, True):
            script = levenshtein_align(a, b, delete_before_replace=tie)
            assert edit_count(script) == distance_recursive(a, b)
            check_script(script, a, b)


def test_levenshtein_deterministic():
    first = levenshtein_align("переход", "переходы")
    for _ in range(3):
        assert levenshtein_align("переход", "переходы") == first


@given(WORDS, WORDS)
def test_levenshtein_replay_property(a, b):
    script = levenshtein_align(a, b)
    check_script(script, a, b)
    assert edit_count(script) == distance_recursive(a, b)


def test_tie_order_flag_changes_only_tied_choices():
    default = levenshtein_align("did", "od")
    flipped = levenshtein_align("did", "od", delete_before_replace=True)
    assert edit_count(default) == edit_count(flipped) == 2
    assert default != flipped
    assert default[0] == REPLACE
    assert flipped[0] == DELETE


# --- min_script_align -----------------------------------------------------

def test_min_script_fixtures():
    assert min_script_align("id", "o") == "--+"
    assert min_script_align("a", "a") == "="
    assert min_script_align("ab", "b") == "-="


def test_min_script_never_replaces_and_replays():
    rng = random.Random(7)
    for _ in range(2000):
        a = "".join(rng.choices("abcd", k=rng.randint(0, 6)))
        b = "".join(rng.choices("abcd", k=rng.randint(0, 6)))
        script = min_script_align(a, b)
        assert REPLACE not in script
        check_script(script, a, b)


def test_min_script_cost_is_minimal_by_enumeration():
    """Compare against exhaustive recursion over MATCH/DELETE/INSERT."""

    @functools.lru_cache(maxsize=None)
    def best_cost(a: str, b: str) -> int:
        if not a:
            return 2 * len(b)
        if not b:
            return len(a)
        options = [1 + best_cost(a[1:], b), 2 + best_cost(a, b[1:])]
        if a[0] == b[0]:
            options.append(1 + best_cost(a[1:], b[1:]))
        return min(options)

    def cost(script: str) -> int:
        table = {MATCH: 1, DELETE: 1, INSERT: 2}
        return sum(table[op] for op in script)

    strings = ["".join(p) for n in range(4) for p in itertools.product("ab", repeat=n)]
    for a in strings:
        for b in strings:
            assert cost(min_script_align(a, b)) == best_cost(a, b), (a, b)


# --- bit-exact against the reference dynamic program ----------------------

def assert_same_as_reference(a: str, b: str) -> None:
    assert levenshtein_align(a, b) == reference_levenshtein(a, b), (a, b)
    assert levenshtein_align(a, b, delete_before_replace=True) == (
        reference_levenshtein(a, b, delete_before_replace=True)
    ), (a, b)
    assert min_script_align(a, b) == reference_min_script(a, b), (a, b)


def test_small_universe_matches_reference():
    """Every pair over abcd up to length 4; up to 6 with LEMSCRIPT_EXHAUSTIVE=1 (slow)."""
    longest = 6 if os.environ.get("LEMSCRIPT_EXHAUSTIVE") else 4
    strings = [
        "".join(p) for n in range(longest + 1) for p in itertools.product("abcd", repeat=n)
    ]
    for a in strings:
        for b in strings:
            assert_same_as_reference(a, b)


@given(WORDS, WORDS)
def test_reference_property(a, b):
    assert_same_as_reference(a, b)


def test_multiword_bit_vectors_match_reference():
    # 60-200 characters: the column vectors span several machine words
    rng = random.Random(60200)
    for _ in range(100):
        a = "".join(rng.choices("abc", k=rng.randint(60, 200)))
        b = "".join(rng.choices("abc", k=rng.randint(60, 200)))
        assert_same_as_reference(a, b)


# --- long tokens ----------------------------------------------------------

def test_long_token_roundtrips_under_every_scheme():
    rng = random.Random(4000)
    form = "".join(rng.choices("abcdefgh", k=4000))
    lemma = list(form)
    for pos in rng.sample(range(4000), 200):
        lemma[pos] = rng.choice("abcdefgh")
    lemma = "".join(lemma)
    for scheme in Scheme:
        assert decode(form, encode(scheme, form, lemma)) == lemma, scheme


# --- disjoint alphabets: the closed form ---------------------------------

SHARED = st.text(alphabet="abxy", max_size=4)
LEFT = st.text(alphabet="abcабß", max_size=9)
RIGHT = st.text(alphabet="xyzвгİı", max_size=9)


@given(SHARED, LEFT, RIGHT)
def test_disjoint_remainders_match_reference(prefix, left, right):
    # past the shared prefix the two sides have no character in common,
    # so the aligners take the closed form, empty remainders included
    assert_same_as_reference(prefix + left, prefix + right)
    assert_same_as_reference(prefix + right, prefix + left)


# --- a shared stem at both ends: the guarded suffix trim -----------------

STEM = st.text(alphabet="ab", max_size=4)
MIDDLE = st.text(alphabet="abc", max_size=6)


def test_suffix_trim_fixtures():
    # (levenshtein_align, with delete_before_replace, min_script_align)
    cases = {
        # guard fallbacks: the trimmed walk would insert or delete an "a"
        # before the shared suffix "a", where the full walk matches it
        ("ba", "caa"): ("~=+", "~=+", "-+=+"),
        ("caa", "ba"): ("~=-", "-~=", "--+="),
        # trimmed scripts kept: nothing before the suffix equals its start
        ("stac", "tac"): ("-===", "-===", "-==="),
        ("xbc", "ybc"): ("~==", "~==", "-+=="),
    }
    for (a, b), scripts in cases.items():
        assert (
            levenshtein_align(a, b),
            levenshtein_align(a, b, delete_before_replace=True),
            min_script_align(a, b),
        ) == scripts, (a, b)
        assert_same_as_reference(a, b)


@given(STEM, MIDDLE, MIDDLE, STEM)
def test_shared_ends_match_reference(prefix, left, right, suffix):
    # small shared alphabets, so the remainders' ends often equal the
    # suffix's first character and the guard has to fall back
    assert_same_as_reference(prefix + left + suffix, prefix + right + suffix)
    assert_same_as_reference(prefix + right + suffix, prefix + left + suffix)


# --- one side a prefix or a suffix of the other: the one-comparison trims

def test_prefix_and_suffix_pair_fixtures():
    assert levenshtein_align("cats", "cats") == "===="
    assert levenshtein_align("cats", "c") == "=---"
    assert min_script_align("c", "cats") == "=+++"
    # the shorter side differs only at its last character: the
    # per-character loop runs and stops there
    assert levenshtein_align("abx", "abcd") == "==~+"
    # one side a suffix of the other, with and without the guard's
    # fallback: in "baa" to "a" the full walk matches the first "a",
    # which the trimmed walk would delete
    assert levenshtein_align("stac", "tac") == "-==="
    assert levenshtein_align("baa", "a") == "-=-"
    for word in ["a", "ab", "cats", "İıß", "abab"]:
        for part in {word, word[:1], word[:-1], word[-1:], word[1:], ""}:
            assert_same_as_reference(word, part)
            assert_same_as_reference(part, word)


@given(WORDS, st.data())
def test_prefix_and_suffix_pairs_match_reference(word, data):
    # equal strings, one-character and empty parts among the cuts
    cut = data.draw(st.sampled_from([len(word), 1, 0]) | st.integers(0, len(word)))
    for part in (word[:cut], word[cut:], data.draw(WORDS) + word[cut:]):
        assert_same_as_reference(word, part)
        assert_same_as_reference(part, word)
