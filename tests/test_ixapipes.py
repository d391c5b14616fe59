from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COMPARISON_LABELS, COMPARISON_PAIRS
from lemscript.errors import (
    CharMismatch,
    EmptyInput,
    IndexOutOfRange,
    ParseError,
    SchemeMismatch,
)
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import ixapipes


@pytest.mark.parametrize(
    "form,lemma,expected",
    [(*p, e) for p, e in zip(COMPARISON_PAIRS, COMPARISON_LABELS["ixapipes"])],
)
def test_published_labels(form, lemma, expected):
    assert ixapipes.encode(form, lemma).text == expected


def test_agglutinative_genitive_encoding():
    # frozen after computing with the fixed tie rule; identical to the
    # published gold script for this pair
    assert ixapipes.encode("folklorearen", "folklore").text == "D5rD4eD3aD0n"


def test_alternative_minimal_scripts_decode_identically():
    for script in ("D5rD4eD3aD0n", "D4eD3aD2rD0n"):
        label = SesLabel(Scheme.IXAPIPES, script)
        assert ixapipes.decode("folklorearen", label) == "folklore"


def test_decode_fixtures():
    assert ixapipes.decode("birds", SesLabel(Scheme.IXAPIPES, "D0s")) == "bird"
    assert ixapipes.decode("Wolak", SesLabel(Scheme.IXAPIPES, "O")) == "Wolak"
    assert ixapipes.decode("You", SesLabel(Scheme.IXAPIPES, "1")) == "you"


def test_char_mismatch():
    with pytest.raises(CharMismatch):
        ixapipes.decode("cats", SesLabel(Scheme.IXAPIPES, "D0x"))


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        ixapipes.decode("ab", SesLabel(Scheme.IXAPIPES, "D9a"))
    with pytest.raises(IndexOutOfRange):
        ixapipes.decode("ab", SesLabel(Scheme.IXAPIPES, "I9z"))


def test_scheme_guard():
    with pytest.raises(SchemeMismatch):
        ixapipes.decode("cats", SesLabel(Scheme.UDPIPE, "↓0;d¦-"))


def test_suffix_sharing_across_stems():
    assert ixapipes.encode("cats", "cat").text == ixapipes.encode("birds", "bird").text


def test_lowercase_flag_composes_with_edits():
    label = ixapipes.encode("Cats", "cat")
    assert label.text == "1D0s"
    assert ixapipes.decode("Cats", label) == "cat"


def test_proper_noun_needs_no_marker():
    assert ixapipes.encode("Wolak", "Wolak").text == "O"
    # capitalized lemma blocks the flag even though the form is capitalized
    label = ixapipes.encode("Ab", "aB")
    assert label.text.startswith("1")
    assert ixapipes.decode("Ab", label) == "aB"


def test_insertion_prepends_through_reversed_indexing():
    label = ixapipes.encode("ab", "xyab")
    assert label.text == "I2xI2y"
    assert ixapipes.decode("ab", label) == "xyab"


def test_multi_character_insert_run_at_one_gap():
    label = ixapipes.encode("a", "xya")
    assert label.text == "I1xI1y"
    assert ixapipes.decode("a", label) == "xya"


def test_digit_operands_parse_by_backtracking():
    # insert the digit character 5 at reversed position 1
    flag, tokens = ixapipes.parse_label("I15")
    assert not flag
    assert tokens == (("I", 1, "5"),)
    flag, tokens = ixapipes.parse_label("D12D03")
    assert [index for _, index, _ in tokens] == [1, 0]
    assert [chars for _, _, chars in tokens] == ["2", "3"]


def test_deep_backtracking_label_is_a_parse_error():
    # one backtracking step per token; a recursive parser overflowed here
    label = SesLabel(Scheme.IXAPIPES, "D0a" * 3000 + "X")
    with pytest.raises(ParseError):
        ixapipes.decode("aaaaaaaaaa", label)


@pytest.mark.parametrize("label", ["I0a" * 3000 + "X", "I11" * 3000 + "X", "I1I" * 3000 + "X"])
def test_deep_insert_runs_are_parse_errors(label):
    # equal indices are legal after an insert, so these parse up to the X
    # and then back up through every token before failing
    with pytest.raises(ParseError):
        ixapipes.parse_label(label)


def test_indices_running_backwards_are_rejected():
    # the encoder writes D1bD0c for abc -> a; the reversed order used to
    # decode to the same lemma
    assert ixapipes.decode("abc", SesLabel(Scheme.IXAPIPES, "D1bD0c")) == "a"
    with pytest.raises(ParseError):
        ixapipes.decode("abc", SesLabel(Scheme.IXAPIPES, "D0cD0b"))


@pytest.mark.parametrize(
    "bad",
    ["D0sD1t", "I0xI1y", "R0abD2c", "D1aD1b", "R1abR1cd", "R1abI1c", "D0aI0x", "1D2aD3b",
     "I0xD0a", "I0tD0t", "R0tt"],
)
def test_out_of_order_tokens_are_parse_errors(bad):
    # indices never increase, only an I or R follows an insert at its own
    # index, and an R changes its character; I0tD0t and R0tt decoded cat to cat
    with pytest.raises(ParseError):
        ixapipes.parse_label(bad)


def serialized(plan):
    lower_first, tokens = plan
    text = "".join(f"{kind}{index}{chars}" for kind, index, chars in tokens)
    return ixapipes.LOWER_FLAG + text if lower_first else text or ixapipes.IDENTITY


@pytest.mark.parametrize("good", ["I1xI1y", "I1xD0a", "I2xR2ab", "R3abI2xI2yD0c", "D12D03"])
def test_encoder_order_parses(good):
    assert serialized(ixapipes.parse_label(good)) == good


@pytest.mark.parametrize("bad", ["D01a", "R00ab", "I01x", "1D02aD0b"])
def test_leading_zero_indices_are_parse_errors(bad):
    # the encoder writes D1a, never D01a; only the index 0 starts with a 0
    with pytest.raises(ParseError):
        ixapipes.parse_label(bad)
    with pytest.raises(ParseError):
        ixapipes.decode("ab", SesLabel(Scheme.IXAPIPES, bad))


@pytest.mark.parametrize("good", ["D00", "R00a", "I01", "D10aD0b"])
def test_zero_index_and_zero_operands_still_parse(good):
    assert serialized(ixapipes.parse_label(good)) == good


def test_oversized_index_is_a_parse_error():
    # past the interpreter's 4,300-digit int conversion limit
    for digits in (4_400, 5_000):
        with pytest.raises(ParseError):
            ixapipes.decode("ab", SesLabel(Scheme.IXAPIPES, "D" + "1" * digits + "a"))


@pytest.mark.parametrize(
    "form,lemma,text,tokens",
    [
        ("x12", "x", "D11D02", (("D", 1, "1"), ("D", 0, "2"))),
        ("ab", "a11", "I11R0b1", (("I", 1, "1"), ("R", 0, "b1"))),
        ("x1", "x2", "R012", (("R", 0, "12"),)),
    ],
)
def test_digit_operand_labels_parse_to_the_encoder_split(form, lemma, text, tokens):
    # a digit operand makes the split ambiguous; the search resolves it
    # to the tokens the encoder wrote
    assert ixapipes.encode(form, lemma).text == text
    assert ixapipes.parse_label(text) == (False, tokens)
    assert ixapipes.decode(form, SesLabel(Scheme.IXAPIPES, text)) == lemma


# token-shaped text: operands over ab01, indices in any order
OPERANDS = st.text(alphabet="ab01", min_size=2, max_size=2)
TOKEN_TEXT = st.lists(st.tuples(st.sampled_from("RDI"), st.integers(0, 12), OPERANDS)).map(
    lambda tokens: "".join(f"{k}{i}{c[: 2 if k == 'R' else 1]}" for k, i, c in tokens)
)


@given(st.one_of(st.text(alphabet="RDI0123456789ab", max_size=16), TOKEN_TEXT))
def test_an_accepted_text_is_its_plan_serialized(text):
    # the parser accepts only the encoder's serialization of the plan it returns
    for candidate in (text, ixapipes.LOWER_FLAG + text):
        try:
            plan = ixapipes.parse_label.__wrapped__(candidate)
        except ParseError:
            continue
        assert serialized(plan) == candidate


# token text around an R that keeps its character or an I k, D k pair
RULE_BREAKER = st.one_of(
    st.tuples(st.integers(0, 12), OPERANDS).map(lambda p: f"I{p[0]}{p[1][0]}D{p[0]}{p[1][1]}"),
    st.tuples(st.integers(0, 12), st.sampled_from("ab01")).map(lambda p: f"R{p[0]}{p[1] * 2}"),
)


@given(st.one_of(TOKEN_TEXT, st.tuples(TOKEN_TEXT, RULE_BREAKER, TOKEN_TEXT).map("".join)))
def test_an_accepted_plan_keeps_the_encoder_rules(text):
    for candidate in (text, ixapipes.LOWER_FLAG + text):
        try:
            _, tokens = ixapipes.parse_label.__wrapped__(candidate)
        except ParseError:
            continue
        assert all(chars[0] != chars[1] for kind, _, chars in tokens if kind == "R")
        for (kind, index, _), (next_kind, next_index, _) in zip(tokens, tokens[1:]):
            assert (kind, next_kind, index) != ("I", "D", next_index)


def test_identity_label_only_alone():
    with pytest.raises(ParseError):
        ixapipes.parse_label("OD0s")


@pytest.mark.parametrize("bad", ["", "D", "Ds", "R0a", "D0sX", "2", "1Q", "I"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        ixapipes.parse_label(bad)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        ixapipes.encode("", "x")
    with pytest.raises(EmptyInput):
        ixapipes.encode("x", "")


def test_token_indices_never_increase():
    for form, lemma in [("folklorearen", "folklore"), ("did", "do"), ("ab", "xyab")]:
        _, tokens = ixapipes.parse_label(ixapipes.encode(form, lemma).text)
        indices = [index for _, index, _ in tokens]
        assert indices == sorted(indices, reverse=True)
        # equal neighbours only ever happen inside insert runs
        for (left_kind, left_index, _), (right_kind, right_index, _) in zip(tokens, tokens[1:]):
            if left_index == right_index:
                assert left_kind == "I" and right_kind == "I"


LETTERS = "abcdstzABCDSTZжуЖУßİıçğşÇĞŞ"
WORDS = st.text(alphabet=LETTERS, min_size=1, max_size=12)


@given(WORDS, WORDS)
def test_roundtrip_property(form, lemma):
    label = ixapipes.encode(form, lemma)
    assert ixapipes.decode(form, label) == lemma
