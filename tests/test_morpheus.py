from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COMPARISON_LABELS, COMPARISON_PAIRS
from lemscript.corpus_io import LabeledToken, label_pairs
from lemscript.errors import ArityMismatch, EmptyInput, ParseError, SchemeMismatch
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import morpheus


@pytest.mark.parametrize(
    "form,lemma,expected",
    [(*p, e) for p, e in zip(COMPARISON_PAIRS, COMPARISON_LABELS["morpheus"])],
)
def test_published_labels(form, lemma, expected):
    assert morpheus.encode(form, lemma).text == expected


def test_decode_fixtures():
    assert morpheus.decode("Wolak", SesLabel(Scheme.MORPHEUS, "s|s|s|s|s")) == "Wolak"
    assert morpheus.decode("birds", SesLabel(Scheme.MORPHEUS, "s|s|s|s|d")) == "bird"


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        morpheus.decode("cats", SesLabel(Scheme.MORPHEUS, "s|s|d"))


def test_scheme_guard():
    with pytest.raises(SchemeMismatch):
        morpheus.decode("cats", SesLabel(Scheme.UDPIPE, "↓0;d¦-"))


def test_trailing_insert_run_folds_into_replace():
    label = morpheus.encode("abc", "abcde")
    assert label.text == "s|s|r_cde"
    assert morpheus.decode("abc", label) == "abcde"


def test_leading_insert_run_prepends():
    label = morpheus.encode("bc", "abc")
    assert label.text == "r_ab|s"
    assert morpheus.decode("bc", label) == "abc"


def test_token_count_equals_form_length():
    for form, lemma in [("a", "abcdef"), ("списки", "список"), ("Xa", "ya")]:
        label = morpheus.encode(form, lemma)
        assert len(label.text.split("|")) == len(form)


def test_length_sensitivity():
    assert morpheus.encode("cats", "cat").text != morpheus.encode("birds", "bird").text


def test_lower_token_appears_anywhere():
    # upper-to-lower same-letter alignment away from the word start
    label = morpheus.encode("aB", "ab")
    assert label.text == "s|l"
    assert morpheus.decode("aB", label) == "ab"


def test_no_uppercase_analog_of_lower():
    label = morpheus.encode("you", "You")
    assert label.text == "r_Y|s|s"
    assert morpheus.decode("you", label) == "You"


def test_non_invertible_upper_never_becomes_lower_token():
    # İ is caseless here, so the pairing encodes as a replace
    label = morpheus.encode("İx", "ix")
    assert "l" not in label.text.split("|")
    assert morpheus.decode("İx", label) == "ix"


def test_lemma_longer_than_word_is_total():
    for form, lemma in [("a", "aaaaa"), ("to", "идти"), ("x", "yzw")]:
        label = morpheus.encode(form, lemma)
        assert morpheus.decode(form, label) == lemma


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        morpheus.encode("", "x")
    with pytest.raises(EmptyInput):
        morpheus.encode("x", "")


@pytest.mark.parametrize("bad", ["", "s|", "q", "r_", "s||s", "sd", "r"])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        morpheus.parse_label(bad)


# a "|" in the lemma reaches the label through a replace payload, where it
# reads as a token separator: the encoder writes labels that its own
# decoder rejects. Changing the grammar would change labels, so these pin
# today's outcomes, including that label_pairs reports them as failures
PIPE_LEMMAS = [
    ("a", "|", "r_|", ParseError),
    ("ab", "x|s", "r_x|r_|s", ParseError),
    ("_БеD", "z2ğAşк|s", "r_z|r_2|r_ğ|r_Aşк|s", ArityMismatch),
    ("a|b", "a|c", "s|s|r_c", None),
]


@pytest.mark.parametrize("form,lemma,text,error", PIPE_LEMMAS)
def test_a_pipe_in_the_lemma_keeps_its_outcome(form, lemma, text, error):
    label = morpheus.encode(form, lemma)
    assert label.text == text
    if error is None:
        assert morpheus.decode(form, label) == lemma
    else:
        with pytest.raises(error):
            morpheus.decode(form, label)


def test_label_pairs_reports_the_pipe_lemmas_it_cannot_decode():
    found = label_pairs(Scheme.MORPHEUS, [(form, lemma) for form, lemma, _, _ in PIPE_LEMMAS])
    for (form, lemma, text, error), outcome in zip(PIPE_LEMMAS, found):
        if error is None:
            assert outcome == LabeledToken(form, lemma, SesLabel(Scheme.MORPHEUS, text))
        else:
            assert outcome.startswith(f"{error.__name__}: "), outcome


def serialized(plan):
    tokens = (morpheus.REPLACE_MARK + payload if kind == "r" else kind for kind, payload in plan)
    return morpheus.TOKEN_SEP.join(tokens)


# label-shaped text: tokens and near-tokens, payloads over the token characters
PAYLOADS = st.text(alphabet="sdlr_|a", max_size=3)
TOKENS = st.one_of(st.sampled_from(["s", "d", "l", "r", "", "x"]), PAYLOADS.map("r_".__add__))
LABEL_TEXT = st.lists(TOKENS, min_size=1, max_size=5).map("|".join)


@given(st.one_of(st.text(alphabet="sdlr_|a", max_size=12), LABEL_TEXT))
def test_an_accepted_text_is_its_plan_serialized(text):
    # the parser accepts only the encoder's serialization of the plan it returns
    try:
        plan = morpheus.parse_label.__wrapped__(text)
    except ParseError:
        return
    assert serialized(plan) == text


LETTERS = "abcdstzABCDSTZжуЖУßİıçğşÇĞŞ"
WORDS = st.text(alphabet=LETTERS, min_size=1, max_size=12)


@given(WORDS, WORDS)
def test_roundtrip_property(form, lemma):
    label = morpheus.encode(form, lemma)
    assert len(label.text.split("|")) == len(form)
    assert morpheus.decode(form, label) == lemma
