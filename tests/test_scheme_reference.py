"""Every encoder writes the label its reference encoder writes.

The roundtrip and totality tests check only that a label decodes back
to its lemma, so an encoder that wrote another valid label would pass
them. These tests pin the label text itself against the encoders of
`scheme_reference`. The property draws from both cases, a non-ASCII
letter, the dotless i and the dotted capital I, digits and the marker
characters of the three label grammars, where serializers go wrong.
Neither Turkish i is invertible: "ı" uppercases to "I", which lowercases
to "i", and "İ" lowercases to two code points, so a casing rule that
shifts them shows here.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from lemscript.model import Scheme
from lemscript.schemes import encode
from scheme_reference import reference_encode
from test_acceptance import _fuzz_pairs

# both cases, a non-ASCII letter in both cases, the two Turkish i's that
# have no case partner, digits and every marker
ALPHABET = "abAB" + "ğĞ" + "ıİ" + "019" + "¦→|_;-+IDR1O"

words = st.text(ALPHABET, min_size=1, max_size=8)


@st.composite
def pairs(draw):
    """A (form, lemma) pair over ALPHABET: unrelated words, or a lemma made
    from the form by recasing, dropping and adding characters."""
    form = draw(words)
    if draw(st.booleans()):
        return form, draw(words)
    edits = st.sampled_from(["keep", "lower", "upper", "drop", "add"])
    lemma = ""
    for ch in form:
        edit = draw(edits)
        if edit == "add":
            lemma += draw(st.sampled_from(ALPHABET))
        if edit != "drop":
            lemma += ch.lower() if edit == "lower" else ch.upper() if edit == "upper" else ch
    return form, lemma or draw(words)


@given(pairs())
def test_labels_match_the_reference_encoders(pair):
    form, lemma = pair
    for scheme in Scheme:
        assert encode(scheme, form, lemma).text == reference_encode(scheme, form, lemma), (
            scheme, form, lemma)


def test_fuzz_pair_labels_match_the_reference_encoders():
    for form, lemma in _fuzz_pairs(5000, seed=11):
        for scheme in Scheme:
            assert encode(scheme, form, lemma).text == reference_encode(scheme, form, lemma), (
                scheme, form, lemma)
