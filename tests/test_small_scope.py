"""Every small pair, encoded under every scheme.

The alphabet holds two ASCII lowercase letters, the uppercase of one, a
non-ASCII cased pair and the dotless i, which is caseless because its
uppercase does not lower back. Forms and lemmas run up to three
characters, the two together up to five: 19,908 pairs, about 0.8 s per
scheme. Each label must be the reference encoder's, decode back to its
lemma and carry the plan its text parses to.

The decode half takes the pairs over "abA" alone, each side of length
1-3 (39 words, 1,521 pairs): every label they give, read as text, is
decoded on every one of the 39 words. Each decode gives a str or raises
a LabelDecodeError, and the plan from_text gives the label selects the
outcome a label without a plan gets.
"""

from __future__ import annotations

from itertools import product

import pytest

from lemscript.errors import LabelDecodeError
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import decode, encode, from_text, ixapipes, morpheus, udpipe
from scheme_reference import reference_encode

ALPHABET = "abAğĞı"
WORDS = ["".join(chars) for n in (1, 2, 3) for chars in product(ALPHABET, repeat=n)]
PAIRS = [(form, lemma) for form in WORDS for lemma in WORDS if len(form) + len(lemma) <= 5]
PARSERS = {
    Scheme.UDPIPE: udpipe.parse_label,
    Scheme.IXAPIPES: ixapipes.parse_label,
    Scheme.MORPHEUS: morpheus.parse_label,
}


def test_the_pairs_are_every_pair_up_to_the_bounds():
    assert len(WORDS) == 6 + 6**2 + 6**3
    assert len(PAIRS) == len(set(PAIRS)) == 19_908


@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_small_pair_encodes_as_the_reference_and_back(scheme):
    parse = PARSERS[scheme]
    for form, lemma in PAIRS:
        label = encode(scheme, form, lemma)
        assert label.text == reference_encode(scheme, form, lemma), (form, lemma)
        assert decode(form, label) == lemma, (form, lemma, label.text)
        assert label.plan == parse(label.text), (form, lemma, label.text)


DECODE_WORDS = ["".join(chars) for n in (1, 2, 3) for chars in product("abA", repeat=n)]


def decoded(form, label):
    """decode's lemma, or the class and message of its error."""
    try:
        lemma = decode(form, label)
    except LabelDecodeError as exc:
        return type(exc), str(exc)
    assert type(lemma) is str, (form, label, lemma)
    return lemma


@pytest.mark.parametrize("scheme", list(Scheme))
def test_every_small_label_decodes_on_every_small_word(scheme):
    texts = {encode(scheme, form, lemma).text for form in DECODE_WORDS for lemma in DECODE_WORDS}
    for text in sorted(texts):
        label, twin = from_text(scheme, text), SesLabel(scheme, text)
        assert label.plan is not None, text
        for form in DECODE_WORDS:
            assert decoded(form, label) == decoded(form, twin), (form, text)
