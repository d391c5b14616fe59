"""Every small pair, encoded under every scheme.

The alphabet holds two ASCII lowercase letters, the uppercase of one, a
non-ASCII cased pair and the dotless i, which is caseless because its
uppercase does not lower back. Forms and lemmas run up to three
characters, the two together up to five: 19,908 pairs, about 0.8 s per
scheme. Each label must be the reference encoder's, decode back to its
lemma and carry the plan its text parses to.
"""

from __future__ import annotations

from itertools import product

import pytest

from lemscript.model import Scheme
from lemscript.schemes import decode, encode, ixapipes, morpheus, udpipe
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
    parse = PARSERS[scheme].__wrapped__
    for form, lemma in PAIRS:
        label = encode(scheme, form, lemma)
        assert label.text == reference_encode(scheme, form, lemma), (form, lemma)
        assert decode(form, label) == lemma, (form, lemma, label.text)
        assert label.plan == parse(label.text), (form, lemma, label.text)
