"""Decoders are total: any label text on any wordform gives a str or a
LabelDecodeError, never another exception.

The known counterexamples (a deep ixapipes label, indices past the
interpreter's int-string limit) are fixture tests in the scheme modules.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from lemscript.errors import LabelDecodeError
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import decode

FILLER = "0123456789abzAZ"
FORMS = st.text(max_size=12)


def labels(marks: str):
    return st.text(alphabet=marks + FILLER, min_size=1, max_size=40)


def decodes_or_rejects(scheme: Scheme, form: str, text: str) -> None:
    try:
        lemma = decode(form, SesLabel(scheme, text))
    except LabelDecodeError:
        return
    assert isinstance(lemma, str)


@given(FORMS, labels("↑↓¦;d→-+a"))
def test_udpipe_decode_is_total(form, text):
    decodes_or_rejects(Scheme.UDPIPE, form, text)


@given(FORMS, labels("RDIO1"))
def test_ixapipes_decode_is_total(form, text):
    decodes_or_rejects(Scheme.IXAPIPES, form, text)


@given(FORMS, labels("|sdlr_"))
def test_morpheus_decode_is_total(form, text):
    decodes_or_rejects(Scheme.MORPHEUS, form, text)
