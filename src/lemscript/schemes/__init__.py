"""Scheme registry: string-keyed dispatch over the three label schemes."""

from __future__ import annotations

from ..errors import LabelDecodeError
from ..model import Scheme, SesLabel
from . import ixapipes, morpheus, udpipe

# every scheme module offers encode(form, lemma), decode(form, label), parse_label(text)
_MODULES = {Scheme.UDPIPE: udpipe, Scheme.IXAPIPES: ixapipes, Scheme.MORPHEUS: morpheus}


def encode(scheme: Scheme, form: str, lemma: str) -> SesLabel:
    """Encode a (form, lemma) pair under the given scheme."""
    module = _MODULES[scheme] if type(scheme) is Scheme else _MODULES[Scheme(scheme)]
    return module.encode(form, lemma)


def decode(form: str, label: SesLabel) -> str:
    """Apply a label to a wordform, dispatching on the label's scheme."""
    return _MODULES[label.scheme].decode(form, label)


def decode_or_form(form: str, label: SesLabel) -> tuple[str, bool]:
    """decode's lemma and False, or the form itself and True when the label
    cannot be applied to it."""
    try:
        return decode(form, label), False
    except LabelDecodeError:
        return form, True
