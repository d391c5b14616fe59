"""Shared data model: tokens, sentences, corpora, scheme ids and labels.

Everything here is immutable value data; instances are safe to share
between threads and processes. Nothing caches a plan: a label carries
its own, so encode and decode keep no state between calls, and threads
may encode and decode side by side. The per-row types (SesLabel, Token,
Sentence, and corpus_io.LabeledToken) are slotted _Value classes: a
NamedTuple instance takes one pointer more than a tuple of its fields,
and a 3- or 4-field one 80 bytes against 64. The others are NamedTuples.
A _Value's __init__ sets each slot through that slot descriptor's
__set__, bound once per class by _setters into module globals: one call
per field, where object.__setattr__(self, "name", value) pays a global
lookup, an attribute lookup and a name check on top.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Scheme(str, Enum):
    """The three supported edit-script label schemes."""

    UDPIPE = "udpipe"
    IXAPIPES = "ixapipes"
    MORPHEUS = "morpheus"


class _Value:
    """An immutable record over its class's __slots__, compared, hashed,
    shown and pickled by the fields _astuple gives, by default every slot."""

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        shown = zip(self.__slots__, self._astuple())
        fields = ", ".join(f"{name}={value!r}" for name, value in shown)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slots through __setattr__
        return type(self), self._astuple()


def _setters(cls: type) -> tuple:
    """The __set__ of each of cls's slot descriptors, in slot order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class SesLabel(_Value):
    """A textual edit-script label tagged with its Scheme (a value string is converted).

    plan is the parse of text that decode applies, or None; ==, hash,
    repr, pickling and copying see scheme and text only."""

    __slots__ = ("scheme", "text", "plan")

    def __init__(self, scheme: Scheme, text: str, plan: tuple | None = None) -> None:
        if not text:
            raise ValueError("label text must be non-empty")
        _set_scheme(self, scheme if type(scheme) is Scheme else Scheme(scheme))
        _set_text(self, text)
        _set_plan(self, plan)

    def _astuple(self) -> tuple:
        return self.scheme, self.text


class Token(_Value):
    __slots__ = ("form", "lemma", "upos", "index")

    def __init__(
        self,
        form: str,                 # surface wordform, never empty
        lemma: str | None = None,  # gold lemma; None when the treebank masks it
        upos: str = "",            # universal POS tag, "" when absent
        index: int = 1,            # 1-based position within the sentence
    ) -> None:
        _set_form(self, form)
        _set_lemma(self, lemma)
        _set_upos(self, upos)
        _set_index(self, index)


class Sentence(_Value):
    __slots__ = ("tokens", "comments")

    def __init__(self, tokens: tuple[Token, ...], comments: tuple[str, ...] = ()) -> None:
        _set_tokens(self, tokens)
        _set_comments(self, comments)


_set_scheme, _set_text, _set_plan = _setters(SesLabel)
_set_form, _set_lemma, _set_upos, _set_index = _setters(Token)
_set_tokens, _set_comments = _setters(Sentence)


class Corpus(NamedTuple):
    sentences: tuple[Sentence, ...] = ()
    source_name: str = ""

    @property
    def token_count(self) -> int:
        """Total retained tokens across all sentences."""
        return sum(len(s.tokens) for s in self.sentences)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)
