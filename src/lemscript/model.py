"""Shared data model: tokens, sentences, corpora, scheme ids and labels.

Everything here is immutable value data; instances are safe to share
between threads and processes. The per-row types (SesLabel, Token,
Sentence, and corpus_io.LabeledToken) are slotted _Value classes: a
NamedTuple instance takes one pointer more than a tuple of its fields,
and a 3- or 4-field one 80 bytes against 64. The others are NamedTuples.
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
    """An immutable record over its class's __slots__, compared, hashed and
    shown field by field in slot order."""

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
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy would otherwise restore the slots through __setattr__
        return type(self), self._astuple()


class SesLabel(_Value):
    """A textual edit-script label tagged with its scheme."""

    __slots__ = ("scheme", "text")

    def __init__(self, scheme: Scheme, text: str) -> None:
        if not text:
            raise ValueError("label text must be non-empty")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "text", text)


class Token(_Value):
    __slots__ = ("form", "lemma", "upos", "index")

    def __init__(
        self,
        form: str,                 # surface wordform, never empty
        lemma: str | None = None,  # gold lemma; None when the treebank masks it
        upos: str = "",            # universal POS tag, "" when absent
        index: int = 1,            # 1-based position within the sentence
    ) -> None:
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "lemma", lemma)
        object.__setattr__(self, "upos", upos)
        object.__setattr__(self, "index", index)


class Sentence(_Value):
    __slots__ = ("tokens", "comments")

    def __init__(self, tokens: tuple[Token, ...], comments: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "comments", comments)


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
