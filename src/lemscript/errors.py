"""Exception types shared across the package."""

from __future__ import annotations


class LemscriptError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(LemscriptError):
    """An encoder received an empty wordform or lemma."""


class LabelDecodeError(LemscriptError):
    """Base class for failures while applying a label to a wordform.

    Catching this covers every way a predicted label can be incompatible
    with the word it is applied to.
    """


class ParseError(LabelDecodeError):
    """Label text does not conform to its scheme's grammar."""


class LengthMismatch(LabelDecodeError):
    """A label consumes more characters than the wordform has, or two
    aligned sequences differ in length."""


class ArityMismatch(LabelDecodeError):
    """Per-character label whose token count differs from the wordform length."""


class CharMismatch(LabelDecodeError):
    """A label's stored character disagrees with the wordform at that position."""


class IndexOutOfRange(LabelDecodeError):
    """An indexed edit points outside the wordform."""


class FormatError(LemscriptError):
    """Malformed input file; carries the 1-based line number.

    Readers that know the file set `path`, which then replaces "line" in
    the message: "train.conllu:4: ..." instead of "line 4: ...".
    """

    path = ""

    def __init__(self, line_number: int, message: str):
        super().__init__(line_number, message)
        self.line_number = line_number
        self.message = message

    def __str__(self) -> str:
        where = f"{self.path}:" if self.path else "line "
        return f"{where}{self.line_number}: {self.message}"


class SchemeMismatch(LemscriptError):
    """Two artifacts carry different label schemes."""


class EmptyEval(LemscriptError):
    """An accuracy ratio was requested over zero items."""


class StructureMismatch(LemscriptError):
    """Sentence/token structure of two evaluation inputs does not align."""


class EmptyCorpus(LemscriptError):
    """An operation that needs at least one token got none."""
