"""Token-level references that tests compare the CLI's scoring against.

`lemscript eval` and `mcnemar` read each prediction file as a stream
checked row by row against the gold file's forms; the functions below
score a parsed gold Corpus against lemma lists, sentence by sentence, so
any difference in how the CLI lines predictions up with gold lemmas shows
up as a different report.

The dataclasses at the end are the record types as lemscript defined them
before its records became NamedTuples and slotted classes: the references
tests/test_model.py holds each record type's repr, fields, equality, hash,
immutability and instance size to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import IO, Iterable, Sequence

from lemscript import metrics, model
from lemscript.corpus_io import _tsv_sentences
from lemscript.errors import LengthMismatch, StructureMismatch
from lemscript.metrics import _sentence_hits, mcnemar, paired_counts, paired_outcomes, score_counts
from lemscript.model import Scheme


def gold_lemmas(corpus: model.Corpus) -> list[list[str]]:
    """Gold lemmas sentence by sentence; tokens without a lemma are left out."""
    return [[t.lemma for t in s.tokens if t.lemma is not None] for s in corpus.sentences]


def evaluate(
    gold: model.Corpus, pred: Sequence[Sequence[str]], train_forms: set[str] | None = None
) -> metrics.EvalReport:
    """Score predictions for the lemmatized tokens of a gold corpus.

    With train_forms, the word accuracy is also split over forms seen and
    unseen in training (see inv_oov_accuracy).
    """
    lemmas = gold_lemmas(gold)
    flat_gold = _flatten(lemmas)
    flat_pred = _flatten(pred)
    if len(flat_gold) != len(flat_pred):
        raise LengthMismatch(f"{len(flat_gold)} gold lemmas vs {len(flat_pred)} predictions")
    seen = train_forms or ()
    forms = (t.form for s in gold.sentences for t in s.tokens if t.lemma is not None)
    rows = zip(repeat(1), map(eq, flat_gold, flat_pred), (form in seen for form in forms))
    return score_counts(rows, _sentence_hits(lemmas, pred), train_forms is not None)


def paired_mcnemar(
    gold: Sequence[Sequence[str]],
    pred_a: Sequence[Sequence[str]],
    pred_b: Sequence[Sequence[str]],
    granularity: str = "word",
    alpha: float = 0.05,
) -> metrics.McNemarResult:
    """McNemar test of two systems over tokens ("word") or whole sentences."""
    if granularity == "word":
        b, c = paired_outcomes(_flatten(gold), _flatten(pred_a), _flatten(pred_b))
    else:
        b, c = paired_sentence_outcomes(gold, pred_a, pred_b)
    return mcnemar(b, c, alpha)


def paired_sentence_outcomes(
    gold: Sequence[Sequence[str]],
    pred_a: Sequence[Sequence[str]],
    pred_b: Sequence[Sequence[str]],
) -> tuple[int, int]:
    """Sentence-granular disagreements: a position is a fully correct sentence."""
    if not (len(gold) == len(pred_a) == len(pred_b)):
        raise StructureMismatch(
            f"sentence counts differ: gold {len(gold)}, a {len(pred_a)}, b {len(pred_b)}"
        )
    hits_a = list(_sentence_hits(gold, pred_a))
    return paired_counts(zip(repeat(1), hits_a, _sentence_hits(gold, pred_b)))


def _flatten(sentences: Sequence[Sequence[str]]) -> list[str]:
    return [item for sentence in sentences for item in sentence]


def write_lemmas(
    forms: Iterable[Iterable[str]], lemmas: Iterable[Iterable[str]], fp: IO[str]
) -> None:
    """Write form<TAB>lemma rows, a blank line after each sentence."""
    for sentence_forms, sentence_lemmas in zip(forms, lemmas):
        for form, lemma in zip(sentence_forms, sentence_lemmas):
            fp.write(f"{form}\t{lemma}\n")
        fp.write("\n")


def parse_lemmas(lines: Iterable[str]) -> list[list[str]]:
    """Read the lemma column of write_lemmas output, sentence by sentence."""
    return [[cols[1] for _, cols in rows] for rows in _tsv_sentences(lines, 2)]


# --- the record types as dataclasses ----------------------------------------

@dataclass(frozen=True, slots=True)
class SesLabel:
    """A textual edit-script label tagged with its scheme, and the plan its
    encoder passed, which is not part of its value."""

    scheme: Scheme
    text: str
    plan: tuple | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("label text must be non-empty")


@dataclass(frozen=True, slots=True)
class Token:
    form: str                 # surface wordform, never empty
    lemma: str | None = None  # gold lemma; None when the treebank masks it
    upos: str = ""            # universal POS tag, "" when absent
    index: int = 1            # 1-based position within the sentence


@dataclass(frozen=True, slots=True)
class Sentence:
    tokens: tuple[Token, ...]
    comments: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Corpus:
    sentences: tuple[Sentence, ...] = ()
    source_name: str = ""

    @property
    def token_count(self) -> int:
        """Total retained tokens across all sentences."""
        return sum(len(s.tokens) for s in self.sentences)

    @property
    def sentence_count(self) -> int:
        return len(self.sentences)


@dataclass(frozen=True, slots=True)
class LabeledToken:
    form: str
    gold_lemma: str
    label: SesLabel


@dataclass(frozen=True, slots=True)
class LabeledCorpus:
    scheme: Scheme
    sentences: tuple[tuple[LabeledToken, ...], ...] = ()

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True, slots=True)
class LabelFailure:
    """One token whose label did not decode back to the gold lemma."""

    sentence_index: int  # 0-based sentence position
    token_index: int     # the token's 1-based index within its sentence
    reason: str


@dataclass(frozen=True, slots=True)
class BaselineModel:
    scheme: Scheme
    per_form: dict[str, str]  # lowercased form -> most frequent label text
    fallback: str             # corpus-wide most frequent label text


@dataclass(slots=True)
class PredictionStats:
    tokens: int = 0
    fallback_uses: int = 0
    decode_failures: int = 0


@dataclass(frozen=True, slots=True)
class EvalReport:
    word_accuracy: float
    sentence_accuracy: float
    token_total: int
    sentence_total: int
    inv_accuracy: float | None = None  # set when score_counts splits by train forms
    oov_accuracy: float | None = None


@dataclass(frozen=True, slots=True)
class McNemarResult:
    b: int            # first system correct, second wrong
    c: int            # first system wrong, second correct
    statistic: float
    p_value: float
    alpha: float
    significant: bool


@dataclass(frozen=True, slots=True)
class LabelVocabulary:
    scheme: Scheme
    counts: dict[str, int]

    @property
    def unique_count(self) -> int:
        return len(self.counts)

    @property
    def token_total(self) -> int:
        return sum(self.counts.values())


@dataclass(frozen=True, slots=True)
class OovReport:
    oov_word_rate: float
    oov_lemma_rate: float
    oov_ses_rate: float
    # among test tokens with unseen lemma: fraction whose label occurs in train
    oov_lemma_with_seen_ses_rate: float
    oov_lemma_subset_empty: bool  # the rate above had an empty denominator
    token_total: int
