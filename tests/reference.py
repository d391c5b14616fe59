"""Token-level references that tests compare the CLI's scoring against.

`lemscript eval` and `mcnemar` read each prediction file as a stream
checked row by row against the gold file's forms; the functions below
score a parsed gold Corpus against lemma lists, sentence by sentence, so
any difference in how the CLI lines predictions up with gold lemmas shows
up as a different report.
"""

from __future__ import annotations

from itertools import repeat
from operator import eq
from typing import IO, Iterable, Sequence

from lemscript.corpus_io import _tsv_sentences
from lemscript.errors import LengthMismatch, StructureMismatch
from lemscript.metrics import (
    EvalReport,
    McNemarResult,
    _sentence_hits,
    mcnemar,
    paired_counts,
    paired_outcomes,
    score_counts,
)
from lemscript.model import Corpus


def gold_lemmas(corpus: Corpus) -> list[list[str]]:
    """Gold lemmas sentence by sentence; tokens without a lemma are left out."""
    return [[t.lemma for t in s.tokens if t.lemma is not None] for s in corpus.sentences]


def evaluate(
    gold: Corpus, pred: Sequence[Sequence[str]], train_forms: set[str] | None = None
) -> EvalReport:
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
) -> McNemarResult:
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
