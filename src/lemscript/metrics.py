"""Evaluation machinery: accuracies, label vocabularies, significance, OOV.

Lemma comparison is case-sensitive character equality throughout. The
McNemar statistic uses the continuity-corrected chi-square form
(|b - c| - 1)^2 / (b + c); its one-degree-of-freedom survival value is
erfc(sqrt(statistic / 2)), so no numerics library is needed.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import eq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus_io import LabeledCorpus, LabeledToken
from .errors import EmptyEval, LengthMismatch, SchemeMismatch, StructureMismatch
from .model import Scheme

Row = tuple[int, bool, bool]  # a count of positions, and two facts true of each


class EvalReport(NamedTuple):
    word_accuracy: float
    sentence_accuracy: float
    token_total: int
    sentence_total: int
    inv_accuracy: float | None = None  # set when score_counts splits by train forms
    oov_accuracy: float | None = None


class McNemarResult(NamedTuple):
    b: int            # first system correct, second wrong
    c: int            # first system wrong, second correct
    statistic: float
    p_value: float
    alpha: float
    significant: bool


class LabelVocabulary(NamedTuple):
    scheme: Scheme
    counts: dict[str, int]

    @property
    def unique_count(self) -> int:
        return len(self.counts)

    @property
    def token_total(self) -> int:
        return sum(self.counts.values())


class OovReport(NamedTuple):
    oov_word_rate: float
    oov_lemma_rate: float
    oov_ses_rate: float
    # among test tokens with unseen lemma: fraction whose label occurs in train
    oov_lemma_with_seen_ses_rate: float
    oov_lemma_subset_empty: bool  # the rate above had an empty denominator
    token_total: int


def word_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold lemmas vs {len(pred)} predictions")
    return _tally(zip(repeat(1), map(eq, gold, pred), repeat(False)))[0]


def sentence_accuracy(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> float:
    return _sentence_rate(list(_sentence_hits(gold, pred)))


def score_counts(rows: Iterable[Row], sentence_hits: Iterable[bool], split: bool) -> EvalReport:
    """The count core of the CLI's eval and compare: each (count, correct, seen in
    training) row stands for count tokens, and each sentence hit says whether
    a sentence is fully right. With split, the INV/OOV accuracies are set."""
    word, inv, oov, total = _tally(rows)
    hits = list(sentence_hits)
    return EvalReport(word, _sentence_rate(hits), total, len(hits), *((inv, oov) if split else ()))


def mcnemar(b: int, c: int, alpha: float = 0.05) -> McNemarResult:
    """Continuity-corrected McNemar test over the disagreement counts."""
    if b < 0 or c < 0:
        raise ValueError("disagreement counts must be non-negative")
    if not 0 < alpha < 1:  # NaN fails this too
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if b + c == 0:
        statistic, p_value = 0.0, 1.0
    else:
        statistic = (abs(b - c) - 1) ** 2 / (b + c)
        p_value = math.erfc(math.sqrt(statistic / 2))  # chi-square(1) survival
    return McNemarResult(b, c, statistic, p_value, alpha, p_value < alpha)


def paired_outcomes(
    gold: Sequence[str], pred_a: Sequence[str], pred_b: Sequence[str]
) -> tuple[int, int]:
    """Count positions where exactly one system is correct: (b, c)."""
    if not (len(gold) == len(pred_a) == len(pred_b)):
        raise LengthMismatch(
            f"lengths differ: gold {len(gold)}, a {len(pred_a)}, b {len(pred_b)}"
        )
    return paired_counts(zip(repeat(1), map(eq, pred_a, gold), map(eq, pred_b, gold)))


def paired_counts(rows: Iterable[Row]) -> tuple[int, int]:
    """(b, c) over (count, first right, second right) rows: the count core of
    paired_outcomes and of the CLI's mcnemar and compare."""
    b = c = 0
    for n, a_ok, b_ok in rows:
        if a_ok and not b_ok:
            b += n
        elif b_ok and not a_ok:
            c += n
    return b, c


def _sentence_hits(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> Iterator[bool]:
    """Whether each predicted sentence is fully right; sentences must align."""
    if len(gold) != len(pred):
        raise StructureMismatch(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    for idx, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps):
            raise StructureMismatch(
                f"sentence {idx}: {len(gs)} gold tokens vs {len(ps)} predicted"
            )
        yield all(g == p for g, p in zip(gs, ps))


def _sentence_rate(hits: list[bool]) -> float:
    if not hits:
        raise EmptyEval("sentence accuracy over zero sentences is undefined")
    return sum(hits) / len(hits)


def unique_labels(labeled: LabeledCorpus) -> LabelVocabulary:
    counts = Counter(tok.label.text for sentence in labeled.sentences for tok in sentence)
    return LabelVocabulary(labeled.scheme, dict(counts))


def oov_report(train: LabeledCorpus, test: LabeledCorpus) -> OovReport:
    train_scheme, test_scheme = Scheme(train.scheme), Scheme(test.scheme)
    if train_scheme is not test_scheme:
        raise SchemeMismatch(f"train is {train_scheme.value}, test is {test_scheme.value}")
    return oov_counts(
        (tok for sentence in train.sentences for tok in sentence),
        ((tok, 1) for sentence in test.sentences for tok in sentence),
    )


def oov_counts(
    train: Iterable[LabeledToken], test: Iterable[tuple[LabeledToken, int]]
) -> OovReport:
    """The count core of oov_report and compare; each test row stands for count tokens."""
    train_forms: set[str] = set()
    train_lemmas: set[str] = set()
    train_labels: set[str] = set()
    for tok in train:
        train_forms.add(tok.form)
        train_lemmas.add(tok.gold_lemma)
        train_labels.add(tok.label.text)

    total = oov_word = oov_lemma = oov_ses = oov_lemma_seen_ses = 0
    for tok, n in test:
        total += n
        if tok.form not in train_forms:
            oov_word += n
        if tok.gold_lemma not in train_lemmas:
            oov_lemma += n
            if tok.label.text in train_labels:
                oov_lemma_seen_ses += n
        if tok.label.text not in train_labels:
            oov_ses += n
    if total == 0:
        raise EmptyEval("oov report over an empty test corpus is undefined")
    subset_empty = oov_lemma == 0
    return OovReport(
        oov_word_rate=oov_word / total,
        oov_lemma_rate=oov_lemma / total,
        oov_ses_rate=oov_ses / total,
        oov_lemma_with_seen_ses_rate=1.0 if subset_empty else oov_lemma_seen_ses / oov_lemma,
        oov_lemma_subset_empty=subset_empty,
        token_total=total,
    )


def inv_oov_accuracy(
    train_forms: set[str],
    forms: Sequence[str],
    gold: Sequence[str],
    pred: Sequence[str],
) -> tuple[float | None, float | None]:
    """Word accuracy split over forms seen/unseen in training.

    An empty partition is reported as None rather than zero.
    """
    if not (len(forms) == len(gold) == len(pred)):
        raise LengthMismatch(
            f"lengths differ: forms {len(forms)}, gold {len(gold)}, pred {len(pred)}"
        )
    if not forms:
        return None, None
    seen = (form in train_forms for form in forms)
    return _tally(zip(repeat(1), map(eq, gold, pred), seen))[1:3]


def _tally(rows: Iterable[Row]) -> tuple[float, float | None, float | None, int]:
    """Word, INV and OOV accuracy and the token total of (count, correct,
    seen) rows; an empty INV or OOV part gives None."""
    total = hits = inv_total = inv_hits = 0
    for n, ok, seen in rows:
        total += n
        hits += n * ok
        if seen:
            inv_total += n
            inv_hits += n * ok
    if not total:
        raise EmptyEval("word accuracy over zero tokens is undefined")
    oov_total = total - inv_total
    inv = inv_hits / inv_total if inv_total else None
    oov = (hits - inv_hits) / oov_total if oov_total else None
    return hits / total, inv, oov, total


def format_percent(rate: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. '7.85%'."""
    return f"{rate * 100:.2f}%"

