"""Evaluation machinery: accuracies, label vocabularies, significance, OOV.

Lemma comparison is case-sensitive character equality throughout. The
McNemar statistic uses the continuity-corrected chi-square form
(|b - c| - 1)^2 / (b + c); its one-degree-of-freedom survival value is
erfc(sqrt(statistic / 2)), so no numerics library is needed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .corpus_io import LabeledCorpus
from .errors import EmptyEval, LengthMismatch, SchemeMismatch, StructureMismatch
from .model import Corpus, Scheme


@dataclass(frozen=True, slots=True)
class EvalReport:
    word_accuracy: float
    sentence_accuracy: float
    token_total: int
    sentence_total: int
    inv_accuracy: float | None = None  # set when evaluate is given train forms
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


def word_accuracy(gold: Sequence[str], pred: Sequence[str]) -> float:
    if len(gold) != len(pred):
        raise LengthMismatch(f"{len(gold)} gold lemmas vs {len(pred)} predictions")
    if not gold:
        raise EmptyEval("word accuracy over zero tokens is undefined")
    hits = sum(1 for g, p in zip(gold, pred) if g == p)
    return hits / len(gold)


def sentence_accuracy(
    gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]
) -> float:
    hits = _sentence_hits(gold, pred)
    if not hits:
        raise EmptyEval("sentence accuracy over zero sentences is undefined")
    return sum(hits) / len(hits)


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
    word = word_accuracy(flat_gold, flat_pred)
    sentence = sentence_accuracy(lemmas, pred)
    inv = oov = None
    if train_forms is not None:
        forms = [t.form for s in gold.sentences for t in s.tokens if t.lemma is not None]
        inv, oov = inv_oov_accuracy(train_forms, forms, flat_gold, flat_pred)
    return EvalReport(word, sentence, len(flat_gold), len(lemmas), inv, oov)


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
    b = c = 0
    for g, pa, pb in zip(gold, pred_a, pred_b):
        a_ok = pa == g
        b_ok = pb == g
        if a_ok and not b_ok:
            b += 1
        elif b_ok and not a_ok:
            c += 1
    return b, c


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
    all_right = [True] * len(gold)
    return paired_outcomes(all_right, _sentence_hits(gold, pred_a), _sentence_hits(gold, pred_b))


def _sentence_hits(gold: Sequence[Sequence[str]], pred: Sequence[Sequence[str]]) -> list[bool]:
    """Whether each predicted sentence is fully right; sentences must align."""
    if len(gold) != len(pred):
        raise StructureMismatch(f"{len(gold)} gold sentences vs {len(pred)} predicted")
    hits = []
    for idx, (gs, ps) in enumerate(zip(gold, pred)):
        if len(gs) != len(ps):
            raise StructureMismatch(
                f"sentence {idx}: {len(gs)} gold tokens vs {len(ps)} predicted"
            )
        hits.append(all(g == p for g, p in zip(gs, ps)))
    return hits


def unique_labels(labeled: LabeledCorpus) -> LabelVocabulary:
    counts = Counter(tok.label.text for sentence in labeled.sentences for tok in sentence)
    return LabelVocabulary(labeled.scheme, dict(counts))


def oov_report(train: LabeledCorpus, test: LabeledCorpus) -> OovReport:
    if train.scheme is not test.scheme:
        raise SchemeMismatch(
            f"train is {train.scheme.value}, test is {test.scheme.value}"
        )
    train_forms: set[str] = set()
    train_lemmas: set[str] = set()
    train_labels: set[str] = set()
    for sentence in train.sentences:
        for tok in sentence:
            train_forms.add(tok.form)
            train_lemmas.add(tok.gold_lemma)
            train_labels.add(tok.label.text)

    total = oov_word = oov_lemma = oov_ses = oov_lemma_seen_ses = 0
    for sentence in test.sentences:
        for tok in sentence:
            total += 1
            if tok.form not in train_forms:
                oov_word += 1
            if tok.gold_lemma not in train_lemmas:
                oov_lemma += 1
                if tok.label.text in train_labels:
                    oov_lemma_seen_ses += 1
            if tok.label.text not in train_labels:
                oov_ses += 1
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
    inv_hits = inv_total = oov_hits = oov_total = 0
    for form, g, p in zip(forms, gold, pred):
        if form in train_forms:
            inv_total += 1
            inv_hits += g == p
        else:
            oov_total += 1
            oov_hits += g == p
    inv = inv_hits / inv_total if inv_total else None
    oov = oov_hits / oov_total if oov_total else None
    return inv, oov


def format_percent(rate: float) -> str:
    """Render a fraction as a percentage with two decimals, e.g. '7.85%'."""
    return f"{rate * 100:.2f}%"


def _flatten(sentences: Sequence[Sequence[str]]) -> list[str]:
    return [item for sentence in sentences for item in sentence]
