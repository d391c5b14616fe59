"""Frequency baseline: most frequent label per lowercased wordform.

Stands in for a trained classifier so the encode -> classify -> decode ->
evaluate loop runs end to end. Prediction backs off to the corpus-wide
most frequent label for unseen forms, and to the identity lemma when a
label cannot be applied to the word at all; those decode failures are
counted, never raised.

predict_rows streams the CLI's predict, holding the model, the distinct
forms with their finished rows, and one sentence.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from types import SimpleNamespace
from typing import IO, Iterable, NamedTuple

from . import schemes
from .corpus_io import LabeledCorpus, LabeledToken, conllu_rows
from .errors import EmptyCorpus, FormatError
from .model import Corpus, Scheme, SesLabel


class BaselineModel(NamedTuple):
    scheme: Scheme
    per_form: dict[str, str]  # lowercased form -> most frequent label text
    fallback: str             # corpus-wide most frequent label text


class PredictionStats(SimpleNamespace):
    """Mutable per-run counts, compared and shown field by field."""

    def __init__(self, tokens: int = 0, fallback_uses: int = 0, decode_failures: int = 0):
        super().__init__(tokens=tokens, fallback_uses=fallback_uses,
                         decode_failures=decode_failures)


def train_baseline(labeled: LabeledCorpus) -> BaselineModel:
    """Ties break toward the lexicographically smallest label text (see train_counts)."""
    return train_counts(labeled.scheme, ((tok, 1) for s in labeled.sentences for tok in s))


def train_counts(scheme: Scheme, rows: Iterable[tuple[LabeledToken, int]]) -> BaselineModel:
    """The model from (LabeledToken, count) rows, each standing for count
    tokens: the count core of train_baseline and the CLI."""
    pairs: dict[tuple[str, str], int] = {}  # token count per (lowercased form, label text)
    for tok, n in rows:
        key = tok.form.lower(), tok.label.text
        pairs[key] = pairs.get(key, 0) + n
    per_form: dict[str, str] = {}
    top: dict[str, int] = {}  # the count of each form's best text so far
    overall: dict[str, int] = {}
    for (form, text), n in pairs.items():
        overall[text] = overall.get(text, 0) + n
        best = top.get(form, 0)
        if n > best or (n == best and text < per_form[form]):
            per_form[form] = text
            top[form] = n
    if not overall:
        raise EmptyCorpus("cannot train a baseline on zero labeled tokens")
    return BaselineModel(scheme, per_form, _majority(overall))


def predict_lemma(model: BaselineModel, form: str) -> tuple[str, bool]:
    """Predict one lemma; returns (lemma, used_fallback)."""
    lemma, used_fallback, _ = _predict(model, form, {})
    return lemma, used_fallback


def predict_corpus(
    model: BaselineModel, corpus: Corpus, lemmatized_only: bool = False
) -> tuple[list[list[str]], PredictionStats]:
    """Predict lemmas sentence by sentence, aggregating failure counts.

    With lemmatized_only, tokens lacking a gold lemma are skipped so the
    output aligns with evaluation over gold-lemmatized tokens. A shell over
    predict_forms; the stats count tokens.
    """
    forms = [
        [tok.form for tok in sentence.tokens if not lemmatized_only or tok.lemma is not None]
        for sentence in corpus.sentences
    ]
    tally = Counter(itertools.chain.from_iterable(forms))
    predicted = predict_forms(model, tally)
    stats = PredictionStats(tally.total())
    for form, n in tally.items():
        _, used_fallback, failed = predicted[form]
        stats.fallback_uses += n * used_fallback
        stats.decode_failures += n * failed
    return [[predicted[form][0] for form in row] for row in forms], stats


def predict_forms(model: BaselineModel, forms: Iterable[str]) -> dict[str, tuple[str, bool, bool]]:
    """(lemma, used_fallback, decode_failed) for each distinct form, each predicted once."""
    labels: dict[str, SesLabel] = {}
    return {form: _predict(model, form, labels) for form in dict.fromkeys(forms)}


def predict_rows(lines: Iterable[str], model: BaselineModel, out: IO[str]) -> int:
    """Write form<TAB>lemma rows sentence by sentence as they are read, each
    distinct form predicted once; return how many got the identity lemma."""
    labels: dict = {}
    rows: dict[str, str] = {}  # form -> its finished row
    fell_back: set[str] = set()  # the forms whose label failed to decode
    failures = 0
    for sentence, _ in conllu_rows(lines):
        text = []
        for cols in sentence:
            form = cols[1]
            row = rows.get(form)
            if row is None:
                lemma, _, failed = _predict(model, form, labels)
                row = rows[form] = f"{form}\t{lemma}\n"
                if failed:
                    fell_back.add(form)
            text.append(row)
            failures += form in fell_back
        out.write("".join(text) + "\n")
    return failures


def save_model(model: BaselineModel, fp: IO[str]) -> None:
    payload = {
        "scheme": Scheme(model.scheme).value,
        "fallback": model.fallback,
        "per_form": model.per_form,
    }
    json.dump(payload, fp, ensure_ascii=False, sort_keys=True, indent=2)
    fp.write("\n")


def load_model(fp: IO[str]) -> BaselineModel:
    """Read save_model output.

    Invalid JSON is reported at its line; a document that parses but is
    not a model is reported at line 1.
    """
    try:
        payload = json.load(fp)
        scheme = Scheme(payload["scheme"])
        per_form, fallback = payload["per_form"], payload["fallback"]
    except json.JSONDecodeError as exc:
        raise FormatError(exc.lineno, f"invalid model JSON: {exc.msg}") from None
    except (LookupError, TypeError, ValueError) as exc:
        raise FormatError(1, f"not a baseline model: {type(exc).__name__}: {exc}") from None
    if not isinstance(per_form, dict):
        raise FormatError(1, "not a baseline model: per_form is not a JSON object")
    if not all(isinstance(text, str) and text for text in (fallback, *per_form.values())):
        raise FormatError(1, "model labels must be non-empty strings")
    return BaselineModel(scheme, per_form, fallback)


def _majority(counts: dict[str, int]) -> str:
    top = max(counts.values())
    return min(text for text, n in counts.items() if n == top)


def _predict(
    model: BaselineModel, form: str, labels: dict[str, SesLabel]
) -> tuple[str, bool, bool]:
    """Predict one lemma; labels maps each label text to its SesLabel and grows."""
    text = model.per_form.get(form.lower())
    used_fallback = text is None
    if used_fallback:
        text = model.fallback
    label = labels.get(text)
    if label is None:
        label = labels[text] = SesLabel(model.scheme, text)
    lemma, failed = schemes.decode_or_form(form, label)
    return lemma, used_fallback, failed
