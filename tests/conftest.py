from __future__ import annotations

import os

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci searches every property deeper; unset, the
# library defaults apply
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from lemscript.model import Corpus, Sentence, Token

# word -> lemma pairs with published labels for all three schemes
COMPARISON_PAIRS = [
    ("cats", "cat"),
    ("birds", "bird"),
    ("did", "do"),
    ("Wolak", "Wolak"),
    ("You", "you"),
]

COMPARISON_LABELS = {
    "udpipe": ["↓0;d¦-", "↓0;d¦-", "↓0;d¦--+o", "↑0¦↓1;d¦", "↓0;d¦"],
    "ixapipes": ["D0s", "D0s", "R1ioD0d", "O", "1"],
    "morpheus": ["s|s|s|d", "s|s|s|s|d", "s|r_o|d", "s|s|s|s|s", "l|s|s"],
}

# the same five pairs as a one-sentence-per-pair CoNLL-U document
COMPARISON_CONLLU = "".join(
    f"# pair {form} -> {lemma}\n1\t{form}\t{lemma}\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
    for form, lemma in COMPARISON_PAIRS
)


def corpus_of(pairs, sentence_size=None):
    """Build a corpus from (form, lemma) pairs; one sentence unless sized."""
    size = sentence_size or len(pairs)
    sentences = []
    row: list[Token] = []
    for form, lemma in pairs:
        row.append(Token(form=form, lemma=lemma, index=len(row) + 1))
        if len(row) == size:
            sentences.append(Sentence(tuple(row)))
            row = []
    if row:
        sentences.append(Sentence(tuple(row)))
    return Corpus(tuple(sentences), "inline")


@pytest.fixture
def comparison_corpus() -> Corpus:
    return corpus_of(COMPARISON_PAIRS, sentence_size=1)
