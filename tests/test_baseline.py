from __future__ import annotations

import io
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import corpus_of
from lemscript import schemes
from lemscript.baseline import (
    PredictionStats,
    load_model,
    predict_corpus,
    predict_lemma,
    save_model,
    train_baseline,
)
from lemscript.corpus_io import LabeledCorpus, LabeledToken, label_corpus
from lemscript.errors import EmptyCorpus, LabelDecodeError
from lemscript.model import Corpus, Scheme, Sentence, SesLabel, Token


def _train(pairs, scheme):
    labeled, failures = label_corpus(corpus_of(pairs), scheme)
    assert failures == []
    return train_baseline(labeled)


def test_per_form_majority():
    tokens = [
        LabeledToken("cats", "cat", SesLabel(Scheme.IXAPIPES, "D0s")),
        LabeledToken("cats", "cat", SesLabel(Scheme.IXAPIPES, "D0s")),
        LabeledToken("cats", "cats", SesLabel(Scheme.IXAPIPES, "O")),
    ]
    model = train_baseline(LabeledCorpus(Scheme.IXAPIPES, (tuple(tokens),)))
    assert model.per_form["cats"] == "D0s"


def test_tie_breaks_lexicographically():
    tokens = [
        LabeledToken("x", "x", SesLabel(Scheme.IXAPIPES, "B")),
        LabeledToken("x", "x", SesLabel(Scheme.IXAPIPES, "A")),
    ]
    model = train_baseline(LabeledCorpus(Scheme.IXAPIPES, (tuple(tokens),)))
    assert model.per_form["x"] == "A"
    assert model.fallback == "A"


def _ixa_corpus(pairs):
    tokens = (LabeledToken(form, form, SesLabel(Scheme.IXAPIPES, text)) for form, text in pairs)
    return LabeledCorpus(Scheme.IXAPIPES, (tuple(tokens),))


@pytest.mark.parametrize(
    "pairs", list(permutations([("Cats", "A"), ("cats", "B"), ("CATS", "A")]))
)
def test_case_variants_merge_into_a_win(pairs):
    assert train_baseline(_ixa_corpus(pairs)).per_form == {"cats": "A"}


@pytest.mark.parametrize("pairs", list(permutations([("Cats", "B"), ("cats", "A")])))
def test_case_variants_merge_into_a_tie(pairs):
    model = train_baseline(_ixa_corpus(pairs))
    assert model.per_form == {"cats": "A"}
    assert model.fallback == "A"


def test_fallback_tie_breaks_lexicographically():
    # B and A each label two forms, C one; every form has one label
    pairs = [("x", "B"), ("y", "C"), ("z", "A"), ("w", "B"), ("v", "A")]
    model = train_baseline(_ixa_corpus(pairs))
    assert model.per_form == dict(pairs)
    assert model.fallback == "A"


def test_form_keys_are_lowercased():
    model = _train([("Cats", "cat")], Scheme.UDPIPE)
    assert set(model.per_form) == {"cats"}
    lemma, used_fallback = predict_lemma(model, "CATS")
    assert not used_fallback
    assert lemma == "cat"


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpus):
        train_baseline(LabeledCorpus(Scheme.UDPIPE))


@pytest.mark.parametrize("scheme", [Scheme.UDPIPE, Scheme.IXAPIPES])
def test_fallback_generalizes_plural(scheme):
    model = _train([("cats", "cat"), ("birds", "bird")], scheme)
    lemma, used_fallback = predict_lemma(model, "dogs")
    assert used_fallback
    assert lemma == "dog"


def test_morpheus_fallback_depends_on_arity():
    model = _train([("cats", "cat"), ("birds", "bird")], Scheme.MORPHEUS)
    # ties at one occurrence each; "s|s|s|d" sorts before "s|s|s|s|d"
    assert model.fallback == "s|s|s|d"
    lemma, used_fallback = predict_lemma(model, "dogs")
    assert used_fallback and lemma == "dog"  # arity happens to match
    lemma, used_fallback = predict_lemma(model, "a")
    assert used_fallback and lemma == "a"  # arity mismatch, identity backoff

    corpus = corpus_of([("dogs", "dog"), ("a", "a")])
    pred, stats = predict_corpus(model, corpus, lemmatized_only=True)
    assert pred == [["dog", "a"]]
    assert stats.decode_failures == 1
    assert stats.fallback_uses == 2


def test_seen_form_uses_training_majority():
    model = _train([("cats", "cat"), ("birds", "bird")], Scheme.UDPIPE)
    lemma, used_fallback = predict_lemma(model, "cats")
    assert not used_fallback
    assert lemma == "cat"


def test_training_accuracy_on_unambiguous_forms(comparison_corpus):
    for scheme in Scheme:
        labeled, _ = label_corpus(comparison_corpus, scheme)
        model = train_baseline(labeled)
        pred, stats = predict_corpus(model, comparison_corpus, lemmatized_only=True)
        gold = [
            [t.lemma for t in s.tokens] for s in comparison_corpus.sentences
        ]
        assert pred == gold, scheme
        assert stats.decode_failures == 0


def test_model_json_roundtrip():
    model = _train([("cats", "cat"), ("Wolak", "Wolak")], Scheme.UDPIPE)
    buf = io.StringIO()
    save_model(model, buf)
    buf.seek(0)
    again = load_model(buf)
    assert again == model
    assert buf.getvalue().startswith("{")


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_model_with_a_scheme_given_as_its_value_saves_and_predicts(scheme):
    labeled, _ = label_corpus(corpus_of([("cats", "cat"), ("birds", "bird")]), scheme)
    model = train_baseline(LabeledCorpus(scheme.value, labeled.sentences))
    assert predict_lemma(model, "cats") == ("cat", False)
    assert predict_lemma(model, "dogs") == predict_lemma(train_baseline(labeled), "dogs")
    plain, enum = io.StringIO(), io.StringIO()
    save_model(model, plain)
    save_model(model._replace(scheme=scheme), enum)
    assert plain.getvalue() == enum.getvalue()
    plain.seek(0)
    assert load_model(plain).scheme is scheme


# --- the per-distinct-key paths against naive per-token references ----------

def _naive_predict(model, corpus, lemmatized_only):
    """predict_corpus as a per-token loop over predict_lemma."""
    out, stats = [], PredictionStats()
    for sentence in corpus.sentences:
        row = []
        for tok in sentence.tokens:
            if lemmatized_only and tok.lemma is None:
                continue
            lemma, used_fallback = predict_lemma(model, tok.form)
            text = model.fallback if used_fallback else model.per_form[tok.form.lower()]
            try:
                schemes.decode(tok.form, SesLabel(model.scheme, text))
            except LabelDecodeError:
                stats.decode_failures += 1
            stats.tokens += 1
            stats.fallback_uses += used_fallback
            row.append(lemma)
        out.append(row)
    return out, stats


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("lemmatized_only", [False, True])
def test_memoized_predict_matches_a_per_token_loop(scheme, lemmatized_only):
    model = _train([("cats", "cat"), ("did", "do"), ("walked", "walk"), ("jumped", "jump")], scheme)
    # repeated seen forms, a seen form whose label may not fit its casing
    # (CATS), unseen forms, one too short for every fallback label (a),
    # and tokens without a gold lemma
    forms = ["cats", "CATS", "a", "dogs", "did", "cats", "a", "dogs", "xyzzy", "CATS"]
    tokens = [
        Token(form, None if i % 4 == 3 else form, index=i % 5 + 1) for i, form in enumerate(forms)
    ]
    corpus = Corpus(tuple(Sentence(tuple(tokens[i : i + 5])) for i in range(0, 10, 5)))
    got = predict_corpus(model, corpus, lemmatized_only)
    want = _naive_predict(model, corpus, lemmatized_only)
    assert got == want
    stats = got[1]
    assert stats.fallback_uses > 0 and stats.decode_failures > 0


def _naive_train(labeled):
    """train_baseline as a per-token count, one Counter per form."""
    by_form, overall = {}, Counter()
    for sentence in labeled.sentences:
        for tok in sentence:
            by_form.setdefault(tok.form.lower(), Counter())[tok.label.text] += 1
            overall[tok.label.text] += 1

    def majority(counts):
        best = max(counts.values())
        return min(text for text, n in counts.items() if n == best)

    return {form: majority(c) for form, c in by_form.items()}, majority(overall)


_LABELED_TOKENS = st.builds(
    LabeledToken,
    st.sampled_from(["cats", "Cats", "CATS", "dog", "Dog", "a"]),
    st.sampled_from(["cat", "dog", "a"]),
    st.builds(SesLabel, st.just(Scheme.UDPIPE), st.sampled_from(["A", "B", "C", "D0s"])),
)


@given(
    st.lists(
        st.lists(st.one_of(_LABELED_TOKENS, st.integers(0, 5)), max_size=8),
        min_size=1,
        max_size=6,
    )
)
def test_train_baseline_matches_a_per_token_count(rows):
    # an integer k repeats the k-th token seen so far, object and all, as
    # label_corpus does for a repeated pair
    seen, sentences = [], []
    for row in rows:
        sentence = []
        for item in row:
            if isinstance(item, int):
                if not seen:
                    continue
                item = seen[item % len(seen)]
            seen.append(item)
            sentence.append(item)
        sentences.append(tuple(sentence))
    labeled = LabeledCorpus(Scheme.UDPIPE, tuple(sentences))
    if not seen:
        with pytest.raises(EmptyCorpus):
            train_baseline(labeled)
        return
    model = train_baseline(labeled)
    assert (model.per_form, model.fallback) == _naive_train(labeled)
