"""`lemscript compare` against a reference built from the token-level functions.

compare works on the distinct (form, lemma) pairs and their counts; the
reference below labels, trains, predicts and scores token by token with
the public library functions, so any difference in how counts stand for
tokens shows up as a different report.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lemscript import baseline, corpus_io, metrics
from lemscript.cli import main
from lemscript.errors import EmptyCorpus, EmptyEval, LemscriptError
from lemscript.model import Scheme
from reference import evaluate, gold_lemmas, paired_mcnemar

# case variants of one form, a form that only some schemes' fallbacks fit,
# and proper nouns whose lemmas --adjust-propn changes
FORMS = ["cats", "Cats", "CATS", "dogs", "did", "Did", "horses", "Paris", "Çat", "a"]
# None is an absent lemma ("_"); "" is an empty LEMMA column, which no scheme
# encodes; "çat" starts with a non-ASCII lowercase letter and "ßad" with a
# letter that has no one-character uppercase, which --adjust-propn keeps
LEMMAS = ["cat", "dog", "do", "horse", "paris", "Paris", "çat", "ßad", "a", "cats", None, ""]

TOKENS = st.tuples(
    st.sampled_from(FORMS), st.sampled_from(LEMMAS), st.sampled_from(["NOUN", "PROPN", "VERB"])
)
DOCUMENTS = st.lists(st.lists(TOKENS, min_size=1, max_size=5), max_size=6)


def conllu(sentences) -> str:
    return "".join(
        "".join(
            f"{i}\t{form}\t{'_' if lemma is None else lemma}\t{upos}\t_\t_\t_\t_\t_\t_\n"
            for i, (form, lemma, upos) in enumerate(sentence, 1)
        )
        + "\n"
        for sentence in sentences
    )


def reference(train_path: str, test_path: str, granularity: str, adjust: bool) -> dict:
    """The compare report, computed token by token."""
    corpora = {}
    report: dict = {"schemes": {}, "mcnemar": {}}
    for key, path in (("train", train_path), ("test", test_path)):
        corpus = corpus_io.read_conllu(path)
        corpora[key] = corpus_io.adjust_propn_lemmas(corpus) if adjust else corpus
        report[key] = {
            "path": path,
            "tokens": corpora[key].token_count,
            "sentences": corpora[key].sentence_count,
        }
    train, test = corpora["train"], corpora["test"]
    predictions = {}
    for scheme in Scheme:
        train_labeled, train_failures = corpus_io.label_corpus(train, scheme)
        test_labeled, test_failures = corpus_io.label_corpus(test, scheme)
        model = baseline.train_baseline(train_labeled)
        pred, stats = baseline.predict_corpus(model, test, lemmatized_only=True)
        seen = {tok.form for sentence in train_labeled.sentences for tok in sentence}
        scores = evaluate(test, pred, seen)
        oov = metrics.oov_report(train_labeled, test_labeled)
        predictions[scheme.value] = pred
        report["schemes"][scheme.value] = {
            "unique_labels": metrics.unique_labels(train_labeled).unique_count,
            "encode_failures": len(train_failures) + len(test_failures),
            "baseline": {
                "word_accuracy": scores.word_accuracy,
                "sentence_accuracy": scores.sentence_accuracy,
                "inv_accuracy": scores.inv_accuracy,
                "oov_accuracy": scores.oov_accuracy,
                "fallback_uses": stats.fallback_uses,
                "decode_failures": stats.decode_failures,
            },
            "oov": {
                "word_rate": oov.oov_word_rate,
                "lemma_rate": oov.oov_lemma_rate,
                "ses_rate": oov.oov_ses_rate,
                "lemma_with_seen_ses_rate": oov.oov_lemma_with_seen_ses_rate,
                "lemma_subset_empty": oov.oov_lemma_subset_empty,
            },
        }
    gold = gold_lemmas(test)
    for first, second in itertools.combinations([s.value for s in Scheme], 2):
        result = paired_mcnemar(
            gold, predictions[first], predictions[second], granularity, 0.05
        )
        report["mcnemar"][f"{first}_vs_{second}"] = {"granularity": granularity, **result._asdict()}
    return report


# main() runs in process: a slow example would fail Hypothesis's default
# 200 ms deadline, which checks nothing of lemscript
@settings(deadline=None)
@given(
    train=DOCUMENTS,
    test=DOCUMENTS,
    same=st.booleans(),
    granularity=st.sampled_from(["word", "sentence"]),
    adjust=st.booleans(),
)
def test_compare_matches_the_token_level_reference(train, test, same, granularity, adjust):
    with tempfile.TemporaryDirectory() as tmp:
        train_path = str(Path(tmp, "train.conllu"))
        test_path = train_path if same else str(Path(tmp, "test.conllu"))
        Path(train_path).write_text(conllu(train), encoding="utf-8")
        if not same:
            Path(test_path).write_text(conllu(test), encoding="utf-8")
        out = Path(tmp, "report.json")
        argv = ["compare", train_path, test_path, "--granularity", granularity, "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + (["--adjust-propn"] if adjust else []))
        try:
            expected = reference(train_path, test_path, granularity, adjust)
        except LemscriptError as exc:
            # an empty train side names the train file, an empty test side the test file
            path = {EmptyCorpus: train_path, EmptyEval: test_path}[type(exc)]
            assert code == 2
            assert err.getvalue() == f"error: {path}: {exc}\n"
            return
        assert code == 0, err.getvalue()
        assert json.loads(out.read_text(encoding="utf-8")) == expected


@pytest.mark.parametrize("adjust", [[], ["--adjust-propn"]])
def test_compare_builds_no_token(tmp_path, monkeypatch, adjust):
    def no_token(*args):
        raise AssertionError("compare built a Token")

    monkeypatch.setattr(corpus_io, "Token", no_token)
    data = tmp_path / "data.conllu"
    data.write_text(conllu([[("Paris", "paris", "PROPN"), ("cats", "cat", "NOUN")]]), "utf-8")
    out = tmp_path / "report.json"
    assert main(["compare", str(data), str(data), "--out", str(out), *adjust]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["train"]["tokens"] == 2


@pytest.mark.parametrize("granularity", ["word", "sentence"])
def test_compare_matches_the_reference_on_a_synthetic_treebank(tmp_path, granularity):
    from synth import make_stems, synthetic_corpus

    stems = make_stems(3, 300, 3, 9)
    for name, corpus in (
        ("train.conllu", synthetic_corpus(1_500, seed=5, stems=stems)),
        ("test.conllu", synthetic_corpus(400, seed=6, stems=stems[::2] + make_stems(4, 100))),
    ):
        with open(tmp_path / name, "w", encoding="utf-8") as fp:
            corpus_io.write_conllu(corpus, fp)
    train, test, out = (str(tmp_path / n) for n in ("train.conllu", "test.conllu", "r.json"))
    assert main(["compare", train, test, "--granularity", granularity, "--out", out]) == 0
    expected = reference(train, test, granularity, False)
    assert json.loads(Path(out).read_text(encoding="utf-8")) == expected
