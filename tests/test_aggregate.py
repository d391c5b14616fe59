"""`lemscript encode`, `stats`, `train`, `eval` and `mcnemar` against
token-level references.

encode, stats and train read each file into compare's table of distinct
(form, lemma) pairs; stats and train weight each pair by its token count,
and encode writes each sentence's rows from its pair ids. The references
below parse a whole corpus with parse_conllu and label it token by token
with label_corpus, so any difference in how counts or ids stand for
tokens shows up as different output. eval and mcnemar stream each
prediction file against the gold file's words, in either prediction
layout; their references score lemma lists against the parsed gold
corpus with tests/reference.py.

Every property runs main() in process and has no Hypothesis deadline: a
slow example would fail the default 200 ms one, which checks nothing of
lemscript.
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
from lemscript.corpus_io import read_file
from lemscript.errors import EmptyEval, LemscriptError
from lemscript.model import Scheme
from reference import evaluate, gold_lemmas, paired_mcnemar, parse_lemmas
from test_compare import DOCUMENTS, conllu

FORMATS = st.sampled_from(["text", "json"])


def run(argv: list[str]) -> tuple[int, str, str]:
    """main(argv) with its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def corpus(path: str, adjust: bool):
    parsed = corpus_io.read_conllu(path)
    return corpus_io.adjust_propn_lemmas(parsed) if adjust else parsed


def stats_reference(path: str, adjust: bool, fmt: str) -> str:
    gold = corpus(path, adjust)
    rows = {}
    for scheme in Scheme:
        labeled, failures = corpus_io.label_corpus(gold, scheme)
        vocab = metrics.unique_labels(labeled)
        rows[scheme.value] = {
            "unique_labels": vocab.unique_count,
            "labeled_tokens": vocab.token_total,
            "encode_failures": len(failures),
        }
    if fmt == "json":
        report = {"token_total": gold.token_count, "sentence_total": gold.sentence_count,
                  "schemes": rows}
        return json.dumps(report, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    lines = [f"tokens: {gold.token_count}  sentences: {gold.sentence_count}",
             f"{'scheme':<10} {'unique_labels':>13} {'labeled_tokens':>14}"]
    lines += [f"{name:<10} {row['unique_labels']:>13} {row['labeled_tokens']:>14}"
              for name, row in rows.items()]
    return "\n".join(lines) + "\n"


@settings(deadline=None)
@given(document=DOCUMENTS, adjust=st.booleans(), fmt=FORMATS)
def test_stats_matches_the_token_level_reference(document, adjust, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "data.conllu"))
        Path(path).write_text(conllu(document), encoding="utf-8")
        flags = ["--format", fmt] + (["--adjust-propn"] if adjust else [])
        assert run(["stats", path, *flags]) == (0, stats_reference(path, adjust, fmt), "")


@settings(deadline=None)
@given(document=DOCUMENTS, adjust=st.booleans(), scheme=st.sampled_from(["all", *Scheme]),
       to_stdout=st.booleans())
def test_encode_matches_the_token_level_reference(document, adjust, scheme, to_stdout):
    targets = list(Scheme) if scheme == "all" else [scheme]
    to_stdout = to_stdout and scheme != "all"
    with tempfile.TemporaryDirectory() as tmp:
        path, report = str(Path(tmp, "data.conllu")), Path(tmp, "failures.json")
        Path(path).write_text(conllu(document), encoding="utf-8")
        out = "-" if to_stdout else str(Path(tmp, "labeled.tsv"))
        argv = ["encode", path, out, "--scheme", getattr(scheme, "value", scheme)]
        argv += ["--failures", str(report)] + (["--adjust-propn"] if adjust else [])
        code, stdout, err = run(argv)
        gold, tsvs, failures = corpus(path, adjust), {}, {}
        for target in targets:
            labeled, failed = corpus_io.label_corpus(gold, target)
            corpus_io.write_labeled(labeled, tsvs.setdefault(target.value, io.StringIO()))
            failures[target.value] = [f._asdict() for f in failed]
        payload = failures if scheme == "all" else failures[scheme.value]
        total = sum(map(len, failures.values()))
        warning = f"{total} token(s) failed to encode\n" if total else ""
        assert (code, err) == (1 if total else 0, warning)
        assert json.loads(report.read_text(encoding="utf-8")) == payload
        if to_stdout:
            assert stdout == tsvs[scheme.value].getvalue()
            return
        names = {t: "labeled.tsv" if len(targets) == 1 else f"labeled.{t}.tsv" for t in tsvs}
        assert stdout == ""
        assert {t: Path(tmp, name).read_text(encoding="utf-8") for t, name in names.items()} == {
            t: buf.getvalue() for t, buf in tsvs.items()}


@settings(deadline=None)
@given(document=DOCUMENTS, adjust=st.booleans(), scheme=st.sampled_from(list(Scheme)))
def test_train_matches_the_token_level_reference(document, adjust, scheme):
    with tempfile.TemporaryDirectory() as tmp:
        path, model = str(Path(tmp, "data.conllu")), Path(tmp, "model.json")
        Path(path).write_text(conllu(document), encoding="utf-8")
        argv = ["train", path, str(model), "--scheme", scheme.value]
        code, out, err = run(argv + (["--adjust-propn"] if adjust else []))
        labeled, failures = corpus_io.label_corpus(corpus(path, adjust), scheme)
        expected = io.StringIO()
        try:
            baseline.save_model(baseline.train_baseline(labeled), expected)
        except LemscriptError as exc:
            assert (code, out, err) == (2, "", f"error: {path}: {exc}\n")
            assert not model.exists()
            return
        warning = f"{len(failures)} token(s) failed to encode and were skipped\n"
        assert (code, out, err) == (0, "", warning if failures else "")
        assert model.read_text(encoding="utf-8") == expected.getvalue()


def write_predictions(path: str, gold, guesses, per_word: bool) -> list[list[str]]:
    """Write a prediction file for the gold sentences, one row per word or one
    per lemmatized word, guessing lemmas in turn from guesses; return each gold
    sentence's guesses for its lemmatized words."""
    guess = itertools.cycle(guesses)
    text, lemmas = [], []
    for sentence in gold:
        rows = [(form, next(guess), lemma is not None)
                for form, lemma, _ in sentence if per_word or lemma is not None]
        text.append("".join(f"{form}\t{lemma}\n" for form, lemma, _ in rows) + "\n")
        lemmas.append([lemma for _, lemma, lemmatized in rows if lemmatized])
    Path(path).write_text("".join(text), encoding="utf-8")
    return lemmas


def eval_reference(gold_path, pred_path, pred, train_path, adjust, fmt) -> tuple[int, str, str]:
    """eval --train's exit code, stdout and stderr for the lemma lists pred,
    from the token-level train forms."""
    train = corpus(train_path, adjust)
    seen = {t.form for s in train.sentences for t in s.tokens if t.lemma is not None}
    try:
        report = evaluate(corpus(gold_path, adjust), pred, seen)
    except LemscriptError as exc:
        # an empty gold side names the gold file, a misaligned one the predictions
        return 2, "", f"error: {gold_path if isinstance(exc, EmptyEval) else pred_path}: {exc}\n"
    if fmt == "json":
        payload = json.dumps(report._asdict(), ensure_ascii=False, sort_keys=True, indent=2)
        return 0, payload + "\n", ""

    def rate(value):
        return f"{value:.4f}" if isinstance(value, float) else "absent"

    return 0, (
        f"word accuracy:     {report.word_accuracy:.4f} ({report.token_total} tokens)\n"
        f"sentence accuracy: {report.sentence_accuracy:.4f} ({report.sentence_total} sentences)\n"
        f"INV accuracy:      {rate(report.inv_accuracy)}\n"
        f"OOV accuracy:      {rate(report.oov_accuracy)}\n"
    ), ""


GUESSES = st.lists(st.sampled_from(["cat", "cats", "Paris", "paris", "do", ""]), min_size=1)


@settings(deadline=None)
@given(
    train=DOCUMENTS,
    gold=DOCUMENTS,
    guesses=GUESSES,
    adjust=st.booleans(),
    fmt=FORMATS,
    per_word=st.booleans(),
)
def test_eval_train_matches_the_token_level_train_forms(train, gold, guesses, adjust, fmt,
                                                        per_word):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp, name)) for name in ("train.conllu", "gold.conllu", "pred.tsv")]
        Path(paths[0]).write_text(conllu(train), encoding="utf-8")
        Path(paths[1]).write_text(conllu(gold), encoding="utf-8")
        lemmas = write_predictions(paths[2], gold, guesses, per_word)
        # with a row per lemmatized word, a sentence with no lemma leaves no
        # rows, so its gold and prediction sentences misalign, as the
        # reference reads the file
        pred = lemmas if per_word else read_file(paths[2], parse_lemmas)
        argv = ["eval", paths[1], paths[2], "--train", paths[0], "--format", fmt]
        result = run(argv + (["--adjust-propn"] if adjust else []))
        assert result == eval_reference(paths[1], paths[2], pred, paths[0], adjust, fmt)


def mcnemar_text(result: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(result, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
    verdict = "significant" if result["significant"] else "not significant"
    return (
        f"b (A right, B wrong): {result['b']}\n"
        f"c (A wrong, B right): {result['c']}\n"
        f"statistic:            {result['statistic']:.4f}\n"
        f"p-value:              {result['p_value']:.4g}\n"
        f"verdict:              {verdict} at alpha={result['alpha']}\n"
    )


@settings(deadline=None)
@given(
    gold=DOCUMENTS,
    guesses=st.tuples(GUESSES, GUESSES),
    per_word=st.tuples(st.booleans(), st.booleans()),
    granularity=st.sampled_from(["word", "sentence"]),
    adjust=st.booleans(),
    fmt=FORMATS,
)
def test_mcnemar_matches_the_token_level_reference(gold, guesses, per_word, granularity,
                                                   adjust, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        gold_path, *paths = [str(Path(tmp, name)) for name in ("gold.conllu", "a.tsv", "b.tsv")]
        Path(gold_path).write_text(conllu(gold), encoding="utf-8")
        preds = [write_predictions(path, gold, guess, layout)
                 for path, guess, layout in zip(paths, guesses, per_word)]
        argv = ["mcnemar", gold_path, *paths, "--granularity", granularity, "--format", fmt]
        result = run(argv + (["--adjust-propn"] if adjust else []))
        lemmas = gold_lemmas(corpus(gold_path, adjust))
        if not any(lemmas):
            message = "no lemmatized token to pair"
            assert result == (2, "", f"error: {gold_path}: {message}\n")
            return
        for path in paths:
            # only a file with a row per lemmatized word, over a gold sentence
            # with no lemma, has fewer sentences than the gold file
            sentences = len(read_file(path, parse_lemmas))
            if sentences != len(gold):
                message = f"{len(gold)} gold sentences vs {sentences} predicted"
                assert result == (2, "", f"error: {path}: {message}\n")
                return
        test = paired_mcnemar(lemmas, *preds, granularity)
        assert result == (0, mcnemar_text({"granularity": granularity, **test._asdict()}, fmt), "")


@pytest.mark.parametrize("adjust", [[], ["--adjust-propn"]])
@pytest.mark.parametrize("command", ["stats", "train", "eval", "mcnemar"])
def test_stats_and_train_build_no_token(tmp_path, monkeypatch, capsys, command, adjust):
    def no_token(*args):
        raise AssertionError(f"{command} built a Token")

    monkeypatch.setattr(corpus_io, "Token", no_token)
    data = tmp_path / "data.conllu"
    data.write_text(conllu([[("Paris", "paris", "PROPN"), ("cats", "cat", "NOUN")]]), "utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("Paris\tParis\ncats\tcat\n\n", "utf-8")
    if command == "stats":
        assert main(["stats", str(data), "--format", "json", *adjust]) == 0
        assert json.loads(capsys.readouterr().out)["token_total"] == 2
        return
    if command == "eval":
        argv = ["eval", str(data), str(pred), "--train", str(data), "--format", "json"]
        assert main(argv + adjust) == 0
        assert json.loads(capsys.readouterr().out)["word_accuracy"] == (1.0 if adjust else 0.5)
        return
    if command == "mcnemar":
        assert main(["mcnemar", str(data), str(pred), str(pred), "--format", "json", *adjust]) == 0
        assert json.loads(capsys.readouterr().out)["b"] == 0
        return
    for scheme in Scheme:
        model = tmp_path / f"model.{scheme.value}.json"
        assert main(["train", str(data), str(model), "--scheme", scheme.value, *adjust]) == 0
        assert json.loads(model.read_text(encoding="utf-8"))["scheme"] == scheme.value
