"""`lemscript stats`, `train` and `eval --train` against token-level references.

The three commands read each file into compare's table of distinct (form,
lemma) pairs and weight each pair by its token count; the references below
parse a whole corpus with parse_conllu and label it token by token with
label_corpus, so any difference in how counts stand for tokens shows up as
different output.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lemscript import baseline, corpus_io, metrics
from lemscript.cli import main
from lemscript.errors import EmptyEval, LemscriptError
from lemscript.model import Scheme
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


@given(document=DOCUMENTS, adjust=st.booleans(), fmt=FORMATS)
def test_stats_matches_the_token_level_reference(document, adjust, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp, "data.conllu"))
        Path(path).write_text(conllu(document), encoding="utf-8")
        flags = ["--format", fmt] + (["--adjust-propn"] if adjust else [])
        assert run(["stats", path, *flags]) == (0, stats_reference(path, adjust, fmt), "")


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


def eval_reference(gold_path, pred_path, train_path, adjust, fmt) -> tuple[int, str, str]:
    """eval --train's exit code, stdout and stderr, from the token-level train forms."""
    train = corpus(train_path, adjust)
    seen = {t.form for s in train.sentences for t in s.tokens if t.lemma is not None}
    pred = corpus_io.read_file(pred_path, corpus_io.parse_lemmas)
    try:
        report = metrics.evaluate(corpus(gold_path, adjust), pred, seen)
    except LemscriptError as exc:
        # an empty gold side names the gold file, a misaligned one the predictions
        return 2, "", f"error: {gold_path if isinstance(exc, EmptyEval) else pred_path}: {exc}\n"
    if fmt == "json":
        payload = json.dumps(asdict(report), ensure_ascii=False, sort_keys=True, indent=2)
        return 0, payload + "\n", ""

    def rate(value):
        return f"{value:.4f}" if isinstance(value, float) else "absent"

    return 0, (
        f"word accuracy:     {report.word_accuracy:.4f} ({report.token_total} tokens)\n"
        f"sentence accuracy: {report.sentence_accuracy:.4f} ({report.sentence_total} sentences)\n"
        f"INV accuracy:      {rate(report.inv_accuracy)}\n"
        f"OOV accuracy:      {rate(report.oov_accuracy)}\n"
    ), ""


@given(
    train=DOCUMENTS,
    gold=DOCUMENTS,
    guesses=st.lists(st.sampled_from(["cat", "cats", "Paris", "paris", "do", ""]), min_size=1),
    adjust=st.booleans(),
    fmt=FORMATS,
)
def test_eval_train_matches_the_token_level_train_forms(train, gold, guesses, adjust, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp, name)) for name in ("train.conllu", "gold.conllu", "pred.tsv")]
        Path(paths[0]).write_text(conllu(train), encoding="utf-8")
        Path(paths[1]).write_text(conllu(gold), encoding="utf-8")
        # one guessed lemma per lemmatized gold token; a sentence with none
        # leaves no rows, so its gold and prediction sentences misalign
        guess = itertools.cycle(guesses)
        Path(paths[2]).write_text("".join(
            "".join(f"{form}\t{next(guess)}\n" for form, lemma, _ in sentence if lemma is not None)
            + "\n"
            for sentence in gold
        ), encoding="utf-8")
        argv = ["eval", paths[1], paths[2], "--train", paths[0], "--format", fmt]
        result = run(argv + (["--adjust-propn"] if adjust else []))
        assert result == eval_reference(paths[1], paths[2], paths[0], adjust, fmt)


@pytest.mark.parametrize("adjust", [[], ["--adjust-propn"]])
@pytest.mark.parametrize("command", ["stats", "train"])
def test_stats_and_train_build_no_token(tmp_path, monkeypatch, capsys, command, adjust):
    def no_token(*args):
        raise AssertionError(f"{command} built a Token")

    monkeypatch.setattr(corpus_io, "Token", no_token)
    data = tmp_path / "data.conllu"
    data.write_text(conllu([[("Paris", "paris", "PROPN"), ("cats", "cat", "NOUN")]]), "utf-8")
    if command == "stats":
        assert main(["stats", str(data), "--format", "json", *adjust]) == 0
        assert json.loads(capsys.readouterr().out)["token_total"] == 2
        return
    for scheme in Scheme:
        model = tmp_path / f"model.{scheme.value}.json"
        assert main(["train", str(data), str(model), "--scheme", scheme.value, *adjust]) == 0
        assert json.loads(model.read_text(encoding="utf-8"))["scheme"] == scheme.value
