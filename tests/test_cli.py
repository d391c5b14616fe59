from __future__ import annotations

import ast
import errno
import gc
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

from conftest import COMPARISON_CONLLU, COMPARISON_LABELS, COMPARISON_PAIRS
from lemscript import baseline, cli, corpus_io
from lemscript.cli import main
from synth import make_stems, synthetic_corpus

TWO_TOKEN_TRAIN = (
    "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "2\tbirds\tbird\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
)
GENERALIZATION_TEST = (
    "1\tdogs\tdog\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "2\thorses\thorse\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
)


@pytest.fixture
def comparison_file(tmp_path):
    path = tmp_path / "pairs.conllu"
    path.write_text(COMPARISON_CONLLU, encoding="utf-8")
    return path


def read_rows(path):
    return [
        line.split("\t")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]


def test_encode_single_scheme(tmp_path, comparison_file, capsys):
    out = tmp_path / "labeled.tsv"
    code = main(["encode", str(comparison_file), str(out), "--scheme", "udpipe"])
    assert code == 0
    assert [row[2] for row in read_rows(out)] == COMPARISON_LABELS["udpipe"]


def test_encode_all_fans_out(tmp_path, comparison_file):
    out = tmp_path / "labeled.tsv"
    code = main(["encode", str(comparison_file), str(out), "--scheme", "all"])
    assert code == 0
    for scheme, labels in COMPARISON_LABELS.items():
        fanned = tmp_path / f"labeled.{scheme}.tsv"
        assert [row[2] for row in read_rows(fanned)] == labels


def test_encode_missing_file_exits_2(tmp_path, capsys):
    code = main(["encode", str(tmp_path / "nope.conllu"), "-", "--scheme", "udpipe"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_encode_writes_failure_report(tmp_path, comparison_file):
    report = tmp_path / "failures.json"
    out = tmp_path / "labeled.tsv"
    code = main(
        ["encode", str(comparison_file), str(out), "--scheme", "all", "--failures", str(report)]
    )
    assert code == 0
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload == {"udpipe": [], "ixapipes": [], "morpheus": []}
    # a single scheme gets the bare failure array
    code = main(
        ["encode", str(comparison_file), str(out), "--scheme", "udpipe", "--failures", str(report)]
    )
    assert code == 0
    assert json.loads(report.read_text(encoding="utf-8")) == []


def test_decode_roundtrips_encode(tmp_path, comparison_file):
    labeled = tmp_path / "labeled.tsv"
    lemmas = tmp_path / "lemmas.tsv"
    assert main(["encode", str(comparison_file), str(labeled), "--scheme", "morpheus"]) == 0
    assert main(["decode", str(labeled), str(lemmas), "--scheme", "morpheus"]) == 0
    assert [row[1] for row in read_rows(lemmas)] == ["cat", "bird", "do", "Wolak", "you"]


def test_decode_published_suffix_script(tmp_path):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("folklorearen\tfolklore\tD5rD4eD3aD0n\n\n", encoding="utf-8")
    lemmas = tmp_path / "lemmas.tsv"
    assert main(["decode", str(labeled), str(lemmas), "--scheme", "ixapipes"]) == 0
    assert read_rows(lemmas) == [["folklorearen", "folklore"]]


def test_decode_corrupted_label_warns_and_uses_identity(tmp_path, capsys):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("cats\tcat\tD0x\n\n", encoding="utf-8")
    lemmas = tmp_path / "lemmas.tsv"
    code = main(["decode", str(labeled), str(lemmas), "--scheme", "ixapipes"])
    assert code == 0
    assert read_rows(lemmas) == [["cats", "cats"]]
    assert "1 label(s) failed" in capsys.readouterr().err


def test_stats_text(comparison_file, capsys):
    assert main(["stats", str(comparison_file)]) == 0
    out = capsys.readouterr().out
    assert "udpipe" in out and "morpheus" in out


def test_stats_json_counts(comparison_file, capsys):
    assert main(["stats", str(comparison_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    counts = {k: v["unique_labels"] for k, v in payload["schemes"].items()}
    assert counts == {"udpipe": 4, "ixapipes": 4, "morpheus": 5}
    assert payload["token_total"] == 5


def test_eval_and_mcnemar(tmp_path, comparison_file, capsys):
    labeled = tmp_path / "labeled.tsv"
    lemmas = tmp_path / "lemmas.tsv"
    main(["encode", str(comparison_file), str(labeled), "--scheme", "udpipe"])
    main(["decode", str(labeled), str(lemmas), "--scheme", "udpipe"])
    assert main(
        ["eval", str(comparison_file), str(lemmas), "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["word_accuracy"] == 1.0
    assert payload["sentence_accuracy"] == 1.0
    assert payload["token_total"] == 5

    wrong = tmp_path / "wrong.tsv"
    wrong.write_text(
        "".join(f"{form}\twrong\n\n" for form in ["cats", "birds", "did", "Wolak", "You"]),
        encoding="utf-8",
    )
    assert main(
        [
            "mcnemar",
            str(comparison_file),
            str(lemmas),
            str(wrong),
            "--format",
            "json",
        ]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["b"], payload["c"]) == (5, 0)
    assert payload["granularity"] == "word"


def test_eval_with_train_split(tmp_path, capsys):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    gold = tmp_path / "gold.conllu"
    gold.write_text(
        "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "2\tdogs\tdog\tNOUN\t_\t_\t_\t_\t_\t_\n\n",
        encoding="utf-8",
    )
    pred = tmp_path / "pred.tsv"
    pred.write_text("cats\tcat\ndogs\twrong\n\n", encoding="utf-8")
    assert main(["eval", str(gold), str(pred), "--train", str(train), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["inv_accuracy"] == 1.0
    assert payload["oov_accuracy"] == 0.0


def test_train_and_predict(tmp_path, capsys):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    model = tmp_path / "model.json"
    out = tmp_path / "pred.tsv"
    assert main(["train", str(train), str(model), "--scheme", "udpipe"]) == 0
    assert main(["predict", str(model), str(test), str(out)]) == 0
    assert read_rows(out) == [["dogs", "dog"], ["horses", "horse"]]
    payload = json.loads(model.read_text(encoding="utf-8"))
    assert payload["scheme"] == "udpipe"
    assert payload["fallback"] == "↓0;d¦-"


def test_compare_generalization_split(tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["compare", str(train), str(test), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))

    schemes = report["schemes"]
    assert set(schemes) == {"udpipe", "ixapipes", "morpheus"}
    assert schemes["udpipe"]["baseline"]["word_accuracy"] == 1.0
    assert schemes["ixapipes"]["baseline"]["word_accuracy"] == 1.0
    # the length-sensitive scheme misses "horses" (fallback arity 4)
    assert schemes["morpheus"]["baseline"]["word_accuracy"] == 0.5
    assert schemes["morpheus"]["baseline"]["decode_failures"] == 1
    assert len(report["mcnemar"]) == 3
    assert "udpipe_vs_morpheus" in report["mcnemar"]


def test_compare_text_format(tmp_path, capsys):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    assert main(["compare", str(train), str(test), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "100.00%" in out  # rates render as two-decimal percentages
    assert "udpipe_vs_morpheus" in out


def test_stats_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.conllu"
    empty.write_text("", encoding="utf-8")
    assert main(["stats", str(empty), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["token_total"] == 0
    assert all(v["unique_labels"] == 0 for v in payload["schemes"].values())


def test_encode_all_to_stdout_is_rejected(comparison_file, tmp_path, capsys):
    # the usage error comes first, before any read of the input
    malformed = tmp_path / "bad.conllu"
    malformed.write_text("1\tcats\n\n", encoding="utf-8")
    for path in (comparison_file, tmp_path / "missing.conllu", malformed):
        code = main(["encode", str(path), "-", "--scheme", "all"])
        assert code == 2
        assert "single --scheme" in capsys.readouterr().err


@pytest.mark.parametrize("output, scheme, failures", [
    ("out.tsv", "udpipe", "out.tsv"),
    ("out.tsv", "all", "out.udpipe.tsv"),
    ("-", "udpipe", "-"),
    ("out.tsv", "udpipe", "./sub/../out.tsv"),
])
def test_encode_failures_onto_an_output_is_rejected(
        comparison_file, tmp_path, monkeypatch, capsys, output, scheme, failures):
    # the failure report would replace or mix into a label output; the
    # usage error comes first, before any read of the input
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for path in (comparison_file, tmp_path / "missing.conllu"):
        argv = ["encode", str(path), output, "--scheme", scheme, "--failures", failures]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --failures names one of the label outputs\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.conllu", "sub"]


# IDs 5, 7 and 9 with a multiword range and an empty node between them; a
# sentence with no lemmatized word; an empty LEMMA column, which no scheme encodes
SPARSE_IDS = (
    "# sent 0\n"
    "5\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "6-7\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
    "7\tdid\tdo\tVERB\t_\t_\t_\t_\t_\t_\n"
    "7.1\tgone\tgo\tVERB\t_\t_\t_\t_\t_\t_\n"
    "9\tParis\t\tPROPN\t_\t_\t_\t_\t_\t_\n\n"
    "1\tthe\t_\tDET\t_\t_\t_\t_\t_\t_\n\n"
    "1\tparis\tparis\tPROPN\t_\t_\t_\t_\t_\t_\n"
    "2\tCats\t\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
)


@pytest.mark.parametrize("adjust, paris", [([], "paris\tparis\t↓0;d¦"),
                                           (["--adjust-propn"], "paris\tParis\t↑0¦↓1;d¦")])
def test_encode_names_each_failing_word_by_sentence_and_id(tmp_path, capsys, adjust, paris):
    data, report = tmp_path / "sparse.conllu", tmp_path / "failures.json"
    data.write_text(SPARSE_IDS, encoding="utf-8")
    argv = ["encode", str(data), "-", "--scheme", "udpipe", "--failures", str(report)]
    assert main(argv + adjust) == 1
    out, err = capsys.readouterr()
    assert out == f"cats\tcat\t↓0;d¦-\ndid\tdo\t↓0;d¦--+o\n\n\n{paris}\n\n"
    assert err == "2 token(s) failed to encode\n"
    reason = "EmptyInput: form and lemma must be non-empty"
    assert json.loads(report.read_text(encoding="utf-8")) == [
        {"reason": reason, "sentence_index": 0, "token_index": 9},
        {"reason": reason, "sentence_index": 2, "token_index": 2},
    ]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_encode_reads_a_pipe_once_and_names_its_failures(tmp_path):
    # a pipe can be read once: the failing words must be named from that read
    data, report = tmp_path / "sparse.conllu", tmp_path / "failures.json"
    os.mkfifo(data)
    writer = threading.Thread(target=data.write_text, args=(SPARSE_IDS,),
                              kwargs={"encoding": "utf-8"}, daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["encode", str(data), "-", "--scheme", "udpipe", "--failures", str(report)]
    child = subprocess.Popen([sys.executable, "-m", "lemscript.cli", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()
        if writer.is_alive():  # the child never opened the pipe: let the writer go
            os.close(os.open(data, os.O_RDONLY | os.O_NONBLOCK))
    assert (child.returncode, err) == (1, "2 token(s) failed to encode\n")
    assert out == "cats\tcat\t↓0;d¦-\ndid\tdo\t↓0;d¦--+o\n\n\nparis\tparis\t↓0;d¦\n\n"
    reason = "EmptyInput: form and lemma must be non-empty"
    assert json.loads(report.read_text(encoding="utf-8")) == [
        {"reason": reason, "sentence_index": 0, "token_index": 9},
        {"reason": reason, "sentence_index": 2, "token_index": 2},
    ]


def test_compare_train_equals_test(tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert main(["compare", str(train), str(train), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for scheme in report["schemes"].values():
        assert scheme["baseline"]["word_accuracy"] == 1.0
        assert scheme["oov"]["word_rate"] == 0.0
        assert scheme["oov"]["ses_rate"] == 0.0


@pytest.mark.parametrize(
    "train_text, test_text, faulty, message",
    [
        (TWO_TOKEN_TRAIN, "1\tdogs\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n", "test",
         "word accuracy over zero tokens is undefined"),
        ("", GENERALIZATION_TEST, "train", "cannot train a baseline on zero labeled tokens"),
    ],
    ids=["lemmaless-test", "empty-train"],
)
def test_compare_names_the_file_with_nothing_to_score(
    tmp_path, capsys, train_text, test_text, faulty, message
):
    paths = {"train": tmp_path / "train.conllu", "test": tmp_path / "test.conllu"}
    paths["train"].write_text(train_text, encoding="utf-8")
    paths["test"].write_text(test_text, encoding="utf-8")
    assert main(["compare", str(paths["train"]), str(paths["test"])]) == 2
    assert capsys.readouterr().err == f"error: {paths[faulty]}: {message}\n"


def test_train_names_the_file_with_nothing_to_train_on(tmp_path, capsys):
    train = tmp_path / "train.conllu"
    train.write_text("", encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["train", str(train), str(model), "--scheme", "udpipe"]) == 2
    message = "cannot train a baseline on zero labeled tokens"
    assert capsys.readouterr().err == f"error: {train}: {message}\n"
    assert not model.exists()


def test_eval_misaligned_inputs_exit_2(tmp_path, comparison_file, capsys):
    pred = tmp_path / "short.tsv"
    pred.write_text("cats\tcat\n\n", encoding="utf-8")
    code = main(["eval", str(comparison_file), str(pred)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {pred}: 5 gold lemmas vs 1 predictions\n"
    # as many rows as gold tokens, but in one sentence where gold has five
    rows = "".join(f"{form}\t{lemma}\n" for form, lemma in COMPARISON_PAIRS)
    pred.write_text(rows + "\n", encoding="utf-8")
    assert main(["eval", str(comparison_file), str(pred)]) == 2
    assert capsys.readouterr().err == f"error: {pred}: 5 gold sentences vs 1 predicted\n"


def test_eval_names_the_gold_file_with_nothing_to_score(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text("1\tdogs\t_\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("", encoding="utf-8")
    assert main(["eval", str(gold), str(pred)]) == 2
    message = "word accuracy over zero tokens is undefined"
    assert capsys.readouterr().err == f"error: {gold}: {message}\n"


@pytest.mark.parametrize("granularity", ["word", "sentence"])
def test_mcnemar_names_the_gold_file_with_nothing_to_score(tmp_path, capsys, granularity):
    gold = tmp_path / "gold.conllu"
    gold.write_text("1\tthe\t_\tDET\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    preds = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
    for pred in preds:
        pred.write_text("the\tthe\n\n", encoding="utf-8")
    argv = ["mcnemar", str(gold), *map(str, preds), "--granularity", granularity]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {gold}: no lemmatized token to pair\n"


# one sentence whose middle word has no lemma
ABSENT_LEMMA_GOLD = (
    "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
    "2\tthe\t_\tDET\t_\t_\t_\t_\t_\t_\n"
    "3\tdogs\tdog\tNOUN\t_\t_\t_\t_\t_\t_\n\n"
)


@pytest.mark.parametrize("command", ["eval", "mcnemar"])
def test_a_prediction_form_that_is_not_the_gold_form_exits_2(tmp_path, capsys, command):
    gold = tmp_path / "gold.conllu"
    gold.write_text(ABSENT_LEMMA_GOLD, encoding="utf-8")
    good = tmp_path / "good.tsv"
    good.write_text("cats\tcat\ndogs\tdog\n\n", encoding="utf-8")
    pred = tmp_path / "pred.tsv"
    pred.write_text("cats\tcat\nthe\tthe\nxx\tdog\n\n", encoding="utf-8")
    argv = ["eval", str(gold), str(pred)] if command == "eval" else [
        "mcnemar", str(gold), str(good), str(pred)]
    assert main(argv) == 2
    message = f"form 'xx', {gold} sentence 0 word 3 has 'dogs'"
    assert capsys.readouterr().err == f"error: {pred}:3: {message}\n"


def test_predict_output_over_absent_gold_lemmas_scores(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text(ABSENT_LEMMA_GOLD, encoding="utf-8")
    model, pred = tmp_path / "model.json", tmp_path / "pred.tsv"
    assert main(["train", str(gold), str(model), "--scheme", "udpipe"]) == 0
    assert main(["predict", str(model), str(gold), str(pred)]) == 0
    assert len(read_rows(pred)) == 3  # a row for the word without a lemma too
    assert main(["eval", str(gold), str(pred), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["word_accuracy"], payload["token_total"]) == (1.0, 2)
    lemmatized = tmp_path / "lemmatized.tsv"
    lemmatized.write_text("cats\tcats\ndogs\tdog\n\n", encoding="utf-8")
    assert main(["mcnemar", str(gold), str(pred), str(lemmatized), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["b"] == 1


def test_mcnemar_names_the_prediction_file_at_fault(tmp_path, comparison_file, capsys):
    good = tmp_path / "good.tsv"
    good.write_text("".join(f"{form}\t{lemma}\n\n" for form, lemma in COMPARISON_PAIRS), "utf-8")
    short = tmp_path / "short.tsv"
    short.write_text("cats\tcat\n\n", encoding="utf-8")
    assert main(["mcnemar", str(comparison_file), str(good), str(short)]) == 2
    assert capsys.readouterr().err == f"error: {short}: 5 gold lemmas vs 1 predictions\n"
    # at word granularity too, the sentence breaks must be the gold file's
    joined = tmp_path / "joined.tsv"
    rows = "".join(f"{form}\t{lemma}\n" for form, lemma in COMPARISON_PAIRS)
    joined.write_text(rows + "\n", encoding="utf-8")
    assert main(["mcnemar", str(comparison_file), str(joined), str(good)]) == 2
    assert capsys.readouterr().err == f"error: {joined}: 5 gold sentences vs 1 predicted\n"


def test_eval_names_a_sentence_with_too_few_rows(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text(
        "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "2\tbirds\tbird\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "3\tdogs\tdog\tNOUN\t_\t_\t_\t_\t_\t_\n\n" + ROW + "\n",
        encoding="utf-8",
    )
    pred = tmp_path / "p.tsv"
    # four rows for four gold lemmas in two sentences, split 2 + 2 where gold has 3 + 1
    pred.write_text("cats\tcat\nbirds\tbird\n\ndogs\tdog\ncats\tcat\n\n", encoding="utf-8")
    assert main(["eval", str(gold), str(pred)]) == 2
    message = "sentence 0: 3 gold lemmas in 3 words vs 2 predicted"
    assert capsys.readouterr().err == f"error: {pred}: {message}\n"


def test_eval_names_a_predicted_sentence_beyond_the_gold_ones(tmp_path, capsys):
    gold = tmp_path / "gold.conllu"
    gold.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    pred = tmp_path / "p.tsv"
    pred.write_text("cats\tcat\n\nbirds\tbird\n\n", encoding="utf-8")
    assert main(["eval", str(gold), str(pred)]) == 2
    assert capsys.readouterr().err == f"error: {pred}: 1 gold sentences vs 2 predicted\n"


def test_a_last_sentence_without_its_blank_line_is_read(tmp_path, comparison_file, capsys):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("cats\tcat\tD0s\n\nbirds\tbird\tD0s", encoding="utf-8")
    assert main(["decode", str(labeled), "-", "--scheme", "ixapipes"]) == 0
    assert capsys.readouterr().out == "cats\tcat\n\nbirds\tbird\n\n"
    pred = tmp_path / "pred.tsv"
    pred.write_text("".join(f"{form}\t{lemma}\n\n" for form, lemma in COMPARISON_PAIRS)[:-2],
                    encoding="utf-8")
    assert main(["eval", str(comparison_file), str(pred), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["sentence_accuracy"] == 1.0


def test_a_valid_alpha_reaches_the_mcnemar_and_compare_reports(tmp_path, comparison_file, capsys):
    right = tmp_path / "right.tsv"
    right.write_text("".join(f"{form}\t{lemma}\n\n" for form, lemma in COMPARISON_PAIRS), "utf-8")
    wrong = tmp_path / "wrong.tsv"
    wrong.write_text("".join(f"{form}\twrong\n\n" for form, _ in COMPARISON_PAIRS), "utf-8")
    # b 5, c 0: statistic 3.2, p 0.0736, significant at 0.1 but not at the default 0.05
    argv = ["mcnemar", str(comparison_file), str(right), str(wrong)]
    assert main([*argv, "--format", "json"]) == 0
    assert not json.loads(capsys.readouterr().out)["significant"]
    assert main([*argv, "--alpha", "0.1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["b"], payload["c"], payload["alpha"], payload["significant"]) == (5, 0, 0.1, True)
    assert main([*argv, "--alpha", "0.1"]) == 0
    assert "verdict:              significant at alpha=0.1\n" in capsys.readouterr().out
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    assert main(["compare", str(train), str(comparison_file), "--alpha", "0.2"]) == 0
    results = json.loads(capsys.readouterr().out)["mcnemar"].values()
    assert [result["alpha"] for result in results] == [0.2] * 3


def test_unknown_flag_is_an_error(comparison_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["stats", str(comparison_file), "--bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("alpha", ["5", "-1", "nan", "0", "1", "x"])
@pytest.mark.parametrize("command", ["mcnemar", "compare"])
def test_alpha_outside_the_unit_interval_exits_2(comparison_file, capsys, command, alpha):
    files = [str(comparison_file)] * (3 if command == "mcnemar" else 2)
    with pytest.raises(SystemExit) as err:
        main([command, *files, "--alpha", alpha])
    assert err.value.code == 2
    assert "alpha must be a number in (0, 1)" in capsys.readouterr().err


# --- input faults: exit 2 with a path:line message, never a traceback -------

ROW = "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"


def test_non_utf8_conllu_names_the_line(tmp_path, capsys):
    corpus = tmp_path / "bad.conllu"
    corpus.write_bytes(ROW.encode() + b"2\tb\xffd\tbird\tNOUN\t_\t_\t_\t_\t_\t_\n\n")
    assert main(["stats", str(corpus)]) == 2
    assert f"error: {corpus}:2: not UTF-8" in capsys.readouterr().err


def test_non_utf8_tsv_names_the_line(tmp_path, capsys):
    labeled = tmp_path / "bad.tsv"
    labeled.write_bytes(b"cats\tcat\tD0s\n\nb\xe9rds\tbird\tD0s\n\n")
    assert main(["decode", str(labeled), "-", "--scheme", "ixapipes"]) == 2
    assert f"error: {labeled}:3: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,line",
    [
        ('{\n  "scheme": "ixapipes",\n  "fallback": \n}\n', 4),              # not JSON
        ('{"scheme": "ixapipes", "fallback": "D0s"}', 1),                    # no per_form
        ('{"scheme": "lemming", "per_form": {}, "fallback": "D0s"}', 1),     # unknown scheme
        ('{"scheme": "ixapipes", "per_form": {"cats": ""}, "fallback": "D0s"}', 1),  # empty label
        ('{"scheme": "ixapipes", "per_form": [["cats", "D0s"]], "fallback": "D0s"}', 1),  # pairs
    ],
)
def test_malformed_model_names_the_line(tmp_path, capsys, text, line):
    model = tmp_path / "model.json"
    model.write_text(text, encoding="utf-8")
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    assert main(["predict", str(model), str(test), "-"]) == 2
    assert f"error: {model}:{line}: " in capsys.readouterr().err


def test_non_utf8_model_names_the_line(tmp_path, capsys):
    model = tmp_path / "bad_model.json"
    model.write_bytes(b'{\n  "scheme": "ixapipes",\n  "per_form": {"b\xffd": "D0s"},\n'
                      b'  "fallback": "D0s"\n}\n')
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    assert main(["predict", str(model), str(test), "-"]) == 2
    assert capsys.readouterr().err == f"error: {model}:3: not UTF-8 (invalid start byte)\n"


def test_format_error_names_the_path(tmp_path, capsys):
    corpus = tmp_path / "short.conllu"
    corpus.write_text(ROW + "2\tbroken\trow\n\n", encoding="utf-8")
    assert main(["stats", str(corpus)]) == 2
    assert f"error: {corpus}:2: expected 10 tab-separated columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["encode", "stats", "predict"])
def test_a_word_id_with_a_leading_zero_names_its_line(tmp_path, capsys, command):
    corpus = tmp_path / "ids.conllu"
    corpus.write_text(ROW + "02\tbirds\tbird\tNOUN\t_\t_\t_\t_\t_\t_\n\n", encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text('{"scheme": "ixapipes", "per_form": {}, "fallback": "O"}', encoding="utf-8")
    argv = {"encode": ["encode", str(corpus), "-", "--scheme", "udpipe"],
            "stats": ["stats", str(corpus)],
            "predict": ["predict", str(model), str(corpus), "-"]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {corpus}:2: token id '02'")


def test_prediction_row_without_lemma_is_rejected(tmp_path, comparison_file, capsys):
    pred = tmp_path / "pred.tsv"
    pred.write_text("cats\tcat\n\nbirds\n\n", encoding="utf-8")
    assert main(["eval", str(comparison_file), str(pred)]) == 2
    assert f"error: {pred}:3: expected 2 tab-separated columns, got 1" in capsys.readouterr().err


# --- predict's and decode's output appears only on success -------------------

LABELED_SENTENCE = "dogs\tdog\t↓0;d¦-\nhorses\thorse\t↓0;d¦-\n\n"


@pytest.mark.parametrize(
    "command, last, message",
    [
        ("predict", b"2\tbirds\tbird\tNOUN\t_\t_\t_\t_\t_\n",
         "expected 10 tab-separated columns, got 9"),
        ("predict", b"2\tbirds\tbird\tNOUN\t_\t_\t_\t_\t_\t_\t_\n",
         "expected 10 tab-separated columns, got 11"),
        ("predict", b"2\tb\xffrds\tbird\tNOUN\t_\t_\t_\t_\t_\t_\n", "not UTF-8"),
        ("decode", b"birds\tbird\t\n", "empty label column"),
        ("decode", b"birds\tbird\n", "expected 3 tab-separated columns, got 2"),
        ("decode", b"b\xffrds\tbird\t" + "↓0;d¦-\n".encode(), "not UTF-8"),
    ],
    ids=["nine-columns", "eleven-columns", "non-utf8", "decode-empty-label", "decode-two-columns",
         "decode-non-utf8"],
)
@pytest.mark.parametrize("output", ["new", "existing", "-"])
def test_predict_fault_in_the_last_sentence_leaves_no_output(
    tmp_path, capsys, command, last, message, output
):
    if command == "predict":
        train = tmp_path / "train.conllu"
        train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
        model = tmp_path / "model.json"
        assert main(["train", str(train), str(model), "--scheme", "udpipe"]) == 0
        test = tmp_path / "test.conllu"
        good, first = GENERALIZATION_TEST, ROW
    else:
        test = tmp_path / "test.tsv"
        good, first = LABELED_SENTENCE, "cats\tcat\t↓0;d¦-\n"
    # three good sentences of three lines each, then a good row and the faulty one
    test.write_bytes(good.encode() * 3 + first.encode() + last + b"\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    pred = out_dir / "pred.tsv"
    if output == "existing":
        pred.write_bytes(b"an earlier prediction\n")
    capsys.readouterr()
    target = "-" if output == "-" else str(pred)
    argv = ([command, str(model), str(test), target] if command == "predict"
            else [command, str(test), target, "--scheme", "udpipe"])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {test}:11: {message}")
    assert captured.out == ""
    if output == "existing":
        assert [p.name for p in out_dir.iterdir()] == ["pred.tsv"]
        assert pred.read_bytes() == b"an earlier prediction\n"
    else:
        assert list(out_dir.iterdir()) == []


def test_predict_writes_through_a_symlink_and_to_a_device(tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(TWO_TOKEN_TRAIN, encoding="utf-8")
    model = tmp_path / "model.json"
    assert main(["train", str(train), str(model), "--scheme", "udpipe"]) == 0
    test = tmp_path / "test.conllu"
    test.write_text(GENERALIZATION_TEST, encoding="utf-8")
    target, link = tmp_path / "target.tsv", tmp_path / "link.tsv"
    link.symlink_to(target)
    assert main(["predict", str(model), str(test), str(link)]) == 0
    assert link.is_symlink() and read_rows(target) == [["dogs", "dog"], ["horses", "horse"]]
    # a device is written in place, never replaced by a regular file
    assert main(["predict", str(model), str(test), os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


@pytest.mark.parametrize("command", ["encode", "train", "predict", "decode"])
def test_an_output_in_a_missing_directory_is_named_as_given(
    tmp_path, monkeypatch, capsys, comparison_file, command
):
    # the output is written to a temporary file beside it; the error names
    # the path the user gave, with no process id or absolute prefix
    monkeypatch.chdir(tmp_path)
    assert main(["train", "pairs.conllu", "model.json", "--scheme", "udpipe"]) == 0
    assert main(["encode", "pairs.conllu", "labeled.tsv", "--scheme", "udpipe"]) == 0
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    argv = {
        "encode": ["encode", "pairs.conllu", "nodir/out.tsv", "--scheme", "udpipe"],
        "train": ["train", "pairs.conllu", "nodir/out.tsv", "--scheme", "udpipe"],
        "predict": ["predict", "model.json", "pairs.conllu", "nodir/out.tsv"],
        "decode": ["decode", "labeled.tsv", "nodir/out.tsv", "--scheme", "udpipe"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: nodir/out.tsv: {os.strerror(errno.ENOENT)}\n"
    assert sorted(tmp_path.rglob("*")) == before


# --- the collector pause: no per-token cycles, caller's state restored ------


def conllu_text(corpus):
    return "".join(
        "".join(f"{t.index}\t{t.form}\t{t.lemma}\t{t.upos}\t_\t_\t_\t_\t_\t_\n" for t in s.tokens)
        + "\n"
        for s in corpus.sentences
    )


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_cyclic_garbage_does_not_grow_with_the_corpus(
    tmp_path, monkeypatch, capsys, collector_off
):
    train = synthetic_corpus(2_000, seed=1, stems=make_stems(5, 3000, 3, 9))
    test = synthetic_corpus(4_000, seed=2, stems=make_stems(6, 3000, 3, 9))
    test_forms = {t.form for s in test.sentences for t in s.tokens}
    model = tmp_path / "unseen.json"
    # every form is unseen and no form ends in "q", so every decode raises
    model.write_text('{"scheme": "ixapipes", "per_form": {}, "fallback": "D0q"}', encoding="utf-8")
    commands = {
        "compare": ["compare", "train.conllu", "test.conllu", "--out", "report.json"],
        "train": ["train", "train.conllu", "model.json", "--scheme", "ixapipes"],
        "encode": ["encode", "train.conllu", "labeled.tsv", "--scheme", "all"],
        "predict": ["predict", str(model), "test.conllu", "pred.tsv"],
    }
    garbage = {}
    for copies in (1, 4):
        run = tmp_path / f"x{copies}"
        run.mkdir()
        (run / "train.conllu").write_text(conllu_text(train) * copies, encoding="utf-8")
        (run / "test.conllu").write_text(conllu_text(test) * copies, encoding="utf-8")
        monkeypatch.chdir(run)
        for name, argv in commands.items():
            assert main(argv) == 0
            garbage[name, copies] = gc.collect()
        failed = copies * test.token_count
        assert f"{failed} prediction(s) fell back" in capsys.readouterr().err
    for name in commands:
        assert garbage[name, 1] == garbage[name, 4], name
    # one cycle per failed decode would leave more garbage than the parser's
    assert len(test_forms) > 2_000
    assert garbage["predict", 1] < len(test_forms)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_state(tmp_path, comparison_file, capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["stats", str(comparison_file)]) == 0
        assert gc.isenabled() is enabled
        assert main(["stats", str(tmp_path / "missing.conllu")]) == 2
        assert gc.isenabled() is enabled
        with pytest.raises(SystemExit):
            main(["stats", str(comparison_file), "--bogus"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# --- one scheme alive at a time -------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "train.conllu", "test.conllu", "--out", "report.json"],
        ["stats", "train.conllu"],
        ["encode", "train.conllu", "labeled.tsv", "--scheme", "all"],
    ],
    ids=["compare", "stats", "encode"],
)
def test_each_scheme_labels_with_no_earlier_scheme_alive(tmp_path, monkeypatch, capsys, argv):
    stems = make_stems(5, 3000, 3, 9)
    train = synthetic_corpus(2_000, seed=1, stems=stems)
    test = synthetic_corpus(1_000, seed=2, stems=stems)
    (tmp_path / "train.conllu").write_text(conllu_text(train), encoding="utf-8")
    (tmp_path / "test.conllu").write_text(conllu_text(test), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    live = []
    # every command labels the distinct pairs through label_pairs, one
    # LabeledToken each
    label = corpus_io.label_pairs

    def counting(scheme, pairs):
        live.append(sum(type(o) is corpus_io.LabeledToken for o in gc.get_objects()))
        return label(scheme, pairs)

    monkeypatch.setattr(corpus_io, "label_pairs", counting)
    assert main(argv) == 0
    assert len(live) == 3
    assert live[1] == live[0] and live[2] == live[0], live


# --- cli is a shell over public stages --------------------------------------


def test_cli_reads_no_lines_and_uses_no_private_name():
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    assert {"baseline", "corpus_io", "metrics"} <= modules
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    private += [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names if alias.name.startswith("_")]
    assert private == []
    readers = [getattr(node, "name", "lambda") for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.Lambda))
               and "lines" in [a.arg for a in node.args.posonlyargs + node.args.args
                               + node.args.kwonlyargs]]
    assert readers == []


STAGES = [(corpus_io, name) for name in (
    "read_pairs", "pair_ids", "pair_table", "label_pairs", "labeled_counts", "labeled_rows",
    "gold_words", "right_flags", "lemmatized_forms", "decode_rows")] + [(baseline, "predict_rows")]
PAIR_STAGES = {"read_pairs", "pair_ids", "pair_table", "label_pairs", "labeled_counts"}


@pytest.mark.parametrize(
    "argv, stages",
    [
        (["compare", "pairs.conllu", "pairs.conllu", "--out", "report.json"], PAIR_STAGES),
        (["train", "pairs.conllu", "model.json", "--scheme", "udpipe"], PAIR_STAGES),
        (["stats", "pairs.conllu"], PAIR_STAGES),
        (["encode", "pairs.conllu", "labeled.tsv", "--scheme", "udpipe"],
         {"pair_ids", "pair_table", "label_pairs", "labeled_rows"}),
        (["eval", "pairs.conllu", "lemmas.tsv", "--train", "pairs.conllu"],
         {"gold_words", "right_flags", "lemmatized_forms"}),
        (["mcnemar", "pairs.conllu", "lemmas.tsv", "lemmas.tsv"], {"gold_words", "right_flags"}),
        (["predict", "model.json", "pairs.conllu", "pred.tsv"], {"predict_rows"}),
        (["decode", "labeled.tsv", "lemmas.tsv", "--scheme", "udpipe"], {"decode_rows"}),
    ],
    ids=["compare", "train", "stats", "encode", "eval-train", "mcnemar", "predict", "decode"],
)
def test_each_command_calls_its_stages_at_their_module_attributes(
    tmp_path, monkeypatch, capsys, argv, stages
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pairs.conllu").write_text(COMPARISON_CONLLU, encoding="utf-8")
    assert main(["encode", "pairs.conllu", "labeled.tsv", "--scheme", "udpipe"]) == 0
    assert main(["decode", "labeled.tsv", "lemmas.tsv", "--scheme", "udpipe"]) == 0
    assert main(["train", "pairs.conllu", "model.json", "--scheme", "udpipe"]) == 0
    called = set()
    for module, name in STAGES:
        def counting(*args, _stage=getattr(module, name), _name=name):
            called.add(_name)
            return _stage(*args)

        monkeypatch.setattr(module, name, counting)
    assert main(argv) == 0
    assert called == stages
