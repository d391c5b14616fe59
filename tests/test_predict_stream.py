"""`lemscript predict` against a reference built from the corpus-level functions.

predict streams the FORM column through corpus_io.conllu_rows and writes
each sentence as it is read; the reference parses the whole document with
parse_conllu, predicts with predict_corpus and writes with write_lemmas,
so any difference in what the two paths read, skip or write shows up as
different bytes. The fault half mutates one row of a valid document and
checks that parse_conllu and predict report the same line and message.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COMPARISON_LABELS
from lemscript import baseline, corpus_io
from lemscript.cli import main
from lemscript.errors import FormatError
from lemscript.model import Scheme
from reference import write_lemmas

# seen forms, a case variant whose label may not fit, unseen forms, one too
# short for most fallback labels, a non-ASCII form and the form "_"
FORMS = ["cats", "CATS", "did", "dogs", "horses", "a", "Çat", "_"]
LEMMAS = ["cat", "do", "dog", "_"]  # "_" is an absent lemma
ENDINGS = st.sampled_from(["\n", "\r\n"])
WORDS = st.tuples(
    st.sampled_from(FORMS),
    st.sampled_from(LEMMAS),
    st.sampled_from(["NOUN", "_"]),
    st.sampled_from(["", "range", "empty"]),  # a range row before it, an empty node after it
)
SENTENCES = st.tuples(
    st.lists(st.sampled_from(["# sent_id = s", "# text = x\ty"]), max_size=2),
    st.lists(WORDS, min_size=1, max_size=5),
    st.sampled_from(["", "  ", "\t"]),  # the blank line that ends the sentence
)
DOCUMENTS = st.lists(SENTENCES, max_size=5)


def conllu_lines(document) -> list[str]:
    """The document's lines without their line ends."""
    lines = []
    for comments, words, blank in document:
        lines += comments
        for i, (form, lemma, upos, extra) in enumerate(words, 1):
            if extra == "range":
                lines.append(f"{i}-{i + 1}\t{form}{form}\t_\t_\t_\t_\t_\t_\t_\t_")
            lines.append(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t_\t_\t_\t_")
            if extra == "empty":
                lines.append(f"{i}.1\tghost\tghost\t_\t_\t_\t_\t_\t_\t_")
        lines.append(blank)
    return lines


def encoded(lines, endings) -> bytes:
    return "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")


def write_model(directory: Path, scheme: Scheme) -> Path:
    cats, _, did, *_ = COMPARISON_LABELS[scheme.value]
    path = directory / f"model.{scheme.value}.json"
    payload = {"scheme": scheme.value, "per_form": {"cats": cats, "did": did}, "fallback": cats}
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")
    return path


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def reference(model_path: Path, conllu_path: Path) -> tuple[str, str]:
    """The output text and stderr predict gave before it streamed."""
    with open(model_path, encoding="utf-8") as fp:
        model = baseline.load_model(fp)
    corpus = corpus_io.read_conllu(str(conllu_path))
    pred, stats = baseline.predict_corpus(model, corpus)
    text = io.StringIO()
    forms = ([tok.form for tok in sentence.tokens] for sentence in corpus.sentences)
    write_lemmas(forms, pred, text)
    err = stats.decode_failures
    return text.getvalue(), f"{err} prediction(s) fell back to the identity lemma\n" if err else ""


@given(DOCUMENTS, st.lists(ENDINGS, min_size=60, max_size=60), st.sampled_from(list(Scheme)))
def test_predict_output_matches_the_corpus_reference(document, endings, scheme):
    lines = conllu_lines(document)
    endings = (endings * (len(lines) // len(endings) + 1))[: len(lines)]
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        model = write_model(directory, scheme)
        test = directory / "test.conllu"
        test.write_bytes(encoded(lines, endings))
        want_text, want_err = reference(model, test)
        out = directory / "pred.tsv"
        assert run_cli(["predict", str(model), str(test), str(out)]) == (0, "", want_err)
        assert out.read_bytes() == want_text.encode("utf-8")
        assert run_cli(["predict", str(model), str(test), "-"]) == (0, want_text, want_err)
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            [model.name, test.name, out.name]
        )


# the faults tests/test_corpus_io.py covers, plus the empty FORM and an
# eleventh column: each turns a word row's columns into a faulty row and
# gives its message
MUTATIONS = {
    "short-row": (lambda cols: cols[:3], "expected 10 tab-separated columns, got 3"),
    "nine-columns": (lambda cols: cols[:9], "expected 10 tab-separated columns, got 9"),
    "eleven-columns": (lambda cols: [*cols, "_"], "expected 10 tab-separated columns, got 11"),
    "id-1_0": (lambda cols: ["1_0", *cols[1:]], "non-numeric token id '1_0'"),
    "id-arabic": (lambda cols: ["٣", *cols[1:]], "non-numeric token id '٣'"),
    "id-1.2.3": (lambda cols: ["1.2.3", *cols[1:]], "non-numeric token id '1.2.3'"),
    "id-5000-digits": (lambda cols: ["9" * 5000, *cols[1:]], "token id of 5000 digits"),
    "empty-form": (lambda cols: [cols[0], "", *cols[2:]], "empty FORM column"),
}


@given(
    DOCUMENTS.filter(bool),
    st.lists(ENDINGS, min_size=60, max_size=60),
    st.sampled_from(sorted(MUTATIONS)),
    st.integers(min_value=0),
)
def test_a_mutated_row_is_reported_at_its_line(document, endings, mutation, pick):
    lines = conllu_lines(document)
    endings = (endings * (len(lines) // len(endings) + 1))[: len(lines)]
    words = [i for i, line in enumerate(lines) if line.split("\t")[0].isdigit()]
    at = words[pick % len(words)]
    mutate, message = MUTATIONS[mutation]
    lines[at] = "\t".join(mutate(lines[at].split("\t")))
    with pytest.raises(FormatError) as err:
        corpus_io.parse_conllu(line + end for line, end in zip(lines, endings))
    assert (err.value.line_number, err.value.message) == (at + 1, message)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        model = write_model(directory, Scheme.UDPIPE)
        test = directory / "test.conllu"
        test.write_bytes(encoded(lines, endings))
        out = directory / "pred.tsv"
        code, stdout, stderr = run_cli(["predict", str(model), str(test), str(out)])
        assert (code, stdout, stderr) == (2, "", f"error: {test}:{at + 1}: {message}\n")
        assert not out.exists()
        assert sorted(p.name for p in directory.iterdir()) == sorted([model.name, test.name])
