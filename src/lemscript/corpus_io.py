"""Treebank ingestion, the proper-noun lemma adjustment, and labeled datasets.

Input is CoNLL-U: tab-separated 10-column rows, "#" comment lines, blank
lines between sentences, UTF-8. A word's ID is ASCII digits; multiword
ranges (ID "N-M") and empty nodes (ID "N.M") are skipped, and any other
ID is a format error. A LEMMA of "_" is treated as absent. Labeled
datasets serialize as 3-column TSV (form<TAB>gold_lemma<TAB>label) and
lemma predictions as 2-column TSV (form<TAB>lemma), each with a blank
line after each sentence.
"""

from __future__ import annotations

import re
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

from . import schemes
from .casing import LOWER, char_class, shift_upper
from .errors import FormatError, LemscriptError
from .model import Corpus, Scheme, Sentence, SesLabel, Token, _Value, _setters

T = TypeVar("T")


class LabeledToken(_Value):
    """One labeled row; slotted, not a NamedTuple, since decode holds one per row."""

    __slots__ = ("form", "gold_lemma", "label")

    def __init__(self, form: str, gold_lemma: str, label: SesLabel) -> None:
        _set_form(self, form)
        _set_gold_lemma(self, gold_lemma)
        _set_label(self, label)


_set_form, _set_gold_lemma, _set_label = _setters(LabeledToken)


class LabeledCorpus(NamedTuple):
    scheme: Scheme
    sentences: tuple[tuple[LabeledToken, ...], ...] = ()

    @property
    def token_count(self) -> int:
        return sum(len(s) for s in self.sentences)


class LabelFailure(NamedTuple):
    """One token whose label did not decode back to the gold lemma."""

    sentence_index: int  # 0-based sentence position
    token_index: int     # the token's 1-based index within its sentence
    reason: str


def parse_conllu(lines: Iterable[str], source_name: str = "") -> Corpus:
    """Read a whole CoNLL-U document through conllu_rows; every repeat of a
    FORM, LEMMA or UPOS value shares the string object of its first occurrence."""
    share = {}.setdefault
    return Corpus(tuple(
        Sentence(tuple([
            Token(share(c[1], c[1]), None if c[2] == "_" else share(c[2], c[2]),
                  "" if c[3] == "_" else share(c[3], c[3]), c[0])
            for c in rows
        ]), tuple(comments))
        for rows, comments in conllu_rows(lines)
    ), source_name)


def conllu_rows(lines: Iterable[str]) -> Iterator[tuple[list[list], list[str]]]:
    """Check CoNLL-U rows; yield each sentence's word rows, split on tabs with
    the ID column parsed to the word's index, and its comment lines."""
    indices: dict[str, int] = {}  # each distinct ID column, parsed once
    rows: list[list] = []
    comments: list[str] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if rows:
                yield rows, comments
            rows, comments = [], []
            continue
        if line.startswith("#"):
            comments.append(line)
            continue
        cols = line.split("\t")
        if len(cols) < 10:
            raise FormatError(lineno, f"expected 10 tab-separated columns, got {len(cols)}")
        index = indices.get(cols[0])
        if index is None:
            index = indices[cols[0]] = _token_index(cols[0], lineno)
        if index < 0:
            continue
        if not cols[1]:
            raise FormatError(lineno, "empty FORM column")
        cols[0] = index
        rows.append(cols)
    if rows:
        yield rows, comments


_TOKEN_ID = re.compile("[0-9]+(?:[-.][0-9]+)?")


def _token_index(token_id: str, lineno: int) -> int:
    """The index of a word's ID; -1 for a multiword range N-M or an empty node N.M."""
    if not _TOKEN_ID.fullmatch(token_id):
        raise FormatError(lineno, f"non-numeric token id {token_id!r}")
    if not token_id.isdigit():
        return -1
    try:
        return int(token_id)
    except ValueError:  # beyond the interpreter's int-string limit
        raise FormatError(lineno, f"token id of {len(token_id)} digits") from None


def read_conllu(path: str) -> Corpus:
    return read_file(path, parse_conllu, path)


def read_file(path: str, parse: Callable[..., T], *args: object) -> T:
    """Run parse(lines, *args) over a UTF-8 file, naming the file in faults.

    A FormatError from the parser gets the path; undecodable bytes become a
    FormatError at the line that holds them, found by re-reading the file
    in binary on that error path only.
    """
    try:
        with open(path, encoding="utf-8") as fp:
            return parse(fp, *args)
    except FormatError as exc:
        err = exc
    except UnicodeDecodeError as exc:
        err = FormatError(_first_undecodable_line(path), f"not UTF-8 ({exc.reason})")
    err.path = path
    raise err


def _first_undecodable_line(path: str) -> int:
    with open(path, "rb") as fp:
        # bytes.splitlines breaks where text-mode reading does: \n, \r, \r\n
        for lineno, raw in enumerate(fp.read().splitlines(), 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return 1


def write_conllu(corpus: Corpus, fp: IO[str]) -> None:
    """Emit one row per retained token; unknown columns as underscores."""
    for sentence in corpus.sentences:
        for comment in sentence.comments:
            fp.write(comment + "\n")
        for tok in sentence.tokens:
            fields = (
                str(tok.index),
                tok.form,
                tok.lemma if tok.lemma is not None else "_",
                tok.upos if tok.upos else "_",
                "_", "_", "_", "_", "_", "_",
            )
            fp.write("\t".join(fields) + "\n")
        fp.write("\n")


def adjust_propn_lemmas(corpus: Corpus) -> Corpus:
    """Apply propn_lemma to every token, passing unchanged tokens through."""
    return Corpus(tuple(
        Sentence(tuple([
            tok if (lemma := propn_lemma(tok.lemma, tok.upos)) is tok.lemma
            else Token(tok.form, lemma, tok.upos, tok.index)
            for tok in sentence.tokens
        ]), sentence.comments)
        for sentence in corpus.sentences
    ), corpus.source_name)


def propn_lemma(lemma: str | None, upos: str) -> str | None:
    """lemma, with a lowercase first character uppercased if upos is PROPN."""
    if upos == "PROPN" and lemma and char_class(lemma[0]) is LOWER:
        return shift_upper(lemma[0]) + lemma[1:]
    return lemma


def label_corpus(
    corpus: Corpus, scheme: Scheme
) -> tuple[LabeledCorpus, list[LabelFailure]]:
    """Encode every lemmatized token; verify each label by decoding it back.

    Tokens whose label does not reproduce the gold lemma are recorded as
    failures instead of being included. Tokens without a lemma are
    skipped. Each token's (form, lemma) pair gets an id in one pass, the
    distinct pairs go through label_pairs once, and every token gets its
    pair's LabeledToken; only a sentence with a failure walks its tokens
    again, for their indices. The output has one row per input sentence.
    """
    scheme = Scheme(scheme)
    pairs: dict[tuple[str, str], int] = {}  # each distinct pair -> its id
    new = pairs.setdefault
    rows = [[new((tok.form, tok.lemma), len(pairs)) for tok in sentence.tokens
             if tok.lemma is not None] for sentence in corpus.sentences]
    labels = label_pairs(scheme, pairs)
    del pairs
    failures: list[LabelFailure] = []
    out: list[tuple[LabeledToken, ...]] = []
    for sent_idx, (sentence, ids) in enumerate(zip(corpus.sentences, rows)):
        row = [labels[i] for i in ids]
        if str in map(type, row):
            lemmatized = [tok for tok in sentence.tokens if tok.lemma is not None]
            failures += [LabelFailure(sent_idx, tok.index, hit)
                         for tok, hit in zip(lemmatized, row) if isinstance(hit, str)]
            row = [hit for hit in row if not isinstance(hit, str)]
        out.append(tuple(row))
    return LabeledCorpus(scheme, tuple(out)), failures


def label_pairs(scheme: Scheme, pairs: Iterable[tuple[str, str]]) -> list[LabeledToken | str]:
    """The verified LabeledToken of each (form, lemma) pair, or why it fails:
    the one place that encodes a pair and decodes its label back. Pairs that
    reuse a label text share one SesLabel."""
    scheme = Scheme(scheme)
    labels: dict[str, SesLabel] = {}
    out: list[LabeledToken | str] = []
    for form, lemma in pairs:
        try:
            label = schemes.encode(scheme, form, lemma)
            decoded = schemes.decode(form, label)
        except LemscriptError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
            continue
        if decoded == lemma:
            out.append(LabeledToken(form, lemma, labels.setdefault(label.text, label)))
        else:
            out.append(f"decoded to {decoded!r} instead of gold lemma")
    return out


def write_labeled(labeled: LabeledCorpus, fp: IO[str]) -> None:
    for sentence in labeled.sentences:
        for tok in sentence:
            fp.write(f"{tok.form}\t{tok.gold_lemma}\t{tok.label.text}\n")
        fp.write("\n")


def parse_labeled(lines: Iterable[str], scheme: Scheme) -> LabeledCorpus:
    scheme = Scheme(scheme)
    sentences: list[tuple[LabeledToken, ...]] = []
    for rows in _tsv_sentences(lines, 3):
        row: list[LabeledToken] = []
        for lineno, (form, lemma, label_text) in rows:
            if not label_text:
                raise FormatError(lineno, "empty label column")
            row.append(LabeledToken(form, lemma, SesLabel(scheme, label_text)))
        sentences.append(tuple(row))
    return LabeledCorpus(scheme, tuple(sentences))


def _tsv_sentences(lines: Iterable[str], columns: int) -> Iterator[list[tuple[int, list[str]]]]:
    """Split blank-line-separated TSV into sentences of (line number, columns)."""
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            if rows:
                yield rows
                rows = []
            continue
        cols = line.split("\t")
        if len(cols) != columns:
            raise FormatError(
                lineno, f"expected {columns} tab-separated columns, got {len(cols)}"
            )
        rows.append((lineno, cols))
    if rows:
        yield rows
