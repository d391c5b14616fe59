"""Treebank ingestion, the proper-noun lemma adjustment, and labeled datasets.

Input is CoNLL-U: tab-separated 10-column rows, "#" comment lines, blank
lines between sentences, UTF-8. A word's ID is an ASCII number from 1
without a leading zero; multiword ranges (ID "N-M") and empty nodes (ID
"N.M", where N may be 0) are skipped, and any other ID is a format
error. A LEMMA of "_" is treated as absent. Labeled datasets serialize
as 3-column TSV (form<TAB>gold_lemma<TAB>label) and lemma predictions as
2-column TSV (form<TAB>lemma), each with a blank line after each
sentence.

The CLI reads every file through the stages below, and none builds a
Token. read_pairs reads CoNLL-U files once each into one table of distinct
(form, lemma) pairs, each sentence's pair ids and each file's token count
per pair, and labeled_counts labels each pair once and weighs it by its
counts. right_flags streams a prediction file against gold_words, and
decode_rows writes each labeled row as it reads it.
"""

from __future__ import annotations

import itertools
import re
from array import array
from collections import Counter
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from . import schemes
from .casing import shift_upper
from .errors import EmptyEval, FormatError, LemscriptError, LengthMismatch, StructureMismatch
from .model import Corpus, Scheme, Sentence, SesLabel, Token, _Value, _setters

T = TypeVar("T")


class LabeledToken(_Value):
    """One labeled row, slotted: parse_labeled and label_corpus hold one per row."""

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
        if len(cols) != 10:
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
# the UD validator's shapes: no number has a leading zero, and only an empty node's N may be 0
_UD_ID = re.compile(r"[1-9][0-9]*(?:-[1-9][0-9]*)?|(?:0|[1-9][0-9]*)\.[1-9][0-9]*")


def _token_index(token_id: str, lineno: int) -> int:
    """The index of a word's ID; -1 for a multiword range N-M or an empty node N.M."""
    if not _TOKEN_ID.fullmatch(token_id):
        raise FormatError(lineno, f"non-numeric token id {token_id!r}")
    if not _UD_ID.fullmatch(token_id):
        raise FormatError(lineno, f"token id {token_id!r} has a number that is 0 or starts with 0")
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
    if upos == "PROPN" and lemma and shift_upper(lemma[0]) != lemma[0]:
        return shift_upper(lemma[0]) + lemma[1:]
    return lemma


def label_corpus(
    corpus: Corpus, scheme: Scheme
) -> tuple[LabeledCorpus, list[LabelFailure]]:
    """Encode every lemmatized token; verify each label by decoding it back.

    Tokens whose label does not reproduce the gold lemma are recorded as
    failures instead of being included. Tokens without a lemma are
    skipped. Each token's (form, lemma) pair gets an id in one pass, the
    distinct pairs go through label_pairs once, and labeled_rows gives
    every token its pair's LabeledToken. The output has one row per input
    sentence.
    """
    scheme = Scheme(scheme)
    pairs: dict[tuple[str, str], int] = {}  # each distinct pair -> its id
    new = pairs.setdefault
    rows = [[new((tok.form, tok.lemma), len(pairs)) for tok in sentence.tokens
             if tok.lemma is not None] for sentence in corpus.sentences]
    labels = label_pairs(scheme, pairs)
    del pairs
    failures: list[LabelFailure] = []
    sentences = tuple(labeled_rows(labels, rows, lambda k: [
        tok.index for tok in corpus.sentences[k].tokens if tok.lemma is not None], failures))
    return LabeledCorpus(scheme, sentences), failures


def labeled_rows(
    labels: Sequence[LabeledToken | str], rows: Iterable[Sequence[int]],
    words: Callable[[int], Iterable[int]], failures: list[LabelFailure],
) -> Iterator[tuple[LabeledToken, ...]]:
    """Each sentence's LabeledTokens, from its pair ids in rows and the
    label_pairs result labels. A pair that failed appends a LabelFailure
    to failures; words(k) gives sentence k's lemmatized word IDs and is
    called only for a sentence with a failure."""
    for k, ids in enumerate(rows):
        row = [labels[i] for i in ids]
        if str in map(type, row):
            failures += [LabelFailure(k, word, hit)
                         for word, hit in zip(words(k), row) if isinstance(hit, str)]
            row = [hit for hit in row if not isinstance(hit, str)]
        yield tuple(row)


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


def read_pairs(paths: Sequence[str], adjust_propn: bool) -> tuple[list, list, list]:
    """The pair_table of CoNLL-U files, each file's token count per pair id,
    and each file's pair_ids."""
    pairs: dict[tuple[str, str], int] = {}  # each distinct pair -> its id
    read = [read_file(path, pair_ids, pairs, adjust_propn) for path in paths]
    table = pair_table(pairs)
    del pairs
    found = (Counter(itertools.chain.from_iterable(rows)) for rows, _ in read)
    return table, [array("i", map(n.__getitem__, range(len(table)))) for n in found], read


def pair_table(pairs: dict) -> list[tuple[str, str]]:
    """The distinct (form, lemma) pairs in id order, one string per distinct value."""
    share = {}.setdefault
    return [(share(form, form), share(lemma, lemma)) for form, lemma in pairs]


def pair_ids(
    lines: Iterable[str], pairs: dict, adjust_propn: bool, words: list | None = None
) -> tuple[list[array], int]:
    """Each sentence's lemmatized tokens as ids into pairs, which grows in
    first-seen order, and the number of tokens read. words, if given, gets
    each lemmatized word's ID, in file order."""
    rows, tokens = [], 0
    new = pairs.setdefault
    for sentence, _ in conllu_rows(lines):
        tokens += len(sentence)
        ids = [new((c[1], propn_lemma(c[2], c[3]) if adjust_propn else c[2]),
                   len(pairs)) for c in sentence if c[2] != "_"]
        rows.append(array("i", ids))
        if words is not None:
            words.extend([c[0] for c in sentence if c[2] != "_"])
    return rows, tokens


def labeled_counts(scheme: Scheme, table: list, counts: list) -> tuple[list[list], int]:
    """Label each distinct pair once; per file, the (LabeledToken, count) rows
    of its pairs that labeled, and the tokens of all files that did not."""
    labels = label_pairs(scheme, table)
    failed = sum(n for ns in counts for tok, n in zip(labels, ns) if isinstance(tok, str))
    return [[(tok, n) for tok, n in zip(labels, ns) if n and not isinstance(tok, str)]
            for ns in counts], failed


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


def decode_rows(lines: Iterable[str], scheme: Scheme, out: IO[str]) -> int:
    """Write a form<TAB>lemma row for each labeled TSV row as it is read: the
    row's label applied to its form, or the form itself when the label does
    not apply. Return how many rows fell back so. Rows that repeat a label
    text share one SesLabel; an empty label is a FormatError."""
    scheme = Scheme(scheme)
    labels: dict[str, SesLabel] = {}
    failures = 0
    for rows in _tsv_sentences(lines, 3):
        for lineno, (form, _, text) in rows:
            label = labels.get(text)
            if label is None:
                if not text:
                    raise FormatError(lineno, "empty label column")
                label = labels[text] = SesLabel(scheme, text)
            lemma, failed = schemes.decode_or_form(form, label)
            failures += failed
            out.write(f"{form}\t{lemma}\n")
        out.write("\n")
    return failures


def gold_words(lines: Iterable[str], adjust_propn: bool) -> list[tuple[list, list, list]]:
    """Each gold sentence's word IDs, forms and lemmas (None for "_"), with
    one string per distinct form or lemma."""
    share = {}.setdefault
    return [(
        [c[0] for c in rows],
        [share(c[1], c[1]) for c in rows],
        [None if c[2] == "_" else share(
            lemma := propn_lemma(c[2], c[3]) if adjust_propn else c[2], lemma)
         for c in rows],
    ) for rows, _ in conllu_rows(lines)]


def right_flags(
    lines: Iterable[str], gold: list, path: str, gold_path: str, no_lemma: str
) -> list[bytearray]:
    """Per sentence of gold (read from gold_path), whether the predictions at
    path get each lemmatized word's lemma right. Each predicted sentence holds
    one form<TAB>lemma row per word or one per lemmatized word, and each row's
    form must be its word's. Of the faults, the first in this order is raised:
    the row total, no gold lemma at all (with the message no_lemma), the
    sentence count, a sentence's row count, a form."""
    flags: list[bytearray] = []
    rows_total = 0
    count_fault = form_fault = None
    for rows in _tsv_sentences(lines, 2):
        rows_total += len(rows)
        k = len(flags)
        flags.append(right := bytearray())
        if k >= len(gold):
            continue
        ids, forms, lemmas = gold[k]
        words = zip(ids, forms, lemmas)
        if len(rows) != len(forms):
            words = [word for word in words if word[2] is not None]
            if len(rows) != len(words) and count_fault is None:
                count_fault = (f"sentence {k}: {len(words)} gold lemmas "
                               f"in {len(forms)} words vs {len(rows)} predicted")
        for (lineno, (form, lemma)), (word_id, gold_form, gold_lemma) in zip(rows, words):
            if form != gold_form and form_fault is None:
                form_fault = FormatError(lineno, f"form {form!r}, {gold_path} sentence {k} "
                                         f"word {word_id} has {gold_form!r}")
            if gold_lemma is not None:
                right.append(lemma == gold_lemma)
    lemma_total = sum(len(lemmas) - lemmas.count(None) for _, _, lemmas in gold)
    if rows_total not in (lemma_total, sum(len(forms) for _, forms, _ in gold)):
        raise LengthMismatch(f"{path}: {lemma_total} gold lemmas vs {rows_total} predictions")
    if not lemma_total:
        raise EmptyEval(f"{gold_path}: {no_lemma}")
    if len(flags) != len(gold):
        raise StructureMismatch(f"{path}: {len(gold)} gold sentences vs {len(flags)} predicted")
    if count_fault:
        raise StructureMismatch(f"{path}: {count_fault}")
    if form_fault:
        raise form_fault
    return flags


def lemmatized_forms(lines: Iterable[str]) -> set[str]:
    """The forms of a CoNLL-U document's lemmatized words."""
    return {c[1] for rows, _ in conllu_rows(lines) for c in rows if c[2] != "_"}


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
