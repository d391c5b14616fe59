"""Command-line interface.

Subcommands: encode, decode, stats, eval, mcnemar, compare, train,
predict. Exit codes: 0 success, 1 contract failure (encode failures
present), 2 usage, I/O or input error; input errors name the file and
line, and a file with nothing to train on or score, or an eval or
mcnemar prediction file out of line with its gold file, is named. All
reports are deterministic given identical inputs and flags; JSON output
uses sorted keys. Commands that label under several schemes keep one
scheme's labels, model and sets alive at a time. encode, stats, train and
compare build no Token: they read each file once through the CoNLL-U row
core into one table of distinct (form, lemma) pairs with each sentence's
pair ids, and each scheme labels each pair once. stats, train and compare
weigh each pair by its count in each file; encode writes each sentence's
rows from its pair ids and names failed words by the word IDs it kept.
Only compare's sentence scores walk tokens again. eval and mcnemar build
no Token either: they keep the gold file's word IDs, forms and lemmas,
stream each prediction file against them, and score its right/wrong
flags through the metrics count cores as compare does. eval --train
keeps only the train file's lemmatized forms.
decode parses the whole labeled file before it writes; predict streams
the row core. An output file appears only on success, from a temporary
sibling. main() pauses the cyclic GC while its subcommand runs, since a
run builds no per-token reference cycles, and then restores the caller's
collector state; library functions never touch it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import sys
from array import array
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from . import baseline, corpus_io, metrics, schemes
from .errors import EmptyCorpus, EmptyEval, FormatError, LemscriptError
from .errors import LengthMismatch, StructureMismatch
from .model import Scheme

ALL_SCHEMES = tuple(Scheme)


def run() -> None:
    sys.exit(main())


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the tokens, labels and caches a subcommand builds live until it
    # ends and hold no cycles, so collections would only re-scan them
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (LemscriptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lemscript",
        description="Induce, apply and evaluate edit-script lemmatization labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="label a CoNLL-U corpus with edit scripts")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("output", help="labeled TSV path ('-' for stdout, single scheme only)")
    _scheme_flag(p, allow_all=True)
    _propn_flag(p)
    p.add_argument("--failures", metavar="PATH", help="write failure report JSON here")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="apply labels from a labeled TSV, emit lemmas")
    p.add_argument("input", help="labeled TSV (form<TAB>lemma<TAB>label)")
    p.add_argument("output", help="lemma TSV path ('-' for stdout)")
    _scheme_flag(p, allow_all=False)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("stats", help="per-scheme unique-label counts for a corpus")
    p.add_argument("input", help="CoNLL-U file")
    _propn_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("eval", help="word/sentence accuracy of predicted lemmas")
    p.add_argument("gold", help="gold CoNLL-U file")
    p.add_argument("pred", help="predicted lemma TSV (form<TAB>lemma)")
    p.add_argument("--train", metavar="CONLLU", help="train corpus for an INV/OOV split")
    _propn_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mcnemar", help="paired significance test between two systems")
    p.add_argument("gold", help="gold CoNLL-U file")
    p.add_argument("pred_a", help="first system's lemma TSV")
    p.add_argument("pred_b", help="second system's lemma TSV")
    p.add_argument("--granularity", choices=("word", "sentence"), default="word")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    _propn_flag(p)
    _format_flag(p)
    p.set_defaults(func=cmd_mcnemar)

    p = sub.add_parser("compare", help="three-scheme baseline comparison report")
    p.add_argument("train", help="train CoNLL-U file")
    p.add_argument("test", help="test CoNLL-U file")
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--granularity", choices=("word", "sentence"), default="word")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here instead of stdout")
    p.add_argument("--format", choices=("json", "text"), default="json")
    _propn_flag(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="train the frequency baseline, write model JSON")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("model", help="output model JSON path")
    _scheme_flag(p, allow_all=False)
    _propn_flag(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict lemmas with a trained baseline model")
    p.add_argument("model", help="model JSON path")
    p.add_argument("input", help="CoNLL-U file")
    p.add_argument("output", help="lemma TSV path ('-' for stdout)")
    p.set_defaults(func=cmd_predict)

    return parser


def cmd_encode(args: argparse.Namespace) -> int:
    pairs: dict[tuple[str, str], int] = {}
    words: list[int] = []  # each lemmatized word's ID in file order, to name failures
    rows, _ = corpus_io.read_file(args.input, _pair_ids, pairs, args.adjust_propn, words)
    table = _pair_table(pairs)
    del pairs
    targets = ALL_SCHEMES if args.scheme == "all" else (Scheme(args.scheme),)
    if args.output == "-" and len(targets) > 1:
        print("error: '-' output needs a single --scheme", file=sys.stderr)
        return 2
    failures: dict[str, list[dict[str, object]]] = {}
    for scheme in targets:
        path = args.output if len(targets) == 1 else _suffixed(args.output, scheme.value)
        labels = corpus_io.label_pairs(scheme, table)
        with _open_out(path) as fp:
            corpus_io.write_labeled(corpus_io.LabeledCorpus(scheme, (
                [labels[i] for i in ids if not isinstance(labels[i], str)] for ids in rows)), fp)
        failed = failures[scheme.value] = []
        word_ids = iter(words)
        for k, ids in enumerate(rows):
            for i in ids:
                word = next(word_ids)
                if isinstance(labels[i], str):
                    failed.append(corpus_io.LabelFailure(k, word, labels[i])._asdict())
        del labels  # one scheme's labels alive at a time
    if args.failures:
        # a single scheme gets the bare failure array
        _write_json(failures if len(targets) > 1 else failures[targets[0].value], args.failures)
    total_failures = sum(len(v) for v in failures.values())
    if total_failures:
        print(f"{total_failures} token(s) failed to encode", file=sys.stderr)
        return 1
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    labeled = corpus_io.read_file(args.input, corpus_io.parse_labeled, Scheme(args.scheme))
    warnings = 0
    with _open_out(args.output) as out:
        for sentence in labeled.sentences:
            for tok in sentence:
                lemma, failed = schemes.decode_or_form(tok.form, tok.label)
                warnings += failed
                out.write(f"{tok.form}\t{lemma}\n")
            out.write("\n")
    if warnings:
        print(f"{warnings} label(s) failed to decode; identity lemma used", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    table, counts, ((rows, tokens),) = _read_pairs([args.input], args.adjust_propn)
    report: dict[str, object] = {
        "token_total": tokens,
        "sentence_total": len(rows),
        "schemes": {scheme.value: _stats_row(scheme, table, counts) for scheme in ALL_SCHEMES},
    }
    if args.format == "json":
        _write_json(report)
    else:
        print(f"tokens: {report['token_total']}  sentences: {report['sentence_total']}")
        print(f"{'scheme':<10} {'unique_labels':>13} {'labeled_tokens':>14}")
        for scheme in ALL_SCHEMES:
            row = report["schemes"][scheme.value]
            print(f"{scheme.value:<10} {row['unique_labels']:>13} {row['labeled_tokens']:>14}")
    return 0


def _stats_row(scheme: Scheme, table: list, counts: list) -> dict[str, int]:
    (labeled,), failures = _labeled_counts(scheme, table, counts)
    return {
        "unique_labels": len({tok.label.text for tok, _ in labeled}),
        "labeled_tokens": sum(n for _, n in labeled),
        "encode_failures": failures,
    }


def cmd_eval(args: argparse.Namespace) -> int:
    gold = corpus_io.read_file(args.gold, _gold_words, args.adjust_propn)
    right = corpus_io.read_file(args.pred, _right_flags, gold, args.pred, args.gold,
                                "word accuracy over zero tokens is undefined")
    # every lemmatized train form counts as seen; only that set is kept
    train_forms = None if not args.train else corpus_io.read_file(args.train, lambda lines: {
        c[1] for rows, _ in corpus_io.conllu_rows(lines) for c in rows if c[2] != "_"})
    seen = train_forms or ()
    rows = zip(itertools.repeat(1), itertools.chain.from_iterable(right), (
        form in seen for _, forms, lemmas in gold
        for form, lemma in zip(forms, lemmas) if lemma is not None))
    report = metrics.score_counts(rows, map(all, right), train_forms is not None)
    if args.format == "json":
        payload = report._asdict()
        if not args.train:
            del payload["inv_accuracy"], payload["oov_accuracy"]
        _write_json(payload)
    else:
        print(f"word accuracy:     {report.word_accuracy:.4f} ({report.token_total} tokens)")
        print(
            f"sentence accuracy: {report.sentence_accuracy:.4f} "
            f"({report.sentence_total} sentences)"
        )
        if args.train:
            print(f"INV accuracy:      {_fmt_opt(report.inv_accuracy)}")
            print(f"OOV accuracy:      {_fmt_opt(report.oov_accuracy)}")
    return 0


def cmd_mcnemar(args: argparse.Namespace) -> int:
    gold = corpus_io.read_file(args.gold, _gold_words, args.adjust_propn)
    # per file, whether it gets each gold lemma, or each gold sentence, right
    outcomes = [
        itertools.chain.from_iterable(right) if args.granularity == "word" else map(all, right)
        for right in [corpus_io.read_file(path, _right_flags, gold, path, args.gold,
                                          "no lemmatized token to pair")
                      for path in (args.pred_a, args.pred_b)]
    ]
    b, c = metrics.paired_counts(zip(itertools.repeat(1), *outcomes))
    result = {"granularity": args.granularity, **metrics.mcnemar(b, c, args.alpha)._asdict()}
    if args.format == "json":
        _write_json(result)
    else:
        print(f"b (A right, B wrong): {result['b']}")
        print(f"c (A wrong, B right): {result['c']}")
        print(f"statistic:            {result['statistic']:.4f}")
        print(f"p-value:              {result['p_value']:.4g}")
        verdict = "significant" if result["significant"] else "not significant"
        print(f"verdict:              {verdict} at alpha={result['alpha']}")
    return 0


def _gold_words(lines: Iterable[str], adjust_propn: bool) -> list[tuple[list, list, list]]:
    """Each gold sentence's word IDs, forms and lemmas (None for "_"), with
    one string per distinct form or lemma."""
    share = {}.setdefault
    return [(
        [c[0] for c in rows],
        [share(c[1], c[1]) for c in rows],
        [None if c[2] == "_" else share(
            lemma := corpus_io.propn_lemma(c[2], c[3]) if adjust_propn else c[2], lemma)
         for c in rows],
    ) for rows, _ in corpus_io.conllu_rows(lines)]


def _right_flags(
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
    for rows in corpus_io._tsv_sentences(lines, 2):
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


def cmd_compare(args: argparse.Namespace) -> int:
    report: dict[str, object] = {"schemes": {}, "mcnemar": {}}
    table, counts, read = _read_pairs((args.train, args.test), args.adjust_propn)
    for key, (ids, tokens) in zip(("train", "test"), read):
        report[key] = {"path": getattr(args, key), "tokens": tokens, "sentences": len(ids)}
    test_ids = read.pop()[0]  # only the test sentences are walked again
    del read
    word = args.granularity == "word"  # McNemar over test pairs by count, or test sentences
    weights = counts[1] if word else itertools.repeat(1)
    outcomes = {}  # per scheme, which of those positions it gets right
    try:
        for scheme in ALL_SCHEMES:
            row, right, hits = _compare_scheme(scheme, table, counts, test_ids)
            report["schemes"][scheme.value] = row
            outcomes[scheme.value] = right if word else hits
    except EmptyCorpus as exc:
        raise EmptyCorpus(f"{args.train}: {exc}") from None
    except EmptyEval as exc:
        raise EmptyEval(f"{args.test}: {exc}") from None
    for first, second in itertools.combinations(outcomes, 2):
        b, c = metrics.paired_counts(zip(weights, outcomes[first], outcomes[second]))
        result = {"granularity": args.granularity, **metrics.mcnemar(b, c, args.alpha)._asdict()}
        report["mcnemar"][f"{first}_vs_{second}"] = result
    if args.format == "text":
        _write(_compare_text(report), args.out)
    else:
        _write_json(report, args.out)
    return 0


def _read_pairs(paths: Sequence[str], adjust_propn: bool) -> tuple[list, list, list]:
    """The _pair_table of CoNLL-U files, each file's token count per pair id,
    and each file's _pair_ids."""
    pairs: dict[tuple[str, str], int] = {}  # each distinct pair -> its id
    read = [corpus_io.read_file(path, _pair_ids, pairs, adjust_propn) for path in paths]
    table = _pair_table(pairs)
    del pairs
    found = (Counter(itertools.chain.from_iterable(rows)) for rows, _ in read)
    return table, [array("i", map(n.__getitem__, range(len(table)))) for n in found], read


def _pair_table(pairs: dict) -> list[tuple[str, str]]:
    """The distinct (form, lemma) pairs in id order, one string per distinct value."""
    share = {}.setdefault
    return [(share(form, form), share(lemma, lemma)) for form, lemma in pairs]


def _pair_ids(
    lines: Iterable[str], pairs: dict, adjust_propn: bool, words: list | None = None
) -> tuple[list[array], int]:
    """Each sentence's lemmatized tokens as ids into pairs, which grows in
    first-seen order, and the number of tokens read. words, if given, gets
    each lemmatized word's ID, in file order."""
    rows, tokens = [], 0
    new = pairs.setdefault
    for sentence, _ in corpus_io.conllu_rows(lines):
        tokens += len(sentence)
        ids = [new((c[1], corpus_io.propn_lemma(c[2], c[3]) if adjust_propn else c[2]),
                   len(pairs)) for c in sentence if c[2] != "_"]
        rows.append(array("i", ids))
        if words is not None:
            words.extend([c[0] for c in sentence if c[2] != "_"])
    return rows, tokens


def _labeled_counts(scheme: Scheme, table: list, counts: list) -> tuple[list[list], int]:
    """Label each distinct pair once; per file, the (LabeledToken, count) rows
    of its pairs that labeled, and the tokens of all files that did not."""
    labels = corpus_io.label_pairs(scheme, table)
    failed = sum(n for ns in counts for tok, n in zip(labels, ns) if isinstance(tok, str))
    return [[(tok, n) for tok, n in zip(labels, ns) if n and not isinstance(tok, str)]
            for ns in counts], failed


def _compare_scheme(scheme: Scheme, table: list, counts: list, test_ids: list) -> tuple:
    """One scheme's report row, which test pairs (by id) and which test
    sentences it gets right. Only the sentence hits walk the tokens; the
    rest walks the distinct pairs with their train and test counts."""
    (train, test), failures = _labeled_counts(scheme, table, counts)
    n_test = counts[1]
    model = baseline.train_counts(scheme, train)
    # only the train forms that labeled successfully count as seen
    train_forms = {tok.form for tok, _ in train}
    predicted = baseline.predict_forms(model, (form for (form, _), n in zip(table, n_test) if n))
    del model  # not needed again: free its dicts before the OOV sets are built
    right = bytearray(len(table))
    scored = []
    fallback_uses = decode_failures = 0
    for pid, n in enumerate(n_test):
        if n:
            form, lemma = table[pid]
            pred, used_fallback, failed = predicted[form]
            right[pid] = ok = pred == lemma
            scored.append((n, ok, form in train_forms))
            fallback_uses += n * used_fallback
            decode_failures += n * failed
    hits = [all(map(right.__getitem__, ids)) for ids in test_ids]
    scores = metrics.score_counts(scored, hits, True)._asdict()
    del scores["token_total"], scores["sentence_total"]
    oov = metrics.oov_counts((tok for tok, _ in train), test)._asdict()
    return {
        "unique_labels": len({tok.label.text for tok, _ in train}),
        "encode_failures": failures,
        "baseline": {**scores, "fallback_uses": fallback_uses, "decode_failures": decode_failures},
        # the OovReport rates and flag, named without their "oov_" prefix
        "oov": {name.removeprefix("oov_"): v for name, v in oov.items() if name != "token_total"},
    }, right, hits


def _compare_text(report: dict) -> str:
    lines = [
        f"{'scheme':<10} {'labels':>7} {'word_acc':>9} {'sent_acc':>9} "
        f"{'oov_words':>10} {'oov_ses':>8} {'dec_fail':>8}"
    ]
    for scheme in ALL_SCHEMES:
        row = report["schemes"][scheme.value]
        base = row["baseline"]
        oov = row["oov"]
        lines.append(
            f"{scheme.value:<10} {row['unique_labels']:>7} "
            f"{base['word_accuracy']:>9.4f} {base['sentence_accuracy']:>9.4f} "
            f"{metrics.format_percent(oov['word_rate']):>10} "
            f"{metrics.format_percent(oov['ses_rate']):>8} "
            f"{base['decode_failures']:>8}"
        )
    lines.append("")
    for name, result in sorted(report["mcnemar"].items()):
        verdict = "significant" if result["significant"] else "not significant"
        lines.append(
            f"{name}: b={result['b']} c={result['c']} "
            f"statistic={result['statistic']:.4f} p={result['p_value']:.4g} ({verdict})"
        )
    return "\n".join(lines) + "\n"


def cmd_train(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    table, counts = _read_pairs([args.input], args.adjust_propn)[:2]
    (labeled,), failures = _labeled_counts(scheme, table, counts)
    try:
        model = baseline.train_counts(scheme, labeled)
    except EmptyCorpus as exc:
        raise EmptyCorpus(f"{args.input}: {exc}") from None
    with _open_out(args.model) as fp:
        baseline.save_model(model, fp)
    if failures:
        print(f"{failures} token(s) failed to encode and were skipped", file=sys.stderr)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = corpus_io.read_file(args.model, baseline.load_model)
    with _open_out(args.output) as out:
        failures = corpus_io.read_file(args.input, _predict_rows, model, out)
    if failures:
        print(f"{failures} prediction(s) fell back to the identity lemma", file=sys.stderr)
    return 0


def _predict_rows(lines: Iterable[str], model: baseline.BaselineModel, out: IO[str]) -> int:
    """Write form<TAB>lemma rows sentence by sentence as they are read, each
    distinct form predicted once; return how many got the identity lemma."""
    labels: dict = {}
    rows: dict[str, str] = {}  # form -> its finished row
    fell_back: set[str] = set()  # the forms whose label failed to decode
    failures = 0
    for sentence, _ in corpus_io.conllu_rows(lines):
        text = []
        for cols in sentence:
            form = cols[1]
            row = rows.get(form)
            if row is None:
                lemma, _, failed = baseline._predict(model, form, labels)
                row = rows[form] = f"{form}\t{lemma}\n"
                if failed:
                    fell_back.add(form)
            text.append(row)
            failures += form in fell_back
        out.write("".join(text) + "\n")
    return failures


def _scheme_flag(p: argparse.ArgumentParser, allow_all: bool) -> None:
    choices = [s.value for s in ALL_SCHEMES] + (["all"] if allow_all else [])
    p.add_argument("--scheme", choices=choices, required=True)


def _propn_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--adjust-propn",
        action="store_true",
        help="uppercase the first character of lowercase PROPN lemmas",
    )


def _alpha(text: str) -> float:
    """An --alpha value: a number in (0, 1); NaN is not in it."""
    try:
        if 0 < (value := float(text)) < 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"alpha must be a number in (0, 1), got {text!r}")


def _format_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _suffixed(path: str, scheme: str) -> str:
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{scheme}{p.suffix}" if p.suffix else f"{p.name}.{scheme}"))


@contextlib.contextmanager
def _open_out(path: str) -> Iterator[IO[str]]:
    """A text stream to path ('-' for stdout) whose text arrives only if the
    block succeeds. A regular file is written as a sibling temporary file
    that then replaces it; stdout, devices and pipes get a buffer at the end."""
    if path == "-" or os.path.exists(path) and not os.path.isfile(path):
        buffer = io.StringIO()
        yield buffer
        if path == "-":
            sys.stdout.write(buffer.getvalue())
        else:
            Path(path).write_text(buffer.getvalue(), encoding="utf-8")
        return
    path = os.path.realpath(path)  # replace a symlink's target, not the link
    temp = f"{path}.{os.getpid()}.tmp"
    fp = open(temp, "x", encoding="utf-8")
    try:
        with fp:
            yield fp
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _write(text: str, path: str | None = None) -> None:
    """Write text to path, or to stdout without one."""
    with _open_out(path or "-") as fp:
        fp.write(text)


def _write_json(payload: object, path: str | None = None) -> None:
    _write(json.dumps(payload, ensure_ascii=False, sort_keys=True, indent=2) + "\n", path)


def _fmt_opt(value: object) -> str:
    return f"{value:.4f}" if isinstance(value, float) else "absent"


if __name__ == "__main__":
    run()
