"""Command-line interface: argument parsing, the order of stage calls,
reports and exit codes.

Subcommands: encode, decode, stats, eval, mcnemar, compare, train,
predict. Each reads its files through the stages of corpus_io and baseline
and scores through the metrics count cores, calling every stage through
its module attribute; this module reads no file's lines itself. Exit
codes: 0 success, 1 contract failure (encode failures present), 2 usage,
I/O or input error; input errors name the file and line, and a file with
nothing to train on or score, or an eval or mcnemar prediction file out
of line with its gold file, is named. All reports are deterministic given
identical inputs and flags; JSON output uses sorted keys. Commands that
label under several schemes keep one scheme's labels, model and sets
alive at a time. An output file appears only on success, from a temporary
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
from pathlib import Path
from typing import IO, Iterator, Sequence

from . import baseline, corpus_io, metrics
from .errors import EmptyCorpus, EmptyEval, LemscriptError
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
    targets = ALL_SCHEMES if args.scheme == "all" else (Scheme(args.scheme),)
    if args.output == "-" and len(targets) > 1:
        print("error: '-' output needs a single --scheme", file=sys.stderr)
        return 2
    paths = ([args.output] if len(targets) == 1
             else [_suffixed(args.output, scheme.value) for scheme in targets])
    if args.failures and _where(args.failures) in map(_where, paths):
        print("error: --failures names one of the label outputs", file=sys.stderr)
        return 2
    pairs: dict[tuple[str, str], int] = {}
    words: list[int] = []  # each lemmatized word's ID in file order, to name failures
    rows, _ = corpus_io.read_file(args.input, corpus_io.pair_ids, pairs, args.adjust_propn, words)
    table = corpus_io.pair_table(pairs)
    del pairs
    # where each sentence's word IDs start in words
    starts = array("q", itertools.accumulate(map(len, rows), initial=0))
    failures: dict[str, list[dict[str, object]]] = {}
    for scheme, path in zip(targets, paths):
        labels = corpus_io.label_pairs(scheme, table)
        failed: list[corpus_io.LabelFailure] = []
        with _open_out(path) as fp:
            corpus_io.write_labeled(corpus_io.LabeledCorpus(scheme, corpus_io.labeled_rows(
                labels, rows, lambda k: words[starts[k]:starts[k + 1]], failed)), fp)
        failures[scheme.value] = [failure._asdict() for failure in failed]
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
    with _open_out(args.output) as out:
        warnings = corpus_io.read_file(args.input, corpus_io.decode_rows, Scheme(args.scheme), out)
    if warnings:
        print(f"{warnings} label(s) failed to decode; identity lemma used", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    table, counts, ((rows, tokens),) = corpus_io.read_pairs([args.input], args.adjust_propn)
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
    (labeled,), failures = corpus_io.labeled_counts(scheme, table, counts)
    return {
        "unique_labels": len({tok.label.text for tok, _ in labeled}),
        "labeled_tokens": sum(n for _, n in labeled),
        "encode_failures": failures,
    }


def cmd_eval(args: argparse.Namespace) -> int:
    gold = corpus_io.read_file(args.gold, corpus_io.gold_words, args.adjust_propn)
    right = corpus_io.read_file(args.pred, corpus_io.right_flags, gold, args.pred, args.gold,
                                "word accuracy over zero tokens is undefined")
    # every lemmatized train form counts as seen; only that set is kept
    train_forms = None if not args.train else corpus_io.read_file(
        args.train, corpus_io.lemmatized_forms)
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
    gold = corpus_io.read_file(args.gold, corpus_io.gold_words, args.adjust_propn)
    # per file, whether it gets each gold lemma, or each gold sentence, right
    outcomes = [
        itertools.chain.from_iterable(right) if args.granularity == "word" else map(all, right)
        for right in [corpus_io.read_file(path, corpus_io.right_flags, gold, path, args.gold,
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


def cmd_compare(args: argparse.Namespace) -> int:
    report: dict[str, object] = {"schemes": {}, "mcnemar": {}}
    table, counts, read = corpus_io.read_pairs((args.train, args.test), args.adjust_propn)
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


def _compare_scheme(scheme: Scheme, table: list, counts: list, test_ids: list) -> tuple:
    """One scheme's report row, which test pairs (by id) and which test
    sentences it gets right. Only the sentence hits walk the tokens; the
    rest walks the distinct pairs with their train and test counts."""
    (train, test), failures = corpus_io.labeled_counts(scheme, table, counts)
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
    table, counts = corpus_io.read_pairs([args.input], args.adjust_propn)[:2]
    (labeled,), failures = corpus_io.labeled_counts(scheme, table, counts)
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
        failures = corpus_io.read_file(args.input, baseline.predict_rows, model, out)
    if failures:
        print(f"{failures} prediction(s) fell back to the identity lemma", file=sys.stderr)
    return 0


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


def _where(path: str) -> str:
    """The file an output path writes: '-' itself, or the path resolved."""
    return path if path == "-" else os.path.realpath(path)


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
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    temp = f"{target}.{os.getpid()}.tmp"
    try:
        fp = open(temp, "x", encoding="utf-8")
    except OSError as exc:  # name the output as given, not its temporary file
        raise OSError(f"{path}: {exc.strerror}") from None
    try:
        with fp:
            yield fp
        os.replace(temp, target)
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
