"""lemscript's layers as the benchmark traces them, and the per-layer metrics.

`PER_LAYER` is the one list of per-layer metric names, units and
directions; `BENCHMARK.json` repeats it and the self-tests check that the
two agree. Every traced run reports every name, with 0 for a layer that
did not run on the workload.

Where each layer is wrapped (the module attribute its callers look up):

- corpus_io.read_conllu, parse_conllu, label_corpus: as `cli` calls them
  (read_conllu reaches parse_conllu through the same module attribute)
- schemes.encode, schemes.decode: as `corpus_io` and `baseline` call them;
  the span name carries the scheme
- longest_common_substring, min_script_align in schemes.udpipe;
  levenshtein_align in schemes.ixapipes and schemes.morpheus
- baseline.train_baseline, baseline.predict_corpus, and the `metrics`
  functions cmd_compare calls: as `cli` calls them
- cli.main: the benchmark's own call into the CLI

casing has no span of its own; its time is part of scheme self time.
"""

from __future__ import annotations

from lemscript import baseline, cli, corpus_io, metrics, schemes
from lemscript.errors import LabelDecodeError
from lemscript.model import Scheme
from lemscript.schemes import ixapipes, morpheus, udpipe

from spans import Tracer

SCHEMES = tuple(s.value for s in Scheme)
ALIGNERS = ("levenshtein_align", "min_script_align", "longest_common_substring")
DECODE_ERRORS = ("ArityMismatch", "CharMismatch", "IndexOutOfRange", "LengthMismatch", "ParseError")
METRIC_FUNCTIONS = (
    "word_accuracy",
    "sentence_accuracy",
    "inv_oov_accuracy",
    "oov_report",
    "unique_labels",
    "paired_outcomes",
    "mcnemar",
)


def _per_layer() -> list[tuple[str, str, str]]:
    rows = []
    for fn in ALIGNERS:
        rows += [
            (f"alignment.{fn}.s", "s", "lower"),
            (f"alignment.{fn}.calls", "count", "lower"),
            (f"alignment.{fn}.cells", "count", "lower"),
        ]
    for scheme in SCHEMES:
        rows += [
            (f"schemes.{scheme}.encode.s", "s", "lower"),
            (f"schemes.{scheme}.encode.calls", "count", "lower"),
            (f"schemes.{scheme}.decode.s", "s", "lower"),
            (f"schemes.{scheme}.decode.calls", "count", "lower"),
            (f"schemes.{scheme}.decode.errors", "count", "lower"),
        ]
        rows += [(f"schemes.{scheme}.decode.errors.{e}", "count", "lower") for e in DECODE_ERRORS]
    rows += [
        ("corpus_io.read_conllu.s", "s", "lower"),
        ("corpus_io.parse_conllu.s", "s", "lower"),
        ("corpus_io.parse_conllu.tokens", "count", "higher"),
        ("corpus_io.label_corpus.s", "s", "lower"),
        ("corpus_io.label_corpus.tokens", "count", "higher"),
        ("corpus_io.label_corpus.encode_calls", "count", "lower"),
        ("corpus_io.label_corpus.hit_ratio", "ratio", "higher"),
        ("corpus_io.label_corpus.useful_ratio", "ratio", "higher"),
        ("corpus_io.label_corpus.failures", "count", "lower"),
        ("baseline.train_baseline.s", "s", "lower"),
        ("baseline.train_baseline.tokens", "count", "higher"),
        ("baseline.predict_corpus.s", "s", "lower"),
        ("baseline.predict_corpus.tokens", "count", "higher"),
        ("baseline.predict_corpus.fallback_uses", "count", "lower"),
        ("baseline.predict_corpus.decode_failures", "count", "lower"),
    ]
    rows += [(f"metrics.{fn}.s", "s", "lower") for fn in METRIC_FUNCTIONS]
    rows += [("cli.s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return rows


PER_LAYER = _per_layer()
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _common_prefix(a: str, b: str) -> int:
    k = 0
    for ca, cb in zip(a, b):
        if ca != cb:
            break
        k += 1
    return k


class LayerTrace:
    """A Tracer wired to lemscript's layers, plus the counters they need."""

    def __init__(self, span_cap: int = 200_000):
        self.tracer = Tracer(span_cap=span_cap)
        self.labelled_pairs: set[tuple[str, str, str]] = set()

    def patched(self):
        return self.tracer.patched(self._targets())

    def _targets(self) -> list[tuple]:
        counters = self.tracer.counters
        targets = []

        def aligner(fn):
            def done(args, result, parent):
                a, b = args[0], args[1]
                if fn == "longest_common_substring":
                    cells = len(a) * len(b)
                else:
                    k = _common_prefix(a, b)
                    cells = (len(a) - k) * (len(b) - k)
                counters[f"alignment.{fn}.cells"] += cells

            return done

        targets += [(udpipe, fn, f"alignment.{fn}", aligner(fn), None)
                    for fn in ("longest_common_substring", "min_script_align")]
        targets += [(module, "levenshtein_align", "alignment.levenshtein_align",
                     aligner("levenshtein_align"), None) for module in (ixapipes, morpheus)]

        def encode_seen(args, _outcome, parent):
            if parent == "corpus_io.label_corpus":
                counters["corpus_io.label_corpus.encode_calls"] += 1
                scheme, form, lemma = args
                self.labelled_pairs.add((Scheme(scheme).value, form, lemma))

        def decode_failed(args, exc, _parent):
            if isinstance(exc, LabelDecodeError):
                prefix = f"schemes.{args[1].scheme.value}.decode.errors"
                counters[prefix] += 1
                counters[f"{prefix}.{type(exc).__name__}"] += 1

        targets += [
            (schemes, "encode", lambda scheme, *_: f"schemes.{Scheme(scheme).value}.encode",
             encode_seen, encode_seen),
            (schemes, "decode", lambda _form, label: f"schemes.{label.scheme.value}.decode",
             None, decode_failed),
        ]

        def parsed(args, corpus, parent):
            counters["corpus_io.parse_conllu.tokens"] += corpus.token_count

        def labelled(args, result, parent):
            counters["corpus_io.label_corpus.tokens"] += sum(
                1 for s in args[0].sentences for t in s.tokens if t.lemma is not None
            )
            counters["corpus_io.label_corpus.failures"] += len(result[1])

        def trained(args, model, parent):
            counters["baseline.train_baseline.tokens"] += args[0].token_count

        def predicted(args, result, parent):
            stats = result[1]
            counters["baseline.predict_corpus.tokens"] += stats.tokens
            counters["baseline.predict_corpus.fallback_uses"] += stats.fallback_uses
            counters["baseline.predict_corpus.decode_failures"] += stats.decode_failures

        targets += [
            (corpus_io, "read_conllu", "corpus_io.read_conllu", None, None),
            (corpus_io, "parse_conllu", "corpus_io.parse_conllu", parsed, None),
            (corpus_io, "label_corpus", "corpus_io.label_corpus", labelled, None),
            (baseline, "train_baseline", "baseline.train_baseline", trained, None),
            (baseline, "predict_corpus", "baseline.predict_corpus", predicted, None),
            (cli, "main", "cli", None, None),
        ]
        targets += [(metrics, fn, f"metrics.{fn}", None, None) for fn in METRIC_FUNCTIONS]
        return targets

    def values(self) -> dict[str, float | int]:
        """Every per-layer metric except trace.overhead_s, from the aggregates."""
        tr = self.tracer
        out: dict[str, float | int] = {}
        for name, unit, _ in PER_LAYER:
            span, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = tr.self_seconds(span)
            elif kind == "calls":
                out[name] = tr.calls.get(span, 0)
            else:
                out[name] = tr.counters.get(name, 0)
        tokens = out["corpus_io.label_corpus.tokens"]
        encodes = out["corpus_io.label_corpus.encode_calls"]
        out["corpus_io.label_corpus.hit_ratio"] = 1 - encodes / tokens if tokens else 0.0
        out["corpus_io.label_corpus.useful_ratio"] = (
            len(self.labelled_pairs) / encodes if encodes else 0.0
        )
        del out["trace.overhead_s"]
        return out
