"""The plan a label carries changes no outcome, wherever the label comes from.

The oracle decodes from parse_label with its own apply step and the
casing rule of scheme_reference, so it never touches lemscript.casing;
it counts the characters each udpipe script consumes from the op
strings, not from the plan. A label from encode is not parsed at all:
decode applies the plan the label carries, which must equal the parse of
its text, and the label decodes as its text-only twin does. A label read
as text gets its plan from schemes.from_text, and every reader parses
each distinct text once per call; a text that does not parse gives a
label without a plan, which raises its ParseError on every decode.
"""

from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPARISON_PAIRS, corpus_of
from lemscript.cli import main
from lemscript.corpus_io import parse_labeled, write_conllu
from lemscript.errors import (
    ArityMismatch,
    CharMismatch,
    IndexOutOfRange,
    LabelDecodeError,
    LengthMismatch,
    ParseError,
)
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import decode, from_text, ixapipes, morpheus, udpipe
from scheme_reference import fold_lower, fold_upper, shift_lower
from test_acceptance import _fuzz_pairs
from test_scheme_reference import ALPHABET, pairs as label_pairs

MODULES = {Scheme.UDPIPE: udpipe, Scheme.IXAPIPES: ixapipes, Scheme.MORPHEUS: morpheus}


def _ops(serialized):
    # (kind, payload) per udpipe op; an insert takes the next character
    kinds = {"→": "copy", "-": "del"}
    chars = iter(serialized)
    return [("ins", next(chars)) if c == "+" else (kinds[c], "") for c in chars]


def _replay(ops, source):
    out, pos = [], 0
    for kind, payload in ops:
        if kind == "ins":
            out.append(payload)
        else:
            if kind == "copy":
                out.append(source[pos])
            pos += 1
    return "".join(out)


def reference_udpipe(form, text):
    absolute, segments, prefix_ops, suffix_ops, _, _ = udpipe.parse_label(text)
    if absolute is not None:
        return absolute
    prefix_ops, suffix_ops = _ops(prefix_ops), _ops(suffix_ops)
    front = sum(kind != "ins" for kind, _ in prefix_ops)
    back = sum(kind != "ins" for kind, _ in suffix_ops)
    if front + back > len(form):
        raise LengthMismatch("label consumes more than the wordform")
    lowered = fold_lower(form)
    word = (
        _replay(prefix_ops, lowered[:front])
        + lowered[front : len(form) - back]
        + _replay(suffix_ops, lowered[len(form) - back :])
    )
    starts = [start for _, start in segments[1:]] + [len(word)]
    return "".join(
        (fold_upper if direction == "↑" else fold_lower)(word[start:end])
        for (direction, start), end in zip(segments, starts)
    )


def reference_ixapipes(form, text):
    lower_first, tokens = ixapipes.parse_label(text)
    word = form[::-1]
    if lower_first and word:
        word = word[:-1] + shift_lower(word[-1])
    for kind, i, chars in tokens:
        if kind == "I":
            if i > len(word):
                raise IndexOutOfRange("insert past the word")
            word = word[:i] + chars + word[i:]
            continue
        if i >= len(word):
            raise IndexOutOfRange("edit past the word")
        if word[i] != chars[0]:
            raise CharMismatch("wrong character")
        word = word[:i] + chars[1:] + word[i + 1 :]
    return word[::-1]


def reference_morpheus(form, text):
    tokens = morpheus.parse_label(text)
    if len(tokens) != len(form):
        raise ArityMismatch("one token per character")
    word = ""
    for ch, (kind, payload) in zip(form, tokens):
        if kind == "s":
            word += ch
        elif kind == "l":
            word += shift_lower(ch)
        elif kind == "r":
            word += payload
    return word


REFERENCES = {
    Scheme.UDPIPE: reference_udpipe,
    Scheme.IXAPIPES: reference_ixapipes,
    Scheme.MORPHEUS: reference_morpheus,
}


def outcome(fn, *args):
    try:
        return fn(*args)
    except LabelDecodeError as exc:
        return type(exc)


def _pool(seed=3, pairs=200):
    """(forms, label texts per scheme): encoder labels plus damaged copies."""
    rng = random.Random(seed)
    alphabet = "abdekmnorsABDEKжуЖУİıßç"
    forms, texts = [], {scheme: [] for scheme in Scheme}
    while len(forms) < pairs:
        stem = "".join(rng.choices(alphabet, k=rng.randint(1, 6)))
        form = stem + "".join(rng.choices(alphabet, k=rng.randint(0, 3)))
        lemma = stem.capitalize() if rng.random() < 0.2 else stem + rng.choice(["", "a", "ko"])
        forms.append(form)
        for scheme, module in MODULES.items():
            text = module.encode(form, lemma).text
            texts[scheme] += [text, text[: rng.randint(0, len(text))] + rng.choice(["", "0", "X"])]
    return forms, {scheme: sorted(set(t for t in found if t)) for scheme, found in texts.items()}


FORMS, TEXTS = _pool()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_decode_matches_a_reference_apply_of_parse_label(seed):
    # every label twice, schemes interleaved, each time on a random form
    rng = random.Random(seed)
    calls = [(scheme, text) for scheme, found in TEXTS.items() for text in found] * 2
    rng.shuffle(calls)
    for scheme, text in calls:
        form = rng.choice(FORMS)
        got = outcome(decode, form, SesLabel(scheme, text))
        assert got == outcome(REFERENCES[scheme], form, text), (scheme, form, text)


# encoder pairs that reach every plan part: an absolute lemma, casing in
# three segments, the lower flag, the identity, digit operands and inserts
PLAN_PAIRS = COMPARISON_PAIRS + [
    ("xyz", "Abc"),
    ("iPhones", "iPhone"),
    ("Dogs", "dog"),
    ("x12", "x"),
    ("ab", "xyab"),
]


def _immutable(value):
    if type(value) is tuple:
        return all(_immutable(item) for item in value)
    return value is None or type(value) in (str, int, bool)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_parse_label_returns_one_immutable_plan(scheme):
    # every decode of a label read as text shares the plan from_text gave
    # it, so no caller may be able to change it
    module = MODULES[scheme]
    for form, lemma in PLAN_PAIRS:
        text = module.encode(form, lemma).text
        plan = module.parse_label(text)
        assert _immutable(plan), (text, plan)


MALFORMED = {Scheme.UDPIPE: "↓0;d", Scheme.IXAPIPES: "D01a", Scheme.MORPHEUS: "q"}


def test_malformed_labels_raise_on_every_call():
    # a text that does not parse gets no plan, so every decode of it parses
    # it again and raises the ParseError that the plan-less twin raises
    for scheme, text in MALFORMED.items():
        label, twin = from_text(scheme, text), SesLabel(scheme, text)
        assert label.plan is None and label == twin
        assert [decoded("ab", label) for _ in range(3)] == [decoded("ab", twin)] * 3
        assert decoded("ab", label)[0] is ParseError


# --- the plan a label carries ------------------------------------------------

@given(st.lists(label_pairs(), max_size=5))
def test_a_label_plan_is_the_parse_of_its_text(pairs):
    # decode applies a label's plan instead of parsing its text, so the two
    # must never differ; only a morpheus lemma holding "|" goes without one
    for form, lemma in pairs:
        for module in MODULES.values():
            label = module.encode(form, lemma)
            assert label.plan is not None or module is morpheus and "|" in lemma, label
            assert label.plan is None or label.plan == module.parse_label(
                label.text), (module.__name__, form, lemma, label.text)


def decoded(form, label):
    """decode's lemma, or the class and message of its error."""
    try:
        return decode(form, label)
    except LabelDecodeError as exc:
        return type(exc), str(exc)


@given(label_pairs(), st.lists(st.text(ALPHABET, max_size=8), max_size=4))
def test_a_label_decodes_as_its_text_twin(pair, forms):
    # on its own form and on others, the plan selects no other outcome
    form, lemma = pair
    for module in MODULES.values():
        label = module.encode(form, lemma)
        twin = SesLabel(label.scheme, label.text)
        for other in [form, *forms]:
            assert decoded(other, label) == decoded(other, twin), (label, other)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_labels_encoded_first_decode_later_without_a_parse(scheme, monkeypatch):
    # each label keeps its own plan, however many encodes came after it
    module, pairs = MODULES[scheme], _fuzz_pairs(60, 5)
    labels = [module.encode(form, lemma) for form, lemma in pairs]
    parses = counted_parses(monkeypatch)
    assert [decode(form, label) for (form, _), label in zip(pairs, labels)] == [
        lemma for _, lemma in pairs]
    assert parses == Counter()


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_copied_label_is_its_text_twin(scheme):
    # the plan is not part of a label's value: a copy drops it
    for form, lemma in PLAN_PAIRS:
        label = MODULES[scheme].encode(form, lemma)
        twin = SesLabel(scheme, label.text)
        copies = [pickle.loads(pickle.dumps(label)), copy.copy(label), copy.deepcopy(label)]
        assert label.plan is not None and [c.plan for c in copies] == [None] * 3
        for copied in [label, *copies]:
            assert (copied, hash(copied), repr(copied)) == (twin, hash(twin), repr(twin))
            assert decode(form, copied) == lemma


def _roundtrips(pairs, rounds, wrong, done):
    for k in range(rounds):
        form, lemma = pairs[k % len(pairs)]
        scheme = list(Scheme)[k % 3]
        label = MODULES[scheme].encode(form, lemma)
        for twin in (label, SesLabel(scheme, label.text), from_text(scheme, label.text)):
            got = outcome(decode, form, twin)
            if got != lemma:
                wrong.append((scheme, form, lemma, got))
    done.append(rounds)


def test_two_threads_each_decode_their_own_labels():
    # encode and decode share no module state: a label applies its own
    # plan, from encode or from_text, and a label without one is parsed
    # from its own text, so an encode in the other thread cannot change
    # what this decode applies
    rng = random.Random(8)
    pools = [[("".join(rng.choices(letters, k=rng.randint(1, 7))),
               "".join(rng.choices(letters, k=rng.randint(1, 7)))) for _ in range(50)]
             for letters in ("abdeknorsABDK", "жуклмнЖУКЛ")]
    wrong, done = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=_roundtrips, args=(pool, 5000, wrong, done))
                   for pool in pools]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (wrong, done) == ([], [5000, 5000])


# --- labels read as text -------------------------------------------------------

def counted_parses(monkeypatch):
    """A Counter of (scheme, text) that counts each call of a scheme's
    parse_label, wrapped where decode and from_text look it up."""
    parses = Counter()
    for scheme, module in MODULES.items():
        def parse(text, scheme=scheme, parse_label=module.parse_label):
            parses[scheme, text] += 1
            return parse_label(text)
        monkeypatch.setattr(module, "parse_label", parse)
    return parses


# words that share one label text under every scheme; the unseen words of
# APPLIED take it as the fallback label
TRAIN_PAIRS = [("cats", "cat"), ("dogs", "dog"), ("rats", "rat"), ("hens", "hen"), ("owls", "owl")]
APPLIED = ["cats", "dogs", "cats", "rats", "bats", "hens", "gnus", "dogs"]


def _write_conllu(path, pairs):
    with open(path, "w", encoding="utf-8") as fp:
        write_conllu(corpus_of(pairs, sentence_size=3), fp)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_predict_parses_each_label_text_once(scheme, tmp_path, monkeypatch):
    train, applied = tmp_path / "train.conllu", tmp_path / "applied.conllu"
    model, out = tmp_path / "model.json", tmp_path / "pred.tsv"
    _write_conllu(train, TRAIN_PAIRS)
    _write_conllu(applied, [(form, form) for form in APPLIED])
    assert main(["train", str(train), str(model), "--scheme", scheme.value]) == 0
    parses = counted_parses(monkeypatch)
    assert main(["predict", str(model), str(applied), str(out)]) == 0
    assert parses and max(parses.values()) == 1, parses
    lemmas = [line.split("\t")[1] for line in out.read_text(encoding="utf-8").split("\n") if line]
    assert lemmas == [form[:-1] for form in APPLIED]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_decode_parses_each_label_text_once(scheme, tmp_path, monkeypatch, capsys):
    # a text that does not parse is parsed again, and fails, at each decode
    conllu, labeled, out = tmp_path / "in.conllu", tmp_path / "in.tsv", tmp_path / "out.tsv"
    _write_conllu(conllu, TRAIN_PAIRS * 2)
    assert main(["encode", str(conllu), str(labeled), "--scheme", scheme.value]) == 0
    bad = MALFORMED[scheme]
    with open(labeled, "a", encoding="utf-8") as fp:
        fp.write(f"cats\tcat\t{bad}\ndogs\tdog\t{bad}\n\n")
    parses = counted_parses(monkeypatch)
    assert main(["decode", str(labeled), str(out), "--scheme", scheme.value]) == 0
    assert parses.pop((scheme, bad)) == 3
    assert parses and max(parses.values()) == 1, parses
    assert "2 label(s) failed" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", list(Scheme))
def test_parse_labeled_rows_share_one_label_with_its_plan(scheme):
    module = MODULES[scheme]
    rows = [f"{form}\t{lemma}\t{module.encode(form, lemma).text}\n" for form, lemma in TRAIN_PAIRS]
    labeled = parse_labeled([*rows, "\n"] * 2, scheme)
    labels = [tok.label for sentence in labeled.sentences for tok in sentence]
    shared = {}
    for label in labels:
        assert shared.setdefault(label.text, label) is label
        assert label.plan == module.parse_label(label.text), label
    assert len(shared) < len(labels)
