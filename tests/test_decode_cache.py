"""Decoders keep parsed labels in a bounded cache; caching changes no outcome.

The oracle decodes from the uncached parse_label.__wrapped__ with its own
apply step, so it never touches a cache; it counts the characters each
udpipe script consumes from the op strings, not from the plan. The label
pool holds more distinct texts per scheme than the cache keeps, so
entries are evicted and parsed again. The label encode wrote last is not
parsed at all: decode applies the plan encode handed over with it, which
must equal the parse of its text.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPARISON_PAIRS
from lemscript.casing import CaseClass, fold_lower, fold_upper, shift_lower
from lemscript.errors import (
    ArityMismatch,
    CharMismatch,
    IndexOutOfRange,
    LabelDecodeError,
    LengthMismatch,
    ParseError,
)
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import decode, ixapipes, morpheus, udpipe
from test_scheme_reference import pairs as label_pairs

CACHE_SIZE = 128
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
    absolute, segments, prefix_ops, suffix_ops, _, _ = udpipe.parse_label.__wrapped__(text)
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
        (fold_upper if direction is CaseClass.UPPER else fold_lower)(word[start:end])
        for (direction, start), end in zip(segments, starts)
    )


def reference_ixapipes(form, text):
    lower_first, tokens = ixapipes.parse_label.__wrapped__(text)
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
    tokens = morpheus.parse_label.__wrapped__(text)
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


def test_the_pool_overflows_every_cache():
    assert all(len(found) > CACHE_SIZE for found in TEXTS.values())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_cached_decode_matches_parse_label_and_an_uncached_apply(seed):
    # every label twice, schemes interleaved, each time on a random form
    rng = random.Random(seed)
    calls = [(scheme, text) for scheme, found in TEXTS.items() for text in found] * 2
    rng.shuffle(calls)
    for scheme, text in calls:
        form = rng.choice(FORMS)
        cached = outcome(decode, form, SesLabel(scheme, text))
        assert cached == outcome(REFERENCES[scheme], form, text), (scheme, form, text)
    for module in MODULES.values():
        assert module.parse_label.cache_info().currsize <= CACHE_SIZE


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
    return value is None or type(value) in (str, int, bool, CaseClass)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_parse_label_returns_one_immutable_plan(scheme):
    # every later decode of the text shares the cached plan, so no caller
    # may be able to change it
    module = MODULES[scheme]
    for form, lemma in PLAN_PAIRS:
        text = module.encode(form, lemma).text
        plan = module.parse_label(text)
        assert _immutable(plan), (text, plan)
        assert module.parse_label(text) is plan, text


def test_malformed_labels_raise_on_every_call():
    # the cache stores no exceptions, so a bad label is rejected every time
    bad = {Scheme.UDPIPE: "↓0;d", Scheme.IXAPIPES: "D01a", Scheme.MORPHEUS: "q"}
    for scheme, text in bad.items():
        label = SesLabel(scheme, text)
        assert [outcome(decode, "ab", label) for _ in range(3)] == [ParseError] * 3


# --- the plan encode hands to decode ----------------------------------------

@given(st.lists(label_pairs(), max_size=5))
def test_a_handed_plan_is_the_parse_of_its_text(pairs):
    # decode applies the plan encode left in _handed to that exact text
    # instead of parsing it, so the two must never differ
    for form, lemma in pairs:
        for module in MODULES.values():
            text = module.encode(form, lemma).text
            handed = module._handed
            assert handed[0] != text or handed[1] == module.parse_label.__wrapped__(text), (
                module.__name__, form, lemma, text)


class _Text(str):
    """A label text whose == runs Python code, which lets the interpreter
    switch threads inside decode's comparison with the handed text."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return str.__eq__(self, other)


def _roundtrips(pairs, rounds, wrong, done):
    for k in range(rounds):
        form, lemma = pairs[k % len(pairs)]
        scheme = list(Scheme)[k % 3]
        label = SesLabel(scheme, _Text(MODULES[scheme].encode(form, lemma).text))
        got = outcome(decode, form, label)
        if got != lemma:
            wrong.append((scheme, form, lemma, got))
    done.append(rounds)


def test_two_threads_each_decode_their_own_labels():
    # each decode reads _handed once, so an encode in the other thread
    # between reading the handed text and its plan cannot swap in its plan
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
