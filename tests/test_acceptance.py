"""Acceptance gate: one test per criterion, one printed line per result.

Run with `pytest tests/test_acceptance.py -v -s`. Two environment
variables extend the suite: LEMSCRIPT_CORPORA points at a directory of
*.conllu files to include real treebanks in the roundtrip, vocabulary
and OOV checks; LEMSCRIPT_EXHAUSTIVE=1 replaces the sampled alignment
oracle with the complete <=6-length enumeration (slow).
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from pathlib import Path

import pytest

from align_reference import check_script
from conftest import COMPARISON_LABELS, COMPARISON_PAIRS, corpus_of
from lemscript import mcnemar
from lemscript.alignment import MATCH, levenshtein_align, longest_common_substring
from lemscript.baseline import predict_corpus, train_baseline
from lemscript.corpus_io import label_corpus, parse_conllu
from lemscript.metrics import oov_report, unique_labels, word_accuracy
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import decode, encode, ixapipes
from synth import make_stems, synthetic_corpus

LATIN = "abdekmnorstvz"
CYRILLIC = "абвгдежзиклмно"
TURKISH = "çğışöüİı"
FUZZ_ALPHABET = LATIN + LATIN.upper() + CYRILLIC + CYRILLIC.upper() + TURKISH + "ÇĞŞÖÜ"


def _report(criterion: str, detail: str) -> None:
    print(f"\ncriterion {criterion}: PASS - {detail}")


def _user_corpus_files() -> list[Path]:
    root = os.environ.get("LEMSCRIPT_CORPORA")
    if not root:
        return []
    return sorted(Path(root).glob("**/*.conllu"))


def _user_train_test_pairs() -> list[tuple[Path, Path]]:
    pairs = []
    for path in _user_corpus_files():
        if "train" not in path.name:
            continue
        for replacement in ("test", "dev"):
            mate = path.with_name(path.name.replace("train", replacement))
            if mate.exists():
                pairs.append((path, mate))
                break
    return pairs


# --- criterion 1: published label fixtures, bit-exact ----------------------

def test_criterion_1_label_fixtures():
    checked = 0
    for scheme in Scheme:
        for (form, lemma), expected in zip(COMPARISON_PAIRS, COMPARISON_LABELS[scheme.value]):
            assert encode(scheme, form, lemma).text == expected, (scheme, form)
            checked += 1
    assert checked == 15
    # the published indexed-edit scripts must all be accepted and decode
    # to the right lemma, independently of what our encoder emits
    for form, lemma, script in [
        ("cats", "cat", "D0s"),
        ("birds", "bird", "D0s"),
        ("did", "do", "R1ioD0d"),
        ("Wolak", "Wolak", "O"),
        ("You", "you", "1"),
    ]:
        assert ixapipes.decode(form, SesLabel(Scheme.IXAPIPES, script)) == lemma
    _report("1", "15/15 label fixtures bit-exact; published scripts decode correctly")


# --- criterion 2: roundtrip totality under fuzz ----------------------------

def _fuzz_pairs(count: int, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:  # unrelated strings, worst case for the aligners
            form = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
            lemma = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
        elif roll < 0.80:  # shared stem, diverging affixes
            stem = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 8)))
            form = (stem + "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 4))))[:12]
            lemma = (stem + "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(0, 4))))[:12]
        else:  # identity and casing variants
            lemma = "".join(rng.choices(FUZZ_ALPHABET, k=rng.randint(1, 12)))
            form = lemma if rng.random() < 0.5 else lemma.capitalize()
        pairs.append((form or "x", lemma or "y"))
    return pairs


def test_criterion_2_roundtrip_totality():
    pairs = _fuzz_pairs(100_000, seed=20240613)
    # warm the lazy case-folding tables outside the timed region
    for scheme in Scheme:
        decode("Warmup", encode(scheme, "Warmup", "warm"))
    started = time.perf_counter()
    failures = 0
    for scheme in Scheme:
        for form, lemma in pairs:
            if decode(form, encode(scheme, form, lemma)) != lemma:
                failures += 1
    elapsed = time.perf_counter() - started
    assert failures == 0
    assert elapsed < 10.0, f"fuzz roundtrip took {elapsed:.2f}s (budget 10s)"

    corpus_pairs = 0
    for path in _user_corpus_files():
        with open(path, encoding="utf-8") as fp:
            corpus = parse_conllu(fp, str(path))
        seen = {
            (t.form, t.lemma)
            for s in corpus.sentences
            for t in s.tokens
            if t.lemma is not None
        }
        for form, lemma in seen:
            for scheme in Scheme:
                assert decode(form, encode(scheme, form, lemma)) == lemma, (path, form)
        corpus_pairs += len(seen)
    extra = f"; {corpus_pairs} supplied-corpus pairs" if corpus_pairs else ""
    _report("2", f"300,000 fuzz roundtrips, 0 failures, {elapsed:.2f}s{extra}")


# --- criterion 3: published suffix-script decode fixtures -------------------

def test_criterion_3_alternative_scripts():
    for script in ("D5rD4eD3aD0n", "D4eD3aD2rD0n"):
        label = SesLabel(Scheme.IXAPIPES, script)
        assert ixapipes.decode("folklorearen", label) == "folklore", script
    _report("3", "both published edit scripts produce the same lemma")


# --- criterion 4: label-vocabulary ordering ----------------------------------

def test_criterion_4_vocabulary_ordering():
    stems = make_stems(1, 600, 3, 8)
    corpus = synthetic_corpus(50_000, seed=10, stems=stems)
    counts = {}
    for scheme in Scheme:
        labeled, failures = label_corpus(corpus, scheme)
        assert failures == []
        counts[scheme.value] = unique_labels(labeled).unique_count
    assert counts["udpipe"] <= counts["ixapipes"], counts
    assert counts["udpipe"] <= counts["morpheus"], counts

    for path in _user_corpus_files():
        with open(path, encoding="utf-8") as fp:
            corpus = parse_conllu(fp, str(path))
        per_file = {}
        for scheme in Scheme:
            labeled, _ = label_corpus(corpus, scheme)
            per_file[scheme.value] = unique_labels(labeled).unique_count
        print(f"\n  {path.name}: unique labels {per_file}")
        assert per_file["udpipe"] <= per_file["ixapipes"], path
        assert per_file["udpipe"] <= per_file["morpheus"], path
    _report("4", f"synthetic corpus counts {counts} keep udpipe smallest")


# --- criterion 5: oracle-checked statistics ----------------------------------

def _distance_oracle_recursive():
    @functools.lru_cache(maxsize=None)
    def dist(a: str, b: str) -> int:
        if not a:
            return len(b)
        if not b:
            return len(a)
        return min(
            dist(a[1:], b[1:]) + (a[0] != b[0]),
            dist(a[1:], b) + 1,
            dist(a, b[1:]) + 1,
        )

    return dist


def _lcs_oracle(a: str, b: str) -> tuple[int, int, int]:
    best = (0, 0, 0)
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best[2]:
                best = (i, j, k)
    return best


def test_criterion_5_alignment_oracles_and_mcnemar():
    alphabet = "abcd"
    dist = _distance_oracle_recursive()

    def check(a: str, b: str) -> None:
        script = levenshtein_align(a, b)
        assert len(script) - script.count(MATCH) == dist(a, b), (a, b)
        check_script(script, a, b)
        got = longest_common_substring(a, b)
        assert tuple(got) == _lcs_oracle(a, b), (a, b)

    if os.environ.get("LEMSCRIPT_EXHAUSTIVE"):
        universe = [
            "".join(p)
            for n in range(7)
            for p in itertools.product(alphabet, repeat=n)
        ]
        for a in universe:
            for b in universe:
                check(a, b)
        scope = f"exhaustive {len(universe) ** 2} pairs (lengths <= 6)"
    else:
        small = [
            "".join(p)
            for n in range(4)
            for p in itertools.product(alphabet, repeat=n)
        ]
        for a in small:
            for b in small:
                check(a, b)
        rng = random.Random(424242)
        for _ in range(20_000):
            a = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            b = "".join(rng.choices(alphabet, k=rng.randint(0, 6)))
            check(a, b)
        scope = f"exhaustive {len(small) ** 2} pairs (lengths <= 3) + 20,000 sampled (lengths <= 6)"

    result = mcnemar(10, 25)
    assert result.statistic == pytest.approx(5.6)
    assert abs(result.p_value - 0.0180) < 1e-3
    assert result.significant
    _report("5", f"{scope}; mcnemar(10,25) = 5.6, p within 1e-3 of 0.0180")


# --- criterion 6: generalization micro-experiment ----------------------------

def test_criterion_6_generalization_micro_experiment():
    train = corpus_of([("cats", "cat"), ("birds", "bird")])
    test = corpus_of([("dogs", "dog")])
    accuracies = {}
    for scheme in Scheme:
        labeled, _ = label_corpus(train, scheme)
        model = train_baseline(labeled)
        pred, stats = predict_corpus(model, test, lemmatized_only=True)
        accuracies[scheme.value] = word_accuracy(["dog"], pred[0])
    assert accuracies["udpipe"] == 1.0
    assert accuracies["ixapipes"] == 1.0

    # the per-character scheme generalizes only when the fallback's token
    # count happens to match the unseen form's length
    labeled, _ = label_corpus(train, Scheme.MORPHEUS)
    model = train_baseline(labeled)
    assert model.fallback == "s|s|s|d"
    matching, stats = predict_corpus(model, corpus_of([("dogs", "dog")]), lemmatized_only=True)
    assert matching == [["dog"]] and stats.decode_failures == 0
    clashing, stats = predict_corpus(model, corpus_of([("horses", "horse")]), lemmatized_only=True)
    assert clashing == [["horses"]] and stats.decode_failures == 1
    _report("6", "udpipe/ixapipes baselines score 1.0; morpheus depends on arity")


# --- criterion 7: scope statement and OOV-rate ordering ----------------------

def test_criterion_7_scope_statement_and_oov_ordering():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    assert "not reproduced" in text, "README must state the non-reproduced scope"
    assert "does not train neural classifiers" in text

    stems = make_stems(1, 600, 3, 8)
    test_stems = stems[:420] + make_stems(2, 180, 3, 11)
    train = synthetic_corpus(40_000, seed=10, stems=stems)
    test = synthetic_corpus(8_000, seed=11, stems=test_stems)
    rates = {}
    for scheme in Scheme:
        train_labeled, _ = label_corpus(train, scheme)
        test_labeled, _ = label_corpus(test, scheme)
        rates[scheme.value] = oov_report(train_labeled, test_labeled).oov_ses_rate
    assert rates["udpipe"] <= rates["ixapipes"], rates
    assert rates["udpipe"] <= rates["morpheus"], rates

    for train_path, test_path in _user_train_test_pairs():
        with open(train_path, encoding="utf-8") as fp:
            user_train = parse_conllu(fp, str(train_path))
        with open(test_path, encoding="utf-8") as fp:
            user_test = parse_conllu(fp, str(test_path))
        per_pair = {}
        for scheme in Scheme:
            tr, _ = label_corpus(user_train, scheme)
            te, _ = label_corpus(user_test, scheme)
            per_pair[scheme.value] = oov_report(tr, te).oov_ses_rate
        print(f"\n  {train_path.name} / {test_path.name}: oov-label rates {per_pair}")
        assert per_pair["udpipe"] <= per_pair["ixapipes"], train_path
        assert per_pair["udpipe"] <= per_pair["morpheus"], train_path
    shown = {k: f"{v:.4f}" for k, v in rates.items()}
    _report("7", f"scope stated in README; oov label rates {shown} keep udpipe lowest")


# --- criterion 8: treebank-scale throughput ----------------------------------

def test_criterion_8_throughput():
    stems = make_stems(3, 9000, 3, 9)
    corpus = synthetic_corpus(400_000, seed=42, stems=stems)
    assert corpus.token_count == 400_000
    timings = {}
    for scheme in Scheme:
        started = time.perf_counter()
        labeled, failures = label_corpus(corpus, scheme)  # encodes and decodes every token
        elapsed = time.perf_counter() - started
        assert failures == []
        assert labeled.token_count == 400_000
        assert elapsed < 30.0, f"{scheme.value} took {elapsed:.2f}s (budget 30s)"
        timings[scheme.value] = elapsed
    shown = {k: f"{v:.2f}s" for k, v in timings.items()}
    _report("8", f"400k tokens encoded+decoded per scheme in {shown}")
