from __future__ import annotations

import math

import pytest

from conftest import corpus_of
from lemscript.corpus_io import LabeledCorpus, label_corpus
from lemscript.errors import EmptyEval, LengthMismatch, SchemeMismatch, StructureMismatch
from lemscript.metrics import (
    format_percent,
    inv_oov_accuracy,
    mcnemar,
    oov_report,
    paired_outcomes,
    sentence_accuracy,
    unique_labels,
    word_accuracy,
)
from lemscript.model import Scheme
from reference import paired_sentence_outcomes


# --- word accuracy --------------------------------------------------------

def test_word_accuracy_identity():
    assert word_accuracy(["a", "b"], ["a", "b"]) == 1.0


def test_word_accuracy_fraction():
    assert word_accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75


def test_word_accuracy_is_case_sensitive():
    assert word_accuracy(["Cat"], ["cat"]) == 0.0


def test_word_accuracy_errors():
    with pytest.raises(EmptyEval):
        word_accuracy([], [])
    with pytest.raises(LengthMismatch):
        word_accuracy(["a"], ["a", "b"])


# --- sentence accuracy ----------------------------------------------------

def test_sentence_accuracy_all_correct():
    gold = [["a", "b"], ["c"]]
    assert sentence_accuracy(gold, [["a", "b"], ["c"]]) == 1.0


def test_sentence_accuracy_one_wrong_token_fails_the_sentence():
    gold = [["a", "b"], ["c", "d"]]
    pred = [["a", "b"], ["c", "x"]]
    assert sentence_accuracy(gold, pred) == 0.5


def test_sentence_accuracy_discriminates_scattered_errors():
    # one wrong token in each of 10 ten-token sentences: word accuracy
    # stays high while sentence accuracy collapses to zero
    gold = [[f"w{s}{t}" for t in range(10)] for s in range(10)]
    pred = [list(sentence) for sentence in gold]
    for s in range(10):
        pred[s][s % 10] = "wrong"
    flat_gold = [w for s in gold for w in s]
    flat_pred = [w for s in pred for w in s]
    assert word_accuracy(flat_gold, flat_pred) == 0.9
    assert sentence_accuracy(gold, pred) == 0.0


def test_sentence_accuracy_structure_mismatch():
    with pytest.raises(StructureMismatch):
        sentence_accuracy([["a"]], [["a"], ["b"]])
    with pytest.raises(StructureMismatch):
        sentence_accuracy([["a", "b"]], [["a"]])


# --- mcnemar ----------------------------------------------------------------

def test_mcnemar_reference_value():
    # chi-square(1) table: P(X >= 5.6) = 0.0180
    result = mcnemar(10, 25, alpha=0.05)
    assert result.statistic == pytest.approx(5.6)
    assert result.p_value == pytest.approx(0.0180, abs=1e-3)
    assert result.significant


def test_mcnemar_no_disagreements():
    result = mcnemar(0, 0)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.significant


@pytest.mark.parametrize("k", [1, 2, 5, 50])
def test_mcnemar_balanced_disagreements(k):
    result = mcnemar(k, k)
    assert result.statistic == pytest.approx(1 / (2 * k))
    assert result.statistic <= 0.5
    assert result.p_value > 0.45
    assert not result.significant


def test_mcnemar_symmetry():
    assert mcnemar(7, 19).statistic == mcnemar(19, 7).statistic


def test_mcnemar_p_is_chi_square_survival():
    # erfc(sqrt(x / 2)) against independently tabulated chi-square(1) points
    table = {3.841: 0.05, 6.635: 0.01, 2.706: 0.10}
    for statistic, p in table.items():
        assert math.erfc(math.sqrt(statistic / 2)) == pytest.approx(p, abs=5e-4)


def test_mcnemar_rejects_negative_counts():
    with pytest.raises(ValueError):
        mcnemar(-1, 3)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 5.0, -1.0, math.nan, math.inf])
def test_mcnemar_rejects_alpha_outside_the_unit_interval(alpha):
    with pytest.raises(ValueError):
        mcnemar(10, 25, alpha=alpha)


# --- paired outcomes --------------------------------------------------------

def test_paired_outcomes_identical_predictions():
    gold = ["a", "b", "c"]
    assert paired_outcomes(gold, gold, gold) == (0, 0)


def test_paired_outcomes_one_sided():
    gold = ["a"] * 5
    assert paired_outcomes(gold, ["a"] * 5, ["x"] * 5) == (5, 0)


def test_paired_outcomes_hand_case():
    gold = ["g1", "g2", "g3", "g4", "g5", "g6"]
    pred_a = ["g1", "g2", "x", "g4", "x", "x"]  # correct at 1,2,4
    pred_b = ["g1", "x", "x", "x", "g5", "x"]   # correct at 1,5
    # A-only correct: positions 2 and 4; B-only correct: position 5
    assert paired_outcomes(gold, pred_a, pred_b) == (2, 1)


def test_paired_outcomes_length_mismatch():
    with pytest.raises(LengthMismatch):
        paired_outcomes(["a"], ["a"], ["a", "b"])


def test_paired_sentence_outcomes():
    gold = [["a", "b"], ["c"], ["d"]]
    pred_a = [["a", "b"], ["x"], ["d"]]  # sentences 0, 2 correct
    pred_b = [["a", "x"], ["c"], ["d"]]  # sentences 1, 2 correct
    assert paired_sentence_outcomes(gold, pred_a, pred_b) == (1, 1)


# --- label vocabulary -------------------------------------------------------

def test_unique_labels_on_comparison_pairs(comparison_corpus):
    udpipe, _ = label_corpus(comparison_corpus, Scheme.UDPIPE)
    ixapipes, _ = label_corpus(comparison_corpus, Scheme.IXAPIPES)
    morpheus, _ = label_corpus(comparison_corpus, Scheme.MORPHEUS)
    vocab_udpipe = unique_labels(udpipe)
    assert vocab_udpipe.unique_count == 4  # the two plain plurals merge
    assert vocab_udpipe.counts["↓0;d¦-"] == 2
    assert unique_labels(ixapipes).unique_count == 4
    assert unique_labels(morpheus).unique_count == 5


def test_unique_labels_empty():
    from lemscript.corpus_io import LabeledCorpus

    vocab = unique_labels(LabeledCorpus(Scheme.UDPIPE))
    assert vocab.unique_count == 0
    assert vocab.token_total == 0


# --- oov report --------------------------------------------------------------

def _labeled(pairs, scheme):
    labeled, failures = label_corpus(corpus_of(pairs), scheme)
    assert failures == []
    return labeled


def test_oov_report_train_equals_test():
    labeled = _labeled([("cats", "cat"), ("birds", "bird")], Scheme.UDPIPE)
    report = oov_report(labeled, labeled)
    assert report.oov_word_rate == 0.0
    assert report.oov_lemma_rate == 0.0
    assert report.oov_ses_rate == 0.0
    assert report.oov_lemma_with_seen_ses_rate == 1.0
    assert report.oov_lemma_subset_empty


@pytest.mark.parametrize("scheme", [Scheme.UDPIPE, Scheme.MORPHEUS])
def test_oov_report_generalizing_split(scheme):
    train = _labeled([("cats", "cat"), ("birds", "bird")], scheme)
    test = _labeled([("dogs", "dog")], scheme)
    report = oov_report(train, test)
    assert report.oov_word_rate == 1.0
    assert report.oov_lemma_rate == 1.0
    # "dogs" encodes to a label already seen via "cats"
    assert report.oov_ses_rate == 0.0
    assert report.oov_lemma_with_seen_ses_rate == 1.0
    assert not report.oov_lemma_subset_empty


def test_oov_report_scheme_mismatch():
    train = _labeled([("cats", "cat")], Scheme.UDPIPE)
    test = _labeled([("cats", "cat")], Scheme.MORPHEUS)
    with pytest.raises(SchemeMismatch):
        oov_report(train, test)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("plain_side", ["train", "test"])
def test_oov_report_takes_a_scheme_given_as_its_value(scheme, plain_side):
    pairs = [("cats", "cat"), ("birds", "bird")]
    labeled = _labeled(pairs, scheme)
    plain = LabeledCorpus(scheme.value, labeled.sentences)
    train, test = (plain, labeled) if plain_side == "train" else (labeled, plain)
    assert oov_report(train, test) == oov_report(labeled, labeled)
    other = _labeled(pairs, next(s for s in Scheme if s is not scheme))
    with pytest.raises(SchemeMismatch):
        oov_report(*((plain, other) if plain_side == "train" else (other, plain)))


# --- inv/oov accuracy ---------------------------------------------------------

def test_inv_oov_all_seen():
    inv, oov = inv_oov_accuracy({"a", "b"}, ["a", "b"], ["x", "y"], ["x", "y"])
    assert inv == 1.0
    assert oov is None


def test_inv_oov_split():
    inv, oov = inv_oov_accuracy(
        {"a", "b"},
        ["a", "b", "c", "d"],
        ["la", "lb", "lc", "ld"],
        ["la", "lb", "wrong", "wrong"],
    )
    assert inv == 1.0
    assert oov == 0.0


def test_inv_oov_hand_case():
    train_forms = {"f1", "f2", "f3"}
    forms = ["f1", "f2", "f3", "f4", "f5", "f1", "f6", "f7"]
    gold = ["g"] * 8
    pred = ["g", "x", "g", "g", "x", "g", "g", "x"]
    # INV positions: 0,1,2,5 -> 3 correct of 4; OOV positions: 3,4,6,7 -> 2 of 4
    inv, oov = inv_oov_accuracy(train_forms, forms, gold, pred)
    assert inv == 0.75
    assert oov == 0.5


def test_overall_accuracy_is_token_weighted_mean():
    train_forms = {"f1"}
    forms = ["f1", "f1", "f2"]
    gold = ["g1", "g2", "g3"]
    pred = ["g1", "x", "g3"]
    inv, oov = inv_oov_accuracy(train_forms, forms, gold, pred)
    overall = word_accuracy(gold, pred)
    assert overall == pytest.approx((inv * 2 + oov * 1) / 3)


def test_accuracies_invariant_under_sentence_permutation():
    gold = [["a", "b"], ["c"], ["d", "e", "f"]]
    pred = [["a", "x"], ["c"], ["d", "e", "f"]]
    reordered = [2, 0, 1]
    gold_perm = [gold[k] for k in reordered]
    pred_perm = [pred[k] for k in reordered]
    flat = lambda rows: [w for row in rows for w in row]
    assert word_accuracy(flat(gold), flat(pred)) == word_accuracy(
        flat(gold_perm), flat(pred_perm)
    )
    assert sentence_accuracy(gold, pred) == sentence_accuracy(gold_perm, pred_perm)


def test_format_percent_two_decimals():
    assert format_percent(0.0785) == "7.85%"
    assert format_percent(1.0) == "100.00%"
