from __future__ import annotations

import io

import pytest

from conftest import COMPARISON_CONLLU, COMPARISON_LABELS, COMPARISON_PAIRS, corpus_of
from lemscript import schemes
from lemscript.corpus_io import (
    LabeledCorpus,
    LabeledToken,
    adjust_propn_lemmas,
    label_corpus,
    label_pairs,
    parse_conllu,
    parse_labeled,
    propn_lemma,
    write_conllu,
    write_labeled,
)
from lemscript.errors import FormatError
from lemscript.model import Corpus, Scheme, Sentence, Token
from synth import make_stems, synthetic_corpus

MINIMAL = """\
# sent_id = 1
1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_
2\t.\t.\tPUNCT\t_\t_\t_\t_\t_\t_

"""


def test_parse_minimal_file():
    corpus = parse_conllu(MINIMAL.splitlines())
    assert corpus.sentence_count == 1
    assert corpus.token_count == 2
    sentence = corpus.sentences[0]
    assert sentence.comments == ("# sent_id = 1",)
    assert sentence.tokens[0] == Token("cats", "cat", "NOUN", 1)


def test_multiword_range_rows_are_skipped():
    text = (
        "0.1\tghost\tghost\t_\t_\t_\t_\t_\t_\t_\n"
        "3-4\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tde\tde\tADP\t_\t_\t_\t_\t_\t_\n"
        "3.1\tghost\tghost\t_\t_\t_\t_\t_\t_\t_\n"
        "4\tel\tel\tDET\t_\t_\t_\t_\t_\t_\n"
        "4.1\tghost\tghost\t_\t_\t_\t_\t_\t_\t_\n"
    )
    corpus = parse_conllu(text.splitlines())
    assert corpus.token_count == 2
    assert [t.form for t in corpus.sentences[0].tokens] == ["de", "el"]


@pytest.mark.parametrize(
    "token_id",
    ["1_0", " 2", "+3", "٣", "1-", "-1", "1.2.3", "a-b", "", "9" * 5000,
     "0", "01", "0-1", "1-02", "00.1", "1.0", "1.01"],
)
def test_token_id_outside_conllu_is_rejected(token_id):
    text = MINIMAL + f"{token_id}\tdogs\tdog\tNOUN\t_\t_\t_\t_\t_\t_\n"
    with pytest.raises(FormatError, match="token id") as err:
        parse_conllu(text.splitlines())
    assert err.value.line_number == 5


def test_repeated_ids_and_ranges_parse_alike():
    text = "10\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n\n10-11\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n" * 2
    first, second = parse_conllu(text.splitlines()).sentences
    assert [t.index for t in first.tokens] == [t.index for t in second.tokens] == [10]


def test_underscore_lemma_is_absent():
    text = "1\tfoo\t_\tX\t_\t_\t_\t_\t_\t_\n"
    corpus = parse_conllu(text.splitlines())
    assert corpus.sentences[0].tokens[0].lemma is None


def test_repeated_column_values_share_one_string():
    text = (
        "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "2\t__\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "\n"
        "1\tcats\tcat\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "2\tcat\tcats\tNOUN\t_\t_\t_\t_\t_\t_\n"
        "3\t_\t_\t_\t_\t_\t_\t_\t_\t_\n"
    )
    first, second = parse_conllu(text.splitlines()).sentences
    cats, blank = first.tokens
    again, swapped, underscore = second.tokens
    assert again == cats and again is not cats
    assert again.form is cats.form and again.lemma is cats.lemma and again.upos is cats.upos
    # one string per distinct value, whichever column it came from
    assert swapped.form is cats.lemma and swapped.lemma is cats.form
    # LEMMA "_" is absent and UPOS "_" is empty; FORM "_" stays a form
    assert (blank.form, blank.lemma, blank.upos) == ("__", None, "")
    assert (underscore.form, underscore.lemma, underscore.upos) == ("_", None, "")


def test_short_row_reports_line_number():
    text = MINIMAL + "1\tbroken\trow\n"
    with pytest.raises(FormatError) as err:
        parse_conllu(text.splitlines())
    assert err.value.line_number == 5


def test_conllu_write_parse_idempotence():
    corpus = parse_conllu(MINIMAL.splitlines())
    buf = io.StringIO()
    write_conllu(corpus, buf)
    again = parse_conllu(buf.getvalue().splitlines())
    assert again.sentences == corpus.sentences


@pytest.mark.parametrize(
    "form,lemma,upos,expected",
    [
        ("Madrid", "madrid", "PROPN", "Madrid"),
        ("Madrid", "Madrid", "PROPN", "Madrid"),
        ("casa", "casa", "NOUN", "casa"),
        ("Çat", "çat", "PROPN", "Çat"),
        ("Ssad", "ßad", "PROPN", "ßad"),
        ("Paris", "", "PROPN", ""),
        ("Paris", None, "PROPN", None),
    ],
)
def test_adjust_propn_lemmas(form, lemma, upos, expected):
    corpus = Corpus((Sentence((Token(form, lemma, upos, 1),)),))
    adjusted = adjust_propn_lemmas(corpus)
    assert adjusted.sentences[0].tokens[0].lemma == expected
    assert propn_lemma(lemma, upos) == expected


def test_adjust_propn_is_idempotent():
    corpus = Corpus((Sentence((Token("Madrid", "madrid", "PROPN", 1),)),))
    once = adjust_propn_lemmas(corpus)
    twice = adjust_propn_lemmas(once)
    assert once == twice


@pytest.mark.parametrize("scheme", list(Scheme))
def test_label_corpus_matches_published_columns(scheme, comparison_corpus):
    labeled, failures = label_corpus(comparison_corpus, scheme)
    assert failures == []
    texts = [tok.label.text for sentence in labeled.sentences for tok in sentence]
    assert texts == COMPARISON_LABELS[scheme.value]


def test_label_corpus_skips_missing_lemmas():
    corpus = Corpus(
        (Sentence((Token("cats", "cat", "", 1), Token("_", None, "", 2))),)
    )
    labeled, failures = label_corpus(corpus, Scheme.UDPIPE)
    assert failures == []
    assert labeled.token_count == 1


def test_label_corpus_shares_one_token_per_pair():
    labeled, _ = label_corpus(corpus_of([("cats", "cat"), ("dogs", "dog")] * 3, 2), Scheme.UDPIPE)
    first, *rest = labeled.sentences
    assert all(row[0] is first[0] and row[1] is first[1] for row in rest)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_label_corpus_shares_one_label_per_text(scheme):
    corpus = synthetic_corpus(600, seed=5, stems=make_stems(3, 300, 3, 9))
    labeled, failures = label_corpus(corpus, scheme)
    assert failures == []
    tokens = [tok for sentence in labeled.sentences for tok in sentence]
    labels = {tok.label.text: tok.label for tok in tokens}
    assert all(tok.label is labels[tok.label.text] for tok in tokens)
    # distinct pairs do share label texts here
    assert len(labels) < len({(tok.form, tok.gold_lemma) for tok in tokens})
    # each row equals, by value, the pair's own encode
    assert labeled.sentences == tuple(
        tuple(
            LabeledToken(t.form, t.lemma, schemes.encode(scheme, t.form, t.lemma))
            for t in s.tokens
            if t.lemma is not None
        )
        for s in corpus.sentences
    )


def _two_calls(train, test, scheme):
    train_labeled, train_failures = label_corpus(train, scheme)
    test_labeled, test_failures = label_corpus(test, scheme)
    return train_labeled, test_labeled, len(train_failures) + len(test_failures)


def _one_pass(train, test, scheme):
    # label the concatenation, split at the train rows
    labeled, failures = label_corpus(Corpus(train.sentences + test.sentences), scheme)
    split = len(train.sentences)
    return (
        LabeledCorpus(scheme, labeled.sentences[:split]),
        LabeledCorpus(scheme, labeled.sentences[split:]),
        len(failures),
    )


# pairs every scheme fails on, one repeated, plus a token without a lemma
FAILING = [("cats", ""), ("", "x"), ("cats", "")]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_pass_labeling_matches_two_calls_on_comparison_pairs(scheme, comparison_corpus):
    test = Corpus(
        corpus_of(COMPARISON_PAIRS[::-1] + FAILING, 3).sentences
        + (Sentence((Token("cats", None, "", 1),)),)
    )
    for train, held_out in ((comparison_corpus, test), (test, comparison_corpus)):
        expected = _two_calls(train, held_out, scheme)
        assert expected[2] == 3
        assert _one_pass(train, held_out, scheme) == expected


@pytest.mark.parametrize("scheme", list(Scheme))
def test_one_pass_labeling_matches_two_calls_on_a_synthetic_pair(scheme):
    stems = make_stems(3, 300, 3, 9)
    train = synthetic_corpus(600, seed=5, stems=stems)
    test = synthetic_corpus(150, seed=6, stems=stems[::2] + make_stems(4, 100, 3, 9))
    expected = _two_calls(train, test, scheme)
    assert _one_pass(train, test, scheme) == expected
    assert expected[0].token_count == train.token_count


def test_label_corpus_empty():
    labeled, failures = label_corpus(Corpus(), Scheme.MORPHEUS)
    assert labeled.sentences == ()
    assert failures == []


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_scheme_name_labels_as_its_member(scheme, comparison_corpus):
    pairs = COMPARISON_PAIRS + FAILING
    assert label_pairs(scheme.value, pairs) == label_pairs(scheme, pairs)
    assert label_corpus(comparison_corpus, scheme.value) == label_corpus(comparison_corpus, scheme)


def test_an_unknown_scheme_name_raises_value_error(comparison_corpus):
    with pytest.raises(ValueError, match="'bogus' is not a valid Scheme"):
        label_pairs("bogus", COMPARISON_PAIRS)
    with pytest.raises(ValueError, match="'bogus' is not a valid Scheme"):
        label_corpus(comparison_corpus, "bogus")


def test_labeled_roundtrip(comparison_corpus):
    labeled, _ = label_corpus(comparison_corpus, Scheme.IXAPIPES)
    buf = io.StringIO()
    write_labeled(labeled, buf)
    text = buf.getvalue()
    assert text.endswith("\n\n")  # trailing blank line after the last sentence
    again = parse_labeled(text.splitlines(), Scheme.IXAPIPES)
    assert again == labeled


def test_write_labeled_format():
    corpus = corpus_of([("cats", "cat")])
    labeled, _ = label_corpus(corpus, Scheme.IXAPIPES)
    buf = io.StringIO()
    write_labeled(labeled, buf)
    assert buf.getvalue() == "cats\tcat\tD0s\n\n"


def test_parse_labeled_rejects_bad_rows():
    with pytest.raises(FormatError):
        parse_labeled(["cats\tcat"], Scheme.UDPIPE)


def test_parse_labeled_rejects_an_empty_label_column():
    with pytest.raises(FormatError) as err:
        parse_labeled(["cats\tcat\tD0s", "", "birds\tbird\t"], Scheme.IXAPIPES)
    assert (err.value.line_number, err.value.message) == (3, "empty label column")


def test_label_pairs_names_a_label_that_decodes_to_another_lemma(monkeypatch):
    monkeypatch.setattr(schemes, "encode", lambda scheme, form, lemma: schemes.from_text(
        Scheme.IXAPIPES, "D0s"))
    assert label_pairs(Scheme.IXAPIPES, [("cats", "ca")]) == [
        "decoded to 'cat' instead of gold lemma"]


def test_comparison_conllu_fixture_parses(comparison_corpus):
    parsed = parse_conllu(COMPARISON_CONLLU.splitlines())
    assert [
        (t.form, t.lemma) for s in parsed.sentences for t in s.tokens
    ] == [(t.form, t.lemma) for s in comparison_corpus.sentences for t in s.tokens]
