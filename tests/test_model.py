import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import lemscript
import reference
from conftest import corpus_of
from lemscript.baseline import BaselineModel, PredictionStats
from lemscript.corpus_io import LabeledCorpus, LabeledToken, LabelFailure
from lemscript.metrics import EvalReport, LabelVocabulary, McNemarResult, OovReport
from lemscript.model import Corpus, Scheme, Sentence, SesLabel, Token


def test_token_count_empty():
    assert Corpus().token_count == 0


def test_token_count_sums_sentences():
    pairs = [(f"w{k}", f"w{k}") for k in range(7)]
    corpus = corpus_of(pairs, sentence_size=3)  # sentences of 3, 3, 1
    assert corpus.sentence_count == 3
    assert corpus.token_count == 7


def test_label_text_must_be_non_empty():
    with pytest.raises(ValueError):
        SesLabel(Scheme.UDPIPE, "")


def test_scheme_values_are_closed():
    assert {s.value for s in Scheme} == {"udpipe", "ixapipes", "morpheus"}
    with pytest.raises(ValueError):
        Scheme("lemming")


@pytest.mark.parametrize("scheme", list(Scheme))
def test_a_label_built_from_a_value_string_is_its_enum_twin(scheme):
    form, lemma = "Cats", "cat"
    text = lemscript.schemes.encode(scheme, form, lemma).text
    plain_built, enum_built = SesLabel(scheme.value, text), SesLabel(scheme, text)
    assert lemscript.schemes.decode(form, plain_built) == lemma
    assert getattr(lemscript.schemes, scheme.value).decode(form, plain_built) == lemma
    assert plain_built.scheme is scheme
    assert repr(plain_built) == repr(enum_built)
    assert plain_built == enum_built and hash(plain_built) == hash(enum_built)


def test_a_label_scheme_must_be_a_scheme():
    with pytest.raises(ValueError):
        SesLabel("bogus", "x")
    with pytest.raises(ValueError):
        SesLabel(None, "x")


def test_model_values_are_immutable():
    token = Token("cats", "cat", "NOUN", 1)
    with pytest.raises(AttributeError):
        token.form = "dogs"
    sentence = Sentence((token,))
    with pytest.raises(AttributeError):
        sentence.tokens = ()


# --- the record types against their dataclass references ------------------

def same(values):
    """A field strategy drawing one value for both sides."""
    return values.map(lambda value: (value, value))


def fields_of(*fields):
    """(new-side values, reference-side values) from (new, reference) field draws."""
    return st.tuples(*fields).map(lambda pairs: tuple(zip(*pairs)))


def built(new_cls, ref_cls, fields):
    """(new, reference) instances built from the same field values."""
    return fields.map(lambda sides: (new_cls(*sides[0]), ref_cls(*sides[1])))


def tuples_of(pairs):
    return st.lists(pairs, max_size=3).map(
        lambda drawn: (tuple(p[0] for p in drawn), tuple(p[1] for p in drawn)))


TEXT = same(st.text(max_size=4))
INTS = same(st.integers())
FLOATS = same(st.floats(allow_nan=False))
FLAGS = same(st.booleans())
SCHEMES = same(st.sampled_from(list(Scheme)))
LABEL_FIELDS = fields_of(SCHEMES, same(st.text(min_size=1, max_size=4)))
TOKEN_FIELDS = fields_of(TEXT, same(st.none() | st.text(max_size=4)), TEXT, INTS)
SENTENCE_FIELDS = fields_of(
    tuples_of(built(Token, reference.Token, TOKEN_FIELDS)),
    same(st.lists(st.text(max_size=4), max_size=2).map(tuple)),
)
LABELED_TOKEN_FIELDS = fields_of(TEXT, TEXT, built(SesLabel, reference.SesLabel, LABEL_FIELDS))

# each record type, its dataclass reference, and its field values
RECORDS = {
    "SesLabel": (SesLabel, reference.SesLabel, LABEL_FIELDS),
    "Token": (Token, reference.Token, TOKEN_FIELDS),
    "Sentence": (Sentence, reference.Sentence, SENTENCE_FIELDS),
    "Corpus": (Corpus, reference.Corpus, fields_of(
        tuples_of(built(Sentence, reference.Sentence, SENTENCE_FIELDS)), TEXT)),
    "LabeledToken": (LabeledToken, reference.LabeledToken, LABELED_TOKEN_FIELDS),
    "LabeledCorpus": (LabeledCorpus, reference.LabeledCorpus, fields_of(
        SCHEMES,
        tuples_of(tuples_of(built(LabeledToken, reference.LabeledToken, LABELED_TOKEN_FIELDS))),
    )),
    "LabelFailure": (LabelFailure, reference.LabelFailure, fields_of(INTS, INTS, TEXT)),
    "BaselineModel": (BaselineModel, reference.BaselineModel, fields_of(
        SCHEMES, same(st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=3)),
        TEXT)),
    "PredictionStats": (PredictionStats, reference.PredictionStats, fields_of(INTS, INTS, INTS)),
    "EvalReport": (EvalReport, reference.EvalReport, fields_of(
        FLOATS, FLOATS, INTS, INTS, same(st.none() | st.floats(allow_nan=False)),
        same(st.none() | st.floats(allow_nan=False)))),
    "McNemarResult": (McNemarResult, reference.McNemarResult, fields_of(
        INTS, INTS, FLOATS, FLOATS, FLOATS, FLAGS)),
    "LabelVocabulary": (LabelVocabulary, reference.LabelVocabulary, fields_of(
        SCHEMES, same(st.dictionaries(st.text(max_size=4), st.integers(), max_size=3)))),
    "OovReport": (OovReport, reference.OovReport, fields_of(
        FLOATS, FLOATS, FLOATS, FLOATS, FLAGS, INTS)),
}
ROW_TYPES = {"SesLabel", "Token", "Sentence", "LabeledToken"}  # slotted, not NamedTuples


def plain(value):
    """A lemscript value as dataclasses.asdict shows its reference."""
    if isinstance(value, (SesLabel, Token, Sentence, LabeledToken)):
        return {name: plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, PredictionStats):
        return dict(vars(value))
    if isinstance(value, tuple):
        if hasattr(value, "_asdict"):
            return {name: plain(field) for name, field in value._asdict().items()}
        return tuple(plain(item) for item in value)
    return value


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(RECORDS))
@given(data=st.data())
def test_records_behave_as_their_dataclass_references(name, data):
    new_cls, ref_cls, fields = RECORDS[name]
    new_values, ref_values = data.draw(fields)
    new, again, ref = new_cls(*new_values), new_cls(*new_values), ref_cls(*ref_values)
    assert repr(new) == repr(ref)
    shown, expected = plain(new), dataclasses.asdict(ref)
    assert shown == expected and list(shown) == list(expected)
    assert new == again and not new != again
    for copied in (pickle.loads(pickle.dumps(new)), copy.copy(new), copy.deepcopy(new)):
        assert type(copied) is new_cls and copied == new
    assert new.__eq__(object()) is NotImplemented
    assert hash_or_error(new) == hash_or_error(again) == hash_or_error(ref)
    # the defaults: built from the fields without one
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(ref_cls))
    assert repr(new_cls(*new_values[:required])) == repr(ref_cls(*ref_values[:required]))
    for prop in (n for n, v in vars(ref_cls).items() if isinstance(v, property)):
        assert getattr(new, prop) == getattr(ref, prop)
    for field in dataclasses.fields(ref_cls):
        if name == "PredictionStats":  # the one mutable record
            setattr(new, field.name, 7)
            setattr(ref, field.name, 7)
            continue
        with pytest.raises(AttributeError):
            setattr(new, field.name, None)
        with pytest.raises(AttributeError):
            delattr(new, field.name)
    if name in ROW_TYPES:
        assert sys.getsizeof(new) == sys.getsizeof(ref)
        assert not hasattr(new, "__dict__")
    # unchanged, or, for PredictionStats, changed alike
    assert repr(new) == repr(ref) and plain(new) == dataclasses.asdict(ref)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages' start-up hooks out of the module list
    src = Path(lemscript.__file__).parents[1]
    code = (
        "import sys\n"
        "import lemscript.cli\n"
        "from lemscript import schemes\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
