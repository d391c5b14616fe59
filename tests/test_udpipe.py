from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import COMPARISON_LABELS, COMPARISON_PAIRS
from lemscript.errors import EmptyInput, LengthMismatch, ParseError, SchemeMismatch
from lemscript.model import Scheme, SesLabel
from lemscript.schemes import udpipe


@pytest.mark.parametrize(
    "form,lemma,expected", [(*p, e) for p, e in zip(COMPARISON_PAIRS, COMPARISON_LABELS["udpipe"])]
)
def test_published_labels(form, lemma, expected):
    assert udpipe.encode(form, lemma).text == expected


def test_absolute_label_when_nothing_is_shared():
    label = udpipe.encode("xyz", "абв")
    assert label.text == "aабв"
    assert udpipe.decode("xyz", label) == "абв"


def test_decode_fixtures():
    assert udpipe.decode("birds", SesLabel(Scheme.UDPIPE, "↓0;d¦-")) == "bird"
    assert udpipe.decode("You", SesLabel(Scheme.UDPIPE, "↓0;d¦")) == "you"


def test_decode_length_mismatch():
    label = SesLabel(Scheme.UDPIPE, "↓0;d¦----+o+o")
    with pytest.raises(LengthMismatch):
        udpipe.decode("cat", label)


def test_scheme_guard():
    with pytest.raises(SchemeMismatch):
        udpipe.decode("cats", SesLabel(Scheme.MORPHEUS, "s|s|s|d"))


def test_identity_stability():
    # fully lowercase identity pairs share one copy-free, edit-free label
    assert udpipe.encode("the", "the").text == "↓0;d¦"
    assert udpipe.encode("road", "road").text == "↓0;d¦"


def test_length_insensitivity():
    assert udpipe.encode("cats", "cat").text == udpipe.encode("birds", "bird").text


def test_prefix_edits_and_copies():
    label = udpipe.encode("geсходить", "сходить")
    assert label.text == "↓0;d--¦"
    assert udpipe.decode("geсходить", label) == "сходить"
    # a shared prefix character forces copies into the script
    label = udpipe.encode("abXcats", "abYcat")
    assert udpipe.decode("abXcats", label) == "abYcat"
    assert "→" in label.text


def test_mixed_casing_roundtrip():
    for form, lemma in [
        ("McDonald", "McDonald"),
        ("IBM", "ibm"),
        ("çiçekler", "Çiçek"),
        ("ЖУКИ", "жук"),
        ("9abc", "9Abc"),
    ]:
        label = udpipe.encode(form, lemma)
        assert udpipe.decode(form, label) == lemma, (form, lemma, label.text)


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        udpipe.encode("", "cat")
    with pytest.raises(EmptyInput):
        udpipe.encode("cats", "")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "a",                # absolute without a lemma
        "x0;d¦",            # casing must open with an arrow
        "↓;d¦",             # segment without a position
        "↓0¦",              # casing never closed by ;d
        "↓0;x¦",            # wrong rule marker
        "↓0;d",             # no prefix/suffix separator
        "↓0;d¦¦¦",          # two separators
        "↓0;d+",            # dangling insert
        "↓0;dq¦",           # stray op character
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        udpipe.parse_label(bad)


@pytest.mark.parametrize(
    "bad",
    [
        "↑3¦↓1;d¦-",        # first segment does not start at 0
        "↓0¦↑2¦↓2;d¦",      # starts do not strictly increase
        "↓0¦↑3¦↓1;d¦",      # a start goes backwards
        "↓0¦↓2;d¦",         # neighbours share a direction
        "↓00;d¦",           # the encoder writes ↓0;d¦
        "↓0¦↑01;d¦",        # the encoder writes ↓0¦↑1;d¦
    ],
)
def test_non_canonical_casing_rejected(bad):
    with pytest.raises(ParseError):
        udpipe.decode("cats", SesLabel(Scheme.UDPIPE, bad))


def test_canonical_label_may_still_delete_everything():
    # the encoder can emit this label; it stays valid on a shorter form
    assert udpipe.decode("48", SesLabel(Scheme.UDPIPE, "↓0;d¦--")) == ""


def test_oversized_casing_position_is_a_parse_error():
    # past the interpreter's 4,300-digit int conversion limit
    with pytest.raises(ParseError):
        udpipe.decode("ab", SesLabel(Scheme.UDPIPE, "↓" + "1" * 5000 + ";d¦"))


def test_insert_payload_may_be_any_character():
    # a separator character is legal as an insert payload
    # plan[2:] is (prefix ops, suffix ops, characters each consumes)
    assert udpipe.parse_label("↓0;d+¦¦-")[2:] == ("+¦", "-", 0, 1)


@pytest.mark.parametrize(
    "script,prefix,suffix",
    [
        ("→+-¦+¦", ("→+-", 1), ("+¦", 0)),
        ("¦++→", ("", 0), ("++→", 1)),
        ("+-+→¦-+→", ("+-+→", 0), ("-+→", 1)),  # the rules read ops, not characters
    ],
)
def test_op_characters_as_insert_payloads(script, prefix, suffix):
    # each side as (its ops, the characters they consume)
    _, _, prefix_ops, suffix_ops, front, back = udpipe.parse_label("↓0;d" + script)
    assert ((prefix_ops, front), (suffix_ops, back)) == (prefix, suffix)


@pytest.mark.parametrize(
    "script,message",
    [
        ("¦¦", "more than one prefix/suffix separator"),
        ("→-+x", "missing prefix/suffix separator"),
        ("", "missing prefix/suffix separator"),
        # no encoder writes these; on cats they decoded to cat, xats and cats,
        # where the encoder writes ↓0;d¦-, ↓0;d-+x¦ and ↓0;d¦
        ("→¦-", "edit script has a prefix ending in a copy"),
        ("+x-¦", "edit script has an insert followed by a delete"),
        ("¦→→→→", "edit script has a suffix starting with a copy"),
    ],
)
def test_script_faults_keep_their_messages(script, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        udpipe.parse_label("↓0;d" + script)


def serialized(plan):
    absolute, segments, prefix_ops, suffix_ops, _, _ = plan
    if absolute is not None:
        return udpipe.ABSOLUTE_MARK + absolute
    casing = udpipe.SCRIPT_SEP.join(f"{direction}{start}" for direction, start in segments)
    return f"{casing}{udpipe.RULE_MARK}{prefix_ops}{udpipe.SCRIPT_SEP}{suffix_ops}"


# label-shaped text: each casing position a number with up to two leading
# zeros, each side a run of copies, deletes and inserts of any character
POSITIONS = st.builds(
    lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 3)
)
SEGMENTS = st.lists(st.tuples(st.sampled_from("↑↓"), POSITIONS).map("".join), min_size=1, max_size=3)
OPS = st.lists(st.sampled_from(["→", "-", "+a", "+¦", "+-", "+→"]), max_size=3).map("".join)
LABEL_TEXT = st.tuples(SEGMENTS.map("¦".join), OPS, OPS).map(lambda p: f"{p[0]};d{p[1]}¦{p[2]}")


@given(st.one_of(st.text(alphabet="a↑↓01;d¦→-+", max_size=12), LABEL_TEXT))
def test_an_accepted_text_is_its_plan_serialized(text):
    # the parser accepts only the encoder's serialization of the plan it returns
    try:
        plan = udpipe.parse_label.__wrapped__(text)
    except ParseError:
        return
    assert serialized(plan) == text


def op_marks(ops):
    """The mark of each op in a serialized side, an insert's character dropped."""
    marks, chars = [], iter(ops)
    for c in chars:
        marks.append(c)
        if c == udpipe.INSERT_MARK:
            next(chars)
    return marks


@given(st.one_of(st.text(alphabet="a↑↓01;d¦→-+", max_size=12), LABEL_TEXT))
def test_an_accepted_plan_keeps_the_encoder_rules(text):
    # no copy next to the root, and no insert directly before a delete
    try:
        plan = udpipe.parse_label.__wrapped__(text)
    except ParseError:
        return
    prefix, suffix = op_marks(plan[2]), op_marks(plan[3])
    assert prefix[-1:] != [udpipe.COPY_MARK] and suffix[:1] != [udpipe.COPY_MARK]
    for side in (prefix, suffix):
        assert (udpipe.INSERT_MARK, udpipe.DELETE_MARK) not in zip(side, side[1:])


LETTERS = "abcdstzABCDSTZжуकिЖӰßİıçğşÇĞŞëË"
WORDS = st.text(alphabet=LETTERS, min_size=1, max_size=12)


@given(WORDS, WORDS)
def test_roundtrip_property(form, lemma):
    label = udpipe.encode(form, lemma)
    assert udpipe.decode(form, label) == lemma
