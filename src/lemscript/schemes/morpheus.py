"""Morpheus-style labels: one token per wordform character.

Label grammar (bit-exact):

    label := token ("|" token)*
    token := "s" | "d" | "l" | "r_" char+

The encoder aligns form to lemma case-sensitively, then folds every run
of inserts into its neighbouring token so the one-token-per-character
invariant holds even when the lemma is longer than the word: a preceding
same/replace token absorbs the inserted characters into a replace
payload, a preceding delete becomes a plain replace, and a run at the
very start is prepended into the first token. A replace that merely
lowercases its character is re-labelled "l".

A label from encode carries the plan encode wrote it from, which decode
applies; a label without one goes through parse_label, which keeps the
plans of the 128 most recently used label texts. A plan is
((kind, payload), ...), one pair per token. encode gives a label no plan
when the lemma holds a "|", which a payload would carry into the text as
a token separator.
"""

from __future__ import annotations

from functools import lru_cache

from ..alignment import DELETE, INSERT, MATCH, REPLACE, levenshtein_align
from ..casing import shift_lower
from ..errors import ArityMismatch, EmptyInput, ParseError, SchemeMismatch
from ..model import Scheme, SesLabel

TOKEN_SEP = "|"
SAME = "s"
DEL = "d"
LOWER = "l"
REPLACE_MARK = "r_"
_SCHEME = Scheme.MORPHEUS
_PLAIN_TOKENS = {kind: (kind, "") for kind in (SAME, DEL, LOWER)}
_SAME, _DEL, _LOWER = _PLAIN_TOKENS.values()


def encode(form: str, lemma: str) -> SesLabel:
    if not form or not lemma:
        raise EmptyInput("form and lemma must be non-empty")
    if form == lemma:
        return SesLabel(_SCHEME, TOKEN_SEP.join(SAME * len(form)), (_SAME,) * len(form))

    # one token per consuming op; a token's payload collects the inserts
    # before it (leading run only), its own character and the inserts after.
    # A leading MATCH run of k is k - 1 SAME tokens and a pending MATCH.
    script = levenshtein_align(form, lemma)
    edits = script.lstrip(MATCH)
    i = j = len(script) - len(edits)  # next form and lemma characters
    tokens = [_SAME] * (i - 1)  # empty when i is 0
    if i:
        op = MATCH
        payload = form[i - 1]
    else:
        op = None
        payload = ""
    for step in edits:
        if step == INSERT:
            payload += lemma[j]
            j += 1
            continue
        if op == MATCH and len(payload) == 1:  # the form's own character
            tokens.append(_SAME)
            payload = ""
        elif op is not None:
            tokens.append(_token(op, form[i - 1], payload))
            payload = ""
        op = step
        if op == MATCH:
            payload += form[i]
            j += 1
        elif op == REPLACE:
            payload += lemma[j]
            j += 1
        i += 1
    tokens.append(_token(op, form[-1], payload))
    text = TOKEN_SEP.join(
        [REPLACE_MARK + payload if kind == "r" else kind for kind, payload in tokens]
    )
    # no plan when a "|" in a payload splits its token in the text
    return SesLabel(_SCHEME, text, None if TOKEN_SEP in lemma else tuple(tokens))


def decode(form: str, label: SesLabel) -> str:
    if label.scheme is not _SCHEME:
        raise SchemeMismatch(f"expected morpheus label, got {label.scheme.value}")
    tokens = label.plan or parse_label(label.text)
    if len(tokens) != len(form):
        raise ArityMismatch(
            f"label has {len(tokens)} tokens for a {len(form)}-character wordform"
        )
    out: list[str] = []
    for ch, (kind, payload) in zip(form, tokens):
        if kind == SAME:
            out.append(ch)
        elif kind == LOWER:
            out.append(shift_lower(ch))
        elif kind == "r":
            out.append(payload)
        # DEL emits nothing
    return "".join(out)


@lru_cache(maxsize=128)
def parse_label(text: str) -> tuple[tuple[str, str], ...]:
    """Split a label into (kind, payload) pairs; payload for replaces only."""
    if not text:
        raise ParseError("empty morpheus label")
    tokens: list[tuple[str, str]] = []
    for raw in text.split(TOKEN_SEP):
        token = _PLAIN_TOKENS.get(raw)
        if token is None:
            if not raw.startswith(REPLACE_MARK) or len(raw) <= len(REPLACE_MARK):
                raise ParseError(f"invalid morpheus token {raw!r}")
            token = ("r", raw[len(REPLACE_MARK) :])
        tokens.append(token)
    return tuple(tokens)


def _token(op: str, form_char: str, payload: str) -> tuple[str, str]:
    if op == MATCH and payload == form_char:
        return _SAME
    if op == DELETE and not payload:
        return _DEL
    if len(payload) == 1 and payload == shift_lower(form_char) != form_char:
        return _LOWER
    return "r", payload
