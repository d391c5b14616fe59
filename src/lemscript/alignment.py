"""Deterministic string alignment primitives used by all three encoders.

An alignment of a to b is returned as an edit script: a string over four
ops, read left to right, each consuming characters of a and producing
characters of b:

    MATCH   "="  consume a[i], produce b[j] (a[i] == b[j])
    REPLACE "~"  consume a[i], produce b[j] (a[i] != b[j])
    DELETE  "-"  consume a[i]
    INSERT  "+"  produce b[j]

Both aligners resolve cost ties with a fixed left-to-right preference so
identical inputs always yield identical scripts. A forward walk from
(0, 0) takes, at every position, the first move in the preference order
that stays on an optimal path:

    MATCH > REPLACE > DELETE > INSERT   (levenshtein_align, default)
    MATCH > DELETE > REPLACE > INSERT   (levenshtein_align, delete_before_replace)
    MATCH > DELETE > INSERT             (min_script_align; REPLACE disabled)

Under both cost regimes MATCH at equal characters is always optimal, so
the walk only has to decide between the other moves at unequal ones.
It decides with one bit test per step on the column vectors of the
suffix DP (cell [i][j] = optimal cost of aligning a[i:] with b[j:]),
computed as the prefix DP of the reversed strings, a bit per character
of a, a column per character of b:

- levenshtein_align (unit costs): the Myers/Hyyrö bit-vector edit
  distance. DELETE is optimal at (i, j) iff the vertical delta between
  rows i and i + 1 is +1 (the VP bit), REPLACE iff the diagonal delta is
  not 0 (the D0 bit is clear).
- min_script_align (copy 1, delete 1, insert 2): a script with k matches
  costs k + (|a| - k) + 2(|b| - k), so the minimum is
  |a| + 2(|b| - LCS(a, b)) with LCS the longest common subsequence, and
  the optimal scripts are exactly the LCS alignments. DELETE is optimal
  iff dropping a[i] keeps the LCS of the suffixes, which is a set bit of
  the Allison-Dix/Hyyrö bit-parallel LCS vector.

A shared common prefix is consumed before the columns are built:
whenever the current characters are equal, MATCH is both optimal and
first in preference, so trimming is exactly what the walk would do.
When one string is a prefix of the other, the common case of treebank
pairs, one slice comparison finds that, and the script is the prefix's
MATCHes and the rest of the longer string's DELETEs or INSERTs. Only
otherwise are the characters compared one by one, up to the first pair
that differs, which comes before either string ends. The common suffix
below is found the same way: one slice comparison when one remainder
is a suffix of the other (the common case of ixapipes' reversed
strings), else one character at a time from the end.

A common suffix w of the remainders x + w and y + w is then trimmed
under a guard. Under unit costs d(u + w, v + w) = d(u, v), and under
1/1/2 costs LCS(u + w, v + w) = LCS(u, v) + |w|, so every cell (i, j)
with i <= |x| and j <= |y| has the trimmed problem's cost up to a
constant, and the full walk takes the trimmed walk's moves until it
reaches the boundary i = |x| or j = |y|. There the trimmed walk only
deletes the rest of x or inserts the rest of y. The full walk does the
same, as every other move there costs more than the optimum, except that
it takes MATCH at the first of those characters that equals w[0]. So the
trimmed script, followed by |w| MATCHes, is exact when no character of
its trailing DELETE run (in x) or INSERT run (in y) equals w[0];
otherwise the untrimmed strings are aligned. levenshtein_align("ba",
"caa") is such a fallback: the full walk gives "~=+", where the trimmed
script followed by the suffix would be "~+=".

When the trimmed strings share no character, the script has a closed
form and no columns are built. No cell can use MATCH, so a cell's cost
depends only on the p characters of a and q of b left to align: max(p, q)
under unit costs and p + 2q under min_script_align's. Under unit costs
REPLACE keeps the cost optimal whenever p and q are both positive, and
DELETE exactly while p > q, so the default order replaces min(m, n)
times and then spends the surplus, while delete_before_replace first
deletes the m - n surplus of a and then replaces. Under 1/1/2 costs
every script is optimal, so DELETE, first in preference, consumes all of
a before INSERT produces b.
"""

from __future__ import annotations

from typing import NamedTuple

MATCH = "="
REPLACE = "~"
DELETE = "-"
INSERT = "+"


class LcsResult(NamedTuple):
    start_in_a: int
    start_in_b: int
    length: int


def longest_common_substring(a: str, b: str) -> LcsResult:
    """Longest common substring; ties broken by smallest start in a, then b.

    Returns (0, 0, 0) when the strings share no character. When one
    string contains the other, it is the answer, found without a scan.
    """
    if b in a:
        return LcsResult(a.find(b), 0, len(b))
    if a in b:
        return LcsResult(0, b.find(a), len(a))
    best = best_a = 0
    i = 0
    # each start in a only has to beat the best so far; substring search
    # in b and find() keep every comparison in C
    while i + best < len(a):
        length = best + 1
        if a[i : i + length] in b:
            while i + length < len(a) and a[i : i + length + 1] in b:
                length += 1
            best = length
            best_a = i
        i += 1
    if not best:
        return LcsResult(0, 0, 0)
    return LcsResult(best_a, b.find(a[best_a : best_a + best]), best)


def levenshtein_align(a: str, b: str, delete_before_replace: bool = False) -> str:
    """Minimal unit-cost edit script from a to b with fixed tie-breaking.

    MATCH costs 0; REPLACE, DELETE and INSERT cost 1 each, so the number
    of non-MATCH ops equals the Levenshtein distance.
    """
    return _align(a, b, True, delete_before_replace)


def min_script_align(a: str, b: str) -> str:
    """Minimal-cost edit script using only MATCH/DELETE/INSERT.

    Copy and delete cost 1, insert costs 2: the total equals the
    serialized script length of the udpipe op alphabet, so the alignment
    minimizes label length rather than edit count. Ties place DELETE
    before INSERT at each alignment point.
    """
    return _align(a, b, False, True)


def _align(a: str, b: str, replace: bool, delete_first: bool) -> str:
    m = len(a)
    n = len(b)
    k = m if m < n else n
    if a[:k] == b[:k]:  # one side is a prefix of the other
        return MATCH * k + DELETE * (m - k) + INSERT * (n - k)
    k = 0  # the strings differ before either ends
    while a[k] == b[k]:
        k += 1
    if k:
        a = a[k:]
        b = b[k:]
        m -= k
        n -= k
    s = m if m < n else n  # the common suffix, for the guarded trim below
    if a[m - s :] != b[n - s :]:  # else one side is a suffix of the other
        s = 0
        while a[m - 1 - s] == b[n - 1 - s]:
            s += 1
    if s:
        x = a[: m - s]
        y = b[: n - s]
        script = _script(x, y, replace, delete_first)
        # the trailing run consumes the end of one side; the full walk
        # would MATCH any of its characters that equals the suffix's first
        last = script[-1:]
        if last == DELETE:
            run = x[len(script.rstrip(DELETE)) - len(script) :]
        elif last == INSERT:
            run = y[len(script.rstrip(INSERT)) - len(script) :]
        else:
            run = ""
        if a[m - s] not in run:
            return MATCH * k + script + MATCH * s
    return MATCH * k + _script(a, b, replace, delete_first)


def _script(a: str, b: str, replace: bool, delete_first: bool) -> str:
    """The script of a to b without the trims: the closed form or the walk."""
    m = len(a)
    n = len(b)
    if not m or not n:
        return DELETE * m + INSERT * n

    # bit m-1-i stands for a[i]; column j is the DP column of b[j:]
    peq: dict[str, int] = {}
    bit = 1 << m
    for c in a:
        bit >>= 1
        peq[c] = peq.get(c, 0) | bit
    if peq.keys().isdisjoint(b):  # the closed form of the module docstring
        common = min(m, n) if replace else 0
        if delete_first:
            return DELETE * (m - common) + REPLACE * common + INSERT * (n - common)
        return REPLACE * common + DELETE * (m - common) + INSERT * (n - common)
    mask = (1 << m) - 1
    drop = [0] * n  # bit set: DELETE optimal
    sub = [0] * n   # bit set: REPLACE optimal
    if replace:
        vp = mask
        vn = 0
        for j in range(n - 1, -1, -1):
            eq = peq.get(b[j], 0)
            d0 = (((eq & vp) + vp) ^ vp) | eq | vn
            hp = ((vn | ~(d0 | vp)) << 1) | 1  # row 0 rises by 1 per column
            sub[j] = ~d0
            vp = ((vp & d0) << 1 | ~(d0 | hp)) & mask
            vn = d0 & hp & mask
            drop[j] = vp
    else:
        v = mask  # bit set: vertical LCS delta 0
        for j in range(n - 1, -1, -1):
            u = v & peq.get(b[j], 0)
            v = ((v + u) | (v - u)) & mask
            drop[j] = v

    i = j = 0
    bit = 1 << (m - 1)
    script = ""
    while i < m and j < n:
        if a[i] == b[j]:
            script += MATCH
            i += 1
            j += 1
            bit >>= 1
        elif delete_first and drop[j] & bit:
            script += DELETE
            i += 1
            bit >>= 1
        elif sub[j] & bit:
            script += REPLACE
            i += 1
            j += 1
            bit >>= 1
        elif drop[j] & bit:
            script += DELETE
            i += 1
            bit >>= 1
        else:
            script += INSERT
            j += 1
    return script + DELETE * (m - i) + INSERT * (n - j)
