"""Reference aligners and a script checker for the alignment tests.

The reference is the suffix-cost dynamic program lemscript used before
its bit-parallel core, copied unchanged: an O(mn) matrix of optimal
suffix costs and a forward walk over it that takes the first optimal
move in the tie order. `reference_levenshtein` and `reference_min_script`
run it and spell the result in the script alphabet of
`lemscript.alignment`, so the tests can require equal scripts.
"""

from __future__ import annotations

from typing import NamedTuple

from lemscript import alignment


def check_script(script: str, a: str, b: str) -> None:
    """Assert that script consumes exactly a and produces exactly b.

    Every MATCH must pair equal characters and every REPLACE unequal
    ones; INSERT and DELETE touch one side each.
    """
    i = j = 0
    for op in script:
        if op in (alignment.MATCH, alignment.REPLACE):
            assert i < len(a) and j < len(b), (script, a, b)
            assert (a[i] == b[j]) == (op == alignment.MATCH), (script, a, b, i, j)
            i += 1
            j += 1
        elif op == alignment.DELETE:
            assert i < len(a), (script, a, b)
            i += 1
        else:
            assert op == alignment.INSERT, (script, op)
            assert j < len(b), (script, a, b)
            j += 1
    assert (i, j) == (len(a), len(b)), (script, a, b)


def reference_levenshtein(a: str, b: str, delete_before_replace: bool = False) -> str:
    return _spell(levenshtein_align(a, b, delete_before_replace))


def reference_min_script(a: str, b: str) -> str:
    return _spell(min_script_align(a, b))


def _spell(ops: list[AlignOp]) -> str:
    return "".join(_SPELLING[op.kind] for op in ops)


# --- the reference dynamic program, as it stood in lemscript.alignment ----

MATCH = "match"
REPLACE = "replace"
DELETE = "delete"
INSERT = "insert"


class AlignOp(NamedTuple):
    kind: str
    a_char: str | None  # consumed source character (MATCH/REPLACE/DELETE)
    b_char: str | None  # produced target character (MATCH/REPLACE/INSERT)


_SPELLING = {
    MATCH: alignment.MATCH,
    REPLACE: alignment.REPLACE,
    DELETE: alignment.DELETE,
    INSERT: alignment.INSERT,
}


def levenshtein_align(a: str, b: str, delete_before_replace: bool = False) -> list[AlignOp]:
    """Minimal unit-cost alignment of a to b with fixed tie-breaking.

    MATCH costs 0; REPLACE, DELETE and INSERT cost 1 each, so the number
    of non-MATCH ops equals the Levenshtein distance.
    """
    k = _common_prefix(a, b)
    ops = [AlignOp(MATCH, a[i], a[i]) for i in range(k)]
    ta = a[k:]
    tb = b[k:]
    if not ta:
        ops.extend(AlignOp(INSERT, None, c) for c in tb)
    elif not tb:
        ops.extend(AlignOp(DELETE, c, None) for c in ta)
    else:
        costs = _suffix_costs(ta, tb, 0, 1, 1, 1)
        ops.extend(_walk(ta, tb, costs, 0, 1, 1, 1, delete_before_replace))
    return ops


def min_script_align(
    a: str,
    b: str,
    insert_cost: int = 2,
    delete_cost: int = 1,
    match_cost: int = 1,
) -> list[AlignOp]:
    """Minimal-cost alignment using only MATCH/DELETE/INSERT.

    With the default costs the total equals the serialized script length
    of the udpipe op alphabet (copy and delete are one character, insert
    is two), so the alignment minimizes label length rather than edit
    count. Ties place DELETE before INSERT at each alignment point.
    """
    if insert_cost <= 0 or delete_cost <= 0:
        raise ValueError("insert_cost and delete_cost must be positive")
    k = _common_prefix(a, b)
    ops = [AlignOp(MATCH, a[i], a[i]) for i in range(k)]
    ta = a[k:]
    tb = b[k:]
    if not ta:
        ops.extend(AlignOp(INSERT, None, c) for c in tb)
    elif not tb:
        ops.extend(AlignOp(DELETE, c, None) for c in ta)
    else:
        costs = _suffix_costs(ta, tb, match_cost, None, delete_cost, insert_cost)
        ops.extend(_walk(ta, tb, costs, match_cost, None, delete_cost, insert_cost, False))
    return ops


def _common_prefix(a: str, b: str) -> int:
    k = 0
    limit = min(len(a), len(b))
    while k < limit and a[k] == b[k]:
        k += 1
    return k


def _suffix_costs(
    a: str,
    b: str,
    match_cost: int,
    replace_cost: int | None,
    delete_cost: int,
    insert_cost: int,
) -> list[list[int]]:
    """costs[i][j] = minimal cost of aligning a[i:] with b[j:]."""
    m = len(a)
    n = len(b)
    # a disabled REPLACE becomes a cost no optimal path can afford
    rep = replace_cost if replace_cost is not None else (m + n + 2) * (delete_cost + insert_cost)
    bt = tuple(b)  # tuple indexing avoids per-access char object creation
    rows: list[list[int]] = [[] for _ in range(m + 1)]
    rows[m] = [(n - j) * insert_cost for j in range(n + 1)]
    for i in range(m - 1, -1, -1):
        ai = a[i]
        below = rows[i + 1]
        row = [0] * (n + 1)
        right = row[n] = below[n] + delete_cost
        diag = below[n]
        for j in range(n - 1, -1, -1):
            down = below[j]
            if ai == bt[j]:
                # MATCH at equal characters is optimal under both cost
                # regimes used here (unit costs, and 1/1/2 copy/delete/insert)
                v = diag + match_cost
            else:
                v = diag + rep
                t = down + delete_cost
                if t < v:
                    v = t
            t = right + insert_cost
            if t < v:
                v = t
            row[j] = v
            right = v
            diag = down
        rows[i] = row
    return rows


def _walk(
    a: str,
    b: str,
    costs: list[list[int]],
    match_cost: int,
    replace_cost: int | None,
    delete_cost: int,
    insert_cost: int,
    delete_before_replace: bool,
) -> list[AlignOp]:
    m = len(a)
    n = len(b)
    at = tuple(a)
    bt = tuple(b)
    i = 0
    j = 0
    row = costs[0]
    below = costs[1] if m else None
    ops: list[AlignOp] = []
    while i < m or j < n:
        here = row[j]
        if i < m and j < n:
            ai = at[i]
            bj = bt[j]
            if ai == bj and here == match_cost + below[j + 1]:
                ops.append(AlignOp(MATCH, ai, bj))
                i += 1
                j += 1
                row = costs[i]
                below = costs[i + 1] if i < m else None
                continue
            replace_ok = (
                replace_cost is not None
                and ai != bj
                and here == replace_cost + below[j + 1]
            )
            delete_ok = here == delete_cost + below[j]
            if replace_ok and not (delete_before_replace and delete_ok):
                ops.append(AlignOp(REPLACE, ai, bj))
                i += 1
                j += 1
                row = costs[i]
                below = costs[i + 1] if i < m else None
                continue
        else:
            delete_ok = i < m and here == delete_cost + below[j]
        if delete_ok:
            ops.append(AlignOp(DELETE, at[i], None))
            i += 1
            row = costs[i]
            below = costs[i + 1] if i < m else None
            continue
        if j < n and here == insert_cost + row[j + 1]:
            ops.append(AlignOp(INSERT, None, bt[j]))
            j += 1
            continue
        raise AssertionError("no optimal move from an optimal cell")  # pragma: no cover
    return ops
