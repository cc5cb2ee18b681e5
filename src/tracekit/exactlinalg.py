"""Exact integer linear algebra.

Everything here works over arbitrary-precision Python ints; no floating
point is used anywhere.  Matrices are lists of lists, row major, and
dense matrices are never mutated; ``congruence_rows`` consumes the
sparse rows it is given.

``congruence_rows`` is the symmetric-form kernel: sparse minimum-degree
congruence elimination of integer rows keyed by any ints (face ids, for
the Goeritz rows of reports), fraction-free in the manner of Bareiss,
that yields the signature and the determinant in one pass.
``signature_symmetric`` checks a dense integer matrix and hands its
sparse rows to it.  ``det_int`` is dense Bareiss elimination, kept as
the independent determinant.

``cokernel`` is the one engine for boundary H1 and for ranks: it
diagonalizes sparse rows by row and column operations, keeps no
transforms, and works block by block through the nonzero pattern, so a
block-diagonal Q (one block per piece, a loop's row holding only its
framing) costs the sum of its blocks.
"""

import heapq
from math import gcd

from .errors import InternalInvariantError

IntMatrix = list[list[int]]


def _copy(m):
    return [list(row) for row in m]


def det_int(m: IntMatrix) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination.  det([]) == 1 so empty forms behave like rank-0 lattices."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    a = _copy(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cokernel(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """Cokernel of m viewed as a map Z^cols -> Z^rows: returns (free
    rank, torsion coefficients), the Smith invariant factors above 1,
    each dividing the next.

    The matrix is diagonalized by row and column operations on sparse
    rows, with no transforms kept.  A pivot starts at the smallest entry
    of its row; Euclid steps reduce its row and column and move it to
    the smallest remainder until both are clear, so the work stays
    inside the block of the nonzero pattern that holds it.  Zero rows
    count as free rank.  The diagonal is normalized into invariant
    factors by gcd/lcm, each entry going into the chain from the top,
    and the chain is checked to divide."""
    rows = [{j: x for j, x in enumerate(r) if x} for r in m]
    cols = {}
    for i, r in enumerate(rows):
        for j, x in r.items():
            cols.setdefault(j, {})[i] = x
    rank = 0
    chain = []
    for i, r in enumerate(rows):
        while r:
            p = _clear(rows, cols, i, min(r, key=lambda j: abs(r[j])))
            rank += 1
            if p != 1:
                _insert(chain, p)
    if any(y % x for x, y in zip(chain, chain[1:])):
        raise InternalInvariantError("cokernel divisibility chain broken")
    return len(rows) - rank, tuple(chain)


def _clear(rows, cols, i, j) -> int:
    """Clear the row and column of the pivot (i, j), moving the pivot
    to the smallest remainder until both are clear; removes the pivot's
    row and column and returns its absolute value."""
    while True:
        p = rows[i][j]
        for k, x in list(cols[j].items()):
            if k != i and (q := x // p):
                _add(rows, cols, k, i, -q)
        for c, x in list(rows[i].items()):
            if c != j and (q := x // p):
                _add(cols, rows, c, j, -q)
        rest = [(abs(x), k, j) for k, x in cols[j].items() if k != i]
        rest += [(abs(x), i, c) for c, x in rows[i].items() if c != j]
        if not rest:
            break
        _, i, j = min(rest)
    rows[i].clear()
    del cols[j]
    return abs(p)


def _add(a, b, k, i, f) -> None:
    """a[k] += f * a[i] on sparse rows a, mirrored in their transpose b."""
    ak = a[k]
    for c, x in a[i].items():
        v = ak.get(c, 0) + f * x
        if v:
            ak[c] = b[c][k] = v
        else:
            del ak[c], b[c][k]


def _insert(chain: list[int], x: int) -> None:
    """Insert x > 1 into invariant factors c_1 | ... | c_t: from the top,
    each c takes lcm(c, x) and x carries gcd(c, x) down, which sorts
    every prime's exponents; a carry of 1 leaves the rest as it is."""
    for k in range(len(chain) - 1, -1, -1):
        c = chain[k]
        g = gcd(c, x)
        chain[k] = c // g * x
        x = g
        if x == 1:
            return
    chain.insert(0, x)


def congruence_rows(rows: dict[int, dict[int, int]]) -> tuple[int, int, int]:
    """Diagonalize a symmetric integer form, given as rows ``{key: {key:
    nonzero entry}}`` with a row (maybe empty) for every key, by exact
    congruence with minimum-degree pivoting; returns (pos, neg, det).
    The rows are used up.

    pos and neg count the positive and negative pivots, so pos - neg is
    the signature, and det is the product of the pivots, which is the
    determinant (0 when singular).  When every remaining diagonal entry
    is zero, row and column j are added to row and column i for some
    nonzero entry (i, j): the hyperbolic step makes the diagonal entry
    2 * m[i][j] and, being unimodular, keeps the determinant and its
    sign.  The elimination is fraction-free (symmetric Bareiss) and uses
    only exact int division.
    Invariant: after rational pivots s_1, ..., s_t, the rational Schur
    complement S is held as the integers A = D * S, where D = s_1 * ...
    * s_t is also the last integer pivot value (D = 1 before the
    first).  By Sylvester's identity each entry of D * S is a minor of
    the input, taken after the hyperbolic steps, which are unimodular
    congruences; so a pivot p = A[i][i] updates
    A[j][k] <- (p * A[j][k] - A[j][i] * A[i][k]) // D exactly, and
    p * S[j][k] = A[j][k] * p // D exactly where A[j][i] or A[i][k] is
    zero.  The rational pivot is p / D, so its sign is sign(p) *
    sign(D), and the final D is the determinant.  Rows are rescaled
    lazily: row j holds level[j] * S for the D at which it was last
    written, and a pivot rescales only its neighbour rows, dividing by
    level[j] in place of D, so rows away from the pivot stay as they
    are and the work stays sparse."""
    # level[j]: the D at which row j was last brought up to date; row j
    # holds level[j] * S, and D * S is an integer, so x * D // level[j] is
    # exact for each of its entries x
    level = dict.fromkeys(rows, 1)
    # (off-diagonal degree, index) of every row with a nonzero diagonal;
    # a row pushes a fresh entry when it changes, and stale ones are skipped
    heap = [(len(r) - 1, i) for i, r in rows.items() if i in r]
    heapq.heapify(heap)
    pos = neg = 0
    d = 1

    def current(i):
        """Row i brought up to date, so that it holds D * S."""
        r = rows[i]
        li = level[i]
        if li != d:
            for k, x in r.items():
                r[k] = x * d // li
            level[i] = d
        return r

    def eliminate(i):
        nonlocal pos, neg, d
        row = current(i)
        del rows[i]
        p = row.pop(i)
        if (p > 0) == (d > 0):
            pos += 1
        else:
            neg += 1
        nbrs = list(row.items())
        # a neighbour row j still holds level[j] * S; its new entries are
        # p * S', so the update divides by level[j] instead of by D
        stale = [(j, rows[j].pop(i), level[j]) for j, _ in nbrs]
        # Schur complement: m[j][k] -= m[j][i] * m[i][k] / p
        for a, (j, mji, lj) in enumerate(stale):
            rj = rows[j]
            for k, mik in nbrs[a:]:
                v = (p * rj.get(k, 0) - mji * mik) // lj
                if v:
                    rj[k] = rows[k][j] = v
                else:
                    rj.pop(k, None)
                    rows[k].pop(j, None)
        for j, _, lj in stale:
            rj = rows[j]
            if lj != p:
                # entries outside the pivot's neighbourhood: S unchanged
                for k, x in rj.items():
                    if k not in row:
                        rj[k] = x * p // lj
            level[j] = p
            if j in rj:
                heapq.heappush(heap, (len(rj) - 1, j))
        d = p

    while rows:
        if heap:
            degree, i = heapq.heappop(heap)
            r = rows.get(i)
            if r is not None and i in r and len(r) - 1 == degree:
                eliminate(i)
            continue
        # every remaining diagonal entry is zero
        live = [(len(r), i) for i, r in rows.items() if r]
        if not live:
            return pos, neg, 0  # the remaining block is zero
        _, i = min(live)
        j = min(rows[i], key=lambda k: (len(rows[k]), k))
        ri, rj = current(i), current(j)
        for k, v in rj.items():
            if k != i and k != j:
                # column i += column j in row k, at row k's own level
                rk = rows[k]
                w = rk.get(i, 0) + rk[j]
                if w:
                    rk[i] = w
                    ri[k] = ri.get(k, 0) + v
                else:
                    del rk[i], ri[k]
        ri[i] = 2 * ri[j]  # m[i][i] + 2 m[i][j] + m[j][j] with both ends zero
        eliminate(i)
    return pos, neg, d


def signature_symmetric(m: IntMatrix) -> int:
    """Signature of a symmetric integer matrix, by exact congruence
    diagonalization of its sparse rows (``congruence_rows``)."""
    n = len(m)
    if n == 0:
        return 0
    if any(len(row) != n for row in m):
        raise ValueError("signature of a non-square matrix")
    if any(type(x) is not int for row in m for x in row):
        raise ValueError("signature of a matrix with non-integer entries")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos, neg, _ = congruence_rows(
        {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m)})
    return pos - neg
