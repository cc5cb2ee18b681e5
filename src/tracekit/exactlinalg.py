"""Exact integer and rational linear algebra.

Everything here works over arbitrary-precision Python ints; no floating
point is used anywhere.  ``congruence_eliminate`` also takes ``Fraction``
entries, which it scales to integers first; only that rational branch
imports ``fractions``, so integer callers never load it.  Matrices are
lists of lists, row major, and inputs are never mutated.

``congruence_rows`` is the symmetric-form kernel: sparse minimum-degree
congruence elimination of integer rows keyed by any ints (face ids, for
the Goeritz rows of reports), fraction-free in the manner of Bareiss,
that yields the signature and the determinant in one pass.
``congruence_eliminate`` is its dense wrapper, and
``signature_symmetric`` wraps that with input checks.  ``det_int`` is
dense Bareiss elimination, kept as the independent determinant.
"""

import heapq
from math import lcm
from typing import TYPE_CHECKING

from .errors import InternalInvariantError

if TYPE_CHECKING:
    from fractions import Fraction

IntMatrix = list[list[int]]


def _copy(m):
    return [list(row) for row in m]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                oi = out[i]
                for j in range(cols):
                    oi[j] += f * bk[j]
    return out


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


def is_unimodular(m: IntMatrix) -> bool:
    return abs(det_int(m)) == 1


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with D = U*m*V, U and V unimodular, D diagonal with
    nonnegative entries satisfying d[i] | d[i+1]."""
    a = _copy(m)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        # row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + f * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # choose the nonzero entry of minimal absolute value as pivot
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(i, t, -q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(j, t, -q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot now divides its row and column; enforce divisibility of the
        # remaining block by folding a bad entry into column t
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t]:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    d = a
    if __debug__:
        chain = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(chain, chain[1:]):
            if x == 0 and y != 0:
                raise InternalInvariantError("SNF zero precedes nonzero")
            if x and y % x:
                raise InternalInvariantError("SNF divisibility chain broken")
        if mat_mul(mat_mul(u, _copy(m)), v) != d:
            raise InternalInvariantError("SNF factorization mismatch")
    return u, d, v


def cokernel(m: IntMatrix, ambient_rank: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Cokernel of m viewed as a map Z^cols -> Z^rows: returns
    (free rank, torsion coefficients).  For an empty presentation the
    ambient rank may be passed explicitly."""
    rows = len(m)
    if rows == 0:
        return (ambient_rank or 0), ()
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(rows, len(d[0]) if d else 0))]
    free = rows - sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x > 1)
    return free, torsion


def congruence_eliminate(m) -> "tuple[int, int, int | Fraction]":
    """Diagonalize a symmetric matrix by exact congruence; returns (pos,
    neg, det), as ``congruence_rows`` does for its rows.  The input must
    be square and symmetric; it is not checked here.  A rational input
    is first multiplied by the lcm of its nonzero entries'
    denominators, and det is divided back."""
    rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(m)}
    scale = lcm(*(x.denominator for r in rows.values() for x in r.values()))
    if scale != 1:
        rows = {i: {j: (x * scale).numerator for j, x in r.items()}
                for i, r in rows.items()}
    pos, neg, d = congruence_rows(rows)
    if scale == 1:
        return pos, neg, d
    from fractions import Fraction  # loaded already: the input holds Fractions

    det = Fraction(d, scale ** len(m))
    return pos, neg, det.numerator if det.denominator == 1 else det


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


def signature_symmetric(m) -> int:
    """Signature of a symmetric matrix over Q, by exact congruence
    diagonalization (``congruence_eliminate``)."""
    n = len(m)
    if n == 0:
        return 0
    if any(len(row) != n for row in m):
        raise ValueError("signature of a non-square matrix")
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix is not symmetric")
    pos, neg, _ = congruence_eliminate(m)
    return pos - neg
