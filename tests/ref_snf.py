"""The dense Smith normal form that boundary H1 used to run through.

``exactlinalg.cokernel`` once took the diagonal of this Smith normal
form, which keeps the unimodular transforms U and V, rescans the whole
matrix for every pivot and checks U * m * V = D.  The library now
diagonalizes sparse rows without transforms; these functions are kept
here verbatim as the audit reference, the way ``ref_blocks`` keeps the
block knotification.
"""

from tracekit.errors import InternalInvariantError
from tracekit.exactlinalg import IntMatrix, _copy, det_int


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


def ref_cokernel(m: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """``cokernel`` as it read the Smith diagonal: (free rank, torsion
    coefficients) of m as a map Z^cols -> Z^rows."""
    rows = len(m)
    if rows == 0:
        return 0, ()
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(rows, len(d[0]) if d else 0))]
    free = rows - sum(1 for x in diag if x != 0)
    torsion = tuple(x for x in diag if x > 1)
    return free, torsion
