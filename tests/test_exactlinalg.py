from fractions import Fraction

import pytest

from ref_congruence import congruence_eliminate
from ref_snf import identity, is_unimodular, mat_mul, smith_normal_form
from tracekit.exactlinalg import cokernel, det_int, signature_symmetric


def test_snf_identity():
    u, d, v = smith_normal_form(identity(3))
    assert d == identity(3)


def test_snf_hyperbolic():
    # row/column reduction by hand: swap rows, clear -> diag(1, 1)
    _, d, _ = smith_normal_form([[0, 1], [1, 0]])
    assert [d[0][0], d[1][1]] == [1, 1]


def test_snf_already_diagonal():
    _, d, _ = smith_normal_form([[2, 0], [0, 4]])
    assert [d[0][0], d[1][1]] == [2, 4]


def test_snf_divisibility_fix():
    _, d, _ = smith_normal_form([[2, 0], [0, 3]])
    assert [d[0][0], d[1][1]] == [1, 6]


def test_snf_random_factorization(rng):
    for _ in range(300):
        rows = rng.randrange(0, 5)
        cols = rng.randrange(0, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert is_unimodular(u) and is_unimodular(v)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            assert x != 0 or y == 0
            if x:
                assert y % x == 0


def test_snf_det_preserved_up_to_sign(rng):
    for _ in range(100):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        _, d, _ = smith_normal_form(m)
        prod = 1
        for i in range(n):
            prod *= d[i][i]
        assert prod == abs(det_int(m))


def test_snf_idempotent(rng):
    for _ in range(50):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        _, d, _ = smith_normal_form(m)
        _, d2, _ = smith_normal_form(d)
        assert d2 == d


def test_cokernel_zero_matrix():
    assert cokernel([[0] * 4 for _ in range(4)]) == (4, ())


def test_cokernel_examples():
    assert cokernel([[0, 1], [1, 0]]) == (0, ())
    assert cokernel([[1]]) == (0, ())
    assert cokernel([[2, 0], [0, 3]]) == (0, (6,))
    assert cokernel([]) == (0, ())
    assert cokernel([[], []]) == (2, ())


def test_det_bareiss_vs_cofactor(rng):
    def cofactor(m):
        n = len(m)
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        out = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            out += (-1) ** j * m[0][j] * cofactor(minor)
        return out

    for _ in range(100):
        n = rng.randrange(0, 5)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == cofactor(m)


def test_signature_examples():
    assert signature_symmetric([]) == 0
    assert signature_symmetric([[5]]) == 1
    assert signature_symmetric([[-2, 1], [1, -2]]) == -2
    assert signature_symmetric([[0, 1], [1, 0]]) == 0
    assert signature_symmetric([[0, 0], [0, 0]]) == 0
    assert signature_symmetric([[2, 1], [1, -2]]) == 0


def test_signature_congruence_invariance(rng):
    # sig(P^T S P) == sig(S) for unimodular P
    for _ in range(60):
        n = rng.randrange(1, 5)
        s = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randrange(-4, 5)
                s[i][j] = s[j][i] = x
        p = identity(n)
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                f = rng.randrange(-2, 3)
                for r in range(n):
                    p[r][i] += f * p[r][j]
        pt = [list(col) for col in zip(*p)]
        conj = mat_mul(pt, mat_mul(s, p))
        assert signature_symmetric(conj) == signature_symmetric(s)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature_symmetric([[0, 1], [2, 0]])


@pytest.mark.parametrize("m", [[[1, 2]], [[1, 2], [2]], [[1], [2]]])
def test_signature_rejects_non_square(m):
    with pytest.raises(ValueError):
        signature_symmetric(m)


@pytest.mark.parametrize("m", [
    [[Fraction(1, 2), 0], [0, 1]],
    [[1, Fraction(2)], [Fraction(2), 1]],
    [[1.0, 0], [0, 1]],
    [[True, 0], [0, 1]],
], ids=["fraction", "integral-fraction", "float", "bool"])
def test_signature_rejects_non_integer_entries(m):
    # the kernel's exact int division would take a rational entry to a
    # wrong signature without a word
    with pytest.raises(ValueError, match="non-integer"):
        signature_symmetric(m)


# -- sparse congruence kernel ------------------------------------------------------

def lagrange_signature(m) -> int:
    """Reference signature: dense Lagrange reduction over Q, pivoting in
    index order and manufacturing a pivot from an off-diagonal entry
    when the remaining diagonal is zero."""
    n = len(m)
    s = [[Fraction(x) for x in row] for row in m]
    pos = neg = 0
    k = 0
    while k < n:
        if s[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if s[i][i] != 0), None)
            if swap is not None:
                s[k], s[swap] = s[swap], s[k]
                for row in s:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next(((i, j) for i in range(k, n) for j in range(i + 1, n)
                            if s[i][j] != 0), None)
                if off is None:
                    break  # remaining block is zero
                i, j = off
                for col in range(n):
                    s[i][col] += s[j][col]
                for row in s:
                    row[i] += row[j]
                if i != k:
                    s[k], s[i] = s[i], s[k]
                    for row in s:
                        row[k], row[i] = row[i], row[k]
        p = s[k][k]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            f = s[r][k] / p
            if f:
                for col in range(n):
                    s[r][col] -= f * s[k][col]
                for row in s:
                    row[r] -= f * row[k]
        k += 1
    return pos - neg


def random_symmetric(rng, n, density=1.0, zero_diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() >= density:
                continue
            m[i][j] = m[j][i] = rng.randrange(-4, 5)
    return m


def assert_kernel_matches_references(m):
    pos, neg, det = congruence_eliminate(m)
    assert pos - neg == lagrange_signature(m)
    assert det == det_int(m)
    if det:
        assert pos + neg == len(m)


def test_kernel_empty():
    assert congruence_eliminate([]) == (0, 0, 1)


def test_kernel_examples():
    assert congruence_eliminate([[5]]) == (1, 0, 5)
    assert congruence_eliminate([[-2, 1], [1, -2]]) == (0, 2, 3)
    # hyperbolic plane: all-zero diagonal, signature 0, det -1
    assert congruence_eliminate([[0, 1], [1, 0]]) == (1, 1, -1)
    assert congruence_eliminate([[0, 0], [0, 0]]) == (0, 0, 0)
    assert congruence_eliminate([[0, 3, 0], [3, 0, 0], [0, 0, 0]]) == (1, 1, 0)


def test_kernel_random_against_references(rng):
    for _ in range(400):
        n = rng.randrange(0, 13)
        assert_kernel_matches_references(random_symmetric(rng, n, rng.random()))


def test_kernel_zero_diagonal_hyperbolic_branch(rng):
    for _ in range(300):
        n = rng.randrange(1, 13)
        assert_kernel_matches_references(
            random_symmetric(rng, n, rng.random(), zero_diagonal=True))


def test_kernel_singular(rng):
    for _ in range(200):
        n = rng.randrange(2, 13)
        m = random_symmetric(rng, n, rng.random(), zero_diagonal=rng.random() < 0.5)
        # a repeated row and column puts e_a - e_b in the radical
        a, b = rng.sample(range(n), 2)
        for k in range(n):
            m[b][k] = m[k][b] = m[a][k]
        m[b][b] = m[a][b] = m[b][a] = m[a][a]
        assert det_int(m) == 0
        assert_kernel_matches_references(m)


def test_kernel_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(-1, 4)]]
    assert congruence_eliminate(m) == (1, 1, Fraction(-1, 8) - Fraction(1, 9))
