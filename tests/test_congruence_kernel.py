"""The integer congruence kernel against the Fraction kernel it replaced.

The kernel ``congruence_rows`` runs fraction-free (symmetric Bareiss)
with a lazy per-row level; dense and rational matrices reach it through
``ref_congruence.congruence_eliminate``.  The reference below is the earlier kernel, which
did every pivot step in ``Fraction``s, kept verbatim the way
``test_flat_core`` keeps the dict-based diagram code; the library must
give the same (pos, neg, det) on every matrix, Goeritz forms included.
Each integer matrix also goes to the integer core ``congruence_rows``
as sparse rows keyed by scattered ints, the way reports key Goeritz
rows by face id, and must give the same.
"""

import heapq
import random
from fractions import Fraction

import pytest

from conftest import base_seed
from ref_congruence import congruence_eliminate
from ref_snf import identity, mat_mul
from tracekit import linkdiag as ld
from tracekit.exactlinalg import congruence_rows, det_int
from tracekit.invariants import goeritz_data


# -- reference: the Fraction kernel ----------------------------------------------

def ref_congruence_eliminate(m) -> tuple[int, int, int | Fraction]:
    """Diagonalize a symmetric matrix by exact congruence, with sparse
    rows and minimum-degree pivoting; returns (pos, neg, det).

    pos and neg count the positive and negative pivots, so pos - neg is
    the signature, and det is the product of the pivots, which is the
    determinant (an int for an integer matrix; 0 when singular).  When
    every remaining diagonal entry is zero, row and column j are added
    to row and column i for some nonzero entry (i, j): the hyperbolic
    step makes the diagonal entry 2 * m[i][j] and, being unimodular,
    keeps the determinant and its sign.  The input must be square and
    symmetric; it is not checked here."""
    rows = {i: {j: Fraction(x) for j, x in enumerate(row) if x}
            for i, row in enumerate(m)}
    # (off-diagonal degree, index) of every row with a nonzero diagonal;
    # a row pushes a fresh entry when it changes, and stale ones are skipped
    heap = [(len(r) - 1, i) for i, r in rows.items() if i in r]
    heapq.heapify(heap)
    pos = neg = 0
    det = Fraction(1)

    def eliminate(i):
        nonlocal pos, neg, det
        row = rows.pop(i)
        p = row.pop(i)
        if p > 0:
            pos += 1
        else:
            neg += 1
        det *= p
        nbrs = list(row.items())
        for j, _ in nbrs:
            del rows[j][i]
        # Schur complement: m[j][k] -= m[j][i] * m[i][k] / p
        for a, (j, mji) in enumerate(nbrs):
            f = mji / p
            rj = rows[j]
            for k, mik in nbrs[a:]:
                v = rj.get(k, 0) - f * mik
                if v:
                    rj[k] = rows[k][j] = v
                else:
                    rj.pop(k, None)
                    rows[k].pop(j, None)
        for j, _ in nbrs:
            rj = rows[j]
            if j in rj:
                heapq.heappush(heap, (len(rj) - 1, j))

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
        ri, rj = rows[i], rows[j]
        mij = ri[j]
        for k, v in rj.items():
            if k != i and k != j:
                w = ri.get(k, 0) + v
                if w:
                    ri[k] = rows[k][i] = w
                else:
                    del ri[k], rows[k][i]
        ri[i] = 2 * mij  # m[i][i] + 2 m[i][j] + m[j][j] with both ends zero
        eliminate(i)
    if det.denominator == 1:
        return pos, neg, det.numerator
    return pos, neg, det


# -- inputs ------------------------------------------------------------------------

def random_symmetric(rng, n, density, amp, zero_diagonal=False):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() >= density:
                continue
            m[i][j] = m[j][i] = rng.randint(-amp, amp)
    return m


def make_singular(rng, m):
    """Copy row and column a onto b, so e_a - e_b lies in the radical."""
    a, b = rng.sample(range(len(m)), 2)
    for k in range(len(m)):
        m[b][k] = m[k][b] = m[a][k]
    m[b][b] = m[a][b] = m[b][a] = m[a][a]
    return m


def random_unimodular(rng, n, moves):
    """A product of elementary column additions and one signed swap."""
    u = identity(n)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-3, 3)
        for r in range(n):
            u[r][i] += f * u[r][j]
    i, j = rng.sample(range(n), 2)
    for r in range(n):
        u[r][i], u[r][j] = -u[r][j], u[r][i]
    return u


def braid_closures(rng, count, min_crossings, max_crossings):
    """Connected closures of random braid words on 3-6 strands."""
    out = []
    while len(out) < count:
        strands = rng.randrange(3, 7)
        length = rng.randrange(min_crossings, max_crossings + 1)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(length)]
        d = ld.from_braid(word, strands)
        if d.crossings and ld.is_connected(d):
            out.append(d)
    return out


def scattered(i):
    """Row i's key for ``congruence_rows``: distinct, out of order and
    with gaps."""
    return i * 7919 % 10007 - 5000


def assert_matches_reference(m):
    got = congruence_eliminate(m)
    want = ref_congruence_eliminate(m)
    assert got == want
    assert type(got[2]) is type(want[2])
    if all(type(x) is int for row in m for x in row):
        rows = {scattered(i): {scattered(j): x for j, x in enumerate(row) if x}
                for i, row in enumerate(m)}
        assert congruence_rows(rows) == got
    return got


@pytest.fixture
def rng():
    return random.Random(base_seed() + 8)


# -- the kernel against the reference -------------------------------------------

def test_random_symmetric_over_densities(rng):
    for density in (0.05, 0.15, 0.3, 0.6, 1.0):
        for _ in range(15):
            n = rng.randrange(0, 41)
            assert_matches_reference(random_symmetric(rng, n, density, 1000))


def test_small_entries_many_cancellations(rng):
    # entries in -2..2 make zero fill-in and zero pivots frequent
    for _ in range(400):
        n = rng.randrange(1, 16)
        assert_matches_reference(random_symmetric(rng, n, rng.random(), 2))


def cancelling_pair(rng, z, amp):
    """Rows 0 and 1 are pivots c and -c with the same entries on the z
    zero-diagonal rows after them.  Their fill-ins cancel, so once both
    are eliminated every remaining diagonal entry is zero again, on rows
    whose level has moved, and hyperbolic steps follow."""
    n = z + 2
    m = random_symmetric(rng, n, rng.random(), amp, zero_diagonal=True)
    c = rng.choice([1, -1]) * rng.randint(1, amp)
    m[0][1] = m[1][0] = 0
    m[0][0], m[1][1] = c, -c
    for k in range(2, n):
        m[0][k] = m[k][0] = m[1][k] = m[k][1] = m[0][k]
    return m


def test_zero_diagonal_hyperbolic_after_pivots(rng):
    """Zero diagonals among ordinary pivots: the hyperbolic step runs on
    rows already at different levels."""
    for _ in range(100):
        n = rng.randrange(2, 25)
        m = random_symmetric(rng, n, rng.random(), 1000, zero_diagonal=True)
        for i in rng.sample(range(n), rng.randrange(0, n)):
            m[i][i] = rng.randint(-1000, 1000)
        assert_matches_reference(m)
    for _ in range(100):
        assert_matches_reference(cancelling_pair(rng, rng.randrange(2, 20), 50))
    # an all-zero diagonal with empty rows: hyperbolic steps only
    for _ in range(50):
        n = rng.randrange(2, 20)
        m = random_symmetric(rng, n, rng.random(), 50, zero_diagonal=True)
        for i in rng.sample(range(n), rng.randrange(1, n)):
            for k in range(n):
                m[i][k] = m[k][i] = 0
        assert_matches_reference(m)


def test_singular(rng):
    for _ in range(100):
        n = rng.randrange(2, 25)
        m = random_symmetric(rng, n, rng.random(), 1000,
                             zero_diagonal=rng.random() < 0.3)
        make_singular(rng, m)
        assert assert_matches_reference(m)[2] == 0
    # zero rows and a zero matrix
    assert_matches_reference([[0] * 5 for _ in range(5)])
    assert_matches_reference([[3, 0, 1], [0, 0, 0], [1, 0, 3]])


def test_rational(rng):
    for _ in range(200):
        n = rng.randrange(1, 13)
        m = random_symmetric(rng, n, rng.random(), 50,
                             zero_diagonal=rng.random() < 0.3)
        for i in range(n):
            for j in range(i, n):
                if m[i][j] and rng.random() < 0.5:
                    m[i][j] = m[j][i] = Fraction(m[i][j], rng.randrange(1, 13))
        if n >= 2 and rng.random() < 0.2:
            make_singular(rng, m)
        assert_matches_reference(m)
    # an integral determinant of a rational matrix comes back as an int
    got = assert_matches_reference([[Fraction(1, 2), 0], [0, 2]])
    assert got == (2, 0, 1) and type(got[2]) is int


def test_goeritz_forms_of_braid_closures(rng):
    closures = braid_closures(rng, 24, 6, 80) + braid_closures(rng, 4, 300, 400)
    for d in closures:
        for gd in goeritz_data(d):
            assert_matches_reference(gd.matrix)


def test_goeritz_forms_of_the_twist_family():
    for n in range(2, -41, -1):
        for gd in goeritz_data(ld.catalog("twist_family", n)):
            assert_matches_reference(gd.matrix)


def test_unimodular_congruence_keeps_signature_and_det(rng):
    for _ in range(120):
        n = rng.randrange(2, 21)
        m = random_symmetric(rng, n, rng.random(), 30,
                             zero_diagonal=rng.random() < 0.3)
        if rng.random() < 0.2:
            make_singular(rng, m)
        u = random_unimodular(rng, n, rng.randrange(1, 3 * n))
        ut = [list(col) for col in zip(*u)]
        conj = mat_mul(ut, mat_mul(m, u))
        pos, neg, det = congruence_eliminate(m)
        pos1, neg1, det1 = congruence_eliminate(conj)
        assert pos1 - neg1 == pos - neg
        assert det1 == det == det_int(m)


def test_integer_input_constructs_no_fraction(rng, monkeypatch):
    mats = [random_symmetric(rng, rng.randrange(1, 25), rng.random(), 1000,
                             zero_diagonal=rng.random() < 0.5)
            for _ in range(60)]
    mats += [gd.matrix for d in braid_closures(rng, 6, 6, 60) for gd in goeritz_data(d)]
    mats.append(make_singular(rng, random_symmetric(rng, 8, 0.5, 9)))

    def no_fraction(*args, **kwargs):
        raise AssertionError("the kernel built a Fraction from integer input")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    results = [congruence_eliminate(m) for m in mats]
    monkeypatch.undo()
    for m, got in zip(mats, results):
        assert type(got[2]) is int
        assert got == ref_congruence_eliminate(m)
