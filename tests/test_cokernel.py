"""``cokernel`` against the dense Smith normal form it replaced.

``exactlinalg.cokernel`` diagonalizes sparse rows without transforms,
block by block, and merges the diagonal into invariant factors with
gcd/lcm.  ``ref_snf`` keeps the Smith normal form with U and V that it
replaced, and both must give the same (free rank, torsion) on seeded,
row- and column-permuted block-diagonal matrices and on the Q of every
seed-1 surgery ``trace`` and ``check-sphere`` item of the benchmark
corpus.  The rank of W that ``HandleDecomposition`` memoizes is checked
against the same reference.  ``cokernel``, like the dense kernels
``det_int`` and ``signature_symmetric``, leaves its input as it is.  Set
TRACEKIT_SEED to draw other matrices.
"""

import time
import tracemalloc

import pytest

from ref_snf import ref_cokernel
from test_golden_reports import GOLDEN_SEED, corpus, run_item
from tracekit import cli, exactlinalg
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.exactlinalg import cokernel, det_int, signature_symmetric


def _w_rank(w) -> int:
    return tr.HandleDecomposition((1, 0, 0, 0, 0), (), tuple(map(tuple, w)), "test")._w_rank


def assert_matches_reference(m):
    free, torsion = ref_cokernel(m)
    assert cokernel(m) == (free, torsion), m
    assert _w_rank(m) == len(m) - free, m


def random_block(rng, rows, cols):
    """A rows x cols block: zero, small, large (entries up to 10**6) or
    a diagonal of small factors mixed by unimodular row and column
    additions, so that blocks share primes and the factors merge."""
    kind = rng.choice(["zero", "small", "large", "mixed"])
    if kind == "zero":
        return [[0] * cols for _ in range(rows)]
    if kind == "small":
        return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    if kind == "large":
        return [[rng.choice([0, rng.randint(-10**6, 10**6)]) for _ in range(cols)]
                for _ in range(rows)]
    b = [[0] * cols for _ in range(rows)]
    for i in range(min(rows, cols)):
        b[i][i] = rng.choice([0, 1, 2, 3, 4, 6, 8, 9, 12, 36])
    for _ in range(rng.randrange(2 * (rows + cols) + 1)):
        if rng.random() < 0.5 and rows > 1:
            i, k = rng.sample(range(rows), 2)
            b[i] = [x + rng.randint(-3, 3) * y for x, y in zip(b[i], b[k])]
        elif cols > 1:
            j, k = rng.sample(range(cols), 2)
            f = rng.randint(-3, 3)
            for r in b:
                r[j] += f * r[k]
    return b


def random_block_diagonal(rng, blocks):
    """Block-diagonal matrix of ``blocks`` random blocks, square or not
    and some with no rows or no columns, with its rows and columns
    shuffled."""
    shapes = [(rng.randrange(0, 5), rng.randrange(0, 5)) for _ in range(blocks)]
    rows, cols = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    m = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for r, c in shapes:
        for i, row in enumerate(random_block(rng, r, c)):
            m[r0 + i][c0:c0 + c] = row
        r0, c0 = r0 + r, c0 + c
    rng.shuffle(m)
    perm = list(range(cols))
    rng.shuffle(perm)
    return [[row[j] for j in perm] for row in m]


def test_cokernel_shapes():
    assert cokernel([]) == (0, ())
    assert cokernel([[]]) == (1, ())
    assert cokernel([[], [], []]) == (3, ())
    assert cokernel([[0, 0, 0]]) == (1, ())
    assert cokernel([[0], [0]]) == (2, ())
    for k in range(4):
        assert_matches_reference([[] for _ in range(k)])
        assert_matches_reference([[0] * k])


def test_cokernel_merges_factors_across_blocks():
    # diagonal blocks 2, 3, 4, 6 and 9: Z/2 + Z/3 + Z/4 + Z/6 + Z/9
    # has invariant factors 6 | 6 | 36
    m = [[0] * 5 for _ in range(5)]
    for i, x in enumerate([9, 4, 6, 2, 3]):
        m[i][(2 * i) % 5] = x
    assert cokernel(m) == (0, (6, 6, 36))
    assert_matches_reference(m)


def test_cokernel_matches_snf_on_permuted_blocks(rng):
    for _ in range(1500):
        assert_matches_reference(random_block_diagonal(rng, rng.randrange(1, 5)))


def test_cokernel_matches_snf_on_dense_matrices(rng):
    for _ in range(200):
        rows, cols = rng.randrange(0, 7), rng.randrange(0, 7)
        assert_matches_reference(random_block(rng, rows, cols))


def test_cokernel_does_not_mutate_its_input(rng):
    for _ in range(50):
        m = random_block_diagonal(rng, 3)
        rows = tuple(map(tuple, m))
        cokernel(rows)
        cokernel(m)
        assert m == [list(r) for r in rows]


@pytest.mark.parametrize("kernel", [det_int, signature_symmetric])
def test_dense_kernels_do_not_mutate_their_input(rng, kernel):
    for _ in range(50):
        n = rng.randrange(0, 7)
        b = random_block(rng, n, n)
        m = [[x + y for x, y in zip(row, col)] for row, col in zip(b, zip(*b))]
        rows = tuple(map(tuple, m))
        kernel(m)
        assert m == [list(r) for r in rows]


def test_surgery_corpus_matrices_match_snf(monkeypatch, tmp_path):
    """Every matrix the seed-1 surgery ``trace`` and ``check-sphere``
    items hand to ``cokernel``: each item's Q, and W for a partition."""
    seen = []

    def recording(m):
        seen.append(m)
        return cokernel(m)

    monkeypatch.setattr(tr, "cokernel", recording)
    items = [it for it in corpus.build("surgery", GOLDEN_SEED)
             if it.argv[0] in ("trace", "check-sphere")]
    for k, item in enumerate(items):
        code, _, err = run_item(item, tmp_path / f"item{k}")
        assert code == 0, (item.id, err)
    monkeypatch.undo()  # the _w_rank check below calls tr.cokernel too
    assert len(seen) >= len(items) > 0  # each item's Q or W at least
    for m in seen:
        assert_matches_reference(m)


def split_hopf(pieces: int):
    """A split link of Hopf pieces; piece p is components 2p and 2p+1."""
    return ld.from_braid([g for p in range(pieces) for g in (2 * p + 1, 2 * p + 1)])


@pytest.fixture
def additions(monkeypatch):
    """The (target, source) line of every row or column addition."""
    calls = []
    real = exactlinalg._add

    def counting(a, b, k, i, f):
        calls.append((k, i))
        real(a, b, k, i, f)

    monkeypatch.setattr(exactlinalg, "_add", counting)
    return calls


def test_unit_pivots_clear_each_block_in_one_sweep(additions):
    """Q of a split Hopf link is block-diagonal with blocks [[a, 1], [1,
    b]].  The smallest entry of a pivot's row and column is the linking
    1, which clears its row and column in one sweep: one row and one
    column addition per block, and none that reach another block."""
    calls = additions
    pieces = 30
    framings = [(3, -2, 5, 2, -3)[c % 5] for c in range(2 * pieces)]
    q = tr.zero_trace(tr.FramedLink(split_hopf(pieces), tuple(framings))).q
    assert cokernel(q)[0] == 0
    assert len(calls) == 2 * pieces
    assert all(k // 2 == i // 2 for k, i in calls)


@pytest.mark.parametrize("m", [[[6, 10, 15]], [[6], [10], [15]]])
def test_euclid_steps_move_the_pivot_to_the_smallest_remainder(m, additions):
    """6 clears 10 and 15 to 4 and 3; the pivot moves to 3, which clears
    6 and leaves 1; 1 clears 3.  Five additions, where moving to the
    first remainder (4) takes six."""
    assert cokernel(m) == (len(m) - 1, ())
    assert len(additions) == 5


@pytest.mark.parametrize("command", ["trace", "check-sphere"])
def test_400_component_split_hopf_link_is_fast(command, tmp_path, capsys):
    """Q is 200 2x2 blocks.  Diagonalizing block by block takes
    milliseconds; the dense Smith form, with U and V and a whole-matrix
    pivot scan, took seconds at this size."""
    framings = [(c % 7) - 3 for c in range(400)]
    path = tmp_path / "hopf400.json"
    path.write_text(ld.dumps(split_hopf(200), framings))
    t0 = time.perf_counter()
    code = cli.main([command, str(path)])
    elapsed = time.perf_counter() - t0
    assert code == 0 and capsys.readouterr().out
    assert elapsed < 0.5, f"{command} took {elapsed:.2f}s (budget 0.5s)"


@pytest.mark.parametrize("framing", [0, "mixed"])
def test_cokernel_of_a_1000_component_unlink_is_small(framing):
    """Q of unlink:1000 is 1000 x 1000 and diagonal.  The sparse rows
    hold only the framings; U and V alone were two million entries."""
    framings = [0 if framing == 0 else (c % 9) - 4 for c in range(1000)]
    q = tr.zero_trace(tr.FramedLink(ld.catalog("unlink", "1000"), tuple(framings))).q
    tracemalloc.start()
    try:
        free, torsion = cokernel(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # framings -4..4, with -4 once more: 222 each of |t| = 2 and 3, and
    # 223 of |t| = 4, so Z/2^222 + Z/3^222 + Z/4^223 = Z/2^222 + Z/4 + Z/12^222
    assert free == framings.count(0)
    assert torsion == (() if framing == 0 else (2,) * 222 + (4,) + (12,) * 222)
    assert peak < 5 * 2**20, f"cokernel peaked at {peak / 2**20:.1f} MB (bound 5 MB)"
