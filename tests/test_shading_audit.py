"""Shading classes from one face traversal against the union-find.

``linkdiag._shadings`` colours the faces in one traversal: opposite
corners share a class, adjacent corners differ.  Its classes must be
those of the union-find it replaced (``ref_shadings``), face for face
and crossing edge for crossing edge, on every seed-1 benchmark diagram,
the catalog, seeded split diagrams with loops and large braid closures.
Only the order of the classes may differ: the traversal pairs them by
piece, in piece order, each pair led by the class holding the piece's
least face.  A diagram whose face memo is not a checkerboard, or gives
a piece other than two classes, is refused.
"""

import random

import pytest

import tracekit.invariants as inv
from conftest import base_seed
from ref_shadings import shadings as ref_shadings
from test_goeritz_audit import _item_diagram, split_diagrams
from test_golden_reports import GOLDEN_SEED
from test_golden_reports import corpus as bench_corpus
from tracekit import linkdiag as ld
from tracekit.errors import InternalInvariantError


def check(d):
    pairs = ld._shadings(d)
    got = [shading for pair in pairs for shading in pair]
    want = ref_shadings(d)
    assert len(pairs) == len(d.pieces)
    assert len(got) == len(want) == 2 * len(d.pieces)
    as_set = {(tuple(faces), tuple(edges)) for faces, edges in got}
    assert as_set == {(tuple(faces), tuple(edges)) for faces, edges in want}
    # each pair holds its piece's faces, and the class with the least one leads
    for piece, (first, second) in enumerate(pairs):
        owners = {d.piece_of[d.face_corners[f][0] >> 2] for f in first[0] + second[0]}
        assert owners == {piece}
        assert first[0][0] < second[0][0]
    leads = [first[0][0] for first, _ in pairs]
    assert leads == sorted(leads)


def _bench_diagrams():
    out = []
    for workload in bench_corpus.WORKLOADS:
        for item in bench_corpus.build(workload, GOLDEN_SEED):
            if item.text is not None or "--catalog" in item.argv:
                out.append(_item_diagram(item))
    return out


def test_classes_match_on_every_seed1_bench_diagram():
    diagrams = _bench_diagrams()
    assert len(diagrams) > 250
    for d in diagrams:
        check(d)


def test_classes_match_on_the_catalog_and_split_diagrams():
    diagrams = [ld.catalog(name, param) for name, param in
                [("unknot", None), ("unlink", 3), ("hopf", "+"), ("hopf", "-"),
                 ("trefoil", "+"), ("trefoil", "-"), ("figure8", None),
                 ("whitehead", None), ("borromean", None)]]
    diagrams += [ld.catalog("twist_family", n) for n in range(2, -11, -1)]
    diagrams += split_diagrams(random.Random(base_seed() + 23), 200)
    assert sum(d.loops > 0 for d in diagrams) > 30
    for d in diagrams:
        check(d)


@pytest.mark.parametrize("crossings", [800, 1200, 1600])
def test_classes_match_on_large_closures(crossings):
    rng = random.Random(base_seed() + crossings)
    word = [rng.choice([1, -1]) * rng.randrange(1, 6) for _ in range(crossings)]
    check(ld.from_braid(word, 6))


def _swap_adjacent(face_of):
    face_of[0], face_of[1] = face_of[1], face_of[0]


def _one_face(face_of):
    face_of[:] = [0] * len(face_of)


def _shift(face_of):
    face_of[:] = face_of[1:] + face_of[:1]


@pytest.mark.parametrize("tamper", [_swap_adjacent, _one_face, _shift])
def test_a_face_memo_that_is_no_checkerboard_is_refused(tamper):
    d = ld.catalog("figure8")
    face_of = list(d.face_of)
    tamper(face_of)
    d.__dict__["face_of"] = face_of
    with pytest.raises(InternalInvariantError):
        ld._shadings(d)
    with pytest.raises(InternalInvariantError):
        inv.obstruction_report(d)


def test_a_face_memo_that_gives_a_piece_one_class_is_refused():
    """This memo 2-colours every crossing's corners with four classes in
    all, two per piece on average, but three of them start in the first
    piece and one in the second: each piece must have a pair."""
    d = ld.from_braid([1, 1, 3, 3], 4)
    assert len(d.pieces) == 2 and inv.obstruction_report(d)[2:4] == (-2, 4)
    d.__dict__["face_of"] = [0, 4, 2, 4, 7, 6, 7, 6, 4, 7, 4, 7, 4, 7, 4, 7]
    with pytest.raises(InternalInvariantError):
        ld._shadings(d)
    with pytest.raises(InternalInvariantError):
        inv.obstruction_report(d)
