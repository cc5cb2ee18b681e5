"""Shading classes from one face traversal against the union-find.

``invariants._shadings`` colours the faces in one traversal: opposite
corners share a class, adjacent corners differ.  Its classes must be
those of the union-find it replaced (``ref_shadings``), face for face
and crossing edge for crossing edge, on every seed-1 benchmark diagram,
the catalog, seeded split diagrams with loops and large braid closures.
Only the order of the classes may differ: the traversal lists them by
least face.  A diagram whose face memo is not a checkerboard is refused.
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
    got = inv._shadings(d)
    want = ref_shadings(d)
    assert len(got) == len(want) == 2 * len(d.pieces)
    as_set = {(tuple(faces), tuple(edges)) for faces, edges in got}
    assert as_set == {(tuple(faces), tuple(edges)) for faces, edges in want}
    firsts = [faces[0] for faces, _ in got]
    assert firsts == sorted(firsts)


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
        inv._shadings(d)
    with pytest.raises(InternalInvariantError):
        inv.obstruction_report(d)
