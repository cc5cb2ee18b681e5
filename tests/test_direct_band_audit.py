"""The least-edge answer of the direct-band search, audited.

``traces._direct_band`` answers from the two buckets of the least open
edge when one of them holds an edge of another open component, and
scans every corner only otherwise.  Every knotify step of the seed-1
surgery corpus and of seeded braid closures (2-8 components, 20-200
crossings, split pieces and crossing-free loops among them) must choose
the band that ``ref_direct_band``'s full scan chooses, and both the
early answer and the scan must be taken.
"""

import random
from collections import Counter

import pytest

from conftest import base_seed
from ref_direct_band import direct_band
from test_golden_reports import GOLDEN_SEED, run_item
from test_golden_reports import corpus as bench_corpus
from tracekit import linkdiag as ld
from tracekit import traces as tr


def _kind(d, comps, band) -> str:
    """Which part of the search answers: the two buckets of the least
    open edge e ("early"), the scan of every corner, a band at a loop,
    or one between pieces.  Only e's buckets have e as least entry, and
    a bucket never leaves its piece, so the full scan's answer tells."""
    if band is None:
        return "none"
    if isinstance(band.arc_a, tuple):
        return "loop"
    e = d.components[min(i for i in comps if i < len(d.components))][0]
    if band.arc_a != e:
        return "scan"
    return "early" if ld._same_piece(d, band.arc_a, band.arc_b) else "pieces"


@pytest.fixture
def audited(monkeypatch):
    """Every direct-band call: its kind by the reference, and whether the
    library's band differs from it."""
    kinds, mismatches = Counter(), []
    library = tr._direct_band

    def compared(d, comps):
        band, expected = library(d, comps), direct_band(d, comps)
        kinds[_kind(d, comps, expected)] += 1
        if band != expected:
            mismatches.append((ld.serialize_pd(d), sorted(comps), band, expected))
        return band

    monkeypatch.setattr(tr, "_direct_band", compared)
    return kinds, mismatches


def test_surgery_corpus_steps_match_the_full_scan(audited, tmp_path):
    kinds, mismatches = audited
    items = [item for item in bench_corpus.build("surgery", GOLDEN_SEED)
             if item.argv[0] == "knotify"]
    codes = [run_item(item, tmp_path / f"item{k}")[0] for k, item in enumerate(items)]
    assert not mismatches, mismatches[:3]
    assert set(codes) == {0}
    # 76 steps: the least edge's buckets answer 49; the scan 14, and
    # after it loop bands 8 and bands between pieces 5
    assert kinds == {"early": 49, "scan": 14, "loop": 8, "pieces": 5}


def _closures(rng: random.Random, count: int):
    """Braid closures of 2-8 components and 20-200 crossings.  A
    generator the word skips splits the closure, and a strand no letter
    touches closes into a loop."""
    while count:
        strands = rng.randrange(2, 10)
        gens = [g for g in range(1, strands) if rng.random() < 0.8] or [1]
        word = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randrange(20, 201))]
        d = ld.from_braid(word, strands)
        if 2 <= d.num_components <= 8:
            count -= 1
            yield d


def test_seeded_closure_steps_match_the_full_scan(audited):
    kinds, mismatches = audited
    rng = random.Random(base_seed())
    for d in _closures(rng, 60):
        tr.knotify(tr.FramedLink(d, (0,) * d.num_components))
    assert not mismatches, mismatches[:3]
    assert kinds["early"] and kinds["scan"] and kinds["loop"] and kinds["pieces"], kinds
