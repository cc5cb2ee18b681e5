"""The flat builder against the tuple-slot builder it replaced.

``_Builder`` keeps a frozen diagram's layout: an edge id per corner and
a sign per crossing, with each slot's end read off the sign.  The
reference in ``ref_builder`` stored (edge, end) slots.  Every freeze the
surgery, move, sublink and braid corpora make is checked against the
reference freeze of the same state: the same diagram and edge map, or
the same error, with the pieces and corner pairing of the reference
readers.  Thawing, splitting and smoothing must give the same slots as
the reference primitives.
"""

import itertools
import random

import pytest

from conftest import base_seed, random_connected_diagram, random_moves
from ref_builder import from_flat, ref_thaw, slots_of
from test_diagram_memo import _exercise
from test_face_chirality import _corpus, _edge_pairs
from test_flat_core import ref_pieces
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import MalformedPD, TracekitError


def _outcome(builder):
    try:
        d = builder.freeze()
    except TracekitError as exc:
        return type(exc), str(exc)
    return d, builder.last_edge_map


@pytest.fixture
def checked(monkeypatch):
    """From here on, every freeze is checked against the reference; the
    list counts the diagrams and errors checked."""
    real = ld._Builder.freeze
    outcomes = []

    def checking(self):
        want = _outcome(from_flat(self))
        try:
            d = real(self)
        except TracekitError as exc:
            assert (type(exc), str(exc)) == want
            outcomes.append(type(exc))
            raise
        assert (d, self.last_edge_map) == want
        assert d.__dict__["corner_edges"] == [e for c in d.crossings for e in c.edges]
        assert d.pieces == ref_pieces(d)
        assert d.partner == ld._pair_corners(d.corner_edges)
        outcomes.append(d)
        return d

    monkeypatch.setattr(ld._Builder, "freeze", checking)
    return outcomes


def _diagrams():
    rng = random.Random(base_seed() + 12)
    out = list(_corpus())
    out += [random_connected_diagram(rng, 14) for _ in range(30)]
    return out


def test_surgery_freezes_match(checked):
    """Knotify, high-order traces, split reports and R2 pushes, then
    both drawings of bands, clasps and R2 pushes, planar or not."""
    for d in _corpus():
        pairs = _edge_pairs(d)
        _exercise(d, pairs)
        ec = d.edge_component
        for a, b in pairs[:12]:
            for left, framing in itertools.product((False, True), (-1, 0, 2)):
                if ec[a] != ec[b]:
                    try:
                        ld._band_build(d, ld.BandSpec(a, b, framing), left)[0].freeze()
                    except MalformedPD:
                        pass
            for anti, mirrored in itertools.product((False, True), repeat=2):
                try:
                    ld._r2_build(d, a, b, anti, mirrored)
                except MalformedPD:
                    pass
    assert len(checked) > 2000
    assert MalformedPD in checked


def test_clasp_freezes_match(checked):
    for d in _corpus():
        for a, b in _edge_pairs(d)[:10]:
            for mirrored in (False, True):
                bd = ld._thaw(d)
                a1, rest = bd.split_edge(a)
                a2, a3 = bd.split_edge(rest)
                b1, restb = bd.split_edge(b)
                b2, b3 = bd.split_edge(restb)
                tr._clasp(bd, (a1, a2, a3), (b1, b2, b3), mirrored)
                try:
                    bd.freeze()
                except MalformedPD:
                    pass
    assert len(checked) > 200
    assert MalformedPD in checked


def test_move_sublink_and_braid_freezes_match(checked):
    rng = random.Random(base_seed() + 13)
    for d in _diagrams():
        random_moves(rng, d, 6, len(d.crossings) + 4)
        for e, chirality, flavor in itertools.product(d.edges[:3], (1, -1), (0, 1)):
            kinked = ld.r_moves(d, "R1+", (e, chirality, flavor))
            for c in kinked.crossings:
                if ld._kink_pattern(kinked, c.id) is not None:
                    ld.r_moves(kinked, "R1-", c.id)
        for k in range(d.loops):
            ld.r_moves(d, "R1+", (("loop", k), 1, 0))
            for e in d.edges[:3]:
                ld.r_moves(d, "R2+", (("loop", k), e))
        n = d.num_components
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(n), size):
                ld.sublink(d, keep)
        ld.mirror(d)
        for i in range(len(d.components)):
            ld.reverse_component(d, i)
    for _ in range(60):
        strands = rng.randrange(2, 7)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 30))]
        ld.from_braid(word, strands)
    assert len(checked) > 2000


def _split_braids(rng, count):
    """(closure, blocks, loops): braids of 50-200 letters on 2-4 blocks
    of 2-3 strands side by side, each block braided on all of its
    generators, so each closes into one piece; about half have a
    crossing-free loop from an untouched strand between two blocks or
    after the last."""
    out = []
    for _ in range(count):
        blocks = rng.randrange(2, 5)
        gens, strand, loops = [], 0, 0
        loop_after = rng.randrange(2 * blocks)  # no loop unless below blocks
        for k in range(blocks):
            width = rng.randrange(2, 4)
            gens.append(range(strand + 1, strand + width))
            strand += width
            if k == loop_after:
                strand += 1
                loops += 1
        word = [g for block in gens for g in block]
        word += [rng.choice(rng.choice(gens)) for _ in range(rng.randrange(50, 201) - len(word))]
        rng.shuffle(word)
        word = [rng.choice([1, -1]) * g for g in word]
        out.append((ld.from_braid(word, strand), blocks, loops))
    return out


def test_split_braid_pieces_match(checked):
    """Large split closures, their mirrors, reversals and sublinks, and
    directly built copies whose components come in reverse order: the
    union over components must find the pieces the corner adjacency
    finds."""
    rng = random.Random(base_seed() + 15)
    split = _split_braids(rng, 16)
    assert sum(loops > 0 for _, _, loops in split) >= 4
    for d, blocks, loops in split:
        assert (len(d.pieces), d.loops) == (blocks, loops)
        assert 50 <= len(d.crossings) <= 200
        ld.mirror(d)
        ld.reverse_component(d, rng.randrange(len(d.components)))
        ld.sublink(d, rng.sample(range(d.num_components), d.num_components // 2 + 1))
    assert len(checked) == 4 * len(split)
    for d in [d for d, _, _ in split] + _diagrams():
        direct = ld.LinkDiagram(d.crossings, d.components[::-1], d.loops, d.name)
        assert ld._pieces(direct) == ref_pieces(direct) == d.pieces


def test_thaw_split_and_smooth_match_the_tuple_slots():
    rng = random.Random(base_seed() + 14)
    for d in _diagrams():
        b, ref = ld._thaw(d), ref_thaw(d)
        assert slots_of(b) == ref.cross
        assert (b.loops, b.name, b._next_edge) == (ref.loops, ref.name, ref._next_edge)
        for e in rng.sample(d.edges, min(4, len(d.edges))):
            assert b.split_edge(e) == ref.split_edge(e)
            assert slots_of(b) == ref.cross
        assert _outcome(b) == _outcome(ref)

        b, ref = ld._thaw(d), ref_thaw(d)
        cids = rng.sample(range(len(d.crossings)), rng.randrange(len(d.crossings) + 1))
        kept = None
        if rng.random() < 0.5:
            kept = {e for comp in rng.sample(d.components, rng.randrange(1, len(d.components) + 1))
                    for e in comp}
        b.smooth(cids, kept)
        ref.smooth(cids, kept)
        assert slots_of(b) == ref.cross and b.loops == ref.loops
        assert _outcome(b) == _outcome(ref)
