"""The flat diagram core against the dict-based code it replaced.

A frozen diagram numbers corner (c, s) as the int 4c+s and keeps its
derived structure in lists.  The references below are the earlier
implementations over dicts of (crossing, slot) tuples, kept here the way
``test_face_chirality`` keeps the trial order; the library must give the
same faces, pieces, walk parities, face sides and direct bands, and the
same errors for edges used other than twice.  The ``edge_faces`` index
over the face walks, which face queries read before they went to the
corners, is kept too, and checked against the corner-local face sides.
"""

import itertools
import json
import random
import time

import pytest

from conftest import base_seed, random_connected_diagram
from test_face_chirality import _corpus as chirality_corpus
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import (
    InconsistentEdges,
    InternalInvariantError,
    MalformedPD,
)


# -- references: dicts of (crossing, slot) corners ------------------------------

def ref_occurrences(d):
    occ = {}
    for c in d.crossings:
        for s, e in enumerate(c.edges):
            occ.setdefault(e, []).append((c.id, s))
    return occ


def ref_ends(d):
    ends = {}
    for c in d.crossings:
        oi = c.over_in_slot
        for s, e in enumerate(c.edges):
            tail, head = ends.get(e, (None, None))
            if s == 0 or s == oi:
                ends[e] = (tail, (c.id, s))
            else:
                ends[e] = ((c.id, s), head)
    return ends


def ref_faces(d):
    partner = {}
    for places in ref_occurrences(d).values():
        if len(places) != 2:
            raise InconsistentEdges(f"edge appears {len(places)} times")
        partner[places[0]] = places[1]
        partner[places[1]] = places[0]
    out = []
    seen = set()
    for start in sorted((c.id, s) for c in d.crossings for s in range(4)):
        if start in seen:
            continue
        face = [start]
        seen.add(start)
        while True:
            cid, s = face[-1]
            nxt = partner[(cid, (s + 1) % 4)]
            if nxt == start:
                break
            face.append(nxt)
            seen.add(nxt)
        out.append(face)
    return out


def ref_pieces(d):
    adj = {c.id: set() for c in d.crossings}
    for places in ref_occurrences(d).values():
        for (c1, _), (c2, _) in zip(places, places[1:]):
            adj[c1].add(c2)
            adj[c2].add(c1)
    pieces = []
    seen = set()
    for start in adj:
        if start in seen:
            continue
        stack = [start]
        piece = set()
        while stack:
            x = stack.pop()
            if x in piece:
                continue
            piece.add(x)
            stack.extend(adj[x] - piece)
        seen |= piece
        pieces.append(piece)
    return pieces


def ref_face_edge_parities(d):
    ends = ref_ends(d)
    out = []
    for f in ref_faces(d):
        walk = []
        for cid, s in f:
            corner = (cid, (s + 1) % 4)
            e = d.crossings[cid].edges[corner[1]]
            walk.append((e, ends[e][0] == corner))
        out.append(walk)
    return out


def ref_face_sides(walks, a, b):
    sides = set()
    for walk in walks:
        pars_a = [p for e, p in walk if e == a]
        pars_b = [p for e, p in walk if e == b]
        sides.update((x, y) for x in pars_a for y in pars_b)
    return sides


def ref_edge_faces(d):
    """Edge -> its (face index, parity) places on the face walks, in face
    order: the index the face queries read before they went to corners."""
    places = [[] for _ in range(max(d.corner_edges, default=0) + 1)]
    for i, walk in enumerate(ld.face_edge_parities(d)):
        for e, p in walk:
            places[e].append((i, p))
    return places


def ref_indexed_face_sides(places, a, b):
    return {(pa, pb) for fa, pa in places[a] for fb, pb in places[b] if fa == fb}


def ref_same_piece(d, a, b):
    ends = ref_ends(d)
    piece_of = {cid: i for i, piece in enumerate(ref_pieces(d)) for cid in piece}
    return piece_of[ends[a][1][0]] == piece_of[ends[b][1][0]]


def ref_is_alternating(d):
    return all((tail[1] != 2) != (head[1] != 0) for tail, head in ref_ends(d).values())


def ref_direct_band(d, comps):
    """The all-pairs scan over every face walk."""
    ec = d.edge_component
    n_edge_comps = len(d.components)
    pairs = []
    for walk in ref_face_edge_parities(d):
        for i, (e1, p1) in enumerate(walk):
            for e2, p2 in walk[i + 1:]:
                if p1 != p2 or ec[e1] == ec[e2]:
                    continue
                if ec[e1] in comps and ec[e2] in comps:
                    pairs.append(tuple(sorted((e1, e2))))
    if pairs:
        return ld.BandSpec(*min(pairs))
    loop_comps = sorted(i for i in comps if i >= n_edge_comps)
    edge_comps = sorted(i for i in comps if i < n_edge_comps)
    if loop_comps and (edge_comps or len(loop_comps) >= 2):
        loop_arc = ("loop", loop_comps[0] - n_edge_comps)
        if edge_comps:
            return ld.BandSpec(loop_arc, d.components[edge_comps[0]][0])
        return ld.BandSpec(loop_arc, ("loop", loop_comps[1] - n_edge_comps))
    reps = [d.components[c][0] for c in edge_comps]
    for i, e1 in enumerate(reps):
        for e2 in reps[i + 1:]:
            if not ref_same_piece(d, e1, e2):
                return ld.BandSpec(*sorted((e1, e2)))
    return None


# -- corpus ------------------------------------------------------------------------

def _split_closures(rng, count):
    """Braids on generators 1 and 3 only, on 4-6 strands: split closures,
    with crossing-free loops from the untouched strands."""
    out = []
    for _ in range(count):
        word = [rng.choice([1, -1]) * rng.choice([1, 3]) for _ in range(rng.randrange(2, 9))]
        out.append(ld.from_braid(word, rng.randrange(4, 7)))
    return out


def _split_link(rng, pieces):
    """A split closure: each piece braids a block of 2-3 strands with
    every generator of its block and up to two more letters, an untouched
    strand between blocks now and then closes into a loop, and the
    pieces' letters are interleaved at random."""
    words = []
    base = 0
    for _ in range(pieces):
        base += rng.choice([0, 0, 1])
        gens = list(range(base + 1, base + rng.choice([2, 3])))
        word = gens + [rng.choice(gens) for _ in range(rng.randrange(3))]
        rng.shuffle(word)
        words.append([rng.choice([1, -1]) * g for g in word])
        base = gens[-1] + 1
    word = []
    while any(words):
        word.append(rng.choice([w for w in words if w]).pop(0))
    return ld.from_braid(word, base + rng.choice([0, 1]))


def _corpus_diagrams():
    rng = random.Random(base_seed() + 6)
    out = list(chirality_corpus())
    out += [random_connected_diagram(rng, 12) for _ in range(200)]
    out += _split_closures(rng, 40)
    return out


@pytest.fixture(scope="module")
def diagrams():
    return _corpus_diagrams()


def test_corpus_covers_split_diagrams_and_loops(diagrams):
    assert len(diagrams) >= 260
    assert sum(len(ref_pieces(d)) > 1 for d in diagrams) >= 20
    assert sum(d.loops > 0 for d in diagrams) >= 10


# -- flat against reference ---------------------------------------------------------

def test_faces_pieces_and_walks_match(diagrams):
    for d in diagrams:
        flat = [[(x >> 2, x & 3) for x in f] for f in ld.faces(d)]
        assert flat == ref_faces(d)
        assert ld._pieces(d) == ref_pieces(d)
        walks = ld.face_edge_parities(d)
        assert walks == ref_face_edge_parities(d)
        assert d.piece_of == [i for c in d.crossings
                              for i, piece in enumerate(ref_pieces(d)) if c.id in piece]
        assert ld.is_alternating(d) == ref_is_alternating(d)
        assert d.face_of == [i for x in range(4 * len(d.crossings))
                             for i, f in enumerate(d.face_corners) if x in f]
        for e in d.edges:
            # one place per end, so in end order rather than face order
            assert sorted(ld._edge_places(d, e)) == [(i, p) for i, walk in enumerate(walks)
                                                     for x, p in walk if x == e]


def test_many_piece_split_links_match():
    rng = random.Random(base_seed() + 23)
    with_loops = 0
    for pieces in (2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200):
        d = _split_link(rng, pieces)
        with_loops += d.loops > 0
        faces, split = ref_faces(d), ref_pieces(d)
        assert len(split) == pieces
        assert [[(x >> 2, x & 3) for x in f] for f in ld.faces(d)] == faces
        assert ld._pieces(d) == split
        face_of = {x: i for i, f in enumerate(faces) for x in f}
        piece_of = {c: i for i, piece in enumerate(split) for c in piece}
        # each memo read first on a fresh diagram, and after its list
        for first in (True, False):
            fresh = ld.LinkDiagram(d.crossings, d.components, d.loops)
            if not first:
                fresh.face_corners, fresh.pieces
            assert fresh.face_of == [face_of[x >> 2, x & 3] for x in range(4 * len(d.crossings))]
            assert fresh.piece_of == [piece_of[c.id] for c in d.crossings]
    assert with_loops >= 3


def test_loads_of_a_4000_piece_split_link_is_linear():
    """8,000 crossings in 4,000 Hopf pieces.  Grouping crossings by piece
    is one sort; a piece search that rescans every crossing once per
    piece is quadratic, and takes seconds at this size."""
    d = ld.from_braid([g for p in range(4000) for g in (2 * p + 1, 2 * p + 1)])
    text = ld.dumps(d)
    t0 = time.perf_counter()
    again, _ = ld.loads(text)
    elapsed = time.perf_counter() - t0
    assert again == d and len(again.pieces) == 4000
    assert elapsed < 1.0, f"loads took {elapsed:.2f}s (budget 1s)"


def test_corner_memos_match(diagrams):
    for d in diagrams:
        occ = ref_occurrences(d)
        ends = ref_ends(d)
        for c in d.crossings:
            for s, e in enumerate(c.edges):
                x = 4 * c.id + s
                assert d.corner_edges[x] == e
                (other,) = [p for p in occ[e] if p != (c.id, s)]
                assert d.partner[x] == 4 * other[0] + other[1]
                assert d.corner_out[x] == (ends[e][0] == (c.id, s))
                assert d.head_of(e) == ends[e][1]


def test_face_sides_and_pieces_of_edge_pairs_match(diagrams):
    for d in diagrams[:80]:
        walks = ref_face_edge_parities(d)
        for a, b in itertools.permutations(d.edges, 2):
            assert ld._face_sides(d, a, b) == ref_face_sides(walks, a, b)
            assert ld._same_piece(d, a, b) == ref_same_piece(d, a, b)


def test_corner_local_face_sides_match_the_index(diagrams):
    checked = 0
    for d in diagrams:
        places = ref_edge_faces(d)
        for a, b in itertools.permutations(d.edges, 2):
            if ld._same_piece(d, a, b):
                assert ld._face_sides(d, a, b) == ref_indexed_face_sides(places, a, b)
                checked += 1
    assert checked > 15_000


def test_freeze_partner_is_the_edge_pairing():
    """``freeze`` pairs corners from its walk; on every diagram the
    corpora freeze that is the pairing of the edge ids."""
    frozen = []
    real = ld._Builder.freeze

    def recording(self):
        frozen.append(real(self))
        return frozen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ld._Builder, "freeze", recording)
        _corpus_diagrams()
    assert len(frozen) > 400
    for d in frozen:
        assert d.__dict__["partner"] == ld._pair_corners(d.corner_edges)


def test_direct_band_matches_all_pairs_scan(diagrams):
    checked = 0
    for d in diagrams:
        comps = range(d.num_components)
        subsets = [set(s) for k in range(2, len(comps) + 1)
                   for s in itertools.combinations(comps, k)]
        for subset in subsets[:40]:
            assert tr._direct_band(d, subset) == ref_direct_band(d, subset)
            checked += 1
    assert checked > 300


def test_direct_band_across_three_or_more_pieces_matches_all_pairs_scan():
    """Components in different pieces share no face, so a band between
    them is the cross-piece fallback; with three or more pieces the scan
    picks the second of them, not any later one."""
    rng = random.Random(base_seed() + 9)
    checked = 0
    for _ in range(30):
        d = _split_link(rng, rng.randrange(3, 6))
        by_piece = {}
        for c, comp in enumerate(d.components):
            by_piece.setdefault(d.piece_of[d.corner_edges.index(comp[0]) >> 2], []).append(c)
        picks = [rng.choice(cs) for cs in by_piece.values()]
        for k in range(3, len(picks) + 1):
            for subset in itertools.combinations(picks, k):
                assert tr._direct_band(d, set(subset)) == ref_direct_band(d, set(subset))
                checked += 1
    assert checked > 30


# -- errors --------------------------------------------------------------------------

def _direct(*tuples):
    """A diagram built directly, without freeze's checks."""
    crossings = tuple(ld.Crossing(i, t, 1) for i, t in enumerate(tuples))
    return ld.LinkDiagram(crossings, ((1, 2, 3),))


@pytest.mark.parametrize("tuples", [
    ((1, 2, 2, 3), (3, 4, 4, 5)),        # edges 1 and 5 used once
    ((1, 1, 1, 2), (2, 3, 3, 4)),        # edge 1 used three times
    ((1, 2, 1, 2), (1, 3, 1, 3)),        # edge 1 used four times
])
def test_edges_used_other_than_twice_are_inconsistent(tuples):
    d = _direct(*tuples)
    with pytest.raises(InconsistentEdges):
        ld.faces(d)
    with pytest.raises(InconsistentEdges):
        d.face_corners
    with pytest.raises(InconsistentEdges):
        ref_faces(d)


def test_freeze_rejects_a_duplicated_edge_end():
    b = ld._thaw(ld.catalog("trefoil"))
    # slot 1 keeps its end but takes slot 0's edge, whose ends are used
    b.edges[1] = b.edges[0]
    with pytest.raises(InconsistentEdges):
        b.freeze()


def test_freeze_rejects_a_template_wiring_two_heads_onto_one_edge():
    """A kink written with the wrong sign: the sign makes the over-strand's
    outgoing edge a head, and that edge has its head already."""
    b = ld._thaw(ld.catalog("figure8"))
    e1, e2 = b.split_edge(1)
    f = b.new_edge_id()
    b.add_crossing((e1, e2, f, f), -1)
    with pytest.raises(InconsistentEdges, match=f"edge {e2} end h used 2 times"):
        b.freeze()


@pytest.mark.parametrize("text, piece", [
    ("X(1,3,2,4), X(2,4,1,3), X(14,12,15,11), X(16,14,11,13), X(12,16,13,15)", 0),
    ("X(4,2,5,1), X(6,4,1,3), X(2,6,3,5), X(11,13,12,14), X(12,14,11,13)", 1),
], ids=["nonplanar-first", "nonplanar-second"])
def test_face_count_names_the_nonplanar_piece(text, piece):
    """``freeze`` compares the total face count with V + 2 per piece; a
    two-crossing torus piece beside a planar trefoil still fails, with
    the per-piece message naming it."""
    message = rf"^PD code is not planar \(piece {piece}: 2 faces, expected 4\)$"
    with pytest.raises(MalformedPD, match=message):
        ld.parse_pd(text)


def test_sparse_edge_ids_parse_like_consecutive_ones():
    """Input edge ids are labels: huge, sparse or negative ones give the
    same diagram, and no structure is sized by their values."""
    tuples = [(4, 2, 5, 1), (6, 4, 1, 3), (2, 6, 3, 5)]
    want = ld.assemble_pd(tuples)
    for scale, shift in ((10**15, 0), (1, -10), (7, 3)):
        moved = [tuple(e * scale + shift for e in t) for t in tuples]
        assert ld.assemble_pd(moved) == want
        assert ld.loads(json.dumps({"pd": moved}))[0] == want
    text = ", ".join(f"X({','.join(str(e * 10**15) for e in t)})" for t in tuples)
    assert ld.parse_pd(text) == want


def test_negative_loops_are_malformed():
    with pytest.raises(MalformedPD):
        ld.LinkDiagram((), (), loops=-3)
    assert ld.LinkDiagram((), (), loops=0).num_components == 0


def test_misnumbered_crossings_are_malformed():
    d = ld.catalog("hopf", "+")
    c0, c1 = d.crossings
    with pytest.raises(MalformedPD):
        ld.LinkDiagram((c1, c0), d.components)
    with pytest.raises(MalformedPD):
        ld.LinkDiagram((ld.Crossing(1, c0.edges, c0.sign), c1), d.components)
    assert ld.LinkDiagram((c0, c1), d.components, name=d.name) == d


def test_freeze_rejects_an_edge_with_a_missing_end():
    """Slots hold edge ids only and the sign fixes their ends, so a slot
    cannot be empty or hold the wrong end; an edge can still lose an end."""
    b = ld._thaw(ld.catalog("figure8"))
    b.edges[4 * 1 + 2] = b.new_edge_id()
    with pytest.raises(InternalInvariantError, match="edge with missing end"):
        b.freeze()
