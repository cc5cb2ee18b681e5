"""Chirality from the face walk.

R2 pushes, twisted band chains and clasping surgery circles each come in
two mirror-image drawings, and only one of them is planar at a given
site.  The library picks it from the walk parities of the shared face;
a clasp follows the side of the face its band was drawn through.
The references below pick it by trial: build each drawing in a fixed
order and keep the first that passes the planarity check.  The library
must agree with them byte for byte, and it must never build a
non-planar diagram on the way.
"""

import itertools
import random

import pytest

from conftest import base_seed, random_connected_diagram
from ref_blocks import knotify_blocks
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import IllegalSite, MalformedPD, OrientationConflict


# -- references: build in a fixed order, keep the first planar drawing ----------

def r2_insert_by_trial(d, over, under):
    anti = parallel = False
    for walk in ld.face_edge_parities(d):
        pars_o = [p for e, p in walk if e == over]
        pars_u = [p for e, p in walk if e == under]
        for x in pars_o:
            for y in pars_u:
                if x == y:
                    anti = True
                else:
                    parallel = True
    if not ld._same_piece(d, over, under):
        anti = True
    templates = []
    if anti:
        templates += [(True, False), (True, True)]
    if parallel:
        templates += [(False, False), (False, True)]
    for is_anti, mirrored in templates:
        try:
            return ld._r2_build(d, over, under, is_anti, mirrored)
        except MalformedPD:
            continue
    raise IllegalSite(f"no planar R2 push of {over} over {under}")


def band_merge_by_trial(d, band):
    """(merged, arcs, edge map, whether the drawing for the framing's
    sign was planar); the arcs are the old (a side, primary, alternative)."""
    first = band.framing > 0
    for left in (first, not first):
        b, conns = ld._band_build(d, band, left)
        try:
            merged = b.freeze()
        except MalformedPD:
            continue
        emap = dict(b.last_edge_map)
        conn_a, last = (emap[e] for e in conns)
        start = emap[band.arc_b]  # the b side's first piece keeps arc_b's id
        if band.framing % 2 == 0:
            arcs = (conn_a, last, start)
        else:
            arcs = (conn_a, start, last)
        return merged, arcs, emap, left == first
    raise AssertionError("neither drawing of the band is planar")


def clasp_insert_by_trial(d, conn_a, conn_b):
    for mirrored in (False, True):
        b = ld._thaw(d)
        a1, rest = b.split_edge(conn_a)
        a2, a3 = b.split_edge(rest)
        b1, restb = b.split_edge(conn_b)
        b2, b3 = b.split_edge(restb)
        circle = ld._clasp(b, (a1, a2, a3), (b1, b2, b3), mirrored)
        try:
            frozen = b.freeze()
        except MalformedPD:
            continue
        return frozen, b.last_edge_map[circle], dict(b.last_edge_map)
    raise MalformedPD("neither clasp drawing is planar")


def knotify_step_by_trial(merged, arcs, emap0):
    """The clasp half of a band-and-clasp step, trying each band-side arc
    in the old order."""
    conn_a, *conn_bs = arcs
    for conn_b in conn_bs:
        try:
            merged2, circle, emap1 = clasp_insert_by_trial(merged, conn_a, conn_b)
        except MalformedPD:
            continue
        emap = {e: emap1[v] for e, v in emap0.items() if v in emap1}
        return merged2, circle, emap1[conn_a], emap, 0
    raise AssertionError("no clasp placement fits the band")


# -- corpus ----------------------------------------------------------------------

def _corpus():
    rng = random.Random(base_seed())
    out = [random_connected_diagram(rng, 10) for _ in range(14)]
    # split diagrams: braids on strands 1-2 and 3-4 only, plus unused strands
    while len(out) < 20:
        word = [rng.choice([1, -1]) * rng.choice([1, 3]) for _ in range(rng.randrange(3, 6))]
        out.append(ld.from_braid(word, rng.randrange(4, 6)))
    out.append(ld.parse_pd("X(4,2,5,1), X(6,4,1,3), X(2,6,3,5), O"))
    out.append(ld.parse_pd("X(1,4,2,3), X(4,1,3,2), O, O"))
    out += [ld.catalog("borromean"), ld.catalog("twist_family", -2),
            ld.catalog("hopf", "-")]
    return out


def _edge_pairs(d):
    """Ordered pairs of distinct edges that share a face or lie in
    different pieces."""
    return [(a, b) for a, b in itertools.permutations(d.edges, 2)
            if ld._face_sides(d, a, b) or not ld._same_piece(d, a, b)]


def _band_sites(d, pairs):
    ec = d.edge_component
    return [(a, b) for a, b in pairs if ec[a] != ec[b]]


@pytest.fixture(scope="module")
def corpus():
    """(diagram, its edge pairs) over the seeded corpus."""
    return [(d, _edge_pairs(d)) for d in _corpus()]


def test_corpus_has_split_and_looped_diagrams(corpus):
    assert any(len(ld._pieces(d)) > 1 for d, _ in corpus)
    assert any(d.loops for d, _ in corpus)
    assert sum(len(_band_sites(d, pairs)) for d, pairs in corpus) > 100


# -- the face walk picks what the trial order picked ------------------------------

def test_r2_template_matches_trial_order(corpus):
    checked = 0
    for d, pairs in corpus:
        for over, under in pairs:
            assert ld._r2_insert_mapped(d, over, under) == r2_insert_by_trial(d, over, under)
            checked += 1
    assert checked > 1000


def test_band_and_clasp_match_trial_order(corpus):
    checked = cross_piece = 0
    for d, pairs in corpus:
        for a, b in _band_sites(d, pairs):
            for framing in (0, 1, -1, 2, -2, 3):
                band = ld.BandSpec(a, b, framing)
                try:
                    builder, sides, _ = ld._band_merge_builder(d, band)
                except OrientationConflict:
                    continue
                got = builder.freeze()
                got_emap = dict(builder.last_edge_map)
                got_arcs = [got_emap.get(arc, arc) for arc in sides]
                merged, arcs, emap, kept = band_merge_by_trial(d, band)
                if not kept:
                    continue
                assert (got, got_emap) == (merged, emap)
                assert got_arcs[0] == arcs[0] and got_arcs[1] in arcs[1:]
                assert tr._knotify_step(d, band) == knotify_step_by_trial(merged, arcs, emap)
                checked += 1
                cross_piece += not ld._same_piece(d, a, b)
    assert checked > 1500
    assert cross_piece > 500


def test_clasp_on_every_equal_parity_pair_matches_trial_order(corpus):
    """The clasp wiring ``_knotify_step`` uses, on every pair of edges
    sharing a face on the same side of both: drawn for a face right of
    both (else left of both), it is the drawing the trial keeps."""
    checked = 0
    for d, _ in corpus:
        for a, b in itertools.combinations(d.edges, 2):
            sides = ld._face_sides(d, a, b)
            if {(True, True), (False, False)} & sides:
                builder = ld._thaw(d)
                circle, _ = ld._clasp_across(builder, a, b, (True, True) not in sides)
                got = builder.freeze()
                emap = builder.last_edge_map
                assert (got, emap[circle], emap) == clasp_insert_by_trial(d, a, b)
                checked += 1
    assert checked > 200


def _steps(corpus):
    """(diagram, band) for every coherent band site of the corpus: edge
    pairs over a spread of framings, and each loop banded to every edge,
    either way round, and to every other loop."""
    for d, pairs in corpus:
        for a, b in _band_sites(d, pairs):
            for framing in (0, 1, -2, 3):
                band = ld.BandSpec(a, b, framing)
                try:
                    ld._band_merge_builder(d, band)
                except OrientationConflict:
                    continue
                yield d, band
        loops = [("loop", k) for k in range(d.loops)]
        for x in loops:
            for e in d.edges:
                yield d, ld.BandSpec(x, e)
                yield d, ld.BandSpec(e, x)
            for y in loops:
                if x != y:
                    yield d, ld.BandSpec(x, y)


def _is_loop_band(band):
    return isinstance(band.arc_a, tuple) or isinstance(band.arc_b, tuple)


def test_each_band_and_clasp_step_freezes_once(monkeypatch, corpus):
    freezes = []
    real = ld._Builder.freeze

    def counting(self):
        freezes.append(self)
        return real(self)

    monkeypatch.setattr(ld._Builder, "freeze", counting)
    steps = loop_steps = 0
    for d, band in _steps(corpus):
        del freezes[:]
        tr._knotify_step(d, band)
        assert len(freezes) == 1
        steps += 1
        loop_steps += _is_loop_band(band)
    assert steps > 1200
    assert loop_steps >= 30  # trefoil+O and hopf+O,O alone give 30


def test_smoothing_the_clasp_gives_the_band_merge(corpus):
    steps = loop_steps = 0
    for d, band in _steps(corpus):
        final, circle, _, _, _ = tr._knotify_step(d, band)
        ring = set(final.components[final.edge_component[circle]])
        clasp = [c.id for c in final.crossings if ring & set(c.edges)]
        assert len(clasp) == 4
        b = ld._thaw(final)
        b.smooth(clasp, kept=set(final.edges) - ring)
        assert b.freeze() == ld.band_merge(d, band)
        steps += 1
        loop_steps += _is_loop_band(band)
    assert steps > 1200
    assert loop_steps >= 30  # trefoil+O and hopf+O,O alone give 30


# -- no drawing is built twice --------------------------------------------------------

def test_surgery_core_never_builds_a_nonplanar_diagram(monkeypatch, corpus):
    failures = []
    validate = ld._validate_planarity

    def recording(diagram):
        try:
            validate(diagram)
        except MalformedPD as exc:
            failures.append(str(exc))
            raise

    monkeypatch.setattr(ld, "_validate_planarity", recording)
    for d, pairs in corpus:
        n = d.num_components
        tr.knotify(tr.FramedLink(d, (0,) * n))
        if n >= 2:
            knotify_blocks(d, [range(0, n, 2), range(1, n, 2)])
        for a, b in _band_sites(d, pairs):
            for framing in (-1, 2):
                try:
                    ld.band_merge(d, ld.BandSpec(a, b, framing))
                except OrientationConflict:
                    pass
        for over, under in pairs:
            ld.r_moves(d, "R2+", (over, under))
        for k, e in itertools.product(range(d.loops), d.edges):
            ld.r_moves(d, "R2+", (("loop", k), e))
    assert failures == []


# -- band twists keep their sign ----------------------------------------------------

def test_band_twist_sign_sets_handedness(corpus):
    checked = 0
    for d, pairs in corpus:
        for a, b in _band_sites(d, pairs):
            for m in (1, 2):
                try:
                    plus = ld.band_merge(d, ld.BandSpec(a, b, m))
                    minus = ld.band_merge(d, ld.BandSpec(a, b, -m))
                except OrientationConflict:
                    continue
                # one convention for both parities: each twist crossing
                # carries the sign of the framing
                assert plus.writhe() - minus.writhe() == 2 * m
                assert plus.writhe() == d.writhe() + m
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("arc_b, m", [(4, 2), (4, 4), (3, 1), (3, 3)])
def test_hopf_band_twist_signs_differ(arc_b, m):
    hopf = ld.catalog("hopf", "+")
    plus = ld.band_merge(hopf, ld.BandSpec(1, arc_b, m))
    minus = ld.band_merge(hopf, ld.BandSpec(1, arc_b, -m))
    assert plus != minus
    assert plus.writhe() - minus.writhe() == 2 * m
