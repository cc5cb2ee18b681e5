import contextlib
import io
import itertools
import json

import pytest

import ref_blocks
from conftest import random_connected_diagram
from ref_blocks import knotify_blocks
from ref_snf import smith_normal_form
from tracekit import cli
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import (
    BadBands,
    BadComponentIndex,
    IllegalSite,
    InternalInvariantError,
    InvalidBlockFraming,
    MalformedMixedDiagram,
    MalformedPD,
    NotAPartition,
)

TREFOIL = "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)"
HOPF = "X(1,4,2,3), X(4,1,3,2)"


def framed(name, param, framings):
    return tr.FramedLink(ld.catalog(name, param), tuple(framings))


# -- band transport and direct bands ------------------------------------------------

def _failing_push(error):
    def push(d, over, under):
        raise error("push failed")
    return push


def test_transport_push_skips_illegal_sites(monkeypatch):
    monkeypatch.setattr(ld, "_r2_insert_mapped", _failing_push(IllegalSite))
    with pytest.raises(BadBands):
        ref_blocks.transport_push(ld.catalog("hopf", "+"), {0, 1})


@pytest.mark.parametrize("error", [InternalInvariantError, MalformedPD])
def test_transport_push_propagates_internal_errors(monkeypatch, error):
    # a valid R2 site never builds a non-planar diagram, so MalformedPD
    # from a push is a bug too
    monkeypatch.setattr(ld, "_r2_insert_mapped", _failing_push(error))
    with pytest.raises(error):
        ref_blocks.transport_push(ld.catalog("hopf", "+"), {0, 1})


def _stuck_push(pushes):
    """A transport push that moves nothing, counting its calls."""
    def push(d, comps):
        pushes.append(len(d.crossings))
        return d, {e: e for e in d.edges}
    return push


def test_high_order_transport_stops_at_its_bound(monkeypatch):
    """The audit's block knotification gives up where knotify used to."""
    d = ld.from_braid([1, 1, 2, 2], 3)  # components 0 and 2 never cross
    assert tr._direct_band(d, {0, 2}) is None
    pushes = []
    monkeypatch.setattr(ref_blocks, "transport_push", _stuck_push(pushes))
    with pytest.raises(BadBands, match="did not converge"):
        knotify_blocks(d, [(0, 2), (1,)])
    assert pushes == [len(d.crossings)] * (4 * len(d.crossings) + 12)


def test_knotify_without_a_direct_band_is_a_bug(monkeypatch):
    # a direct band always fits (see ``_direct_band``), so none is exit 4
    monkeypatch.setattr(tr, "_direct_band", lambda d, comps: None)
    with pytest.raises(InternalInvariantError, match="no direct band"):
        tr.knotify(tr.FramedLink(ld.catalog("hopf", "+"), (0, 0)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["knotify", "--catalog", "hopf:+"]) == 4


@pytest.mark.parametrize("band", [ld.BandSpec(1, 2), ld.BandSpec(1, 4, 1)])
def test_knotify_refused_automatic_band_is_a_bug(monkeypatch, band):
    # the merge accepts every direct band, so a refused one (here on one
    # component, and with a half-twist no face admits) is exit 4, where a
    # refused ``--bands`` band is exit 3
    monkeypatch.setattr(tr, "_direct_band", lambda d, comps: band)
    with pytest.raises(InternalInvariantError):
        tr.knotify(tr.FramedLink(ld.catalog("hopf", "+"), (0, 0)))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["knotify", "--catalog", "hopf:+"]) == 4


def _lemma_corpus(rng):
    """Seeded diagrams for the direct-band lemma: conftest's connected
    diagrams and braid closures on 2-7 strands of up to 80 letters,
    which may be split or carry loops."""
    for _ in range(300):
        yield random_connected_diagram(rng, 40)
    for _ in range(300):
        strands = rng.randrange(2, 8)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 81))]
        yield ld.from_braid(word, strands)


def test_components_that_cross_have_a_direct_band(rng):
    """The lemma in ``_direct_band``'s docstring: two components that
    share a crossing meet with equal parity at two of its corners, so
    ``_direct_band`` finds a coherent band between them."""
    pairs = 0
    for d in _lemma_corpus(rng):
        ec = d.edge_component
        crossing_pairs = {tuple(sorted({ec[e] for e in c.edges})) for c in d.crossings}
        for pair in sorted(p for p in crossing_pairs if len(p) == 2):
            band = tr._direct_band(d, set(pair))
            assert band is not None, (d, pair)
            assert {ec[band.arc_a], ec[band.arc_b]} == set(pair), (d, pair, band)
            ld.band_merge(d, band)
            pairs += 1
    assert pairs > 550, pairs


# -- zero traces ------------------------------------------------------------------

def test_zero_trace_unknot():
    h = tr.zero_trace(framed("unknot", None, [0]))
    assert h.handles == (1, 0, 1, 0, 0)
    assert h.q == ((0,),)
    assert h.chi == 2


def test_zero_trace_hopf():
    h = tr.zero_trace(framed("hopf", "+", [0, 0]))
    assert h.q == ((0, 1), (1, 0))
    assert h.chi == 3
    assert h.b2 == 2


def test_zero_trace_framed_trefoil():
    h = tr.zero_trace(tr.FramedLink(ld.parse_pd(TREFOIL), (1,)))
    assert h.q == ((1,),)
    assert h.chi == 2


def test_zero_trace_chi_formula(rng):
    for _ in range(25):
        d = random_connected_diagram(rng)
        ell = d.num_components
        fr = tuple(rng.randrange(-3, 4) for _ in range(ell))
        h = tr.zero_trace(tr.FramedLink(d, fr))
        assert h.chi == 1 + ell
        assert [h.q[i][i] for i in range(ell)] == list(fr)
        for i in range(ell):
            for j in range(ell):
                assert h.q[i][j] == h.q[j][i]


def test_framings_length_checked():
    with pytest.raises(BadComponentIndex):
        tr.FramedLink(ld.parse_pd(HOPF), (0,))


# -- boundary homology ---------------------------------------------------------------

def test_boundary_h1_unlinks():
    for n in range(1, 6):
        link = framed("unlink", n, [0] * n)
        assert tr.boundary_h1(link) == (n, ())


def test_boundary_h1_examples():
    assert tr.boundary_h1(framed("unknot", None, [1])) == (0, ())
    assert tr.boundary_h1(framed("hopf", "+", [0, 0])) == (0, ())
    assert tr.boundary_h1(tr.FramedLink(ld.parse_pd(TREFOIL), (5,))) == (0, (5,))


# -- framing law ---------------------------------------------------------------------

def test_planar_framing_examples():
    assert tr.planar_framing_valid(framed("hopf", "+", [-1, -1]))
    assert tr.planar_framing_valid(framed("borromean", None, [0, 0, 0]))
    assert not tr.planar_framing_valid(framed("hopf", "+", [0, 0]))


# -- framed mirror --------------------------------------------------------------------

def test_framed_mirror():
    link = tr.FramedLink(ld.parse_pd(TREFOIL), (3,))
    m = tr.framed_mirror(link)
    assert m.framings == (-3,)
    assert tr.zero_trace(m).q == ((-3,),)
    assert tr.framed_mirror(m) == link


def test_framed_mirror_negates_q(rng):
    for _ in range(15):
        d = random_connected_diagram(rng)
        fr = tuple(rng.randrange(-3, 4) for _ in range(d.num_components))
        link = tr.FramedLink(d, fr)
        q1 = tr.zero_trace(link).q
        q2 = tr.zero_trace(tr.framed_mirror(link)).q
        assert all(q1[i][j] == -q2[i][j] for i in range(len(q1)) for j in range(len(q1)))


# -- knotification --------------------------------------------------------------------

def test_knotify_knot_is_identity_case():
    kn = tr.knotify(tr.FramedLink(ld.parse_pd(TREFOIL), (0,)), [])
    assert kn.surgery_circles == 0
    assert kn.framing == 0
    assert kn.winding == ()
    assert kn.mixed.diagram.num_components == 1


def test_knotify_hopf():
    kn = tr.knotify(framed("hopf", "+", [-1, -1]))
    assert kn.surgery_circles == 1
    assert kn.framing == 0
    assert kn.winding == (0,)
    assert kn.mixed.diagram.num_components == 2


def test_knotify_borromean():
    kn = tr.knotify(framed("borromean", None, [0, 0, 0]))
    assert kn.surgery_circles == 2
    assert kn.framing == 0
    assert kn.winding == (0, 0)


def test_knotify_explicit_bands():
    borr = ld.catalog("borromean")
    kn = tr.knotify(tr.FramedLink(borr, (0, 0, 0)),
                    [ld.BandSpec(2, 10), ld.BandSpec(1, 6)])
    assert kn.surgery_circles == 2
    assert kn.winding == (0, 0)


def test_knotify_unlink_loops():
    kn = tr.knotify(framed("unlink", 2, [0, 0]))
    assert kn.surgery_circles == 1
    assert kn.winding == (0,)
    assert len(kn.mixed.diagram.crossings) == 4


def test_knotify_split_loop_and_knot():
    d = ld.parse_pd(TREFOIL + ", O")
    kn = tr.knotify(tr.FramedLink(d, (0, 0)))
    assert kn.surgery_circles == 1
    assert kn.winding == (0,)


@pytest.mark.parametrize("d, freezes", [
    (ld.parse_pd(TREFOIL + ", O"), 1),
    (ld.catalog("unlink", 3), 2),
], ids=["trefoil-and-loop", "unlink3"])
def test_loop_bands_freeze_once_per_merge(monkeypatch, d, freezes):
    calls = []
    freeze = ld._Builder.freeze

    def counting(self):
        calls.append(self)
        return freeze(self)

    monkeypatch.setattr(ld._Builder, "freeze", counting)
    kn = tr.knotify(tr.FramedLink(d, (0,) * d.num_components))
    assert kn.surgery_circles == d.num_components - 1
    assert len(calls) == freezes


def test_knotify_bad_bands():
    borr = ld.catalog("borromean")
    with pytest.raises(BadBands):
        tr.knotify(tr.FramedLink(borr, (0, 0, 0)), [ld.BandSpec(2, 10)])
    with pytest.raises(BadBands):
        tr.knotify(tr.FramedLink(borr, (0, 0, 0)),
                   [ld.BandSpec(2, 10), ld.BandSpec(1, 9)])


def test_knotify_framing_law(rng):
    hopf = ld.catalog("hopf", "+")
    tw = ld.catalog("twist_family", -1)
    for d in (hopf, tw):
        for _ in range(10):
            fr = tuple(rng.randrange(-4, 5) for _ in range(2))
            link = tr.FramedLink(d, fr)
            kn = tr.knotify(link)
            assert kn.framing == sum(fr) + 2 * ld.total_linking(d)
            assert (kn.framing == 0) == tr.planar_framing_valid(link)


# -- mixed links -----------------------------------------------------------------------

def test_mixed_link_validation():
    d = ld.parse_pd(HOPF)
    with pytest.raises(MalformedMixedDiagram):
        tr.MixedLink(d, (5,), (0,))
    with pytest.raises(MalformedMixedDiagram):
        tr.MixedLink(d, (0,), (0, 0))


def test_mixed_winding_matrix():
    kn = tr.knotify(framed("hopf", "+", [-1, -1]))
    w = kn.mixed.winding_matrix()
    assert w == [[0]]


# -- high order traces -------------------------------------------------------------------

def test_high_order_knot_block_is_zero_trace():
    part = tr.WeightedPartition.of([(0,)], [0], 1)
    h = tr.high_order_trace(tr.FramedLink(ld.parse_pd(TREFOIL), (0,)), part)
    assert h.handles == (1, 0, 1, 0, 0)
    assert h.chi == 2


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_high_order_genus_handle_chi(genus):
    part = tr.WeightedPartition.of([(0,)], [genus], 1)
    h = tr.high_order_trace(tr.FramedLink(ld.parse_pd(TREFOIL), (0,)), part)
    assert h.handles == (1, 2 * genus, 1, 0, 0)
    assert h.chi == 2 - 2 * genus
    assert h.b1 == 2 * genus
    assert h.b2 == 1


def test_high_order_planar_handle_chi():
    part = tr.WeightedPartition.of([(0, 1)], [0], 2)
    h = tr.high_order_trace(framed("hopf", "+", [-1, -1]), part)
    assert h.handles == (1, 1, 1, 0, 0)
    assert h.chi == 1  # 3 - l with l = 2
    assert all(all(x == 0 for x in row) for row in h.w)


def test_high_order_borromean_mixed_blocks():
    part = tr.WeightedPartition.of([(0, 1), (2,)], [0, 1], 3)
    h = tr.high_order_trace(framed("borromean", None, [0, 0, 0]), part)
    assert h.handles == (1, 3, 2, 0, 0)
    assert h.chi == 0
    assert h.q == ((0, 0), (0, 0))
    assert h.b1 == 3 and h.b2 == 2


def test_high_order_block_permutation_invariance():
    link = framed("borromean", None, [0, 0, 0])
    parts = [
        ([(0, 1), (2,)], [0, 1]),
        ([(2,), (0, 1)], [1, 0]),
    ]
    results = {tr.high_order_trace(link, tr.WeightedPartition.of(b, w, 3))
               for b, w in parts}
    assert len(results) == 1


def test_high_order_invalid_framing():
    part = tr.WeightedPartition.of([(0, 1)], [0], 2)
    with pytest.raises(InvalidBlockFraming):
        tr.high_order_trace(framed("hopf", "+", [0, 0]), part)


def test_high_order_chi_formula_partitions():
    link = framed("unlink", 4, [0, 0, 0, 0])

    def all_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in all_partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
            yield [[first]] + sub

    for blocks in all_partitions(list(range(4))):
        for weights in itertools.product(range(3), repeat=len(blocks)):
            part = tr.WeightedPartition.of(blocks, weights, 4)
            h = tr.high_order_trace(link, part)
            expected = 1 + sum(2 - 2 * g - len(b)
                               for g, b in zip(part.weights, part.blocks))
            assert h.chi == expected


def _commutator_word(genus: int, base: int) -> list[int]:
    """Attaching word of a genus handle over its 2g dotted circles:
    product of commutators, recorded as signed generator indices."""
    word = []
    for g in range(genus):
        a, b = base + 2 * g, base + 2 * g + 1
        word += [a + 1, b + 1, -(a + 1), -(b + 1)]
    return word


def _quadratic_genus_rows(weights, block_count):
    """The genus rows as first computed: each generator's exponent summed
    over the whole commutator word."""
    rows, base = [], 0
    for bi, g in enumerate(weights):
        word = _commutator_word(g, base)
        for local in range(2 * g):
            gen = base + local + 1
            row = [0] * block_count
            row[bi] = sum(1 if x == gen else -1 if x == -gen else 0 for x in word)
            rows.append(tuple(row))
        base += 2 * g
    return rows


def _full_snf_rank(w):
    """W's rank from one Smith normal form of the whole matrix."""
    if not w or not w[0]:
        return 0
    _, dmat, _ = smith_normal_form([list(r) for r in w])
    return sum(1 for i in range(min(len(dmat), len(dmat[0]))) if dmat[i][i])


def test_genus_rows_and_betti_numbers_match_the_quadratic_formula():
    link = framed("borromean", None, [0, 0, 0])
    for weights in itertools.product(range(7), repeat=2):
        part = tr.WeightedPartition.of([(0, 1), (2,)], weights, 3)
        h = tr.high_order_trace(link, part)
        genus = 2 * sum(weights)
        assert list(h.w[len(h.w) - genus:]) == _quadratic_genus_rows(weights, 2)
        assert h.b1 == h.handles[1] - _full_snf_rank(h.w)
        assert h.b2 == h.handles[2] - _full_snf_rank(h.w)


def test_w_rank_skips_zero_rows(rng):
    for _ in range(40):
        rows = [tuple(rng.choice([0, 0, 1, -1, 2]) for _ in range(3))
                for _ in range(rng.randrange(1, 6))]
        rows += [(0, 0, 0)] * rng.randrange(3)
        rng.shuffle(rows)
        h = tr.HandleDecomposition((1, 8, 3, 0, 0), ((0,) * 3,) * 3, tuple(rows), "test")
        assert (h.b1, h.b2) == (8 - _full_snf_rank(rows), 3 - _full_snf_rank(rows))


# -- surface partitions ----------------------------------------------------------------

def test_surface_partition_disks():
    d = ld.catalog("borromean")
    part, constraints = tr.surface_partition(d, [(0, (0,)), (0, (1,)), (0, (2,))])
    assert part.blocks == ((0,), (1,), (2,))
    assert part.weights == (0, 0, 0)
    assert all(req == 0 for _, req in constraints)


def test_surface_partition_annulus_on_hopf():
    d = ld.parse_pd(HOPF)
    part, constraints = tr.surface_partition(d, [(0, (0, 1))])
    assert part.blocks == ((0, 1),)
    assert constraints == (((0, 1), -2),)


def test_surface_partition_torus_on_knot():
    d = ld.parse_pd(TREFOIL)
    part, _ = tr.surface_partition(d, [(1, (0,))])
    assert part.weights == (1,)


def test_surface_partition_errors():
    d = ld.parse_pd(HOPF)
    with pytest.raises(NotAPartition):
        tr.surface_partition(d, [(0, (0,))])
    with pytest.raises(NotAPartition):
        tr.surface_partition(d, [(0, (0, 1)), (0, (1,))])
    with pytest.raises(NotAPartition):
        tr.surface_partition(d, [(-1, (0, 1))])
    with pytest.raises(NotAPartition):
        tr.surface_partition(d, [(0, {0, 1}), (1, set())])


@pytest.mark.parametrize("blocks, weights, n", [
    ([[], [0]], [0, 0], 1),
    ([[0], []], [0, 0], 1),
    ([[0, 0, 1]], [0], 2),
    ([[1, 0, 1], [2]], [0, 0], 3),
    ([[0, 1], [1]], [0, 0], 2),
])
def test_partition_refuses_empty_blocks_and_repeated_members(blocks, weights, n):
    with pytest.raises(NotAPartition):
        tr.WeightedPartition.of(blocks, weights, n)


# -- candidate checks --------------------------------------------------------------------

def test_sphere_candidate_passes_unlinks():
    for n in range(1, 6):
        v = tr.homotopy_sphere_candidate(framed("unlink", n, [0] * n))
        assert v.status == tr.PASS_NECESSARY
        data = dict(v.data)
        assert data["chi_closed"] == 2
        assert data["b2_closed"] == 0
        assert data["h1_rank"] == n


def test_sphere_candidate_failures():
    assert tr.homotopy_sphere_candidate(framed("hopf", "+", [0, 0])).status == tr.FAIL
    assert tr.homotopy_sphere_candidate(framed("unknot", None, [1])).status == tr.FAIL


def test_schoenflies_candidate_unlink():
    mixed = tr.MixedLink(ld.catalog("unlink", 2), (), (0, 0))
    v = tr.schoenflies_candidate(mixed)
    assert v.status == tr.PASS_NECESSARY
    assert dict(v.data)["chi_closed"] == 2


def test_schoenflies_n_less_than_2k_fails():
    kn = tr.knotify(framed("unlink", 2, [0, 0]))
    v = tr.schoenflies_candidate(kn.mixed)
    assert v.status == tr.FAIL
    assert any("2k" in c for c in v.checks)


def test_schoenflies_knot_case_flag():
    mixed = tr.MixedLink(ld.parse_pd(TREFOIL), (), (0,))
    v = tr.schoenflies_candidate(mixed)
    assert v.status == tr.PASS_NECESSARY
    assert any("unknot" in c for c in v.checks)


# -- serialization -------------------------------------------------------------------------

def test_trace_json_schema(capsys):
    assert cli.main(["trace", "--catalog", "hopf:+", "--framings", "0,0"]) == 0
    payload = capsys.readouterr().out
    data = json.loads(payload)
    assert set(data) == {"construction", "handles", "Q", "W", "chi", "b1",
                         "b2", "boundary_h1", "verdicts"}
    assert data["handles"] == [1, 0, 2, 0, 0]
    assert data["Q"] == [[0, 1], [1, 0]]
    assert data["chi"] == 3
    assert data["boundary_h1"] == {"rank": 0, "torsion": []}


def test_knotify_twisted_user_band():
    hopf = ld.catalog("hopf", "+")
    for framing in (0, 2, -2):
        kn = tr.knotify(tr.FramedLink(hopf, (0, 0)),
                        [ld.BandSpec(1, 4, framing=framing)])
        assert kn.surgery_circles == 1
        assert kn.winding == (0,)
        assert kn.framing == 2
    for framing in (1, -1, 3):
        kn = tr.knotify(tr.FramedLink(hopf, (0, 0)),
                        [ld.BandSpec(1, 3, framing=framing)])
        assert kn.winding == (0,)


def test_high_order_distant_block():
    # components 0 and 2 of this chain share no face; the merge needs
    # arc transport across the middle component
    d = ld.parse_pd(
        "X(1,6,2,5), X(6,3,7,2), X(3,8,4,7), X(8,1,9,4), X(9,14,10,13), "
        "X(10,14,11,15), X(11,16,12,15), X(16,5,13,12)")
    assert d.num_components == 3
    part = tr.WeightedPartition.of([(0, 2), (1,)], [0, 0], 3)
    lkm = ld.linking_matrix(d)
    fr = [0, 0, 0]
    fr[0] = -2 * lkm[0][2]
    link = tr.FramedLink(d, tuple(fr))
    h = tr.high_order_trace(link, part)
    assert h.handles[2] == 2
    assert h.chi == 1 + (2 - 2) + (2 - 1)
