import itertools

import pytest

from conftest import edge_walk_components, random_connected_diagram, signed_crossing_lk
from tracekit import linkdiag as ld
from tracekit.errors import (
    BadComponentIndex,
    IllegalSite,
    InconsistentEdges,
    MalformedPD,
    OrientationConflict,
    SameComponent,
    UnknownCatalogEntry,
)
from tracekit.invariants import determinant_goeritz, signature_gl

TREFOIL = "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)"
HOPF = "X(1,4,2,3), X(4,1,3,2)"


# -- parsing -------------------------------------------------------------------

def test_parse_unknot_loop_marker():
    d = ld.parse_pd("O")
    assert d.num_components == 1
    assert d.loops == 1
    assert not d.crossings


def test_parse_trefoil_against_edge_walk_oracle():
    pd = [(4, 2, 5, 1), (6, 4, 1, 3), (2, 6, 3, 5)]
    d = ld.parse_pd(TREFOIL)
    assert len(d.components) == edge_walk_components(pd) == 1
    assert len(d.crossings) == 3
    assert abs(d.writhe()) == 3


def test_parse_hopf_against_edge_walk_oracle():
    pd = [(1, 4, 2, 3), (4, 1, 3, 2)]
    d = ld.parse_pd(HOPF)
    assert len(d.components) == edge_walk_components(pd) == 2
    assert len(d.crossings) == 2


def test_parse_errors():
    with pytest.raises(MalformedPD):
        ld.parse_pd("")
    with pytest.raises(MalformedPD):
        ld.parse_pd("X(1,2,3)")
    with pytest.raises(InconsistentEdges):
        ld.parse_pd("X(1,1,1,2), X(2,3,3,4)")
    with pytest.raises(OrientationConflict):
        # both under-slots claim edge 1 flows in at slot 0
        ld.parse_pd("X(1,2,3,4), X(1,4,3,2)")


def test_parse_rejects_nonplanar():
    # pairing edges across like a flat torus diagram; fails Euler count
    with pytest.raises(MalformedPD):
        ld.parse_pd("X(1,3,2,4), X(2,4,1,3)")


def test_serialize_roundtrip_catalog():
    for name, param in [("unknot", None), ("hopf", "+"), ("trefoil", "-"),
                        ("figure8", None), ("whitehead", None),
                        ("borromean", None), ("twist_family", 0),
                        ("unlink", 3)]:
        d = ld.catalog(name, param)
        assert ld.parse_pd(ld.serialize_pd(d), d.name) == d
        again, framings = ld.loads(ld.dumps(d))
        assert again == d and framings is None


def test_serialize_roundtrip_random(rng):
    for _ in range(60):
        d = random_connected_diagram(rng)
        assert ld.parse_pd(ld.serialize_pd(d), d.name) == d


def test_json_framings_roundtrip():
    d = ld.catalog("hopf", "+")
    again, framings = ld.loads(ld.dumps(d, [-1, -1]))
    assert again == d
    assert framings == [-1, -1]


# -- mirror and orientation ----------------------------------------------------

def test_mirror_unknot():
    d = ld.catalog("unknot")
    assert ld.mirror(d) == d


def test_mirror_writhe_and_involution():
    d = ld.parse_pd(TREFOIL)
    m = ld.mirror(d)
    assert m.writhe() == -3
    assert ld.mirror(m) == d


def test_mirror_flips_linking():
    d = ld.parse_pd(HOPF)
    assert ld.linking_number(d, 0, 1) == 1
    assert ld.linking_number(ld.mirror(d), 0, 1) == -1


def test_reverse_component_flips_linking():
    d = ld.parse_pd(HOPF)
    r = ld.reverse_component(d, 1)
    assert ld.linking_number(r, 0, 1) == -1
    assert ld.reverse_component(r, 1) == d


# -- linking numbers -----------------------------------------------------------

def test_linking_split_union_zero():
    d = ld.parse_pd(TREFOIL + ", O")
    assert ld.linking_number(d, 0, 1) == 0


def test_linking_hopf_oracle():
    pd = [(1, 4, 2, 3), (4, 1, 3, 2)]
    d = ld.parse_pd(HOPF)
    oracle = signed_crossing_lk(pd, d.components[0], d.components[1])
    assert ld.linking_number(d, 0, 1) == oracle == 1


def test_linking_borromean_pairs_zero():
    d = ld.catalog("borromean")
    pd = [c.edges for c in d.crossings]
    for i, j in itertools.combinations(range(3), 2):
        oracle = signed_crossing_lk(pd, d.components[i], d.components[j])
        assert ld.linking_number(d, i, j) == oracle == 0


def test_linking_bad_component():
    d = ld.parse_pd(HOPF)
    with pytest.raises(BadComponentIndex):
        ld.linking_number(d, 0, 0)
    with pytest.raises(BadComponentIndex):
        ld.linking_number(d, 0, 2)


def test_total_linking():
    assert ld.total_linking(ld.parse_pd(TREFOIL)) == 0
    assert ld.total_linking(ld.parse_pd(HOPF)) == 1
    assert ld.total_linking(ld.catalog("borromean")) == 0
    assert ld.total_linking(ld.catalog("twist_family", 0)) == 2


def test_linking_matrix_symmetric(rng):
    for _ in range(20):
        d = random_connected_diagram(rng)
        m = ld.linking_matrix(d)
        n = d.num_components
        for i in range(n):
            assert m[i][i] == 0
            for j in range(n):
                assert m[i][j] == m[j][i]


# -- band merges ---------------------------------------------------------------

def test_band_merge_unlink_loops():
    d = ld.parse_pd("O, O")
    m = ld.band_merge(d, ld.BandSpec(("loop", 0), ("loop", 1)))
    assert m.num_components == 1
    assert m.loops == 1
    assert not m.crossings


@pytest.mark.parametrize("arcs, where", [
    ((("loop", 0), 1), "on"), ((1, ("loop", 0)), "on"),
    ((("loop", 0), ("loop", 1)), "between"),
])
def test_twisted_bands_at_loops_are_refused_when_specified(arcs, where):
    # one check, at construction, serves band_merge and every knotify step
    for framing in (1, -2):
        with pytest.raises(OrientationConflict,
                           match=f"^twisted bands {where} bare loops are not supported$"):
            ld.BandSpec(*arcs, framing)
    assert ld.BandSpec(*arcs).framing == 0


def test_band_merge_borromean_gives_whitehead_values():
    d = ld.catalog("borromean")
    m = ld.band_merge(d, ld.borromean_merge_band())
    wh = ld.catalog("whitehead")
    assert m.num_components == 2
    assert (signature_gl(m), determinant_goeritz(m)) == \
        (signature_gl(wh), determinant_goeritz(wh))


@pytest.mark.parametrize("n", [0, -1, -2, -3])
def test_band_merge_twist_family_gives_trefoil_values(n):
    d = ld.catalog("twist_family", n)
    m = ld.band_merge(d, ld.twist_family_merge_band(n))
    assert m.num_components == 1
    assert signature_gl(m) == -2
    assert determinant_goeritz(m) == 3


def test_band_merge_decreases_components_and_keeps_signs(rng):
    for _ in range(20):
        d = random_connected_diagram(rng)
        if d.num_components < 2:
            continue
        ec = d.edge_component
        found = None
        for walk in ld.face_edge_parities(d):
            for i, (e1, p1) in enumerate(walk):
                for e2, p2 in walk[i + 1:]:
                    if p1 == p2 and ec[e1] != ec[e2]:
                        found = (e1, e2)
                        break
        if found is None:
            continue
        before = {tuple(sorted((c.sign, *c.edges))) for c in d.crossings}
        m = ld.band_merge(d, ld.BandSpec(*found))
        assert m.num_components == d.num_components - 1
        assert len(m.crossings) == len(d.crossings)
        assert sorted(c.sign for c in m.crossings) == sorted(c.sign for c in d.crossings)


def test_band_merge_framing_adds_crossings():
    d = ld.parse_pd(HOPF)
    for framing in (0, 2, -2, 4):
        m = ld.band_merge(d, ld.BandSpec(1, 4, framing=framing))
        assert len(m.crossings) == 2 + abs(framing)
    for framing in (1, -3):
        m = ld.band_merge(d, ld.BandSpec(1, 3, framing=framing))
        assert len(m.crossings) == 2 + abs(framing)


def test_band_merge_errors():
    d = ld.parse_pd(HOPF)
    with pytest.raises(SameComponent):
        ld.band_merge(d, ld.BandSpec(1, 2))
    with pytest.raises(OrientationConflict):
        ld.band_merge(d, ld.BandSpec(1, 3))  # parallel site, flat band
    with pytest.raises(OrientationConflict):
        ld.band_merge(d, ld.BandSpec(1, 4, coherent=False))


# -- catalog --------------------------------------------------------------------

def test_catalog_entries_structure():
    assert ld.catalog("hopf", "+").num_components == 2
    assert ld.catalog("borromean").num_components == 3
    assert ld.catalog("unlink", 4).num_components == 4
    assert ld.catalog("figure8").num_components == 1
    assert ld.catalog("whitehead").num_components == 2
    assert ld.total_linking(ld.catalog("whitehead")) == 0


def test_catalog_twist_family_structure():
    d0 = ld.catalog("twist_family", 0)
    assert d0.num_components == 2
    assert len(d0.crossings) == 4
    assert ld.is_alternating(d0) and ld.is_connected(d0)
    assert ld.total_linking(d0) == 2
    for n in (-1, -2, -3):
        d = ld.catalog("twist_family", n)
        assert ld.is_alternating(d) and ld.is_connected(d)
    hopf_like = ld.catalog("twist_family", 1)
    assert len(hopf_like.crossings) == 2
    assert abs(ld.linking_number(hopf_like, 0, 1)) == 1


def test_catalog_unknown():
    with pytest.raises(UnknownCatalogEntry):
        ld.catalog("granny")
    with pytest.raises(UnknownCatalogEntry):
        ld.catalog("hopf", "x")


@pytest.mark.parametrize("p, q", [(4, 2), (6, 4), (9, 3), (10, 5), (6, 3)])
def test_rational_link_refuses_fractions_that_are_not_coprime(p, q):
    """A 2-bridge link of fraction p/q has determinant p, so a fraction
    not in lowest terms would give another link: (4, 2) the Hopf link,
    (6, 4) and (9, 3) a knot of determinant 3."""
    with pytest.raises(UnknownCatalogEntry, match=f"^bad 2-bridge fraction {p}/{q}$"):
        ld.rational_link(p, q)


# -- Reidemeister moves ---------------------------------------------------------

def test_r1_on_loop():
    u = ld.parse_pd("O")
    k = ld.r_moves(u, "R1+", (("loop", 0), 1, 0))
    assert len(k.crossings) == 1 and k.num_components == 1
    assert k.writhe() == 1
    back = ld.r_moves(k, "R1-", 0)
    assert back.loops == 1 and not back.crossings


@pytest.mark.parametrize("chirality,flavor", [(1, 0), (1, 1), (-1, 0), (-1, 1)])
def test_r1_insert_remove_roundtrip(chirality, flavor):
    d = ld.parse_pd(TREFOIL)
    k = ld.r_moves(d, "R1+", (3, chirality, flavor))
    assert len(k.crossings) == 4
    assert k.writhe() == d.writhe() + chirality
    kinks = [c.id for c in k.crossings if ld._kink_pattern(k, c.id) is not None]
    assert kinks
    assert ld.r_moves(k, "R1-", kinks[0]) == d


def test_r2_insert_remove_roundtrip():
    d = ld.parse_pd(TREFOIL)
    sites = set()
    for walk in ld.face_edge_parities(d):
        for i, (e1, _) in enumerate(walk):
            for e2, _ in walk[i + 1:]:
                if e1 != e2:
                    sites.add((e1, e2))
    assert sites
    for e1, e2 in sorted(sites):
        k = ld.r_moves(d, "R2+", (e1, e2))
        assert len(k.crossings) == 5
        assert k.writhe() == d.writhe()
        undone = False
        for c1, c2 in itertools.combinations(range(5), 2):
            try:
                if ld.r_moves(k, "R2-", (c1, c2)) == d:
                    undone = True
                    break
            except IllegalSite:
                continue
        assert undone


def test_r2_loop_over_edge():
    d = ld.parse_pd(TREFOIL + ", O")
    k = ld.r_moves(d, "R2+", (("loop", 0), 3))
    assert k.num_components == 2
    assert len(k.crossings) == 5
    assert ld.linking_number(k, 0, 1) == 0
    assert ld.is_connected(k)


def test_r_move_illegal_sites():
    d = ld.parse_pd(TREFOIL)
    with pytest.raises(IllegalSite):
        ld.r_moves(d, "R1-", 0)  # no kink there
    with pytest.raises(IllegalSite):
        ld.r_moves(d, "R2-", (0, 1))
    with pytest.raises(IllegalSite):
        ld.r_moves(d, "R3", None)


def test_r_moves_preserve_component_count(rng):
    for _ in range(30):
        d = random_connected_diagram(rng)
        before = d.num_components
        e = d.edges[0]
        k = ld.r_moves(d, "R1+", (e, 1, 0))
        assert k.num_components == before


# -- faces ----------------------------------------------------------------------

def test_faces_euler_formula(rng):
    for _ in range(30):
        d = random_connected_diagram(rng)
        assert len(ld.faces(d)) == len(d.crossings) + 2


def test_sublink_borromean():
    d = ld.catalog("borromean")
    pair = ld.sublink(d, {0, 1})
    assert pair.num_components == 2
    assert ld.linking_number(pair, 0, 1) == 0
    single = ld.sublink(d, {2})
    assert single.num_components == 1
