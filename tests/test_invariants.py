import json

import pytest

from conftest import random_connected_diagram
from ref_split import split_pieces
from tracekit import cli
from tracekit import linkdiag as ld
from tracekit.errors import (
    DisconnectedDiagram,
    NotAlternating,
    PreconditionError,
)
from tracekit.invariants import (
    NO_OBSTRUCTION,
    OBSTRUCTION_FOUND,
    UNKNOWN,
    chi4_g4_convert,
    determinant,
    determinant_goeritz,
    g4_lower_bound,
    obstruction_report,
    planar_obstruction,
    signature_gl,
    signature_seifert,
    tau_alternating,
)

TREFOIL = "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)"
HOPF = "X(1,4,2,3), X(4,1,3,2)"


# -- signatures -----------------------------------------------------------------

def test_signature_unknot():
    u = ld.parse_pd("O")
    assert signature_seifert(u) == signature_gl(u) == 0


def test_signature_trefoil_both_engines():
    # oracle: symmetrized hand matrix [[-2,1],[1,-2]] has signature -2
    d = ld.parse_pd(TREFOIL)
    assert signature_seifert(d) == -2
    assert signature_gl(d) == -2
    assert signature_gl(ld.mirror(d)) == 2


def test_signature_figure8():
    d = ld.catalog("figure8")
    assert signature_seifert(d) == signature_gl(d) == 0


def test_signature_gl_kinked_unknot():
    u = ld.parse_pd("O")
    k = ld.r_moves(u, "R1+", (("loop", 0), 1, 0))
    assert signature_gl(k) == 0


def test_signature_twist_family_zero():
    d = ld.catalog("twist_family", 0)
    assert signature_gl(d) == -3
    assert signature_seifert(d) == -3


def test_signature_disconnected_rejected():
    d = ld.parse_pd(TREFOIL + ", O")
    with pytest.raises(DisconnectedDiagram):
        signature_gl(d)
    with pytest.raises(DisconnectedDiagram):
        signature_seifert(d)


def test_dual_oracle_catalog():
    entries = [("unknot", None), ("hopf", "+"), ("hopf", "-"),
               ("trefoil", "+"), ("trefoil", "-"), ("figure8", None),
               ("whitehead", None), ("borromean", None),
               ("twist_family", 0), ("twist_family", -1),
               ("twist_family", 1), ("twist_family", 2)]
    for name, param in entries:
        d = ld.catalog(name, param)
        assert signature_gl(d) == signature_seifert(d)
        assert determinant(d) == determinant_goeritz(d)
    # reports take det from the Goeritz form; the Seifert engine checks it
    for n in range(2, -11, -1):
        d = ld.catalog("twist_family", n)
        assert obstruction_report(d).det == determinant(d)


def test_dual_oracle_random(rng):
    for _ in range(150):
        d = random_connected_diagram(rng)
        gl = signature_gl(d)
        assert gl == signature_seifert(d)
        assert determinant(d) == determinant_goeritz(d)
        assert signature_gl(ld.mirror(d)) == -gl


# -- determinant ------------------------------------------------------------------

def test_determinant_anchors():
    assert determinant(ld.parse_pd("O")) == 1
    assert determinant(ld.parse_pd(TREFOIL)) == 3
    assert determinant(ld.catalog("figure8")) == 5
    assert determinant(ld.parse_pd(HOPF)) == 2
    assert determinant(ld.catalog("whitehead")) == 8


def test_determinant_mirror_invariant(rng):
    for _ in range(25):
        d = random_connected_diagram(rng)
        assert determinant(d) == determinant(ld.mirror(d))


# -- tau and bounds ---------------------------------------------------------------

def test_tau_calibration():
    assert tau_alternating(ld.parse_pd("O")) == 0
    assert tau_alternating(ld.parse_pd(TREFOIL)) == 1
    assert tau_alternating(ld.parse_pd(HOPF)) == 1


@pytest.mark.parametrize("n", [0, -1, -2, -3])
def test_tau_twist_family(n):
    assert tau_alternating(ld.catalog("twist_family", n)) == 2


def test_tau_not_alternating():
    # a parallel R2 push makes one strand pass over twice in a row
    d = ld.parse_pd(TREFOIL)
    k = ld.r_moves(d, "R2+", (1, 3))
    if ld.is_alternating(k):
        pytest.skip("site turned out alternating")
    with pytest.raises(NotAlternating):
        tau_alternating(k)


def test_g4_lower_bound():
    assert g4_lower_bound(ld.parse_pd("O")) == 0
    assert g4_lower_bound(ld.parse_pd(TREFOIL)) == 1
    for n in (0, -1, -2):
        assert g4_lower_bound(ld.catalog("twist_family", n)) == 1
    assert g4_lower_bound(ld.parse_pd(HOPF)) == 0


def test_chi4_g4_conversion():
    assert chi4_g4_convert(1, g_renormalized=0) == (1, True)
    assert chi4_g4_convert(2, chi4=0) == (1, False)
    assert chi4_g4_convert(3, chi4=3) == (0, True)
    assert chi4_g4_convert(2, g_renormalized=1) == (0, False)


@pytest.mark.parametrize("kwargs", [{}, {"g_renormalized": 0, "chi4": 2}])
def test_chi4_g4_convert_wants_exactly_one_quantity(kwargs):
    # a precondition violation (exit 3), not a bare ValueError
    with pytest.raises(PreconditionError, match="exactly one"):
        chi4_g4_convert(2, **kwargs)


def test_chi4_identity_roundtrip(rng):
    for _ in range(50):
        ell = rng.randrange(1, 6)
        g = rng.randrange(0, 5)
        chi, _ = chi4_g4_convert(ell, g_renormalized=g)
        assert 2 * g - ell == -chi
        back, _ = chi4_g4_convert(ell, chi4=chi)
        assert back == g


# -- planar obstruction -------------------------------------------------------------

def test_planar_obstruction_twist_family():
    for n in (0, -1, -2, -3):
        verdict = planar_obstruction(ld.catalog("twist_family", n))
        assert verdict.status == OBSTRUCTION_FOUND
        rules = [v.rule for v in verdict.chain]
        assert "knotification-H-slice-criterion" in rules


def test_planar_obstruction_hopf():
    assert planar_obstruction(ld.parse_pd(HOPF)).status == NO_OBSTRUCTION


def test_planar_obstruction_split_unlink():
    assert planar_obstruction(ld.parse_pd("O, O")).status == NO_OBSTRUCTION


def test_planar_obstruction_unknown_cases():
    d = ld.parse_pd(TREFOIL + ", O")  # split with crossings
    assert planar_obstruction(d).status == UNKNOWN
    k = ld.r_moves(ld.parse_pd(HOPF), "R2+", (1, 3))
    if not ld.is_alternating(k):
        assert planar_obstruction(k).status == UNKNOWN


def test_obstruction_never_fires_at_zero_bound(rng):
    for _ in range(40):
        d = random_connected_diagram(rng)
        verdict = planar_obstruction(d)
        if verdict.status == OBSTRUCTION_FOUND:
            assert g4_lower_bound(d) >= 1


# -- R-move invariance ---------------------------------------------------------------

def test_invariance_under_moves(rng):
    from conftest import random_moves
    for _ in range(30):
        d = random_connected_diagram(rng)
        sigma, det = signature_gl(d), determinant(d)
        moved = random_moves(rng, d, 3, max_crossings=10)
        assert signature_gl(moved) == sigma
        assert determinant(moved) == det


# -- reports ------------------------------------------------------------------------

def invariants_json(capsys, entry: str) -> str:
    """The ``invariants`` report of a catalog entry, as the CLI prints it."""
    assert cli.main(["invariants", "--catalog", entry]) == 0
    return capsys.readouterr().out


def test_report_schema(capsys):
    payload = invariants_json(capsys, "twist_family:0")
    data = json.loads(payload)
    assert set(data) == {"link", "l", "sigma", "det", "tau", "g4_lb",
                         "chi4_ub", "G4_lb", "verdicts"}
    assert data["l"] == 2 and data["sigma"] == -3 and data["tau"] == 2
    assert data["g4_lb"] == 1 and data["G4_lb"] == 1 and data["chi4_ub"] == 0
    assert 2 * data["G4_lb"] - data["l"] == -data["chi4_ub"]
    for verdict in data["verdicts"]:
        assert set(verdict) == {"claim", "rule", "anchor"}
        assert verdict["rule"]
        assert verdict["anchor"]
    assert json.dumps(data, sort_keys=True) + "\n" == payload


def test_report_split_combination():
    second = "X(14,12,15,11), X(16,14,11,13), X(12,16,13,15)"
    d = ld.parse_pd(TREFOIL + ", " + second)
    rep = obstruction_report(d, "two trefoils")
    assert rep.sigma == -4
    assert rep.det == 9
    assert rep.tau is None
    assert any(v.rule == "split-combination" for v in rep.verdicts)


def test_split_pieces():
    d = ld.parse_pd(TREFOIL + ", O")
    pieces = split_pieces(d)
    assert len(pieces) == 2
    assert sorted(p.num_components for p in pieces) == [1, 1]
    assert sorted(len(p.crossings) for p in pieces) == [0, 3]


def test_report_determinism(capsys):
    a = invariants_json(capsys, "borromean")
    b = invariants_json(capsys, "borromean")
    assert a == b


def test_goeritz_shading_independence():
    from tracekit.invariants import goeritz_data
    from tracekit.exactlinalg import signature_symmetric
    for name, param in [("trefoil", "+"), ("figure8", None),
                        ("whitehead", None), ("twist_family", -1)]:
        d = ld.catalog(name, param)
        values = []
        for gd in goeritz_data(d):
            sig = signature_symmetric([list(r) for r in gd.matrix])
            values.append(-(sig + gd.correction))
        assert values[0] == values[1]


def test_catalog_move_invariance(rng):
    from conftest import random_moves
    for name, param in [("hopf", "+"), ("trefoil", "-"), ("figure8", None),
                        ("borromean", None), ("twist_family", 0)]:
        d = ld.catalog(name, param)
        sigma, det = signature_gl(d), determinant(d)
        lks = sorted(x for row in ld.linking_matrix(d) for x in row)
        moved = random_moves(rng, d, 4, max_crossings=len(d.crossings) + 6)
        assert signature_gl(moved) == sigma
        assert determinant(moved) == det
        assert sorted(x for row in ld.linking_matrix(moved) for x in row) == lks


def test_mirror_linking_antisymmetry_random(rng):
    from conftest import random_connected_diagram
    for _ in range(20):
        d = random_connected_diagram(rng)
        m = ld.mirror(d)
        n = d.num_components
        for i in range(n):
            for j in range(i + 1, n):
                assert ld.linking_number(m, i, j) == -ld.linking_number(d, i, j)
        assert m.writhe() == -d.writhe()


def test_report_unlink_sigma_zero():
    rep = obstruction_report(ld.catalog("unlink", 3))
    assert rep.sigma == 0
    assert rep.det == 1
    assert rep.components == 3


def test_two_bridge_determinant_is_p():
    # the determinant of the 2-bridge link of fraction p/q equals p,
    # a sharp external anchor hit by both engines across the family
    from math import gcd
    for p in range(2, 26):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            d = ld.rational_link(p, q)
            assert determinant_goeritz(d) == determinant(d) == p
