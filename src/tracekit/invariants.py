"""Classical diagram invariants and sliceness obstructions.

Reports take the signature and the determinant from the Goeritz form of
a checkerboard shading, corrected by the crossing types
(Gordon-Litherland): either shading gives both, so one sparse congruence
pass per connected piece does, and the tests audit the other shading.
``linkdiag._shadings`` hands over each piece's two shading classes as
faces and crossing edges, so this module reads no corner layout.
The symmetrized Seifert matrix of a braid-form presentation
(``signature_seifert``, ``determinant``) is a fully independent second
engine; no report calls it, and the test suite uses it as the oracle.
``determinant_goeritz`` stays on dense Bareiss elimination so that it
checks reports independently of the congruence kernel.

For connected alternating diagrams the concordance invariant tau is
(l - 1 - sigma)/2, calibrated so the right-handed trefoil has tau = 1;
it bounds the slice genus via tau <= g4 + l - 1, which is the engine
behind the planar-surface obstruction reports.  A report is an
``ObstructionReport`` record; the CLI alone shapes it into a report dict
and renders that as JSON or tables.
"""

from typing import NamedTuple

from .errors import DisconnectedDiagram, NotAlternating, ParityViolation, PreconditionError
from .exactlinalg import congruence_rows, det_int, signature_symmetric
from .linkdiag import LinkDiagram, _shadings, is_alternating, is_connected
from .seifert import SeifertData, seifert


def _symmetrized(data: SeifertData) -> list[list[int]]:
    v = data.seifert_matrix
    n = len(v)
    return [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]


def signature_seifert(d: LinkDiagram) -> int:
    """Signature of V + V^T for a Seifert matrix V of the link."""
    return signature_symmetric(_symmetrized(seifert(d)))


def determinant(d: LinkDiagram) -> int:
    """|det(V + V^T)|, the link determinant (Seifert engine; an oracle
    for the report's Goeritz determinant)."""
    return abs(det_int(_symmetrized(seifert(d))))


# ---------------------------------------------------------------------------
# Goeritz / Gordon-Litherland engine
# ---------------------------------------------------------------------------

class GoeritzData(NamedTuple):
    """Goeritz matrix of one checkerboard shading plus the correction
    term from crossings whose type matches the shading."""

    matrix: tuple[tuple[int, ...], ...]
    correction: int
    shading: int  # 0 or 1, which color class of faces was used


def _goeritz_rows(edges, faces) -> tuple[dict[int, dict[int, int]], int]:
    """One shading's Goeritz form as sparse rows {face: {face: nonzero}},
    the first face dropped, and the correction from the crossings whose
    type matches the shading."""
    g = {f: {} for f in faces}
    for a, b, weight, _ in edges:
        if a != b:
            ga, gb = g[a], g[b]
            ga[b] = ga.get(b, 0) + weight
            gb[a] = gb.get(a, 0) + weight
            ga[a] = ga.get(a, 0) - weight
            gb[b] = gb.get(b, 0) - weight
    first = faces[0]
    rows = {f: {h: x for h, x in g[f].items() if x and h != first} for f in faces[1:]}
    return rows, sum(weight for _, _, weight, sign in edges if weight == sign)


def goeritz_data(d: LinkDiagram) -> tuple[GoeritzData, ...]:
    """Both shadings' Goeritz data for a connected diagram, as dense
    matrices: the audit view of the rows that reports eliminate."""
    if not is_connected(d):
        raise DisconnectedDiagram("Goeritz form needs a connected diagram")
    out = []
    classes = (c for pair in _shadings(d) for c in pair)
    for shading, (faces, edges) in enumerate(classes):
        rows, correction = _goeritz_rows(edges, faces)
        matrix = tuple(tuple(rows[f].get(h, 0) for h in faces[1:]) for f in faces[1:])
        out.append(GoeritzData(matrix, correction, shading))
    return tuple(out)


def _goeritz_invariants(d: LinkDiagram) -> tuple[int, int]:
    """(sigma, det) of a diagram, summed and multiplied over its pieces:
    each piece's shading with fewer faces (on a tie, the one holding the
    piece's least face, first in its pair) is eliminated once, and
    crossing-free loops add (0, 1).  By Gordon-Litherland the choice
    changes neither sigma nor |det|."""
    sigma, det = 0, 1
    for first, second in _shadings(d):
        faces, edges = second if len(second[0]) < len(first[0]) else first
        rows, correction = _goeritz_rows(edges, faces)
        pos, neg, piece_det = congruence_rows(rows)
        sigma -= pos - neg + correction
        det *= abs(piece_det)
    return sigma, det


def signature_gl(d: LinkDiagram) -> int:
    """Link signature of a connected diagram via the Goeritz form of one
    shading and its crossing-type correction (the tests audit the other
    shading)."""
    if not is_connected(d):
        raise DisconnectedDiagram("signature needs a connected diagram")
    return _goeritz_invariants(d)[0]


def determinant_goeritz(d: LinkDiagram) -> int:
    """|det| of the Goeritz matrix by dense Bareiss elimination; equals
    the link determinant and checks ``determinant`` and report
    determinants independently of the congruence kernel."""
    gd = goeritz_data(d)  # empty for a crossing-free loop
    return abs(det_int([list(r) for r in gd[0].matrix])) if gd else 1


# ---------------------------------------------------------------------------
# tau and slice-genus bounds
# ---------------------------------------------------------------------------

def _tau(ell: int, sigma: int) -> int:
    if (ell - 1 - sigma) % 2:
        raise ParityViolation(f"l - 1 - sigma = {ell - 1 - sigma} is odd")
    return (ell - 1 - sigma) // 2


def tau_alternating(d: LinkDiagram) -> int:
    """tau = (l - 1 - sigma)/2 for a connected alternating diagram,
    normalized so the right-handed trefoil has tau = +1."""
    if not is_connected(d):
        raise DisconnectedDiagram("tau formula needs a connected diagram")
    if not is_alternating(d):
        raise NotAlternating("tau formula is only licensed on alternating diagrams")
    return _tau(d.num_components, signature_gl(d))


def _g4_bound(tau: int, ell: int) -> int:
    return max(0, tau - ell + 1)


def g4_lower_bound(d: LinkDiagram) -> int:
    """max(0, tau - l + 1): a lower bound for the slice genus, from the
    bound tau <= g4 + l - 1."""
    return _g4_bound(tau_alternating(d), d.num_components)


def chi4_g4_convert(ell: int, g_renormalized: int | None = None,
                    chi4: int | None = None) -> tuple[int, bool]:
    """Convert between the renormalized genus G4 and the maximal
    4-dimensional Euler characteristic via 2*G4 - l = -chi4.

    Returns (the other quantity, slice flag); the flag records chi4 = l,
    which holds exactly for smoothly slice links."""
    if (g_renormalized is None) == (chi4 is None):
        raise PreconditionError("pass exactly one of g_renormalized, chi4")
    if g_renormalized is not None:
        chi = ell - 2 * g_renormalized
        return chi, chi == ell
    g = (ell - chi4) // 2
    if ell - chi4 != 2 * g:
        raise ParityViolation(f"chi4 = {chi4} has wrong parity for l = {ell}")
    return g, chi4 == ell


# ---------------------------------------------------------------------------
# verdicts and reports
# ---------------------------------------------------------------------------

OBSTRUCTION_FOUND = "ObstructionFound"
NO_OBSTRUCTION = "NoObstruction"
UNKNOWN = "Unknown"


class Verdict(NamedTuple):
    claim: str
    rule: str
    anchor: str


class PlanarVerdict(NamedTuple):
    status: str
    chain: tuple[Verdict, ...] = ()


def planar_obstruction(d: LinkDiagram) -> PlanarVerdict:
    """Obstruct a planar (genus zero) surface in the 4-ball via tau, and
    propagate to the knotification's H-sliceness.

    Crossing-free unlink diagrams visibly bound disjoint disks; other
    diagrams need l >= 2 and the tau formula's hypotheses, else Unknown.
    """
    tau = None
    if d.crossings and d.num_components >= 2 and is_connected(d) and is_alternating(d):
        tau = tau_alternating(d)
    return _planar_verdict(d, tau)


def _planar_verdict(d: LinkDiagram, tau: int | None) -> PlanarVerdict:
    """The planar verdict given tau, which is None unless ``d`` is a
    connected alternating diagram."""
    if not d.crossings:
        return PlanarVerdict(NO_OBSTRUCTION, (
            Verdict("components bound disjoint embedded disks",
                    "crossingless-unlink", "split unlink diagrams are slice"),
        ))
    if d.num_components < 2 or tau is None:
        return PlanarVerdict(UNKNOWN, (
            Verdict("tau formula hypotheses not met (need a connected "
                    "alternating diagram with l >= 2)",
                    "tau-hypotheses", "tau = (l - 1 - sigma)/2 on alternating links"),
        ))
    ell = d.num_components
    g4lb = _g4_bound(tau, ell)
    base = (
        Verdict("connected alternating diagram: treated as non-split",
                "connected-alternating-nonsplit",
                "a connected alternating diagram presents a non-split link"),
        Verdict(f"tau = (l - 1 - sigma)/2 = {tau}",
                "tau-from-signature", "tau = (l - 1 - sigma)/2"),
        Verdict(f"slice genus bound: g4 >= tau - l + 1 = {tau - ell + 1}",
                "tau-slice-genus-bound", "tau <= g4 + l - 1"),
    )
    if g4lb >= 1:
        chain = base + (
            Verdict("no planar surface in the 4-ball (g4 >= 1)",
                    "planar-surface-obstruction",
                    "g4 = 0 iff the link bounds a planar surface"),
            Verdict("knotification is not smoothly H-slice in S2xD2 "
                    "boundary sums",
                    "knotification-H-slice-criterion",
                    "planar surface in X iff knotification H-slice in "
                    "X natural-sum l copies of S2xD2"),
        )
        return PlanarVerdict(OBSTRUCTION_FOUND, chain)
    return PlanarVerdict(NO_OBSTRUCTION, base + (
        Verdict("tau gives no obstruction to a planar surface",
                "planar-surface-obstruction", "g4 bound is zero"),
    ))


class ObstructionReport(NamedTuple):
    name: str
    components: int
    sigma: int
    det: int
    tau: int | None
    g4_lower_bound: int
    chi4_upper_bound: int
    g4_renormalized_lower_bound: int
    verdicts: tuple[Verdict, ...]


def obstruction_report(d: LinkDiagram, name: str | None = None) -> ObstructionReport:
    """Full invariant and verdict report; disconnected diagrams are
    combined per piece (sigma additive, det multiplicative) and flagged."""
    label = name if name is not None else (d.name or "")
    ell = d.num_components
    verdicts: list[Verdict] = []
    sigma, det = _goeritz_invariants(d)
    if is_connected(d):
        tau = _tau(ell, sigma) if is_alternating(d) else None
    else:
        tau = None
        verdicts.append(Verdict(
            f"split diagram: sigma summed and det multiplied over "
            f"{len(d.pieces) + d.loops} pieces",
            "split-combination",
            "sigma additive and det multiplicative under split union "
            "(a split link's own determinant vanishes)"))
    if tau is not None:
        g4lb = _g4_bound(tau, ell)
        verdicts.append(Verdict(f"tau = {tau}", "tau-from-signature",
                                "tau = (l - 1 - sigma)/2"))
    else:
        g4lb = 0
        verdicts.append(Verdict("tau unavailable: trivial genus bound",
                                "tau-hypotheses",
                                "tau needs a connected alternating diagram"))
    g4_renorm = 1 if g4lb >= 1 else 0
    chi4_ub = chi4_g4_convert(ell, g_renormalized=g4_renorm)[0]
    verdicts.append(Verdict(
        f"chi4 <= {chi4_ub} (and chi4 <= l = {ell} always, with equality "
        f"iff slice)",
        "chi4-g4-conversion", "2*G4 - l = -chi4"))
    planar = _planar_verdict(d, tau)
    verdicts.append(Verdict(f"planar-surface verdict: {planar.status}",
                            "planar-obstruction-summary", "see chain"))
    verdicts.extend(planar.chain)
    return ObstructionReport(
        label, ell, sigma, det, tau, g4lb, chi4_ub, g4_renorm,
        tuple(verdicts),
    )
