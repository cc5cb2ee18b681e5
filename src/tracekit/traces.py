"""Trace 4-manifolds as symbolic handle decompositions.

A framed link in the 3-sphere presents a 4-manifold by 2-handle
attachment; the algebraic record kept here is the handle count vector,
the framing-linking matrix Q of the 2-handles, and the winding matrix W
of attaching circles over 1-handles.  Knotification is honest diagram
surgery, each step an oriented band merge and a surgery circle clasping
the band, both drawn in ``linkdiag``; ``knotify`` checks the resulting
knot's null-homology with linking numbers rather than assuming it.
High-order traces are closed-form: their Q and W follow from the linking
matrix and the partition, and the tests audit them against every block
knotified inside the one diagram.

Candidate checks (homotopy 4-sphere, Schoenflies) only ever test the
computable necessary conditions and never claim a diffeomorphism.
Traces and verdicts are records; the CLI alone shapes them into report
dicts and renders those as JSON or tables.
"""

from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property
from typing import NamedTuple

from .errors import (
    BadBands,
    BadComponentIndex,
    InputError,
    InternalInvariantError,
    InvalidBlockFraming,
    MalformedMixedDiagram,
    NotAPartition,
    OrientationConflict,
    SameComponent,
)
from .exactlinalg import cokernel
from .linkdiag import (
    CATALOG_MAX_SIZE,
    Arc,
    BandSpec,
    LinkDiagram,
    _direct_band,
    _knotify_step,
    linking_matrix,
    linking_number,
    mirror,
    total_linking,
)

__all__ = [
    "FramedLink", "WeightedPartition", "HandleDecomposition", "MixedLink",
    "KnotifiedLink", "TraceVerdict", "zero_trace", "boundary_h1",
    "planar_framing_valid", "knotify", "high_order_trace",
    "surface_partition", "homotopy_sphere_candidate",
    "schoenflies_candidate", "framed_mirror",
]


class FramedLink(namedtuple("FramedLink", "diagram framings")):
    """A link diagram with one integer framing per component."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, diagram: LinkDiagram, framings: tuple[int, ...]):
        if len(framings) != diagram.num_components:
            raise BadComponentIndex(
                f"{len(framings)} framings for {diagram.num_components} components")
        return super().__new__(cls, diagram, framings)

    @property
    def components(self) -> int:
        return self.diagram.num_components


class WeightedPartition(NamedTuple):
    """Nonempty blocks of component indices, each carrying a genus weight
    >= 0; every component lies in exactly one block, once.
    Blocks are kept sorted by least member, so equal partitions compare
    equal regardless of input order."""

    blocks: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    @staticmethod
    def of(blocks, weights, components: int) -> "WeightedPartition":
        blocks = [tuple(sorted(b)) for b in blocks]
        weights = list(weights)
        if len(blocks) != len(weights):
            raise NotAPartition("one weight per block required")
        if any(g < 0 for g in weights):
            raise NotAPartition("genus weights must be nonnegative")
        if 2 * sum(weights) > CATALOG_MAX_SIZE:
            raise InputError(
                f"genus weights summing to {sum(weights)} need {2 * sum(weights)} "
                f"1-handles; partitions are limited to {CATALOG_MAX_SIZE}")
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise NotAPartition("blocks must not be empty")
            for i in b:
                if not 0 <= i < components or i in seen:
                    raise NotAPartition(f"blocks do not partition 0..{components - 1}")
                seen.add(i)
        if len(seen) != components:
            raise NotAPartition("blocks do not cover all components")
        order = sorted(range(len(blocks)), key=lambda k: blocks[k][0])
        return WeightedPartition(
            tuple(blocks[k] for k in order),
            tuple(weights[k] for k in order),
        )

    @property
    def block_count(self) -> int:
        return len(self.blocks)


class HandleDecomposition(namedtuple("HandleDecomposition", "handles q w provenance")):
    """Handle counts plus the attaching combinatorics that the toolkit
    actually computes with: Q (framing/linking of 2-handles) and W
    (algebraic winding of 2-handle circles over 1-handles).  The rank of
    W is memoized in the instance's ``__dict__``, outside the fields."""

    handles: tuple[int, int, int, int, int]
    q: tuple[tuple[int, ...], ...]
    w: tuple[tuple[int, ...], ...]
    provenance: str

    @property
    def chi(self) -> int:
        return sum((-1) ** i * h for i, h in enumerate(self.handles))

    @cached_property
    def _w_rank(self) -> int:
        return len(self.w) - cokernel(self.w)[0]

    @property
    def b1(self) -> int:
        return self.handles[1] - self._w_rank

    @property
    def b2(self) -> int:
        # valid in the absence of 3-handles
        return self.handles[2] - self._w_rank


class MixedLink(namedtuple("MixedLink", "diagram dotted framings")):
    """A diagram in a surgered 3-manifold: ``dotted`` components are
    0-framed surgery circles spanning the 1-handles; the remaining
    components carry the listed framings, in component order."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, diagram: LinkDiagram, dotted: tuple[int, ...], framings: tuple[int, ...]):
        n = diagram.num_components
        if any(not 0 <= i < n for i in dotted) or len(set(dotted)) != len(dotted):
            raise MalformedMixedDiagram(f"bad dotted set {dotted}")
        if len(framings) != n - len(dotted):
            raise MalformedMixedDiagram(
                f"{len(framings)} framings for {n - len(dotted)} attaching circles")
        return super().__new__(cls, diagram, dotted, framings)

    @property
    def attaching(self) -> tuple[int, ...]:
        dotted = set(self.dotted)
        return tuple(i for i in range(self.diagram.num_components) if i not in dotted)

    def winding_matrix(self) -> list[list[int]]:
        """W[j][i] = linking of attaching circle i with dotted circle j,
        the algebraic run-through count over that 1-handle."""
        return [[linking_number(self.diagram, a, dj) for a in self.attaching]
                for dj in self.dotted]


class KnotifiedLink(NamedTuple):
    """Result of knotification: one knot plus surgery circles, with the
    audited framing and winding data."""

    mixed: MixedLink
    knot_component: int
    framing: int
    winding: tuple[int, ...]

    @property
    def surgery_circles(self) -> int:
        return len(self.mixed.dotted)


# ---------------------------------------------------------------------------
# elementary constructions
# ---------------------------------------------------------------------------

def zero_trace(link: FramedLink) -> HandleDecomposition:
    """2-handles on the 4-ball along the framed link: Q carries framings
    on the diagonal and linking numbers off it."""
    ell = link.components
    q = linking_matrix(link.diagram)
    for i in range(ell):
        q[i][i] = link.framings[i]
    return HandleDecomposition(
        (1, 0, ell, 0, 0),
        tuple(tuple(row) for row in q),
        (),
        "trace",
    )


def boundary_h1(link: FramedLink) -> tuple[int, tuple[int, ...]]:
    """H1 of the surgered boundary 3-manifold: the cokernel of Q as
    (free rank, torsion coefficients)."""
    return _h1_of(zero_trace(link))


def _h1_of(trace: HandleDecomposition) -> tuple[int, tuple[int, ...]]:
    """The cokernel of a 0-trace's Q."""
    return cokernel(trace.q)


def planar_framing_valid(link: FramedLink) -> bool:
    """Whether the framings satisfy t1 + ... + tl = -2 lk(L), the law
    for attaching a single planar surface handle along all components."""
    return sum(link.framings) == -2 * total_linking(link.diagram)


def framed_mirror(link: FramedLink) -> FramedLink:
    """Mirror diagram with negated framings; Q changes sign."""
    return FramedLink(mirror(link.diagram), tuple(-t for t in link.framings))


# ---------------------------------------------------------------------------
# knotification as diagram surgery
# ---------------------------------------------------------------------------

def _resolve(arc: Arc, d: LinkDiagram, maps: list[dict[int, int]]) -> Arc:
    """A ``--bands`` arc in the current diagram: an edge id of the input
    diagram ``d`` goes through the edge map of every step so far (each
    edge survives a step as its tail half); a loop arc, loops being
    interchangeable, passes unchanged."""
    if isinstance(arc, tuple):
        return arc
    if arc not in d.edge_component:
        raise BadBands(f"band references missing edge {arc}")
    for step_map in maps:
        arc = step_map[arc]
    return arc


def knotify(link: FramedLink, bands: list[BandSpec] | None = None) -> KnotifiedLink:
    """Merge all components with l-1 oriented bands and clasp each band
    with a 0-framed surgery circle.

    The knot framing is sum(t_i) + 2 lk(L); the winding vector over the
    surgery circles is computed from the final diagram and must vanish.
    Without ``bands``, each step takes ``_direct_band`` between the open
    components, and a refused one is a bug; given bands are read with
    ``_resolve``, and a refused one is ``BadBands``."""
    d = link.diagram
    ell = link.components
    if bands is not None and len(bands) != ell - 1:
        raise BadBands(f"need {ell - 1} bands, got {len(bands)}")
    cur, circle_edges, maps = d, [], []
    for k in range(ell - 1):
        if bands is None:
            ec = cur.edge_component
            comps = set(range(cur.num_components)) - {ec[e] for e in circle_edges}
            band = _direct_band(cur, comps)
            if band is None:
                raise InternalInvariantError(f"no direct band between components {sorted(comps)}")
        else:
            band = bands[k]
            band = BandSpec(_resolve(band.arc_a, d, maps), _resolve(band.arc_b, d, maps),
                            band.framing, band.coherent)
        try:
            cur, circle_edge, _, step_map, _ = _knotify_step(cur, band)
        except (SameComponent, OrientationConflict, BadComponentIndex) as exc:
            refusal = BadBands if bands is not None else InternalInvariantError
            raise refusal(str(exc)) from exc
        maps.append(step_map)
        circle_edges = [step_map[e] for e in circle_edges] + [circle_edge]
    ec = cur.edge_component
    circle_comps = sorted(ec[e] for e in circle_edges)
    if len(set(circle_comps)) != ell - 1:
        raise InternalInvariantError("wrong number of surgery circles")
    # each step merges two components and adds a circle: one knot is left
    [knot] = [i for i in range(cur.num_components) if i not in circle_comps]
    winding = tuple(linking_number(cur, knot, j) for j in circle_comps)
    if any(winding):
        raise InternalInvariantError(f"knotified circle is not null-homologous: {winding}")
    framing = sum(link.framings) + 2 * total_linking(d)
    mixed = MixedLink(cur, tuple(circle_comps), (framing,))
    return KnotifiedLink(mixed, knot, framing, winding)


# ---------------------------------------------------------------------------
# high order traces
# ---------------------------------------------------------------------------

def _block_law(lkm: list[list[int]], block: Sequence[int]) -> int:
    """-2 lk(block): the framing sum a planar handle along the block needs."""
    return -2 * sum(lkm[i][j] for i in block for j in block if i < j)


def high_order_trace(link: FramedLink, partition: WeightedPartition) -> HandleDecomposition:
    """Attach one planar handle along each block (via its knotification)
    and add the genus weights as extra 1-handle pairs.

    Preconditions: each block satisfies the planar framing law
    sum_{i in block} t_i = -2 lk(block), so each block's knot is
    0-framed.  Everything else is read from the linking matrix, with no
    diagram built: band sums and null-homologous clasp circles change no
    linking number, so two blocks' knots link by their cross-block sum,
    and every band circle and every commutator genus generator winds 0,
    giving sum(|block| - 1 + 2g) zero rows of W.  The tests audit this
    against the blocks knotified inside the one diagram."""
    part = WeightedPartition.of(partition.blocks, partition.weights, link.components)
    blocks = part.blocks
    lkm = linking_matrix(link.diagram)
    for block in blocks:
        total = sum(link.framings[i] for i in block)
        if total != (need := _block_law(lkm, block)):
            raise InvalidBlockFraming(
                f"block {block}: framings sum to {total}, need {need}")
    k = len(blocks)
    q = tuple(tuple(0 if a == b else sum(lkm[i][j] for i in blocks[a] for j in blocks[b])
                    for b in range(k)) for a in range(k))
    h1 = sum(2 * g + len(b) - 1 for g, b in zip(part.weights, blocks))
    return HandleDecomposition((1, h1, k, 0, 0), q, ((0,) * k,) * h1, "high_order_trace")


def surface_partition(d: LinkDiagram, pieces) -> tuple[WeightedPartition, tuple]:
    """Weighted partition induced by a bounding surface given as
    (genus, boundary component set) pieces, together with the framing
    constraint sum(t) = -2 lk(block) each block must satisfy."""
    part = WeightedPartition.of([p[1] for p in pieces], [p[0] for p in pieces],
                                d.num_components)
    lkm = linking_matrix(d)
    return part, tuple((block, _block_law(lkm, block)) for block in part.blocks)


# ---------------------------------------------------------------------------
# candidate checks
# ---------------------------------------------------------------------------

PASS_NECESSARY = "pass-necessary"
FAIL = "fail"


class TraceVerdict(NamedTuple):
    status: str
    checks: tuple[str, ...]
    data: tuple[tuple[str, object], ...] = ()


def homotopy_sphere_candidate(link: FramedLink) -> TraceVerdict:
    """Necessary conditions for the closed-up trace to be a homotopy
    4-sphere: all framings zero and Q = 0, so that the boundary has free
    first homology of full rank.  Passing never decides the boundary's
    diffeomorphism type."""
    trace = zero_trace(link)
    return _sphere_verdict(link, trace, _h1_of(trace))


def _sphere_verdict(link: FramedLink, trace: HandleDecomposition,
                    boundary: tuple[int, tuple[int, ...]]) -> TraceVerdict:
    """``homotopy_sphere_candidate`` given the link's 0-trace and its
    boundary H1."""
    n = link.components
    checks = []
    failures = []
    if all(t == 0 for t in link.framings):
        checks.append("all framings are zero")
    else:
        failures.append(f"nonzero framings {link.framings}")
    if all(all(x == 0 for x in row) for row in trace.q):
        checks.append("framing-linking matrix Q vanishes")
    else:
        failures.append("Q is nonzero")
    rank, torsion = boundary
    if rank == n and not torsion:
        checks.append(f"H1 of the boundary is free of rank {n}")
    else:
        failures.append(f"coker(Q) = (rank {rank}, torsion {torsion}) != Z^{n}")
    if failures:
        return TraceVerdict(FAIL, tuple(checks + failures))
    chi_closed = 1 - 0 + n - n + 1
    b2_closed = n - n
    checks.append(f"closed-up Euler characteristic recomputed: {chi_closed}")
    checks.append(f"b2 of the closed-up manifold recomputed: {b2_closed}")
    checks.append("necessary conditions passed; whether the boundary is "
                  "a connected sum of S1 x S2 is not decided")
    return TraceVerdict(
        PASS_NECESSARY, tuple(checks),
        (("chi_closed", chi_closed), ("b2_closed", b2_closed),
         ("h1_rank", rank)),
    )


def schoenflies_candidate(mixed: MixedLink) -> TraceVerdict:
    """Necessary conditions for a mixed diagram (k dotted circles, n
    attaching circles) to close up to a standard 4-sphere candidate:
    n >= 2k, vanishing abelianized fundamental group, and the Euler
    bookkeeping.  Never asserts a diffeomorphism."""
    return _schoenflies_verdict(mixed, mixed.winding_matrix())


def _schoenflies_verdict(mixed: MixedLink, w: list[list[int]]) -> TraceVerdict:
    """``schoenflies_candidate`` given the mixed diagram's winding
    matrix."""
    k = len(mixed.dotted)
    n = len(mixed.attaching)
    checks = []
    failures = []
    if n >= 2 * k:
        checks.append(f"n = {n} >= 2k = {2 * k}")
    else:
        failures.append(f"n = {n} < 2k = {2 * k}")
    rank, torsion = cokernel(w)
    if rank == 0 and not torsion:
        checks.append("coker of the winding matrix vanishes "
                      "(abelianized simple connectivity)")
    else:
        failures.append(f"coker(W) = (rank {rank}, torsion {torsion}) != 0")
    if failures:
        return TraceVerdict(FAIL, tuple(checks + failures))
    chi_closed = 1 - k + n - (n - k) + 1
    checks.append(f"closed-up Euler characteristic with {n - k} 3-handles: {chi_closed}")
    if k == 0 and n == 1:
        checks.append("knot case: only the unknot qualifies")
    checks.append("necessary conditions passed; no diffeomorphism asserted")
    return TraceVerdict(
        PASS_NECESSARY, tuple(checks),
        (("chi_closed", chi_closed), ("three_handles", n - k)),
    )
