"""Trace 4-manifolds as symbolic handle decompositions.

A framed link in the 3-sphere presents a 4-manifold by 2-handle
attachment; the algebraic record kept here is the handle count vector,
the framing-linking matrix Q of the 2-handles, and the winding matrix W
of attaching circles over 1-handles.  Knotification is performed as
honest diagram surgery: oriented band merges followed by the insertion
of a small surgery circle clasping each band, so the null-homology of
the resulting knot is checked with linking numbers rather than assumed.
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
    _band_merge_builder,
    _end_face,
    _reflect,
    _same_piece,
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

def _clasp(b, first: Sequence[int], second: Sequence[int], mirrored: bool = False) -> int:
    """Add the 4-crossing clasp of a 0-framed surgery circle around two
    strands, each given as (in, middle, out) edges already split or
    allocated by the caller.  The first strand passes under the circle
    and then over it, the second over and then under.  ``mirrored``
    reverses every crossing's cyclic order.  Returns one circle edge id."""
    a_in, a_mid, a_out = first
    b_in, b_mid, b_out = second
    k = [b.new_edge_id() for _ in range(4)]
    pattern = [
        ((a_in, k[1], a_mid, k[0]), 1),
        ((b_mid, k[1], b_out, k[2]), -1),
        ((k[2], b_in, k[3], b_mid), -1),
        ((k[3], a_out, k[0], a_mid), 1),
    ]
    for crossing in pattern:
        b.add_crossing(*(_reflect(*crossing) if mirrored else crossing))
    return k[0]


def _clasp_across(b, conn_a: Arc, conn_b: Arc, mirrored: bool) -> tuple[int, list[int]]:
    """Cut two arcs of a builder twice each and clasp their middle pieces
    with ``_clasp``; one arc given twice is cut four times and its second
    and fourth pieces are clasped.  Returns (circle edge id, conn_a's
    clasped pieces), whose second is the first edge id the cuts
    allocated."""
    if conn_a == conn_b:
        pieces = b.cut(conn_a, 4)
        first, second = pieces[0:3], pieces[2:5]
    else:
        first, second = b.cut(conn_a, 2), b.cut(conn_b, 2)
    return _clasp(b, first, second, mirrored), first


def _direct_band(d: LinkDiagram, comps: set[int]) -> BandSpec | None:
    """Lexicographically first coherent untwisted band between distinct
    components of ``comps``, when one exists without moving any arcs.

    Between two or more of knotify's open components (those with no
    circle) one always exists: a loop bands to any other one, and ones in
    different pieces are joined.  In one piece, deleting the circles
    leaves the open components connected, since a circle crosses only
    the band it clasps and later bands add no crossings; so two open
    components cross, and the corners between one's incoming and the
    other's outgoing half meet both with equal parity, a bucket read
    here.

    The band is the least pair (least edge, least edge on another
    component) over the buckets of corners keyed by face and parity.
    The least edge e of the open components, the first edge of the first
    since ``d`` is canonical, is the least entry of both buckets it lies
    in, and every other bucket's least entry is above it.  So when either
    of e's buckets holds an edge of another open component, the band is
    e and the least such edge, read from those two buckets alone; only
    otherwise are all corners bucketed."""
    ec = d.edge_component
    n_edge_comps = len(d.components)
    edge_comps = sorted(i for i in comps if i < n_edge_comps)
    face_of = d.face_of
    none = len(d.corner_edges)  # above every edge id
    if edge_comps:
        # e's corner z is an entry of the walk of _end_face(face_of, z);
        # a face's entries are the corners after its corners w
        corner_edges, out = d.corner_edges, d.corner_out
        first = edge_comps[0]
        e = d.components[first][0]
        x = corner_edges.index(e)
        witness = none
        for z in (x, d.partner[x]):
            parity = out[z]
            for w in d.face_corners[_end_face(face_of, z)]:
                y = w - 3 if w & 3 == 3 else w + 1
                if out[y] == parity and (g := corner_edges[y]) < witness:
                    c = ec[g]
                    if c != first and c in comps:
                        witness = g
        if witness < none:
            return BandSpec(e, witness)
    # corner y is the entry (its edge, corner_out[y]) of the walk of face
    # _end_face(face_of, y), the face at the corner before it, read here
    # from a copy of face_of shifted by one slot: bucket the entries by
    # face and parity, and keep each bucket's least edge, its component,
    # and its least edge on another component
    face_before = face_of[-1:] + face_of[:-1]
    face_before[0::4] = face_of[3::4]
    least, least_comp, other = ([none] * (2 * len(d.face_corners)) for _ in range(3))
    for e, f, out in zip(d.corner_edges, face_before, d.corner_out):
        c = ec[e]
        if c in comps:
            k = 2 * f + out
            if e < least[k]:
                if c != least_comp[k]:
                    other[k] = least[k]
                least[k], least_comp[k] = e, c
            elif c != least_comp[k] and e < other[k]:
                other[k] = e
    best = min(((e, x) for e, x in zip(least, other) if x < none), default=None)
    if best is not None:
        return BandSpec(*best)
    # bands involving crossing-free loops are always coherent
    loop_comps = sorted(i for i in comps if i >= n_edge_comps)
    if loop_comps and (edge_comps or len(loop_comps) >= 2):
        loop_arc = ("loop", loop_comps[0] - n_edge_comps)
        if edge_comps:
            return BandSpec(loop_arc, d.components[edge_comps[0]][0])
        return BandSpec(loop_arc, ("loop", loop_comps[1] - n_edge_comps))
    # components in different connected pieces can always be joined: the
    # first component, to the first later one outside its piece
    reps = [d.components[c][0] for c in edge_comps]
    other = next((e for e in reps[1:] if not _same_piece(d, reps[0], e)), None)
    return None if other is None else BandSpec(*sorted((reps[0], other)))


def _knotify_step(d: LinkDiagram, band: BandSpec):
    """One band merge plus clasping circle, built in one builder and
    frozen once.  Returns (diagram, circle edge id, merged-component
    representative edge, old-edge map, loops consumed); the map covers
    every edge that existed before the clasp, so every edge of ``d``."""
    b, (conn_a, conn_b), left = _band_merge_builder(d, band)
    # The clasp sits in the band's strip face, which lies opposite the
    # face the band crossed.  For arcs in one piece that is the only
    # face the connectors share (a 4-valent graph has no bridge);
    # across pieces both drawings fit, and the unmirrored one is taken.
    # A band at a loop leaves one arc, which the clasp meets twice.
    mirrored = conn_a != conn_b and not left and _same_piece(d, band.arc_a, band.arc_b)
    circle, (knot, fresh, _) = _clasp_across(b, conn_a, conn_b, mirrored)
    # the merged diagram is this one with the clasp's four crossings
    # smoothed away, so it is planar whenever this one is, and only
    # this freeze checks planarity
    final = b.freeze()
    emap = b.last_edge_map
    circle, knot = emap[circle], emap[knot]
    # every id from ``fresh`` on is a clasp piece or circle edge
    for e in range(fresh, b._next_edge):
        del emap[e]
    return final, circle, knot, emap, d.loops - final.loops


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
