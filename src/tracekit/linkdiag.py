"""Oriented link diagrams as PD (planar diagram) codes.

A crossing stores its four incident edge ids counterclockwise starting
from the incoming under-strand, so slots 0 and 2 carry the under-strand
(in/out) and slots 1 and 3 the over-strand.  The crossing sign is +1
exactly when the over-strand enters at slot 3.  Edge ids are numbered
consecutively along each component following its orientation, which is
what lets a bare PD code be reoriented unambiguously.

Zero-crossing unknot components ("loops") are first class and carried as
a count next to the edge-bearing components.

All public values are immutable; every operation returns a new diagram
in canonical form (components sorted by least edge id, edges renumbered
consecutively along components, crossings renumbered in walk order), so
structural equality is meaningful and serialization round-trips exactly.
"""

import json
import re
from collections import Counter, namedtuple
from functools import cached_property
from itertools import chain, count, groupby, repeat
from math import gcd
from typing import NamedTuple

from .errors import (
    BadComponentIndex,
    IllegalSite,
    InconsistentEdges,
    InputError,
    InternalInvariantError,
    MalformedPD,
    OrientationConflict,
    SameComponent,
    UnknownCatalogEntry,
)

Corner = tuple[int, int]  # (crossing id, slot); the region between slot and slot+1
Arc = int | tuple[str, int]  # edge id, or ("loop", k) for crossing-free components


class Crossing(NamedTuple):
    """One crossing of a PD code: edge ids counterclockwise from the
    incoming under-strand, plus the sign determined by orientation."""

    id: int
    edges: tuple[int, int, int, int]
    sign: int

    @property
    def over_in_slot(self) -> int:
        return 3 if self.sign > 0 else 1


class LinkDiagram(namedtuple("LinkDiagram", "crossings components loops name")):
    """A frozen diagram: a named tuple of its crossings, its components
    (edge ids in walk order), its crossing-free loop count and its name.
    Its derived structure (corner lists, faces, pieces, linking) is
    computed at most once, on first use, and shared by every caller, who
    must not mutate it.  The memo lives in the instance's ``__dict__``:
    it is no field, so equality, hashing and serialization, which read
    the tuple, ignore it, and it goes away with the diagram.  Every
    freeze and parse fills ``corner_edges`` and ``partner`` (in
    ``_canonical``), a diagram built directly on first use.  Either way
    the pieces are unions of components, joined at every crossing
    between two, so they need ``edge_component`` and no corner search.

    The memo numbers corner (c, s) as the int 4c+s, so crossing i must
    have id i."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, crossings: tuple[Crossing, ...], components: tuple[tuple[int, ...], ...],
                loops: int = 0, name: str | None = None):
        if loops < 0:
            raise MalformedPD(f"loops must be non-negative, got {loops}")
        # the flat memos index corners as 4 * id + slot
        for i, c in enumerate(crossings):
            if c.id != i:
                raise MalformedPD(f"crossing at position {i} has id {c.id}")
        return super().__new__(cls, crossings, components, loops, name)

    @property
    def num_components(self) -> int:
        return len(self.components) + self.loops

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(e for comp in self.components for e in comp))

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    @cached_property
    def edge_component(self) -> dict[int, int]:
        return {e: i for i, comp in enumerate(self.components) for e in comp}

    @cached_property
    def corner_edges(self) -> list[int]:
        """Corner ``4c+s`` -> the edge at slot s of crossing c."""
        return [e for c in self.crossings for e in c.edges]

    @cached_property
    def partner(self) -> list[int]:
        """Corner -> the corner at the other end of its edge."""
        return _pair_corners(self.corner_edges)

    @cached_property
    def corner_out(self) -> list[bool]:
        """Corner -> whether its edge leaves the crossing there."""
        return [out for c in self.crossings for out in _SLOT_OUT[c.sign > 0]]

    @cached_property
    def face_corners(self) -> list[list[int]]:
        return faces(self)

    @cached_property
    def face_of(self) -> list[int]:
        """Corner -> index of its face in ``face_corners``; ``faces`` fills it."""
        self.face_corners
        return self.__dict__["face_of"]

    @cached_property
    def pieces(self) -> list[set[int]]:
        return _pieces(self)

    @cached_property
    def piece_of(self) -> list[int]:
        """Crossing id -> index of its piece in ``pieces``; ``_pieces`` fills it."""
        self.pieces
        return self.__dict__["piece_of"]

    @cached_property
    def linking(self) -> tuple[tuple[int, ...], ...]:
        """Linking matrix, from one pass over the crossings: each
        crossing between components i and j adds half its sign."""
        n = self.num_components
        twice = [[0] * n for _ in range(n)]
        ec = self.edge_component
        # slots 0 and 1 carry the under- and the over-strand
        for _, (under, over, _, _), sign in self.crossings:
            i, j = ec[under], ec[over]
            if i != j:
                twice[i][j] += sign
                twice[j][i] += sign
        if any(x % 2 for row in twice for x in row):
            raise InternalInvariantError("odd inter-component crossing sum")
        return tuple(tuple(x // 2 for x in row) for row in twice)

    def head_of(self, edge: int) -> Corner:
        """(crossing, slot) where the edge flows into a crossing."""
        x = self.corner_edges.index(edge)
        if self.corner_out[x]:
            x = self.partner[x]
        return x >> 2, x & 3


class BandSpec(namedtuple("BandSpec", "arc_a arc_b framing coherent")):
    """An oriented band between two arcs on distinct components.

    Arcs are edge ids, or ("loop", k) to address the k-th crossing-free
    loop.  ``framing`` counts half-twists of the band (each adds one
    crossing between the band's sides, of the framing's sign); a band
    at a loop takes none.  ``coherent`` asserts the gluing matches the
    strand orientations and must be True for a merge.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, arc_a: Arc, arc_b: Arc, framing: int = 0, coherent: bool = True):
        if abs(framing) > CATALOG_MAX_SIZE:
            raise InputError(
                f"a band of {framing} half-twists would have {abs(framing)} "
                f"twist crossings; bands are limited to {CATALOG_MAX_SIZE}")
        loop_a, loop_b = isinstance(arc_a, tuple), isinstance(arc_b, tuple)
        if framing and (loop_a or loop_b):
            between = "between" if loop_a and loop_b else "on"
            raise OrientationConflict(f"twisted bands {between} bare loops are not supported")
        return super().__new__(cls, arc_a, arc_b, framing, coherent)


# ---------------------------------------------------------------------------
# construction core
# ---------------------------------------------------------------------------

# whether slots 0..3 hold their edge's tail, for a negative crossing and
# then a positive one: the under-strand runs from slot 0 to slot 2, and
# the over-strand enters at slot 3 exactly when the crossing is positive
_SLOT_OUT = ((False, False, True, True), (False, True, True, False))


def _pair_corners(edges: list[int], order: list[int] | None = None) -> list[int]:
    """Corner -> the corner at the other end of its edge, given each
    corner's edge id; every id must be used exactly twice.  ``order`` is
    the corners stably sorted by edge id (``assemble_pd`` passes the one
    it walks from), sorted here when not given.  Every id is used twice
    exactly when the ids at even positions of that order equal those at
    odd ones, a list comparison, and are distinct, a set; each edge's
    corners then sit side by side.  Otherwise ``_pairing_error`` names
    the edge refused."""
    if order is None:
        order = sorted(range(len(edges)), key=edges.__getitem__)
    labels = list(map(edges.__getitem__, order))
    evens = labels[0::2]
    if evens != labels[1::2] or 2 * len(set(evens)) != len(labels):
        raise InconsistentEdges(_pairing_error(edges))
    partner = [0] * len(edges)
    for x, y in zip(order[0::2], order[1::2]):
        partner[x] = y
        partner[y] = x
    return partner


def _pairing_error(edges: list[int]) -> str:
    """Why corners with these edge ids do not pair: the id whose third
    use comes first in corner order, or else the first id used once."""
    uses: dict[int, int] = {}
    for e in edges:
        k = uses[e] = uses.get(e, 0) + 1
        if k == 3:
            return f"edge {e} appears more than twice"
    return next(f"edge {e} appears once" for e in edges if uses[e] == 1)


def _reflect(edges: tuple[int, ...], sign: int):
    """Reverse a crossing's cyclic order; its slot ends follow the other
    sign's template, so the sign flips."""
    e0, e1, e2, e3 = edges
    return (e0, e3, e2, e1), -sign


def _switch(edges: tuple[int, ...], sign: int):
    """Swap a crossing's over- and under-strand: the over-in slot becomes
    slot 0 and the sign flips."""
    oi = 3 if sign > 0 else 1
    return edges[oi:] + edges[:oi], -sign


class _Builder:
    """Mutable, fully oriented diagram graph used by every constructor.

    It has a frozen diagram's layout: ``edges[4c+s]`` is the edge id at
    slot s of crossing c, and ``signs[c]`` the sign of crossing c, or 0
    once ``smooth`` has removed it (``freeze`` skips its corners, but
    ``split_edge`` would read them).  Which slots hold an edge's head and
    tail follows from the sign (``_SLOT_OUT``), so it is never stored.
    Edge ids are allocated from 1 up, and freezing orders components by
    their least id, renumbers everything canonically and validates.
    """

    last_edge_map: dict[int, int]

    def __init__(self, edges: list[int] | None = None, signs: list[int] | None = None,
                 next_edge: int = 1, loops: int = 0, name: str | None = None):
        self.edges = [] if edges is None else edges
        self.signs = [] if signs is None else signs
        self.loops = loops
        self.name = name
        self._next_edge = next_edge

    # -- primitives --------------------------------------------------------

    def new_edge_id(self) -> int:
        e = self._next_edge
        self._next_edge += 1
        return e

    def add_crossing(self, edges, sign: int) -> int:
        self.edges.extend(edges)
        self.signs.append(sign)
        return len(self.signs) - 1

    def head_corner(self, edge: int) -> int:
        """The corner where the edge flows into a crossing: whichever of
        its corners the crossing's sign makes a head."""
        edges, signs = self.edges, self.signs
        try:
            x = edges.index(edge)
            if _SLOT_OUT[signs[x >> 2] > 0][x & 3]:
                x = edges.index(edge, x + 1)
        except ValueError:
            raise InternalInvariantError(f"dangling head of edge {edge}") from None
        return x

    def split_edge(self, edge: int) -> tuple[int, int]:
        """Split an edge at an interior point; returns (tail half, head
        half).  The tail half keeps the old id and its head dangles, to be
        wired into a new crossing by the caller (same for the head half's
        tail)."""
        x = self.head_corner(edge)
        e2 = self.new_edge_id()
        self.edges[x] = e2
        return edge, e2

    def cut(self, arc: Arc, k: int) -> list[int]:
        """Cut an edge or a ``("loop", i)`` arc at k interior points;
        returns the k+1 pieces in flow order, their loose ends to be wired
        into new crossings by the caller.  An edge's first piece keeps its
        id.  A cut loop is used up (loops are interchangeable, so i is not
        read), and its first and last pieces are one fresh edge, numbered
        after the k-1 inner pieces: freeze starts a component's walk at
        its least id, so an all-fresh component's walk starts at the first
        inner piece."""
        if isinstance(arc, tuple):
            self.loops -= 1
            inner = [self.new_edge_id() for _ in range(k - 1)]
            g = self.new_edge_id()
            return [g, *inner, g]
        pieces = [arc]
        for _ in range(k):
            pieces.append(self.split_edge(pieces[-1])[1])
        return pieces

    def smooth(self, cids, kept=None):
        """Delete the given crossings, regluing their strands straight
        through; with ``kept``, only the strands whose edges are in it
        (the other strands are being deleted whole).  A strand that closes
        up becomes a crossing-free loop.  This implements R1/R2 removals
        and sublinks."""
        edges, signs = self.edges, self.signs
        rename: dict[int, int] = {}

        def find(e: int) -> int:
            while e in rename:
                e = rename[e]
            return e

        for cid in cids:
            x = 4 * cid
            for in_slot in (0, 3 if signs[cid] > 0 else 1):
                if kept is not None and edges[x + in_slot] not in kept:
                    continue
                a = find(edges[x + in_slot])
                z = find(edges[x + (in_slot ^ 2)])
                if a == z:
                    self.loops += 1
                else:
                    rename[z] = a
            signs[cid] = 0
        if rename:
            self.edges = [find(e) for e in edges]

    # -- freezing ------------------------------------------------------------

    def freeze(self) -> LinkDiagram:
        edges, signs = self.edges, self.signs
        n = self._next_edge
        # edge -> its head and tail corner, -1 for none
        heads = [-1] * n
        tails = [-1] * n
        for c, sign in enumerate(signs):
            if sign:
                x = 4 * c
                heads[edges[x]] = x
                tails[edges[x + 2]] = x + 2
                if sign > 0:
                    heads[edges[x + 3]] = x + 3
                    tails[edges[x + 1]] = x + 1
                else:
                    heads[edges[x + 1]] = x + 1
                    tails[edges[x + 3]] = x + 3
        # each live crossing sets two heads and two tails; one set twice
        # leaves fewer
        ends = 2 * (len(signs) - signs.count(0))
        if heads.count(-1) + ends != n or tails.count(-1) + ends != n:
            used = Counter((edges[4 * c + s], "t" if out else "h") for c, sign in enumerate(signs)
                           if sign for s, out in enumerate(_SLOT_OUT[sign > 0]))
            (e, end), k = used.most_common(1)[0]
            raise InconsistentEdges(f"edge {e} end {end} used {k} times")
        # a strand entering at corner x leaves at x ^ 2, which the sign
        # makes a tail, so every walk flows through; an edge missing its
        # tail is never walked into, so its walk meets one with no head.
        # A walked edge's head is cleared, so components start at their
        # least edge id.
        walk: list[int] = []  # head corners in walk order
        bounds = [1]
        for start, x in enumerate(heads):
            if x < 0:
                continue
            e = start
            while True:
                x = heads[e]
                if x < 0:
                    raise InternalInvariantError("edge with missing end")
                heads[e] = -1
                walk.append(x)
                e = edges[x ^ 2]
                if e == start:
                    break
            bounds.append(len(walk) + 1)
        diagram = _canonical(walk, bounds, self.loops, self.name)
        self.last_edge_map = dict(zip(map(edges.__getitem__, walk), count(1)))
        return diagram


def _canonical(heads: list[int], bounds: list[int], loops: int, name: str | None) -> LinkDiagram:
    """The canonical diagram of an oriented walk, which ``freeze`` and
    ``assemble_pd`` both end in.

    ``heads`` lists the corners 4c+s where edges flow into crossings,
    component by component in order of least edge, each from the head of
    that edge along the orientation; ``bounds`` holds each component's
    first new edge id, then one past the last, so ``heads[k - 1]`` is new
    edge k's head.  Crossings are numbered in order of first touch, an
    edge's tail is the corner opposite the previous head, and a crossing
    is positive exactly when its over-strand enters at slot 3, so the
    heads are all it reads.  A two-edge component lying entirely over
    other strands is the one case a bare PD code cannot orient by the
    numbering convention alone; its two heads are swapped, in place, if
    that puts the lower id's head at the lower crossing id, which is what
    parsing assumes for the tie-break.  The crossing order stays: the
    lower crossing was touched first."""
    # old crossing -> 4 * its new id, new ids in order of first touch
    order = dict.fromkeys(map((2).__rrshift__, heads))
    base = [0] * (max(order, default=0) + 1)
    for i, c in enumerate(order):
        base[c] = 4 * i
    corner_edges = [0] * (2 * len(heads))
    partner = [0] * (2 * len(heads))
    signs = [0] * len(order)
    for a, b in zip(bounds, bounds[1:]):
        if (b - a == 2 and heads[a - 1] & heads[a] & 1
                and base[heads[a - 1] >> 2] > base[heads[a] >> 2]):
            heads[a - 1], heads[a] = heads[a], heads[a - 1]
        # the first edge's tail is opposite the last head
        x = heads[b - 2]
        t = base[x >> 2] + (x & 3) ^ 2
        for e, x in enumerate(heads[a - 1:b - 1], a):
            h = base[x >> 2] + (x & 3)
            if x & 1:
                signs[h >> 2] = (x & 3) - 2
            corner_edges[h] = corner_edges[t] = e
            partner[h] = t
            partner[t] = h
            t = h ^ 2
    # Crossing's generated __new__ checks nothing, so tuple.__new__
    # builds the crossings in C, with no Python frame per crossing
    quads = zip(*[iter(corner_edges)] * 4)
    crossings = tuple(map(tuple.__new__, repeat(Crossing), zip(range(len(signs)), quads, signs)))
    components = tuple(map(tuple, map(range, bounds[:-1], bounds[1:])))
    diagram = LinkDiagram(crossings, components, loops, name)
    diagram.__dict__["corner_edges"] = corner_edges
    diagram.__dict__["partner"] = partner
    _validate_planarity(diagram)
    if diagram.num_components < 1:
        raise MalformedPD("diagram has no components")
    return diagram


def _thaw(d: LinkDiagram) -> _Builder:
    edges = d.corner_edges.copy()
    return _Builder(edges, [c.sign for c in d.crossings], max(edges, default=0) + 1,
                    d.loops, d.name)


def _pieces(d: LinkDiagram) -> list[set[int]]:
    """Connected pieces of the 4-valent graph, as sets of crossing ids in
    order of least crossing id.  Both strands at a crossing lie in its
    piece, so a piece is a union of components: join each crossing's
    under-strand component (slot 0) with its over-strand one (slot 1).
    The labels, numbered in piece order, stay in the memo as ``piece_of``.
    When every component joins one root, as in most diagrams, there is
    one piece, and the labels need no numbering or sort."""
    ec = d.edge_component
    corners = d.corner_edges
    under = list(map(ec.__getitem__, corners[0::4]))
    root = list(range(len(d.components)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for u, o in set(zip(under, map(ec.__getitem__, corners[1::4]))):
        root[find(u)] = find(o)
    roots = [find(i) for i in root]
    if len(set(roots)) == 1:
        d.__dict__["piece_of"] = [0] * len(under)
        return [set(range(len(under)))]
    label = list(map(roots.__getitem__, under))
    # dict keys keep the order of each label's least crossing
    number = {r: i for i, r in enumerate(dict.fromkeys(label))}
    piece_of = d.__dict__["piece_of"] = list(map(number.__getitem__, label))
    # a stable sort keeps each piece's crossings together, in piece order
    by_piece = sorted(range(len(label)), key=piece_of.__getitem__)
    return [set(g) for _, g in groupby(by_piece, piece_of.__getitem__)]


def is_connected(d: LinkDiagram) -> bool:
    return len(d.pieces) + d.loops == 1


def _after(values: list) -> list:
    """Per-corner values shifted by one slot: entry 4c+s holds the value
    of corner 4c+s+1 (4c for s = 3)."""
    out = values[1:] + values[:1]
    out[3::4] = values[0::4]
    return out


def faces(d: LinkDiagram) -> list[list[int]]:
    """Complementary regions of the diagram.  Each face is the cyclic
    list of crossing corners met walking its boundary; corner 4c+s is
    the region between slots s and s+1 of crossing c."""
    # the walk leaves a corner along the edge at its next slot and goes
    # on from that edge's other end
    step = _after(d.partner)
    # corner -> its face's index, None until walked; the diagram keeps it
    face_of = d.__dict__["face_of"] = [None] * len(step)
    out = []
    # each face starts at its least corner, so faces come in that order
    for start in range(len(step)):
        if face_of[start] is not None:
            continue
        i = len(out)
        face = []
        x = start
        while face_of[x] is None:
            face_of[x] = i
            face.append(x)
            x = step[x]
        out.append(face)
    return out


def _validate_planarity(d: LinkDiagram):
    if not d.crossings:
        return
    # a connected 4-valent graph of genus g has V + 2 - 2g faces (V - E +
    # F = 2 - 2g with E = 2V), so the total is V + 2 per piece exactly
    # when every piece is planar; a face walk never leaves its piece
    pieces = d.pieces
    if len(d.face_corners) == len(d.crossings) + 2 * len(pieces):
        return
    piece_of = d.piece_of
    per_piece = [0] * len(pieces)
    for f in d.face_corners:
        per_piece[piece_of[f[0] >> 2]] += 1
    for i, piece in enumerate(pieces):
        expected = len(piece) + 2
        if per_piece[i] != expected:
            raise MalformedPD(
                f"PD code is not planar (piece {i}: {per_piece[i]} faces, "
                f"expected {expected})"
            )


def face_edge_parities(d: LinkDiagram) -> list[list[tuple[int, bool]]]:
    """For each face, the edges along its boundary walk together with a
    flag: True when the edge is traversed along its own orientation."""
    edges, out = _after(d.corner_edges), _after(d.corner_out)
    return [[(edges[x], out[x]) for x in f] for f in d.face_corners]


def _end_face(face_of: list[int], z: int) -> int:
    """The face whose walk runs along corner z's edge from z: the face at
    the corner before z (4c+s-1, or 4c+3 for s = 0)."""
    return face_of[z - 1 if z & 3 else z + 3]


def _edge_places(d: LinkDiagram, e: int) -> list[tuple[int, bool]]:
    """The edge's two (face index, parity) places on the face walks, one
    per end."""
    x = d.corner_edges.index(e)
    face_of, out = d.face_of, d.corner_out
    return [(_end_face(face_of, z), out[z]) for z in (x, d.partner[x])]


def _face_sides(d: LinkDiagram, a: int, b: int) -> set[tuple[bool, bool]]:
    """(parity of a, parity of b) over every face whose walk meets both
    edges.  Face walks keep their region on the right, so a parity of
    True puts the face to the right of the edge."""
    places_b = _edge_places(d, b)
    return {(pa, pb) for fa, pa in _edge_places(d, a) for fb, pb in places_b if fa == fb}


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

_TUPLE_RE = re.compile(r"[Xx]?\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
# a tuple, a loop marker, or any other run of characters up to a comma
# or whitespace, which parse_pd rejects
_TOKEN_RE = re.compile(r"[Xx]?\s*\([^)]*\)|O|[^\s,]+")


def parse_pd(text: str, name: str | None = None) -> "LinkDiagram":
    """Parse a PD code: 4-tuples ``X(a,b,c,d)`` (or bare ``(a,b,c,d)``)
    and ``O`` markers for crossing-free loops, separated by commas and
    any whitespace; any other token is malformed.  Edge ids are labels,
    as in link JSON, so 0 is one.  Orientations follow the PD convention
    (see ``assemble_pd``)."""
    tuples: list[tuple[int, int, int, int]] = []
    nloops = 0
    for tok in _TOKEN_RE.findall(text):
        if tok == "O":
            nloops += 1
            continue
        tm = _TUPLE_RE.fullmatch(tok)
        if tm is None:
            raise MalformedPD(f"unrecognized PD token {tok!r}")
        try:
            tuples.append(tuple(map(int, tm.groups())))
        except ValueError as exc:  # an id longer than sys.get_int_max_str_digits()
            raise MalformedPD(f"bad PD tuple: {exc}") from exc
    if not tuples and nloops == 0:
        raise MalformedPD("empty PD code")
    return assemble_pd(tuples, nloops, name, strict_under=True)


def assemble_pd(
    tuples: list[tuple[int, int, int, int]],
    nloops: int = 0,
    name: str | None = None,
    strict_under: bool = True,
) -> LinkDiagram:
    """Build a diagram from raw PD tuples, inferring orientations.

    Corner 4c+s is slot s of tuple c.  A strand enters at corner x and
    leaves at x ^ 2, so the heads of one orientation of a component are
    the orbit of x -> partner[x ^ 2] from the first corner of its least
    edge, and those of the other are its corners x ^ 2 in reverse order.
    With ``strict_under`` slot 0 is the incoming under-strand (the PD
    convention), so a walk meeting slot 0 keeps its orientation, one
    meeting slot 2 reverses it and one meeting both is a conflict.
    Without it, tuples are rotated as needed.  A component passing only
    over, or in free mode a conflicted one, goes along increasing edge
    numbers: the way with more steps e -> e + 1, the walk's on a tie.
    Each component is walked once, in order of least edge, and its heads
    go to ``_canonical``, which numbers them as ``freeze`` would."""
    if nloops < 0:
        raise MalformedPD(f"loops must be non-negative, got {nloops}")
    if nloops > CATALOG_MAX_SIZE:
        raise MalformedPD(f"{nloops} loops; link diagrams are limited to {CATALOG_MAX_SIZE}")
    edges = list(chain.from_iterable(tuples))
    # every id is used twice, so a stable sort by id puts each edge's
    # first corner at an even position, in order of edge id, and its
    # second right after it, which is how the corners pair
    order = sorted(range(len(edges)), key=edges.__getitem__)
    partner = _pair_corners(edges, order)
    heads: list[int] = []
    bounds = [1]
    walked: set[int] = set()
    for x0 in order[::2]:
        if x0 in walked or partner[x0] in walked:
            continue  # on a component already walked
        walk, x = [x0], x0
        while (x := partner[x ^ 2]) != x0:
            walk.append(x)
        walked.update(walk)
        under = {x & 3 for x in walk} & {0, 2}
        if strict_under and len(under) == 2:
            raise OrientationConflict(
                f"component {sorted(edges[x] for x in walk)} cannot satisfy "
                "the under-strand convention"
            )
        if len(under) == 1:
            forward = 0 in under
        else:
            steps = [(edges[x], edges[x ^ 2]) for x in walk]
            forward = sum(b == a + 1 for a, b in steps) >= sum(a == b + 1 for a, b in steps)
        # reversed, the heads are the walk's exits x ^ 2, last first
        heads += walk if forward else map((2).__xor__, reversed(walk))
        bounds.append(len(heads) + 1)
    if not strict_under:
        # only free mode leaves an under-strand entering at slot 2; its
        # crossing turns by two slots
        turned = {x >> 2 for x in heads if x & 3 == 2}
        if turned:
            heads = [x ^ 2 if x >> 2 in turned else x for x in heads]
    return _canonical(heads, bounds, nloops, name)


def serialize_pd(d: LinkDiagram) -> str:
    parts = [f"X({','.join(map(str, c.edges))})" for c in d.crossings]
    parts.extend(["O"] * d.loops)
    return ", ".join(parts)


def to_json_dict(d: LinkDiagram, framings: list[int] | None = None) -> dict:
    out = {
        "name": d.name or "",
        "pd": [list(c.edges) for c in d.crossings],
        "loops": d.loops,
    }
    if framings is not None:
        out["framings"] = list(framings)
    return out


def json_int(value, what: str) -> int:
    """A JSON integer: an int that is not a bool.  Floats, strings and
    true/false are malformed, never coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise MalformedPD(f"{what} must be an integer, got {value!r}")


def from_json_dict(data: dict) -> tuple[LinkDiagram, list[int] | None]:
    try:
        pd = data["pd"]
        # a list of lists of plain ints passes one type test over all its
        # entries; any other pd is read row by row, entry by entry, so its
        # first bad row or entry names itself
        if (type(pd) is list and set(map(type, pd)) <= {list}
                and set(map(type, chain.from_iterable(pd))) <= {int}):
            pd = list(map(tuple, pd))
        else:
            pd = [tuple(json_int(x, "pd entry") for x in t) for t in map(tuple, pd)]
        nloops = json_int(data.get("loops", 0), "loops")
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise MalformedPD(f"link name must be a string, not {name!r}")
        name = name or None
        framings = data.get("framings")
        if framings is not None:
            framings = [json_int(x, "framing") for x in framings]
    except (KeyError, TypeError) as exc:
        raise MalformedPD(f"bad link JSON: {exc}") from exc
    if set(map(len, pd)) - {4}:
        raise MalformedPD("pd rows must have four entries")
    d = assemble_pd(pd, nloops, name, strict_under=True)
    return d, framings


def dumps(d: LinkDiagram, framings: list[int] | None = None) -> str:
    return json.dumps(to_json_dict(d, framings), sort_keys=True)


def decode_json(text: str, what: str = "JSON", error: type[InputError] = MalformedPD):
    """The value of JSON ``text``; text that does not decode raises
    ``error("bad <what>: ...")``, in the input band."""
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer longer than
    # sys.get_int_max_str_digits(); deep nesting is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise error(f"bad {what}: {exc}") from exc


def loads(text: str) -> tuple[LinkDiagram, list[int] | None]:
    return from_json_dict(decode_json(text))


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def mirror(d: LinkDiagram) -> LinkDiagram:
    """Swap over- and under-strands everywhere: all signs negate, the
    components and orientations are untouched."""
    b = _thaw(d)
    b.edges.clear()
    b.signs.clear()
    for c in d.crossings:
        b.add_crossing(*_switch(c.edges, c.sign))
    return b.freeze()


def reverse_component(d: LinkDiagram, index: int) -> LinkDiagram:
    """Reverse the orientation of one edge-bearing component."""
    if not 0 <= index < len(d.components):
        raise BadComponentIndex(f"no edge component {index}")
    comp = set(d.components[index])
    b = _thaw(d)
    for c in d.crossings:
        # a reversed under-strand enters at slot 2, so the slots turn by
        # two; reversing one strand but not the other flips the sign
        under, over = c.edges[0] in comp, c.edges[1] in comp
        if under:
            b.edges[4 * c.id:4 * c.id + 4] = c.edges[2:] + c.edges[:2]
        if under != over:
            b.signs[c.id] = -c.sign
    return b.freeze()


def _component_of_arc(d: LinkDiagram, arc: Arc, error: type[Exception]) -> int:
    """The component an arc lies on; a missing arc raises ``error``."""
    if isinstance(arc, tuple):
        kind, k = arc
        if kind != "loop" or not 0 <= k < d.loops:
            raise error(f"bad loop arc {arc}")
        return len(d.components) + k
    ec = d.edge_component
    if arc not in ec:
        raise error(f"no edge {arc}")
    return ec[arc]


def linking_number(d: LinkDiagram, i: int, j: int) -> int:
    """Half the signed count of crossings between components i and j."""
    n = d.num_components
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise BadComponentIndex(f"bad component pair ({i}, {j})")
    return d.linking[i][j]


def linking_matrix(d: LinkDiagram) -> list[list[int]]:
    """A fresh copy of the linking matrix, free for the caller to edit."""
    return [list(row) for row in d.linking]


def total_linking(d: LinkDiagram) -> int:
    return sum(x for i, row in enumerate(d.linking) for x in row[i + 1:])


def is_alternating(d: LinkDiagram) -> bool:
    """True when every strand alternates over/under passes; crossing-free
    components are vacuously alternating."""
    partner = d.partner
    # an edge leaves over unless from slot 2 and arrives over unless at slot 0
    return all((x & 3 == 2) != (partner[x] & 3 == 0)
               for x, out in enumerate(d.corner_out) if out)


# ---------------------------------------------------------------------------
# band merges
# ---------------------------------------------------------------------------

def _same_piece(d: LinkDiagram, a: int, b: int) -> bool:
    at = d.corner_edges.index
    return d.piece_of[at(a) >> 2] == d.piece_of[at(b) >> 2]


def band_merge(d: LinkDiagram, band: BandSpec) -> LinkDiagram:
    return _band_merge_builder(d, band)[0].freeze()


def _band_merge_builder(d: LinkDiagram, band: BandSpec):
    """The band merge, unfrozen: (builder, band-side arcs in its ids,
    whether the band runs through a face to the left of arc_a).  The
    band-side arcs sit across one section of the band, where a clasping
    surgery circle fits."""
    if not band.coherent:
        raise OrientationConflict("band gluing reverses orientation")
    ca = _component_of_arc(d, band.arc_a, BadComponentIndex)
    cb = _component_of_arc(d, band.arc_b, BadComponentIndex)
    if ca == cb:
        raise SameComponent("band endpoints on one component")
    if isinstance(band.arc_a, tuple) or isinstance(band.arc_b, tuple):
        # a loop banded to an arc merges into it with no crossing, and two
        # loops into one loop: both band sides lie on the remaining arc
        b = _thaw(d)
        b.loops -= 1
        arc = band.arc_b if isinstance(band.arc_a, tuple) else band.arc_a
        return b, (arc, arc), False

    # A coherent band runs through a shared face along which the arcs
    # are anti-parallel (equal parities) for an even half-twist count and
    # parallel for an odd one; arcs in different pieces meet either way.
    anti = band.framing % 2 == 0
    if _same_piece(d, band.arc_a, band.arc_b):
        sides = _face_sides(d, band.arc_a, band.arc_b)
        lefts = {not x for x, y in sides if (x == y) == anti}
        if not lefts:
            raise OrientationConflict(
                f"no face admits a coherent band between edges {band.arc_a} and "
                f"{band.arc_b} with {band.framing} half-twists"
            )
    else:
        lefts = {True, False}
    positive = band.framing > 0
    left = positive if positive in lefts else not positive
    return *_band_build(d, band, left), left


def _band_build(d: LinkDiagram, band: BandSpec, left: bool):
    """Wire a band between two edges into a thawed copy of d, through a
    face to the left of arc_a (or to its right), with abs(framing) twist
    crossings that carry the sign of the framing.  Returns (builder,
    band-side arcs in its ids)."""
    b = _thaw(d)
    a1, g1 = band.arc_a, band.arc_b
    # connector A carries a1 -> (rest of arc_b); connector B the reverse
    xa, xg = b.head_corner(a1), b.head_corner(g1)
    b.edges[xa], b.edges[xg] = g1, a1
    m = abs(band.framing)
    apiece, bpiece = b.cut(a1, m), b.cut(g1, m)
    anti = m % 2 == 0  # coherence forces the relative direction
    for k in range(m):
        a_in, a_out = apiece[k], apiece[k + 1]
        if anti:
            b_in, b_out = bpiece[m - 1 - k], bpiece[m - k]
        else:
            b_in, b_out = bpiece[k], bpiece[k + 1]
        if k % 2 == 0:
            crossing = (a_in, b_in, a_out, b_out), -1
        else:
            crossing = (b_in, a_in, b_out, a_out), -1
        if left:
            crossing = _reflect(*crossing)
        if (crossing[1] > 0) != (band.framing > 0):
            crossing = _switch(*crossing)
        b.add_crossing(*crossing)
    return b, (apiece[0], bpiece[-1])


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------

def r_moves(d: LinkDiagram, move: str, site) -> LinkDiagram:
    """Apply one Reidemeister move.

    move/site forms:
      "R1+": (edge_or_loop, chirality ±1, flavor 0|1)
      "R1-": crossing id of a kink
      "R2+": (over_arc, under_arc) edges sharing a face, or a loop over an
             edge as (("loop", k), edge)
      "R2-": (crossing id, crossing id) of a cancellable bigon
    """
    if move == "R1+":
        arc, chirality, flavor = site
        return _r1_insert(d, arc, chirality, flavor)
    if move == "R1-":
        return _r1_remove(d, site)
    if move == "R2+":
        over, under = site
        return _r2_insert(d, over, under)
    if move == "R2-":
        c1, c2 = site
        return _r2_remove(d, c1, c2)
    raise IllegalSite(f"unknown move {move!r}")


def _r1_insert(d: LinkDiagram, arc: Arc, chirality: int, flavor: int) -> LinkDiagram:
    if chirality not in (1, -1) or flavor not in (0, 1):
        raise IllegalSite("R1 wants chirality ±1 and flavor 0|1")
    _component_of_arc(d, arc, IllegalSite)
    b = _thaw(d)
    e1, e2 = b.cut(arc, 1)
    f = b.new_edge_id()
    # a positive kink, passing e1 -> f under and then over to e2 for
    # flavor 0, over and then under for flavor 1; reflected, it is negative
    crossing = ((e1, e2, f, f) if flavor == 0 else (f, f, e2, e1)), 1
    b.add_crossing(*(crossing if chirality > 0 else _reflect(*crossing)))
    return b.freeze()


def _kink_pattern(d: LinkDiagram, cid: int) -> int | None:
    """Return the loop edge of a kink crossing, else None."""
    if not 0 <= cid < len(d.crossings):
        return None
    c = d.crossings[cid]
    oi = c.over_in_slot
    oo = 4 - oi
    for loop_slots in ((2, oi), (oo, 0)):
        if c.edges[loop_slots[0]] == c.edges[loop_slots[1]]:
            return c.edges[loop_slots[0]]
    return None


def _r1_remove(d: LinkDiagram, cid: int) -> LinkDiagram:
    if _kink_pattern(d, cid) is None:
        raise IllegalSite(f"crossing {cid} is not a kink")
    b = _thaw(d)
    b.smooth([cid])
    return b.freeze()


def _r2_insert(d: LinkDiagram, over: Arc, under: Arc) -> LinkDiagram:
    if isinstance(under, tuple):
        raise IllegalSite("loop R2 is supported with the loop passing over")
    if not isinstance(over, tuple):
        return _r2_insert_mapped(d, over, under)[0]
    _component_of_arc(d, over, IllegalSite)
    _component_of_arc(d, under, IllegalSite)
    # a loop pushed over one strand is a 1-1 tangle, planar either way round
    return _r2_build(d, over, under, anti=False, mirrored=False)[0]


def _r2_insert_mapped(d: LinkDiagram, over: int, under: int):
    """R2 push returning (diagram, old edge -> new edge map)."""
    if over not in d.edge_component or under not in d.edge_component:
        raise IllegalSite("R2 site edges missing")
    if over == under:
        raise IllegalSite("R2 needs two distinct arcs")
    if _same_piece(d, over, under):
        sides = _face_sides(d, over, under)
        if not sides:
            raise IllegalSite(f"edges {over} and {under} share no face")
        # where two faces fit, prefer anti-parallel, then right of ``over``
        po, pu = max(sides, key=lambda side: (side[0] == side[1], side[0]))
    else:
        po = pu = True  # separate pieces can always be brought side by side
    return _r2_build(d, over, under, po == pu, not po)


def _r2_build(d: LinkDiagram, over: Arc, under: int, anti: bool, mirrored: bool):
    """Push ``over`` across ``under`` through a face where they run
    anti-parallel or parallel; ``mirrored`` reverses each crossing's
    cyclic order, for a face left of ``over``."""
    b = _thaw(d)
    e1, e2 = b.cut(over, 1)
    me = b.new_edge_id()
    g1, g2 = b.cut(under, 1)
    mg = b.new_edge_id()
    if anti:
        pattern = [((mg, e1, g2, me), -1), ((g1, e2, mg, me), 1)]
    else:
        pattern = [((g1, me, mg, e1), 1), ((mg, me, g2, e2), -1)]
    for crossing in pattern:
        b.add_crossing(*(_reflect(*crossing) if mirrored else crossing))
    frozen = b.freeze()
    return frozen, dict(b.last_edge_map)


def _r2_remove(d: LinkDiagram, c1: int, c2: int) -> LinkDiagram:
    n = len(d.crossings)
    if not (0 <= c1 < n and 0 <= c2 < n) or c1 == c2:
        raise IllegalSite(f"bad crossing pair ({c1}, {c2})")
    for f in d.face_corners:
        if len(f) != 2:
            continue
        xa, xb = f
        if {xa >> 2, xb >> 2} != {c1, c2}:
            continue
        # bigon edges sit at the slots after corners xa (= walk to xb) and
        # xb; the pair cancels when each bigon edge keeps one strand type
        # at both ends
        if (xa + 1) % 2 != xb % 2:
            continue
        if d.crossings[c1].sign == d.crossings[c2].sign:
            raise InternalInvariantError("R2 bigon with equal signs")
        b = _thaw(d)
        b.smooth([c1, c2])
        return b.freeze()
    raise IllegalSite(f"crossings ({c1}, {c2}) do not bound a cancellable bigon")


# ---------------------------------------------------------------------------
# braid closures and catalog
# ---------------------------------------------------------------------------

def from_braid(word: list[int], strands: int | None = None, name: str | None = None) -> LinkDiagram:
    """Closure of a braid word; letter ±i crosses strand positions i, i+1
    with the sign of the letter (positive letters make positive
    crossings).  Positions untouched by the word close into loops."""
    if strands is None:
        strands = max((abs(x) for x in word), default=1) + 1
    if any(x == 0 or abs(x) >= strands for x in word):
        raise MalformedPD("braid letter out of range")
    # the closure leaves each position along its start edge, so the last
    # letter at a position wires that edge; an untouched position is a loop
    last = [-1] * strands
    for k, letter in enumerate(word):
        last[abs(letter) - 1] = last[abs(letter)] = k
    b = _Builder(loops=last.count(-1), name=name)
    start = [b.new_edge_id() for _ in range(strands)]
    cur = list(start)
    for k, letter in enumerate(word):
        i = abs(letter) - 1
        e_i, e_j = cur[i], cur[i + 1]
        f_i = start[i] if last[i] == k else b.new_edge_id()
        f_j = start[i + 1] if last[i + 1] == k else b.new_edge_id()
        if letter > 0:
            # strand arriving from position i+1 passes over to position i
            b.add_crossing((e_i, f_i, f_j, e_j), 1)
        else:
            b.add_crossing((e_j, e_i, f_i, f_j), -1)
        cur[i], cur[i + 1] = f_i, f_j
    return b.freeze()


def sublink(d: LinkDiagram, keep) -> LinkDiagram:
    """Diagram of the sublink spanned by the given component indices.
    Crossings with a discarded strand are smoothed away, keeping the
    surviving strand straight."""
    keep = set(keep)
    n = d.num_components
    if not keep or any(not 0 <= i < n for i in keep):
        raise BadComponentIndex(f"bad component set {sorted(keep)}")
    ec = d.edge_component
    b = _thaw(d)
    b.loops = sum(1 for i in keep if i >= len(d.components))
    b.smooth([c.id for c in d.crossings
              if not (ec[c.edges[0]] in keep and ec[c.edges[1]] in keep)],
             {e for e in d.edges if ec[e] in keep})
    return b.freeze()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = (
    "unknot", "unlink", "hopf", "trefoil", "figure8", "whitehead",
    "borromean", "twist_family",
)

_TREFOIL_RIGHT = "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)"
_HOPF_POSITIVE = "X(1,4,2,3), X(4,1,3,2)"
_FIGURE8 = "X(4,2,5,1), X(8,6,1,5), X(6,3,7,4), X(2,7,3,8)"


def _parse_sign(param) -> int:
    if param in (1, "+", "+1", "p", None):
        return 1
    if param in (-1, "-", "-1", "m"):
        return -1
    raise UnknownCatalogEntry(f"bad sign parameter {param!r}")


def _int_param(name: str, param) -> int:
    try:
        return int(param)
    except ValueError as exc:
        raise InputError(f"{name} needs an integer parameter, got {param!r}") from exc


# the most crossings plus loops a catalog diagram may have; larger
# parameters are refused before anything is built.  It also bounds a
# band's twist crossings, a weighted partition's 2g genus 1-handles and
# the loops of any diagram read from PD text or link JSON.
CATALOG_MAX_SIZE = 10_000


def _check_catalog_size(label: str, size: int):
    if size > CATALOG_MAX_SIZE:
        raise InputError(
            f"{label} would have {size} crossings and loops; catalog diagrams "
            f"are limited to {CATALOG_MAX_SIZE}")


def _twist_family(n: int) -> LinkDiagram:
    """The two-component family anchored at the parallel (2,4)-torus
    link: entry n is the 2-bridge link of fraction (6n-4)/(2n-1), with
    the component orientation fixed by total linking >= 0.  For n <= 0
    these diagrams are connected and alternating; n = 1 is the Hopf link
    and n = 2 the Whitehead link."""
    p, q = 6 * n - 4, 2 * n - 1
    if p < 0:
        p, q = -p, -q
    # the standard diagram has one crossing per unit of the continued
    # fraction, which Euclid's algorithm gives in O(log n) steps
    _check_catalog_size(f"twist_family({n})", sum(_positive_continued_fraction(p, q)))
    d = rational_link(p, q, f"twist_family({n})")
    if d.num_components != 2:
        raise InternalInvariantError("twist family entry is not a 2-component link")
    if linking_number(d, 0, 1) < 0:
        d = reverse_component(d, 1)
    return d


_PARAMETERLESS = ("unknot", "figure8", "whitehead", "borromean")


def catalog(name: str, param=None) -> LinkDiagram:
    """Fixed generator diagrams: unknot, unlink(n), hopf(sign),
    trefoil(sign), figure8, whitehead, borromean, twist_family(n).
    ``param`` is None for an entry that takes no parameter."""
    if name in _PARAMETERLESS and param is not None:
        raise InputError(f"{name} takes no parameter, got {param!r}")
    if name == "unknot":
        return parse_pd("O", "unknot")
    if name == "unlink":
        n = _int_param(name, param if param is not None else 2)
        if n < 1:
            raise UnknownCatalogEntry("unlink needs n >= 1")
        _check_catalog_size(f"unlink({n})", n)
        return parse_pd(", ".join(["O"] * n), f"unlink({n})")
    if name == "hopf":
        sign = _parse_sign(param)
        d = parse_pd(_HOPF_POSITIVE, f"hopf({'+' if sign > 0 else '-'})")
        return d if sign > 0 else mirror(d)
    if name == "trefoil":
        sign = _parse_sign(param)
        d = parse_pd(_TREFOIL_RIGHT, f"trefoil({'+' if sign > 0 else '-'})")
        return d if sign > 0 else mirror(d)
    if name == "figure8":
        return parse_pd(_FIGURE8, "figure8")
    if name == "whitehead":
        return rational_link(8, 3, "whitehead")
    if name == "borromean":
        return from_braid([1, -2, 1, -2, 1, -2], name="borromean")
    if name == "twist_family":
        if param is None:
            raise UnknownCatalogEntry("twist_family needs an integer parameter")
        return _twist_family(_int_param(name, param))
    raise UnknownCatalogEntry(f"unknown catalog entry {name!r}")


def twist_family_merge_band(n: int) -> BandSpec:
    """The designated band merging twist_family(n <= 0) into a diagram
    with right-trefoil invariants."""
    if n > 0:
        raise UnknownCatalogEntry("designated band exists for n <= 0 only")
    return BandSpec(1, 6 - 2 * n)


def borromean_merge_band() -> BandSpec:
    """The designated untwisted band merging two Borromean components
    into a diagram with the catalog Whitehead link's invariants."""
    return BandSpec(2, 10)


def _positive_continued_fraction(p: int, q: int) -> list[int]:
    """All-positive, odd-length continued fraction [a1, a2, ...] with
    p/q = a1 + 1/(a2 + 1/(...)), p > q >= 1.  Odd length lets the twist
    regions of the standard 2-bridge diagram start and end horizontal."""
    out = []
    while q:
        out.append(p // q)
        p, q = q, p % q
    if out[-1] == 1 and len(out) > 1:
        out[-2] += 1
        out.pop()
    if len(out) % 2 == 0:
        if out[-1] > 1:
            out[-1] -= 1
            out.append(1)
        else:
            out[-2] += 1
            out.pop()
    return out


def rational_link(p: int, q: int, name: str | None = None, flip: bool = False) -> LinkDiagram:
    """Standard alternating diagram of the 2-bridge link with fraction
    p/q = a1 + 1/(a2 + 1/(...)), p > q >= 1 coprime.

    The tangle starts as two horizontal strands; odd-position blocks a1,
    a3, ... twist the two right endpoints, even-position blocks the two
    bottom endpoints, and the result is closed with arcs NW-NE and SW-SE.
    ``flip`` mirrors every crossing.  Orientations are inferred after
    closing, so use ``reverse_component`` to pin a relative orientation.
    """
    if p <= 0 or q <= 0 or q >= p or gcd(p, q) != 1:
        raise UnknownCatalogEntry(f"bad 2-bridge fraction {p}/{q}")
    cf = _positive_continued_fraction(p, q)
    next_edge = 1

    def fresh():
        nonlocal next_edge
        next_edge += 1
        return next_edge - 1

    nw = fresh()
    sw = fresh()
    ne, se = nw, sw
    tuples: list[tuple[int, int, int, int]] = []
    # build innermost block first, so the final (and first) block is
    # horizontal and the tangle fraction reads a1 + 1/(a2 + ...)
    for depth, a in enumerate(reversed(cf)):
        horizontal = depth % 2 == 0
        for _ in range(a):
            x = fresh()
            y = fresh()
            if horizontal:
                top_over = not flip
                if top_over:
                    # under strand runs SW-port -> NE-port of the crossing
                    tuples.append((se, y, x, ne))
                else:
                    tuples.append((ne, se, y, x))
                ne, se = x, y
            else:
                right_over = flip
                if right_over:
                    tuples.append((sw, x, y, se))
                else:
                    tuples.append((se, sw, x, y))
                sw, se = x, y
    remap = {ne: nw, se: sw}
    if ne == nw or se == sw:
        raise InternalInvariantError("degenerate rational closure")
    tuples = [tuple(remap.get(e, e) for e in t) for t in tuples]
    return assemble_pd(tuples, 0, name, strict_under=False)
