"""The tuple-slot diagram builder that the flat builder replaced.

Each crossing held a list of four (edge id, end) slots, the end "h" for
the edge's head and "t" for its tail, in a dict keyed by crossing id;
``freeze`` re-derived heads, tails and the component walks from them.
It is kept here as a reference, the way ``test_input_path`` keeps the
old assembly: the flat builder's thaw, splits, smoothing and freeze must
give the same states, diagrams and edge maps.
"""

from tracekit import linkdiag as ld
from tracekit.errors import InconsistentEdges, InternalInvariantError, MalformedPD

HEAD = "h"
TAIL = "t"
# the ends at slots 0..3 of a negative crossing, then of a positive one
SLOT_ENDS = ((HEAD, HEAD, TAIL, TAIL), (HEAD, TAIL, TAIL, HEAD))


class RefBuilder:
    def __init__(self):
        self.cross: dict[int, list[tuple[int, str] | None]] = {}
        self.loops = 0
        self.name = None
        self._next_edge = 1
        self._next_cross = 0

    def new_edge_id(self) -> int:
        e = self._next_edge
        self._next_edge += 1
        return e

    def add_crossing(self, slots) -> int:
        cid = self._next_cross
        self._next_cross += 1
        self.cross[cid] = list(slots)
        return cid

    def occurrence(self, edge: int, end: str):
        occ = (edge, end)
        for cid, slots in self.cross.items():
            if occ in slots:
                return cid, slots.index(occ)
        raise InternalInvariantError(f"dangling edge end {edge}{end}")

    def split_edge(self, edge: int) -> tuple[int, int]:
        cid, s = self.occurrence(edge, HEAD)
        e2 = self.new_edge_id()
        self.cross[cid][s] = (e2, HEAD)
        return edge, e2

    def smooth(self, cids, kept=None):
        rename: dict[int, int] = {}

        def find(e: int) -> int:
            while e in rename:
                e = rename[e]
            return e

        for cid in cids:
            slots = self.cross.pop(cid)
            over_in = 1 if slots[1][1] == HEAD else 3
            for in_slot in (0, over_in):
                if kept is not None and slots[in_slot][0] not in kept:
                    continue
                a = find(slots[in_slot][0])
                z = find(slots[(in_slot + 2) % 4][0])
                if a == z:
                    self.loops += 1
                else:
                    rename[z] = a
        for other in self.cross.values():
            for s, (e, end) in enumerate(other):
                r = find(e)
                if r != e:
                    other[s] = (r, end)

    def _walk_components(self):
        h, t = HEAD, TAIL
        heads = [None] * self._next_edge
        tails = [None] * self._next_edge
        ends_seen = set()
        for cid, slots in self.cross.items():
            if None in slots:
                raise InternalInvariantError(f"crossing {cid} has empty slot")
            (e0, end0), (e1, end1), (e2, end2), (e3, end3) = slots
            if end0 != h or end2 != t:
                raise InternalInvariantError(f"crossing {cid} under-strand miswired")
            if {end1, end3} != {h, t}:
                raise InternalInvariantError(f"crossing {cid} over-strand miswired")
            ends_seen.update(slots)
            heads[e0] = (cid, 0)
            tails[e2] = (cid, 2)
            if end1 == h:
                heads[e1] = (cid, 1)
                tails[e3] = (cid, 3)
            else:
                heads[e3] = (cid, 3)
                tails[e1] = (cid, 1)
        if len(ends_seen) != 4 * len(self.cross):
            for e, end in ends_seen:
                n = sum(slots.count((e, end)) for slots in self.cross.values())
                if n != 1:
                    raise InconsistentEdges(f"edge {e} end {end} used {n} times")
        seen = [False] * self._next_edge
        comps = []
        for start, head in enumerate(heads):
            if head is None or seen[start]:
                continue
            cyc = []
            e = start
            while not seen[e]:
                if heads[e] is None or tails[e] is None:
                    raise InternalInvariantError("edge with missing end")
                seen[e] = True
                cyc.append(e)
                cid, s = heads[e]
                nxt = self.cross[cid][(s + 2) % 4]
                if nxt[1] != t:
                    raise InternalInvariantError("strand does not flow through")
                e = nxt[0]
            if e != start:
                raise InternalInvariantError("component walk did not close")
            comps.append(cyc)
        return comps, heads, tails

    def freeze(self) -> ld.LinkDiagram:
        comps, heads, tails = self._walk_components()
        edge_map = [0] * self._next_edge
        cross_map: dict[int, int] = {}
        nxt = 1
        for k, cyc in enumerate(comps):
            if len(cyc) == 2 and all(heads[e][1] % 2 and tails[e][1] % 2 for e in cyc):
                first, second = cyc
                c_head = heads[first][0]
                c_tail = heads[second][0]
                if (c_head not in cross_map and c_tail in cross_map) or (
                        c_head in cross_map and c_tail in cross_map
                        and cross_map[c_head] > cross_map[c_tail]):
                    comps[k] = cyc = [second, first]
            for e in cyc:
                edge_map[e] = nxt
                nxt += 1
                cid = heads[e][0]
                if cid not in cross_map:
                    cross_map[cid] = len(cross_map)
        crossings = []
        for new_id, cid in enumerate(cross_map):
            (e0, _), (e1, _), (e2, _), (e3, end3) = self.cross[cid]
            edges = (edge_map[e0], edge_map[e1], edge_map[e2], edge_map[e3])
            crossings.append(ld.Crossing(new_id, edges, 1 if end3 == HEAD else -1))
        components = tuple(tuple(edge_map[e] for e in cyc) for cyc in comps)
        self.last_edge_map = {e: edge_map[e] for cyc in comps for e in cyc}
        diagram = ld.LinkDiagram(tuple(crossings), components, self.loops, self.name)
        ref_validate_planarity(diagram)
        if diagram.num_components < 1:
            raise MalformedPD("diagram has no components")
        return diagram


def ref_validate_planarity(d):
    """Faces counted piece by piece."""
    if not d.crossings:
        return
    pieces = d.pieces
    corner_piece = [i for i in d.piece_of for _ in range(4)]
    per_piece = [0] * len(pieces)
    for f in d.face_corners:
        ids = set(map(corner_piece.__getitem__, f))
        if len(ids) != 1:
            raise InternalInvariantError("face walk crossed connected pieces")
        per_piece[ids.pop()] += 1
    for i, piece in enumerate(pieces):
        expected = len(piece) + 2
        if per_piece[i] != expected:
            raise MalformedPD(
                f"PD code is not planar (piece {i}: {per_piece[i]} faces, "
                f"expected {expected})"
            )


def ref_thaw(d) -> RefBuilder:
    b = RefBuilder()
    b.loops = d.loops
    b.name = d.name
    b._next_edge = max(map(max, d.components), default=0) + 1
    b._next_cross = len(d.crossings)
    for c in d.crossings:
        b.cross[c.id] = list(zip(c.edges, SLOT_ENDS[c.sign > 0]))
    return b


def slots_of(b) -> dict[int, list[tuple[int, str]]]:
    """A flat builder's live crossings as tuple slots, ends read off the
    signs."""
    return {c: list(zip(b.edges[4 * c:4 * c + 4], SLOT_ENDS[sign > 0]))
            for c, sign in enumerate(b.signs) if sign}


def from_flat(b) -> RefBuilder:
    """The tuple-slot builder holding a flat builder's state."""
    ref = RefBuilder()
    ref.cross = slots_of(b)
    ref.loops = b.loops
    ref.name = b.name
    ref._next_edge = b._next_edge
    ref._next_cross = len(b.signs)
    return ref
