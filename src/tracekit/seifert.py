"""Seifert surfaces from diagrams, via braid normalization.

The oriented smoothing of a connected diagram yields the Seifert
circles.  When the circles are nested coherently (every face is free of
same-direction arcs from two different circles) the diagram is a closed
braid; otherwise a sequence of oriented R2 moves (pushing one offending
arc across its face over the other) makes it one without changing the
link.  The braid word is then read off circle by circle, and the Seifert
matrix of the closed-braid surface is assembled from the local data of
its disk-and-band decomposition: each band contributes -sign/2 to the
framing of the loops through it, consecutive loops over one generator
pair through their shared band, and loops over adjacent generators pair
exactly when their band positions interleave.
"""

from typing import NamedTuple

from .errors import DisconnectedDiagram, InternalInvariantError
from .linkdiag import LinkDiagram, face_edge_parities, is_connected, r_moves


class SeifertData(NamedTuple):
    """Surface data produced by the oriented smoothing of a (possibly
    braid-normalized) presentation of the link."""

    seifert_matrix: tuple[tuple[int, ...], ...]
    circle_count: int
    crossing_count: int
    boundary_components: int

    @property
    def surface_euler(self) -> int:
        return self.circle_count - self.crossing_count

    @property
    def genus(self) -> int:
        return (2 - self.surface_euler - self.boundary_components) // 2

    @property
    def rank(self) -> int:
        return 1 - self.surface_euler


def seifert_circles(d: LinkDiagram) -> list[list[int]]:
    """Cycles of edges under the oriented smoothing: at each crossing the
    incoming under-strand continues as the outgoing over-strand and vice
    versa.  Crossing-free loops are not included."""
    successor: dict[int, int] = {}
    for c in d.crossings:
        oi = c.over_in_slot
        successor[c.edges[0]] = c.edges[4 - oi]
        successor[c.edges[oi]] = c.edges[2]
    cycles = []
    seen: set[int] = set()
    for e0 in sorted(successor):
        if e0 in seen:
            continue
        cyc = []
        e = e0
        while e not in seen:
            seen.add(e)
            cyc.append(e)
            e = successor[e]
        cycles.append(cyc)
    return cycles


def _circle_of_edge(circles) -> dict[int, int]:
    out = {}
    for i, cyc in enumerate(circles):
        for e in cyc:
            out[e] = i
    return out


def _admissible_site(d: LinkDiagram) -> tuple[int, int] | None:
    """A face carrying arcs of two distinct Seifert circles with the same
    boundary-walk parity admits a coherence-restoring R2 push."""
    circ = _circle_of_edge(seifert_circles(d))
    for walk in face_edge_parities(d):
        for i, (e1, p1) in enumerate(walk):
            for e2, p2 in walk[i + 1:]:
                if p1 == p2 and circ[e1] != circ[e2]:
                    return (e1, e2)
    return None


def braid_form(d: LinkDiagram) -> LinkDiagram:
    """Apply coherence-restoring R2 moves until the Seifert circles are
    nested coherently (the diagram is a closed braid)."""
    limit = 4 * (len(d.crossings) + 4) ** 2
    steps = 0
    while True:
        site = _admissible_site(d)
        if site is None:
            return d
        d = r_moves(d, "R2+", site)
        steps += 1
        if steps > limit:
            raise InternalInvariantError("braid normalization did not terminate")


def braid_word(d: LinkDiagram) -> tuple[list[int], int]:
    """Read the braid word off a braid-form diagram.

    Returns (word, strands); letter ±i means a crossing of that sign
    between strands i and i+1 (1-based).  Words from different cuts of
    the same diagram are conjugate, which all downstream invariants
    ignore."""
    circles = seifert_circles(d)
    circ = _circle_of_edge(circles)
    s = len(circles)
    if s == 1:
        if d.crossings:
            raise InternalInvariantError("one Seifert circle but crossings remain")
        return [], 1

    # bands join the circle of the under-in edge to the circle of the
    # over-in edge; in braid form these are adjacent in the nesting order
    band_ends = {}
    adj: dict[int, set[int]] = {i: set() for i in range(s)}
    for c in d.crossings:
        a = circ[c.edges[0]]
        b = circ[c.edges[c.over_in_slot]]
        if a == b:
            raise InternalInvariantError("Seifert band with both feet on one circle")
        band_ends[c.id] = (a, b)
        adj[a].add(b)
        adj[b].add(a)

    # the nesting order is the unique path in the adjacency graph
    degree_one = sorted(i for i in adj if len(adj[i]) == 1)
    if len(degree_one) != 2:
        raise InternalInvariantError("braid-form circles do not form a path")
    order = [degree_one[0]]
    while True:
        nxt = adj[order[-1]] - set(order[-2:])
        if not nxt:
            break
        if len(nxt) != 1:
            raise InternalInvariantError("braid-form circles do not form a path")
        order.append(nxt.pop())
    if len(order) != s:
        raise InternalInvariantError("braid-form circle path misses circles")
    level = {c: i for i, c in enumerate(order)}

    # crossings along each circle, in the circle's cyclic walk order
    circle_walk = [[d.head_of(e)[0] for e in cyc] for cyc in circles]

    # assign angular sort keys: integer positions along the innermost
    # circle, then interpolate outward through shared crossings; fractions
    # is imported here so that importing the CLI does not load it
    from fractions import Fraction

    key: dict[int, Fraction] = {}
    inner = order[0]
    for pos, cid in enumerate(circle_walk[inner]):
        key[cid] = Fraction(pos)
    for ci in order[1:]:
        walk = circle_walk[ci]
        known = [i for i, cid in enumerate(walk) if cid in key]
        if not known:
            raise InternalInvariantError("circle with no keyed crossing")
        start = known[0]
        walk = walk[start:] + walk[:start]
        known = [i for i, cid in enumerate(walk) if cid in key]
        span = max(key[walk[i]] for i in known) + 1
        for j, i in enumerate(known):
            k0 = key[walk[i]]
            i_next = known[(j + 1) % len(known)]
            k1 = key[walk[i_next]]
            if k1 <= k0:
                k1 = span if k1 == key[walk[known[0]]] else k1 + span
            gap = walk[i + 1:i_next] if i_next > i else walk[i + 1:]
            for t, cid in enumerate(gap):
                key[cid] = k0 + (k1 - k0) * Fraction(t + 1, len(gap) + 1)

    word = []
    for cid in sorted(key, key=lambda c: key[c]):
        a, b = band_ends[cid]
        la, lb = level[a], level[b]
        if abs(la - lb) != 1:
            raise InternalInvariantError("band joins non-adjacent circles")
        gen = min(la, lb) + 1
        word.append(gen * d.crossings[cid].sign)
    return word, s


def seifert_matrix_from_word(word: list[int], strands: int) -> list[list[int]]:
    """Integer Seifert matrix of the closed-braid Seifert surface.

    Basis loops run through consecutive bands of one generator; V[a][b]
    is the linking of loop a with the positive pushoff of loop b.  A loop
    over generator i meets the pushoff of a loop over generator i+1 once
    near each of its own band feet that lands inside the other loop's
    angular interval on their shared disk, with the sign of the foot
    (+ for the closing band, - for the opening one); the reverse pairing
    vanishes.  Band twists only enter through the framings and the
    shared-band pairing of consecutive loops."""
    occurrences: dict[int, list[int]] = {i: [] for i in range(1, strands)}
    for pos, letter in enumerate(word):
        occurrences[abs(letter)].append(pos)
    loops = []  # (generator, first band position, second band position)
    for gen in range(1, strands):
        occ = occurrences[gen]
        for a, b in zip(occ, occ[1:]):
            loops.append((gen, a, b))
    sign_at = {pos: (1 if letter > 0 else -1) for pos, letter in enumerate(word)}
    n = len(loops)
    v = [[0] * n for _ in range(n)]
    for i, (gi, p, q) in enumerate(loops):
        v[i][i] = -(sign_at[p] + sign_at[q]) // 2
        for j in range(n):
            gj, r, s = loops[j]
            if j > i and gj == gi and r == q:
                # consecutive loops sharing band q
                if sign_at[q] > 0:
                    v[i][j] = 1
                else:
                    v[j][i] = -1
            elif gj == gi + 1:
                if r < q < s:
                    v[i][j] += 1
                if r < p < s:
                    v[i][j] -= 1
    return v


def seifert(d: LinkDiagram) -> SeifertData:
    """Run the oriented smoothing on a braid-form presentation of the
    diagram's link and package circles, counts, and the Seifert matrix.

    The presentation may carry more crossings than the input when
    coherence-restoring moves were needed; all derived quantities refer
    to the presentation actually used."""
    if not is_connected(d):
        raise DisconnectedDiagram("Seifert data needs a connected diagram")
    ell = d.num_components
    if not d.crossings:
        return SeifertData((), 1, 0, 1)
    braided = braid_form(d)
    word, strands = braid_word(braided)
    v = seifert_matrix_from_word(word, strands)
    data = SeifertData(
        tuple(tuple(row) for row in v),
        strands,
        len(word),
        ell,
    )
    if data.rank != len(v):
        raise InternalInvariantError("Seifert matrix rank mismatch")
    if data.genus < 0:
        raise InternalInvariantError("negative surface genus")
    return data
