"""The block knotification that high-order traces used to run.

``high_order_trace`` once knotified every block of its partition inside
the one diagram and read Q and W off the result.  It now reads them from
the linking matrix, and this loop is kept here as the audit's
reference, the way ``ref_builder`` keeps the old builder.  It calls the
surgery steps through the ``traces`` module, so a test that patches one
of them reaches this loop too.

``transport_push``, the R2 face transport that ``traces.knotify`` ran
before a direct band was shown always to fit, lives here too: a block
whose components never cross has no direct band, so this loop still
pushes arcs.  The loop calls it through this module's globals, and it
calls ``linkdiag._r2_insert_mapped`` through its module, so a patch of
either reaches it.
"""

from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import BadBands, IllegalSite, InternalInvariantError
from tracekit.linkdiag import LinkDiagram, _after, _end_face


def transport_push(d: LinkDiagram, comps: set[int]):
    """Push an arc of one requested component across the diagram toward
    another, by one honest R2 move; returns (diagram, edge map).

    Used when the components share no face with coherently matched
    orientations: each push moves an arc one face closer (faces adjacent
    across the edge being crossed), and a final push over the target arc
    itself creates a coherent site inside the clasp."""
    ec = d.edge_component
    source = min(c for c in comps if c < len(d.components))
    targets = {c for c in comps if c != source and c < len(d.components)}
    # the walk of a face enters the edge at the slot after each corner
    step_edges = _after(d.corner_edges)
    face_edges = [{step_edges[x] for x in f} for f in d.face_corners]
    # edge -> the faces on its two sides; the BFS reads them in any order,
    # since one of the two is always the face being expanded
    face_of = d.face_of
    edge_faces: dict[int, list[int]] = {}
    for z, e in enumerate(d.corner_edges):
        edge_faces.setdefault(e, []).append(_end_face(face_of, z))
    dist = [None] * len(face_edges)
    via: list[int | None] = [None] * len(face_edges)
    frontier = []
    for i, es in enumerate(face_edges):
        if any(ec[e] in targets for e in es):
            dist[i] = 0
            frontier.append(i)
    while frontier:
        nxt = []
        for i in frontier:
            for e in face_edges[i]:
                for j in edge_faces[e]:
                    if dist[j] is None:
                        dist[j] = dist[i] + 1
                        via[j] = e
                        nxt.append(j)
        frontier = nxt
    candidates = []
    for i, es in enumerate(face_edges):
        if dist[i] is None:
            continue
        for e in sorted(es):
            if ec[e] != source:
                continue
            if dist[i] == 0:
                for x in sorted(es):
                    if ec[x] in targets:
                        candidates.append((0, i, e, x))
                        break
            else:
                candidates.append((dist[i], i, e, via[i]))
    for _, _, e, x in sorted(candidates):
        if e == x:
            continue
        try:
            return ld._r2_insert_mapped(d, e, x)
        except IllegalSite:
            continue
    raise BadBands(f"components {sorted(comps)} cannot be band-connected")


def knotify_blocks(d, blocks):
    """Knotify every block of component indices inside the one diagram:
    band each block's components into one knot, pushing an arc across
    with R2 moves while no band fits, and clasp every band with a
    0-framed surgery circle.  Returns (diagram, circle edges per block,
    knot component per block).  Blocks are tracked by representative
    edges of their components, bare loops by count (crossing-free
    circles are interchangeable); only those and the circle edges are
    remapped after each move."""
    nedge = len(d.components)
    reps = [[d.components[i][0] for i in block if i < nedge] for block in blocks]
    loops = [sum(1 for i in block if i >= nedge) for block in blocks]
    circles: list[list[int]] = [[] for _ in blocks]

    def remap(emap):
        for lst in reps:
            lst[:] = [emap[e] for e in lst if e in emap]
        for lst in circles:
            lst[:] = [emap[e] for e in lst]

    def candidates(bi):
        ec = d.edge_component
        return ({ec[e] for e in reps[bi]}
                | {len(d.components) + k for k in range(loops[bi])})

    for bi in range(len(blocks)):
        while len(comps := candidates(bi)) > 1:
            for _ in range(4 * len(d.crossings) + 12):
                band = tr._direct_band(d, comps)
                if band is not None:
                    break
                d, push_map = transport_push(d, comps)
                remap(push_map)
                comps = candidates(bi)
            else:
                raise BadBands(f"band transport did not converge for {sorted(comps)}")
            d, circle_edge, knot_edge, step_map, loops_used = tr._knotify_step(d, band)
            remap(step_map)
            loops[bi] -= loops_used
            circles[bi].append(circle_edge)
            reps[bi].append(knot_edge)

    ec = d.edge_component
    knots = []
    loop_cursor = len(d.components)
    for bi in range(len(blocks)):
        if reps[bi]:
            knots.append(ec[reps[bi][0]])
        else:
            # the block knotified to a bare loop (or was one); bare loops
            # are interchangeable, so hand out positions in block order
            if loops[bi] != 1:
                raise InternalInvariantError("block lost its loop count")
            knots.append(loop_cursor)
            loop_cursor += 1
    return d, circles, knots
