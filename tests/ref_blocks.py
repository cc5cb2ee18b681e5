"""The block knotification that high-order traces used to run.

``high_order_trace`` once knotified every block of its partition inside
the one diagram and read Q and W off the result.  It now reads them from
the linking matrix, and this loop is kept here as the audit's
reference, the way ``ref_builder`` keeps the old builder.  It calls the
surgery steps through the ``traces`` module, so a test that patches one
of them reaches this loop too.
"""

from tracekit import traces as tr
from tracekit.errors import BadBands, InternalInvariantError


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
                d, push_map = tr._transport_push(d, comps)
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
