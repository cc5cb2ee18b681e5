"""The direct-band search that scans every corner.

``traces._direct_band`` once bucketed every corner by face and parity
and took the least (least edge, least edge on another component) over
the buckets.  It now answers from the two buckets of the least open
edge when they hold a witness, and scans only otherwise; this copy of
the full scan is kept as the audit's reference, the way ``ref_builder``
keeps the old builder.
"""

from tracekit.linkdiag import BandSpec, LinkDiagram, _same_piece


def direct_band(d: LinkDiagram, comps: set[int]) -> BandSpec | None:
    """Lexicographically first coherent untwisted band between distinct
    components of ``comps``, by a scan of every corner, then a loop band,
    then a band between pieces."""
    ec = d.edge_component
    n_edge_comps = len(d.components)
    # corner y is the entry (its edge, corner_out[y]) of the walk of face
    # _end_face(face_of, y), the face at the corner before it, read here
    # from a copy of face_of shifted by one slot: bucket the entries by
    # face and parity, and keep each bucket's least edge, its component,
    # and its least edge on another component
    face_of = d.face_of
    face_before = face_of[-1:] + face_of[:-1]
    face_before[0::4] = face_of[3::4]
    none = len(d.corner_edges)  # above every edge id
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
    edge_comps = sorted(i for i in comps if i < n_edge_comps)
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
