"""The union-find shading that Goeritz reports used to run.

``invariants._shadings`` once joined the faces at every crossing with a
union-find and ordered the classes by their roots.  It now colours the
faces in one traversal, classes in order of least face, and this
function is kept here verbatim as the shading audit's reference, the way
``ref_split`` keeps the per-piece freeze.
"""

from tracekit.errors import InternalInvariantError
from tracekit.linkdiag import LinkDiagram


def shadings(d: LinkDiagram) -> list[tuple[list[int], list[tuple[int, int, int, int]]]]:
    """The checkerboard shading classes of the faces, each as (its faces
    in order, its crossing edges (a, b, weight, crossing sign)): every
    crossing joins its opposite face corners, (0,2) with weight +1 and
    (1,3) with weight -1.  A face walk never leaves its piece, so each
    piece has two classes."""
    face_of = d.face_of
    parent = list(range(len(d.face_corners)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for c in d.crossings:
        x = 4 * c.id
        for a, b, weight in ((face_of[x], face_of[x + 2], 1),
                             (face_of[x + 1], face_of[x + 3], -1)):
            edges.append((a, b, weight, c.sign))
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    classes = {}
    for f in range(len(parent)):
        classes.setdefault(find(f), ([], []))[0].append(f)
    if len(classes) != 2 * len(d.pieces):
        raise InternalInvariantError(f"{len(classes)} shading classes")
    for edge in edges:
        classes[find(edge[0])][1].append(edge)
    return [classes[root] for root in sorted(classes)]
