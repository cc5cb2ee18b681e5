"""The per-piece freeze that split reports used to run.

``obstruction_report`` once froze every connected piece of a split
diagram as a diagram of its own and combined the pieces' reports.  It
now eliminates one shading per piece inside the one diagram, and this
function is kept here as the split audit's reference, the way
``ref_blocks`` keeps the block knotification.
"""

from tracekit.linkdiag import LinkDiagram, _Builder, _thaw


def split_pieces(d: LinkDiagram) -> list[LinkDiagram]:
    """Connected pieces of a diagram as stand-alone diagrams, loops
    last, each in canonical form."""
    out = []
    for piece in d.pieces:
        # the crossings of other pieces count as removed
        b = _thaw(d)
        b.loops = 0
        b.signs = [sign if c in piece else 0 for c, sign in enumerate(b.signs)]
        out.append(b.freeze())
    out += [_Builder(loops=1).freeze() for _ in range(d.loops)]
    return out
