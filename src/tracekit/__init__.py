"""tracekit: framed-link calculus, diagram invariants, and trace
4-manifold handle decompositions.

The pieces fit together like this: ``linkdiag`` holds oriented planar
diagrams (PD codes) with parsing, a catalog of standard links, band
merges, and Reidemeister moves; ``invariants`` computes signatures and
determinants (Goeritz forms for reports, Seifert matrices as the
independent oracle), the alternating tau, and the sliceness obstruction
reports; ``traces`` turns framed links into
symbolic handle decompositions, knotifies links with honest surgery
circles, and runs the candidate checks; ``cli`` wraps it all in a
JSON-first command line.
"""

from .errors import TracekitError
from .invariants import (
    ObstructionReport,
    chi4_g4_convert,
    determinant,
    g4_lower_bound,
    obstruction_report,
    planar_obstruction,
    signature_gl,
    signature_seifert,
    tau_alternating,
)
from .linkdiag import (
    BandSpec,
    Crossing,
    LinkDiagram,
    band_merge,
    catalog,
    from_braid,
    is_alternating,
    is_connected,
    linking_matrix,
    linking_number,
    mirror,
    parse_pd,
    rational_link,
    r_moves,
    serialize_pd,
    total_linking,
)
from .seifert import SeifertData, seifert
from .traces import (
    FramedLink,
    HandleDecomposition,
    KnotifiedLink,
    MixedLink,
    WeightedPartition,
    boundary_h1,
    framed_mirror,
    high_order_trace,
    homotopy_sphere_candidate,
    knotify,
    planar_framing_valid,
    schoenflies_candidate,
    surface_partition,
    zero_trace,
)

__version__ = "0.1.0"

__all__ = [
    "TracekitError", "ObstructionReport", "chi4_g4_convert", "determinant",
    "g4_lower_bound", "obstruction_report", "planar_obstruction",
    "signature_gl", "signature_seifert", "tau_alternating", "BandSpec",
    "Crossing", "LinkDiagram", "band_merge", "catalog", "from_braid",
    "is_alternating", "is_connected", "linking_matrix", "linking_number",
    "mirror", "parse_pd", "rational_link", "r_moves", "serialize_pd",
    "total_linking", "SeifertData", "seifert", "FramedLink",
    "HandleDecomposition", "KnotifiedLink", "MixedLink", "WeightedPartition",
    "boundary_h1", "framed_mirror", "high_order_trace",
    "homotopy_sphere_candidate", "knotify", "planar_framing_valid",
    "schoenflies_candidate", "surface_partition", "zero_trace",
]
