"""Canonical output of knotify with multi-step ``--bands`` lists.

A band's edge ids name edges of the input diagram, and knotify reads
each through the merges of the steps before it.  These pins record the
literal ``serialize_pd`` text, dotted set, knot and framing for lists
whose later bands name edges that earlier merges have renumbered, with
edge arcs, twisted bands and one loop arc.  A refusal is pinned by its
exception class, so a reworded message does not fail here but a changed
class does.
"""

from tracekit import linkdiag as ld
from tracekit import traces as tr

L0, L1 = ("loop", 0), ("loop", 1)

DIAGRAMS = {
    "borromean": ld.catalog("borromean"),
    "braid": ld.from_braid([1, 1, 2, 2, 3, 3, 1, -2, -2, 1], 4),
    "twist_family(-2)+O": ld.parse_pd(
        "X(9,2,10,1), X(2,9,3,16), X(15,4,16,3), X(4,15,5,14), X(13,6,14,5), "
        "X(6,11,7,10), X(11,8,12,7), X(8,13,1,12), O"),
}

# (diagram, band rows (arc_a, arc_b, half-twists))
BAND_LISTS = [
    ("borromean", [(10, 3, 1), (6, 11, 0)]),
    ("borromean", [(4, 7, 2), (1, 12, -1)]),
    ("braid", [(15, 10, 0), (13, 19, -1), (18, 6, 0)]),
    ("braid", [(17, 20, 2), (2, 9, 0), (15, 11, -1)]),
    ("twist_family(-2)+O", [(L0, 15, 0), (9, 2, 0)]),
    # refusals: a missing edge, a bad loop index, a wrong band count
    ("borromean", [(10, 3, 1), (6, 99, 0)]),
    ("twist_family(-2)+O", [(L1, 15, 0), (9, 2, 0)]),
    ("borromean", [(10, 3, 1)]),
]


def _outcome(name, rows) -> str:
    d = DIAGRAMS[name]
    link = tr.FramedLink(d, tuple(range(1, d.num_components + 1)))
    try:
        kn = tr.knotify(link, [ld.BandSpec(*row) for row in rows])
    except Exception as exc:  # noqa: BLE001  - a refusal is pinned by its class
        return f"!{type(exc).__name__}"
    return (f"{ld.serialize_pd(kn.mixed.diagram)} | dotted={list(kn.mixed.dotted)} "
            f"knot={kn.knot_component} framing={kn.framing}")


EXPECTED = {
    "borromean [(10, 3, 1), (6, 11, 0)]":
        'X(1,13,2,12), X(17,2,18,3), X(20,4,21,3), X(25,4,26,5), X(5,24,6,25), X(9,7,10,6), '
        'X(29,8,30,7), X(8,29,9,28), X(21,10,22,11), X(11,16,12,17), X(13,27,14,28), '
        'X(30,14,27,15), X(15,1,16,22), X(18,24,19,23), X(26,20,23,19) '
        '| dotted=[1, 2] knot=0 framing=6',
    "borromean [(4, 7, 2), (1, 12, -1)]":
        'X(1,32,2,31), X(34,3,31,2), X(8,3,9,4), X(19,4,20,5), X(5,12,6,13), X(21,7,22,6), '
        'X(7,1,8,26), X(33,9,34,10), X(10,32,11,33), X(11,21,12,20), X(13,18,14,19), '
        'X(14,27,15,28), X(30,15,27,16), X(23,17,24,16), X(17,23,18,22), X(29,25,30,24), '
        'X(25,29,26,28) | dotted=[1, 2] knot=0 framing=6',
    "braid [(15, 10, 0), (13, 19, -1), (18, 6, 0)]":
        'X(1,25,2,24), X(25,3,26,2), X(3,23,4,22), X(31,4,32,5), X(5,8,6,9), X(45,7,46,6), '
        'X(7,45,8,44), X(9,40,10,39), X(42,11,39,10), X(14,11,15,12), X(29,13,30,12), '
        'X(13,31,14,30), X(41,15,42,16), X(16,40,17,41), X(26,18,27,17), X(18,22,19,21), '
        'X(19,36,20,35), X(38,21,35,20), X(23,1,24,34), X(37,27,38,28), X(28,36,29,37), '
        'X(32,43,33,44), X(46,33,43,34) | dotted=[1, 2, 3] knot=0 framing=16',
    "braid [(17, 20, 2), (2, 9, 0), (15, 11, -1)]":
        'X(1,31,2,30), X(2,44,3,43), X(46,4,43,3), X(4,24,5,23), X(24,6,25,5), X(27,6,28,7), '
        'X(49,8,50,7), X(8,49,9,48), X(9,17,10,16), X(15,11,16,10), X(11,39,12,40), '
        'X(42,12,39,13), X(18,14,19,13), X(14,18,15,17), X(41,20,42,19), X(20,41,21,40), '
        'X(21,36,22,37), X(37,22,38,23), X(25,47,26,48), X(50,26,47,27), X(35,29,36,28), '
        'X(29,1,30,38), X(31,35,32,34), X(45,32,46,33), X(33,44,34,45) '
        '| dotted=[1, 2, 3] knot=0 framing=16',
    "twist_family(-2)+O [(('loop', 0), 15, 0), (9, 2, 0)]":
        'X(4,2,5,1), X(31,3,32,2), X(3,31,4,30), X(22,6,23,5), X(6,24,7,23), X(24,8,1,7), '
        'X(8,22,9,21), X(20,10,21,9), X(10,26,11,25), X(28,12,25,11), X(27,12,28,13), '
        'X(13,26,14,27), X(14,20,15,19), X(18,16,19,15), X(16,29,17,30), X(32,17,29,18) '
        '| dotted=[1, 2] knot=0 framing=14',
    "borromean [(10, 3, 1), (6, 99, 0)]":
        '!BadBands',
    "twist_family(-2)+O [(('loop', 1), 15, 0), (9, 2, 0)]":
        '!BadBands',
    "borromean [(10, 3, 1)]":
        '!BadBands',
}


def test_twist_family_plus_loop_is_that_diagram():
    twist = ld.catalog("twist_family", "-2")
    assert ld.serialize_pd(DIAGRAMS["twist_family(-2)+O"]) == ld.serialize_pd(twist) + ", O"


def test_band_lists_match_pins():
    got = {f"{name} {rows}": _outcome(name, rows) for name, rows in BAND_LISTS}
    assert list(got) == list(EXPECTED)
    assert {k: v for k, v in got.items() if v != EXPECTED[k]} == {}
