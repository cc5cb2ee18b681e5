"""Canonical output of the moves, band merges and knotifications that
cut a crossing-free loop.

The benchmark goldens reach loops only through automatic knotification.
These pins record the literal ``serialize_pd`` text of R1+ and R2+ at
each loop, of band merges at loops, and of knotify with explicit loop
bands, on a few small diagrams.  A refusal is pinned by its exception
class, so a reworded message does not fail here but a changed class
does.
"""

from tracekit import linkdiag as ld
from tracekit import traces as tr

DIAGRAMS = {
    "trefoil+O": "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5), O",
    "O,O": "O, O",
    "hopf+O,O": "X(1,4,2,3), X(4,1,3,2), O, O",
}

L0, L1 = ("loop", 0), ("loop", 1)

# explicit knotify bands on hopf+O,O, which has edges 1-4 on its two
# edge components and two loops.  A band between two loops leaves a
# component no later band can name, so only O,O takes one.
HOPF_BAND_LISTS = [
    [(L0, 1), (L0, 3), (1, 4)],
    [(2, L1), (L0, 4), (2, 3)],
    [(1, 4), (L0, 2), (L0, 3)],
    [(1, 4), (2, L0), (3, L0)],
    [(L0, 1), (L0, 3), (1, 3)],
    [(1, 4), (2, L0), (L0, L0)],
]


def _knotified(kn) -> str:
    return (f"{ld.serialize_pd(kn.mixed.diagram)} | dotted={list(kn.mixed.dotted)} "
            f"knot={kn.knot_component} framing={kn.framing}")


def _cases():
    """(key, thunk) for every pinned operation."""
    for label, text in DIAGRAMS.items():
        d = ld.parse_pd(text)
        loops = [("loop", k) for k in range(d.loops)]
        for arc in loops:
            for chirality in (1, -1):
                for flavor in (0, 1):
                    yield (f"{label} R1+ {arc} {chirality} {flavor}",
                           lambda d=d, site=(arc, chirality, flavor):
                           ld.serialize_pd(ld.r_moves(d, "R1+", site)))
            for e in d.edges:
                yield (f"{label} R2+ {arc} over {e}",
                       lambda d=d, site=(arc, e): ld.serialize_pd(ld.r_moves(d, "R2+", site)))
        sites = [(x, e) for x in loops for e in d.edges]
        sites += [(e, x) for x, e in sites]
        sites += [(x, y) for x in loops for y in loops]
        for a, b in sites:
            band = ld.BandSpec(a, b)
            yield (f"{label} band {a} {b}",
                   lambda d=d, band=band: ld.serialize_pd(ld.band_merge(d, band)))
            if d.num_components == 2:
                link = tr.FramedLink(d, (0, 0))
                yield (f"{label} knotify {a} {b}",
                       lambda link=link, band=band: _knotified(tr.knotify(link, [band])))
        yield (f"{label} knotify auto",
               lambda d=d: _knotified(tr.knotify(tr.FramedLink(d, (0,) * d.num_components))))
    hopf = tr.FramedLink(ld.parse_pd(DIAGRAMS["hopf+O,O"]), (0, 0, 0, 0))
    for rows in HOPF_BAND_LISTS:
        bands = [ld.BandSpec(a, b) for a, b in rows]
        yield (f"hopf+O,O knotify {rows}",
               lambda bands=bands: _knotified(tr.knotify(hopf, bands)))


def _outcome(thunk) -> str:
    try:
        return thunk()
    except Exception as exc:  # noqa: BLE001  - a refusal is pinned by its class
        return f"!{type(exc).__name__}"


EXPECTED = {
    "trefoil+O R1+ ('loop', 0) 1 0":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3), X(7,7,8,8)',
    "trefoil+O R1+ ('loop', 0) 1 1":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3), X(8,8,7,7)',
    "trefoil+O R1+ ('loop', 0) -1 0":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3), X(7,8,8,7)',
    "trefoil+O R1+ ('loop', 0) -1 1":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3), X(8,7,7,8)',
    "trefoil+O R2+ ('loop', 0) over 1":
        'X(1,10,2,9), X(2,10,3,9), X(6,4,7,3), X(4,8,5,7), X(8,6,1,5)',
    "trefoil+O R2+ ('loop', 0) over 2":
        'X(6,2,7,1), X(2,10,3,9), X(3,10,4,9), X(4,8,5,7), X(8,6,1,5)',
    "trefoil+O R2+ ('loop', 0) over 3":
        'X(6,2,7,1), X(2,8,3,7), X(3,10,4,9), X(4,10,5,9), X(8,6,1,5)',
    "trefoil+O R2+ ('loop', 0) over 4":
        'X(6,2,7,1), X(2,8,3,7), X(8,4,1,3), X(4,10,5,9), X(5,10,6,9)',
    "trefoil+O R2+ ('loop', 0) over 5":
        'X(4,2,5,1), X(2,8,3,7), X(8,4,1,3), X(5,10,6,9), X(6,10,7,9)',
    "trefoil+O R2+ ('loop', 0) over 6":
        'X(4,2,5,1), X(2,6,3,5), X(8,4,1,3), X(6,10,7,9), X(7,10,8,9)',
    "trefoil+O band ('loop', 0) 1":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 1":
        'X(1,12,2,11), X(14,3,11,2), X(13,3,14,4), X(4,12,5,13), X(8,6,9,5), X(6,10,7,9), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) 2":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 2":
        'X(8,2,9,1), X(2,12,3,11), X(14,4,11,3), X(13,4,14,5), X(5,12,6,13), X(6,10,7,9), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) 3":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 3":
        'X(8,2,9,1), X(2,10,3,9), X(3,12,4,11), X(14,5,11,4), X(13,5,14,6), X(6,12,7,13), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) 4":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 4":
        'X(8,2,9,1), X(2,10,3,9), X(10,4,1,3), X(4,12,5,11), X(14,6,11,5), X(13,6,14,7), '
        'X(7,12,8,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) 5":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 5":
        'X(4,2,5,1), X(2,10,3,9), X(10,4,1,3), X(5,12,6,11), X(14,7,11,6), X(13,7,14,8), '
        'X(8,12,9,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) 6":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify ('loop', 0) 6":
        'X(4,2,5,1), X(2,6,3,5), X(10,4,1,3), X(6,12,7,11), X(14,8,11,7), X(13,8,14,9), '
        'X(9,12,10,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 1 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 1 ('loop', 0)":
        'X(1,12,2,11), X(14,3,11,2), X(13,3,14,4), X(4,12,5,13), X(8,6,9,5), X(6,10,7,9), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 2 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 2 ('loop', 0)":
        'X(8,2,9,1), X(2,12,3,11), X(14,4,11,3), X(13,4,14,5), X(5,12,6,13), X(6,10,7,9), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 3 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 3 ('loop', 0)":
        'X(8,2,9,1), X(2,10,3,9), X(3,12,4,11), X(14,5,11,4), X(13,5,14,6), X(6,12,7,13), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 4 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 4 ('loop', 0)":
        'X(8,2,9,1), X(2,10,3,9), X(10,4,1,3), X(4,12,5,11), X(14,6,11,5), X(13,6,14,7), '
        'X(7,12,8,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 5 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 5 ('loop', 0)":
        'X(4,2,5,1), X(2,10,3,9), X(10,4,1,3), X(5,12,6,11), X(14,7,11,6), X(13,7,14,8), '
        'X(8,12,9,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band 6 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(6,4,1,3)',
    "trefoil+O knotify 6 ('loop', 0)":
        'X(4,2,5,1), X(2,6,3,5), X(10,4,1,3), X(6,12,7,11), X(14,8,11,7), X(13,8,14,9), '
        'X(9,12,10,13) | dotted=[1] knot=0 framing=0',
    "trefoil+O band ('loop', 0) ('loop', 0)":
        '!SameComponent',
    "trefoil+O knotify ('loop', 0) ('loop', 0)":
        '!BadBands',
    'trefoil+O knotify auto':
        'X(1,12,2,11), X(14,3,11,2), X(13,3,14,4), X(4,12,5,13), X(8,6,9,5), X(6,10,7,9), '
        'X(10,8,1,7) | dotted=[1] knot=0 framing=0',
    "O,O R1+ ('loop', 0) 1 0":
        'X(1,1,2,2), O',
    "O,O R1+ ('loop', 0) 1 1":
        'X(2,2,1,1), O',
    "O,O R1+ ('loop', 0) -1 0":
        'X(1,2,2,1), O',
    "O,O R1+ ('loop', 0) -1 1":
        'X(2,1,1,2), O',
    "O,O R1+ ('loop', 1) 1 0":
        'X(1,1,2,2), O',
    "O,O R1+ ('loop', 1) 1 1":
        'X(2,2,1,1), O',
    "O,O R1+ ('loop', 1) -1 0":
        'X(1,2,2,1), O',
    "O,O R1+ ('loop', 1) -1 1":
        'X(2,1,1,2), O',
    "O,O band ('loop', 0) ('loop', 0)":
        '!SameComponent',
    "O,O knotify ('loop', 0) ('loop', 0)":
        '!BadBands',
    "O,O band ('loop', 0) ('loop', 1)":
        'O',
    "O,O knotify ('loop', 0) ('loop', 1)":
        'X(8,2,5,1), X(7,2,8,3), X(3,6,4,7), X(4,6,1,5) | dotted=[1] knot=0 framing=0',
    "O,O band ('loop', 1) ('loop', 0)":
        'O',
    "O,O knotify ('loop', 1) ('loop', 0)":
        'X(8,2,5,1), X(7,2,8,3), X(3,6,4,7), X(4,6,1,5) | dotted=[1] knot=0 framing=0',
    "O,O band ('loop', 1) ('loop', 1)":
        '!SameComponent',
    "O,O knotify ('loop', 1) ('loop', 1)":
        '!BadBands',
    'O,O knotify auto':
        'X(8,2,5,1), X(7,2,8,3), X(3,6,4,7), X(4,6,1,5) | dotted=[1] knot=0 framing=0',
    "hopf+O,O R1+ ('loop', 0) 1 0":
        'X(1,4,2,3), X(4,1,3,2), X(5,5,6,6), O',
    "hopf+O,O R1+ ('loop', 0) 1 1":
        'X(1,4,2,3), X(4,1,3,2), X(6,6,5,5), O',
    "hopf+O,O R1+ ('loop', 0) -1 0":
        'X(1,4,2,3), X(4,1,3,2), X(5,6,6,5), O',
    "hopf+O,O R1+ ('loop', 0) -1 1":
        'X(1,4,2,3), X(4,1,3,2), X(6,5,5,6), O',
    "hopf+O,O R2+ ('loop', 0) over 1":
        'X(1,8,2,7), X(2,8,3,7), X(3,6,4,5), X(6,1,5,4), O',
    "hopf+O,O R2+ ('loop', 0) over 2":
        'X(1,6,2,5), X(2,8,3,7), X(3,8,4,7), X(6,1,5,4), O',
    "hopf+O,O R2+ ('loop', 0) over 3":
        'X(1,6,2,5), X(6,1,3,2), X(3,8,4,7), X(4,8,5,7), O',
    "hopf+O,O R2+ ('loop', 0) over 4":
        'X(1,4,2,3), X(6,1,3,2), X(4,8,5,7), X(5,8,6,7), O',
    "hopf+O,O R1+ ('loop', 1) 1 0":
        'X(1,4,2,3), X(4,1,3,2), X(5,5,6,6), O',
    "hopf+O,O R1+ ('loop', 1) 1 1":
        'X(1,4,2,3), X(4,1,3,2), X(6,6,5,5), O',
    "hopf+O,O R1+ ('loop', 1) -1 0":
        'X(1,4,2,3), X(4,1,3,2), X(5,6,6,5), O',
    "hopf+O,O R1+ ('loop', 1) -1 1":
        'X(1,4,2,3), X(4,1,3,2), X(6,5,5,6), O',
    "hopf+O,O R2+ ('loop', 1) over 1":
        'X(1,8,2,7), X(2,8,3,7), X(3,6,4,5), X(6,1,5,4), O',
    "hopf+O,O R2+ ('loop', 1) over 2":
        'X(1,6,2,5), X(2,8,3,7), X(3,8,4,7), X(6,1,5,4), O',
    "hopf+O,O R2+ ('loop', 1) over 3":
        'X(1,6,2,5), X(6,1,3,2), X(3,8,4,7), X(4,8,5,7), O',
    "hopf+O,O R2+ ('loop', 1) over 4":
        'X(1,4,2,3), X(6,1,3,2), X(4,8,5,7), X(5,8,6,7), O',
    "hopf+O,O band ('loop', 0) 1":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 0) 2":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 0) 3":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 0) 4":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) 1":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) 2":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) 3":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) 4":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 1 ('loop', 0)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 2 ('loop', 0)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 3 ('loop', 0)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 4 ('loop', 0)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 1 ('loop', 1)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 2 ('loop', 1)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 3 ('loop', 1)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band 4 ('loop', 1)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 0) ('loop', 0)":
        '!SameComponent',
    "hopf+O,O band ('loop', 0) ('loop', 1)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) ('loop', 0)":
        'X(1,4,2,3), X(4,1,3,2), O',
    "hopf+O,O band ('loop', 1) ('loop', 1)":
        '!SameComponent',
    'hopf+O,O knotify auto':
        'X(1,26,2,25), X(28,3,25,2), X(27,3,28,4), X(4,26,5,27), X(5,22,6,21), X(24,7,21,6), '
        'X(23,7,24,8), X(8,22,9,23), X(9,17,10,18), X(20,10,17,11), X(11,1,12,16), '
        'X(15,13,16,12), X(19,14,20,13), X(14,19,15,18) | dotted=[1, 2, 3] knot=0 framing=2',
    "hopf+O,O knotify [(('loop', 0), 1), (('loop', 0), 3), (1, 4)]":
        'X(1,25,2,26), X(28,2,25,3), X(3,1,4,16), X(4,22,5,21), X(24,6,21,5), X(23,6,24,7), '
        'X(7,22,8,23), X(15,9,16,8), X(27,10,28,9), X(10,27,11,26), X(11,18,12,17), '
        'X(20,13,17,12), X(19,13,20,14), X(14,18,15,19) | dotted=[1, 2, 3] knot=0 framing=2',
    "hopf+O,O knotify [(2, ('loop', 1)), (('loop', 0), 4), (2, 3)]":
        'X(1,5,2,4), X(2,26,3,25), X(28,4,25,3), X(5,22,6,21), X(24,7,21,6), X(23,7,24,8), '
        'X(8,22,9,23), X(9,1,10,16), X(27,10,28,11), X(11,26,12,27), X(12,18,13,17), '
        'X(20,14,17,13), X(19,14,20,15), X(15,18,16,19) | dotted=[1, 2, 3] knot=0 framing=2',
    "hopf+O,O knotify [(1, 4), (('loop', 0), 2), (('loop', 0), 3)]":
        'X(1,17,2,18), X(20,2,17,3), X(3,1,4,16), X(4,26,5,25), X(28,6,25,5), X(27,6,28,7), '
        'X(7,26,8,27), X(11,9,12,8), X(19,10,20,9), X(10,19,11,18), X(12,22,13,21), '
        'X(24,14,21,13), X(23,14,24,15), X(15,22,16,23) | dotted=[1, 2, 3] knot=0 framing=2',
    "hopf+O,O knotify [(1, 4), (2, ('loop', 0)), (3, ('loop', 0))]":
        'X(1,17,2,18), X(20,2,17,3), X(3,1,4,16), X(4,26,5,25), X(28,6,25,5), X(27,6,28,7), '
        'X(7,26,8,27), X(11,9,12,8), X(19,10,20,9), X(10,19,11,18), X(12,22,13,21), '
        'X(24,14,21,13), X(23,14,24,15), X(15,22,16,23) | dotted=[1, 2, 3] knot=0 framing=2',
    "hopf+O,O knotify [(('loop', 0), 1), (('loop', 0), 3), (1, 3)]":
        '!BadBands',
    "hopf+O,O knotify [(1, 4), (2, ('loop', 0)), (('loop', 0), ('loop', 0))]":
        '!BadBands',
}


def test_loop_outputs_match_pins():
    got = {key: _outcome(thunk) for key, thunk in _cases()}
    assert list(got) == list(EXPECTED)
    assert {k: v for k, v in got.items() if v != EXPECTED[k]} == {}
