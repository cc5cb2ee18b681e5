"""Value semantics of the public records.

Every record is an immutable value: equal fields give equal records with
equal hashes, fields cannot be assigned, and ``repr`` reads
``Name(field=value, ...)`` in field order.  The validated records refuse
bad fields at construction, and through ``_replace``, with a fixed
exception type and message.
"""

import re

import pytest

from tracekit import invariants as inv
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.errors import (
    BadComponentIndex,
    InputError,
    MalformedMixedDiagram,
    MalformedPD,
)
from tracekit.seifert import SeifertData, seifert


def hopf():
    return ld.catalog("hopf", "+")


def framed_hopf():
    return tr.FramedLink(hopf(), (0, 0))


# record type -> (field names in order, a function making a fresh record)
RECORDS = {
    ld.LinkDiagram: (("crossings", "components", "loops", "name"), hopf),
    ld.BandSpec: (("arc_a", "arc_b", "framing", "coherent"),
                  lambda: ld.BandSpec(1, ("loop", 0))),
    tr.FramedLink: (("diagram", "framings"), framed_hopf),
    tr.MixedLink: (("diagram", "dotted", "framings"),
                   lambda: tr.MixedLink(hopf(), (1,), (0,))),
    tr.WeightedPartition: (("blocks", "weights"),
                           lambda: tr.WeightedPartition.of([[1], [0]], [2, 0], 2)),
    tr.HandleDecomposition: (("handles", "q", "w", "provenance"),
                             lambda: tr.high_order_trace(
                                 framed_hopf(), tr.WeightedPartition.of([[0], [1]], [1, 0], 2))),
    tr.KnotifiedLink: (("mixed", "knot_component", "framing", "winding"),
                       lambda: tr.knotify(framed_hopf())),
    tr.TraceVerdict: (("status", "checks", "data"),
                      lambda: tr.homotopy_sphere_candidate(
                          tr.FramedLink(ld.catalog("unlink", 2), (0, 0)))),
    inv.GoeritzData: (("matrix", "correction", "shading"),
                      lambda: inv.goeritz_data(ld.catalog("figure8"))[0]),
    inv.Verdict: (("claim", "rule", "anchor"),
                  lambda: inv.Verdict("tau = 1", "tau-from-signature", "anchor")),
    inv.PlanarVerdict: (("status", "chain"),
                        lambda: inv.planar_obstruction(ld.catalog("trefoil"))),
    inv.ObstructionReport: (("name", "components", "sigma", "det", "tau", "g4_lower_bound",
                             "chi4_upper_bound", "g4_renormalized_lower_bound", "verdicts"),
                            lambda: inv.obstruction_report(ld.catalog("figure8"))),
    SeifertData: (("seifert_matrix", "circle_count", "crossing_count",
                      "boundary_components"),
                     lambda: seifert(ld.catalog("trefoil"))),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_records_are_immutable_values(cls):
    fields, make = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and hash(a) == hash(b)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b
    body = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({body})"


def test_memos_stay_out_of_equality_and_hashing():
    d, fresh = hopf(), hopf()
    d.face_corners, d.linking
    assert "linking" in vars(d)
    assert d == fresh and hash(d) == hash(fresh)
    h, other = RECORDS[tr.HandleDecomposition][1](), RECORDS[tr.HandleDecomposition][1]()
    assert h.b1 == 2 and "_w_rank" in vars(h)
    assert h == other and hash(h) == hash(other)


def test_defaults_and_keywords_are_unchanged():
    assert ld.LinkDiagram((), ()) == ld.LinkDiagram(crossings=(), components=(), loops=0,
                                                    name=None)
    assert ld.LinkDiagram((), (), loops=2).num_components == 2
    band = ld.BandSpec(1, 4)
    assert (band.framing, band.coherent) == (0, True)
    assert ld.BandSpec(arc_a=1, arc_b=4, coherent=False).coherent is False
    assert inv.PlanarVerdict("Unknown").chain == ()
    assert tr.TraceVerdict("fail", ("x",)).data == ()


def crossings_out_of_order():
    c0, c1 = hopf().crossings
    return (c1, c0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: ld.LinkDiagram((), (), loops=-3), MalformedPD,
     "loops must be non-negative, got -3"),
    (lambda: ld.LinkDiagram(crossings_out_of_order(), hopf().components), MalformedPD,
     "crossing at position 0 has id 1"),
    (lambda: ld.BandSpec(1, 4, ld.CATALOG_MAX_SIZE + 1), InputError,
     f"a band of {ld.CATALOG_MAX_SIZE + 1} half-twists would have "
     f"{ld.CATALOG_MAX_SIZE + 1} twist crossings; bands are limited to {ld.CATALOG_MAX_SIZE}"),
    (lambda: ld.BandSpec(1, 4, -ld.CATALOG_MAX_SIZE - 1), InputError,
     f"a band of {-ld.CATALOG_MAX_SIZE - 1} half-twists would have "
     f"{ld.CATALOG_MAX_SIZE + 1} twist crossings; bands are limited to {ld.CATALOG_MAX_SIZE}"),
    (lambda: tr.FramedLink(hopf(), (0,)), BadComponentIndex, "1 framings for 2 components"),
    (lambda: tr.FramedLink(ld.LinkDiagram((), (), 1), (0, 0, 0)), BadComponentIndex,
     "3 framings for 1 components"),
    (lambda: tr.MixedLink(hopf(), (2,), (0,)), MalformedMixedDiagram, "bad dotted set (2,)"),
    (lambda: tr.MixedLink(hopf(), (-1,), (0,)), MalformedMixedDiagram, "bad dotted set (-1,)"),
    (lambda: tr.MixedLink(hopf(), (1, 1), ()), MalformedMixedDiagram,
     "bad dotted set (1, 1)"),
    (lambda: tr.MixedLink(hopf(), (1,), (0, 0)), MalformedMixedDiagram,
     "2 framings for 1 attaching circles"),
], ids=["negative-loops", "crossing-ids", "band-twists", "band-twists-negative",
        "framing-count", "framing-count-loops", "dotted-range", "dotted-negative",
        "dotted-repeat", "mixed-framing-count"])
def test_validated_records_refuse_bad_fields(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        make()
    assert type(caught.value) is error


@pytest.mark.parametrize("make, change, error", [
    (hopf, {"loops": -1}, MalformedPD),
    (lambda: ld.BandSpec(1, 4), {"framing": ld.CATALOG_MAX_SIZE + 1}, InputError),
    (framed_hopf, {"framings": (0,)}, BadComponentIndex),
    (lambda: tr.MixedLink(hopf(), (1,), (0,)), {"dotted": (2,)}, MalformedMixedDiagram),
], ids=["LinkDiagram", "BandSpec", "FramedLink", "MixedLink"])
def test_replace_runs_the_construction_checks(make, change, error):
    record = make()
    with pytest.raises(error):
        record._replace(**change)
    same = record._replace()
    assert same == record and type(same) is type(record)
