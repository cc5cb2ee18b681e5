"""Reports against both Goeritz shadings and against frozen pieces.

By Gordon-Litherland either checkerboard shading gives sigma and |det|,
so a report eliminates one shading per connected piece, read off the
diagram's own faces.  Here the other shading is audited: both shadings
of ``goeritz_data``, run through the dense ``congruence_eliminate`` of
``ref_congruence``, must give the report's (sigma, |det|) on every
``invariants`` item of the alternating and braids benchmarks (seeds
1-6), on the catalog and on seeded diagrams, where the Seifert engine
checks sigma as well.
Split reports are checked against the pieces frozen as diagrams of
their own (``ref_split.split_pieces``).  The benchmark directory is
only read, as in ``test_golden_reports``.
"""

import random

import pytest

import tracekit.exactlinalg as la
import tracekit.invariants as inv
from conftest import base_seed, random_braid_diagram, random_connected_diagram
from ref_congruence import congruence_eliminate
from ref_split import split_pieces
from test_golden_reports import GOLDEN_SEED, run_item
from test_golden_reports import corpus as bench_corpus
from tracekit import cli
from tracekit import linkdiag as ld

SEEDS = range(1, 7)


def shading_values(d):
    """(sigma, |det|) of each shading of a connected diagram, by the
    dense kernel; a crossing-free loop gives (0, 1)."""
    if not d.crossings:
        return [(0, 1)]
    values = []
    for gd in inv.goeritz_data(d):
        pos, neg, det = congruence_eliminate([list(r) for r in gd.matrix])
        values.append((-(pos - neg + gd.correction), abs(det)))
    return values


def audit(d):
    rep = inv.obstruction_report(d)
    assert shading_values(d) == [(rep.sigma, rep.det)] * (2 if d.crossings else 1)
    return rep


def _item_diagram(item):
    if item.text is None:
        return cli._load_catalog(item.argv[item.argv.index("--catalog") + 1])
    if item.text.lstrip().startswith("{"):
        return ld.loads(item.text)[0]
    return ld.parse_pd(item.text)


def _invariants_items(workload, seed):
    return [item for item in bench_corpus.build(workload, seed)
            if item.argv[0] == "invariants"]


@pytest.mark.parametrize("workload", ["alternating", "braids"])
def test_both_shadings_give_the_report_on_bench_items(workload):
    count = 0
    for seed in SEEDS:
        for item in _invariants_items(workload, seed):
            audit(_item_diagram(item))
            count += 1
    # the corpus fixes every seed's item count
    assert count == {"alternating": 606, "braids": 612}[workload]


def test_both_shadings_give_the_report_on_catalog_and_seeded_diagrams():
    rng = random.Random(base_seed())
    diagrams = [ld.catalog(name, param) for name, param in
                [("unknot", None), ("hopf", "+"), ("hopf", "-"), ("trefoil", "+"),
                 ("trefoil", "-"), ("figure8", None), ("whitehead", None),
                 ("borromean", None)]]
    diagrams += [ld.catalog("twist_family", n) for n in range(2, -11, -1)]
    diagrams += [random_connected_diagram(rng, 12) for _ in range(60)]
    diagrams += [random_braid_diagram(rng) for _ in range(30)]
    for d in diagrams:
        assert ld.is_connected(d)
        rep = audit(d)
        # both shadings share the correction code; the Seifert engine
        # shares nothing with it
        if len(d.crossings) <= 20:
            assert rep.sigma == inv.signature_seifert(d)


def test_reports_eliminate_one_shading_per_piece(monkeypatch, tmp_path):
    """On the seed-1 braids items, a report runs one sparse elimination
    per piece, builds no dense Goeritz matrix and no dense elimination."""
    items = _invariants_items("braids", GOLDEN_SEED)
    pieces = sum(len(_item_diagram(item).pieces) for item in items)
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return congruence_rows(rows)

    def refused(*args, **kwargs):
        raise AssertionError("the report path built a dense form")

    congruence_rows = inv.congruence_rows
    monkeypatch.setattr(inv, "congruence_rows", counting)
    monkeypatch.setattr(inv, "goeritz_data", refused)
    for name in ("signature_symmetric", "det_int"):
        monkeypatch.setattr(inv, name, refused)
        monkeypatch.setattr(la, name, refused)
    for k, item in enumerate(items):
        assert run_item(item, tmp_path / f"item{k}")[0] == 0
    assert len(calls) == pieces == len(items)


# -- split diagrams ----------------------------------------------------------------

def _shifted_pd(d, shift):
    return [f"X({','.join(str(e + shift) for e in c.edges)})" for c in d.crossings]


def split_diagrams(rng, count):
    """Seeded split diagrams: closures of braids on disjoint generator
    sets (nested pieces, unused strands as loops), side-by-side PD
    unions of connected diagrams, and either with extra loops."""
    out = []
    while len(out) < count:
        if rng.random() < 0.5:
            strands = rng.randrange(4, 8)
            # generators 1..strands-1 with at least one gap
            gaps = set(rng.sample(range(1, strands), rng.randrange(1, strands - 1)))
            gens = [g for g in range(1, strands) if g not in gaps]
            if not gens:
                continue
            word = [rng.choice([1, -1]) * rng.choice(gens)
                    for _ in range(rng.randrange(1, 14))]
            d = ld.from_braid(word, strands)
            if rng.random() < 0.3:
                d = ld.parse_pd(", ".join([ld.serialize_pd(d)] + ["O"] * rng.randrange(1, 3)))
        else:
            parts, shift = [], 0
            for _ in range(rng.randrange(2, 4)):
                p = random_connected_diagram(rng, 10)
                parts += _shifted_pd(p, shift)
                shift += max(p.edges) + 1
            parts += ["O"] * rng.randrange(0, 3)
            d = ld.parse_pd(", ".join(parts))
        if not ld.is_connected(d):
            out.append(d)
    return out


def test_split_reports_combine_the_frozen_pieces(monkeypatch):
    rng = random.Random(base_seed() + 17)
    diagrams = split_diagrams(rng, 160)
    wants = []
    for d in diagrams:
        sigma, det = 0, 1
        pieces = split_pieces(d)
        for p in pieces:
            [(piece_sigma, piece_det)] = set(shading_values(p))
            sigma += piece_sigma
            det *= piece_det
        wants.append((sigma, det, f"over {len(pieces)} pieces"))
    assert sum(d.loops > 0 for d in diagrams) > 30
    assert sum(len(d.pieces) > 1 for d in diagrams) > 100
    freezes = []
    monkeypatch.setattr(ld._Builder, "freeze", lambda self: freezes.append(self))
    for d, (sigma, det, text) in zip(diagrams, wants):
        rep = inv.obstruction_report(d)
        assert (rep.sigma, rep.det) == (sigma, det)
        split = [v for v in rep.verdicts if v.rule == "split-combination"]
        assert len(split) == 1 and split[0].claim.endswith(text)
    assert freezes == []
