"""High-order traces against the blocks knotified in one diagram.

``high_order_trace`` reads Q and W from the linking matrix: band sums
and null-homologous clasp circles change no linking number, so each
band circle winds 0 over every block's knot, two knots link by their
blocks' cross-block sum, and every row of W is zero.  Here every block
is knotified inside the one diagram (``ref_blocks.knotify_blocks``) and
those facts are read off the result: on the surgery ``trace
--partition`` items of the benchmark (seeds 1-6), on the catalog and on
seeded diagrams with split pieces and loops.  The benchmark directory is
only read, as in ``test_golden_reports``.
"""

import random

import pytest

from conftest import base_seed
from ref_blocks import knotify_blocks
from test_face_chirality import _corpus
from test_golden_reports import GOLDEN_SEED, run_item
from test_golden_reports import corpus as bench_corpus
from tracekit import cli
from tracekit import linkdiag as ld
from tracekit import traces as tr

SURGERY_SEEDS = range(1, 7)


def audit(link, part):
    """Check ``high_order_trace`` on one partition against the blocks
    knotified in one diagram; returns the number of band circles."""
    h = tr.high_order_trace(link, part)
    d, circles, knots = knotify_blocks(link.diagram, part.blocks)
    ec = d.edge_component
    k = len(knots)
    assert len(set(knots)) == k
    for block_circles in circles:
        for e in block_circles:
            assert [ld.linking_number(d, ec[e], knot) for knot in knots] == [0] * k
    assert h.q == tuple(tuple(0 if a == b else ld.linking_number(d, a, b) for b in knots)
                        for a in knots)
    # one row per band circle and two per genus handle, all over the k knots
    assert [len(c) for c in circles] == [len(b) - 1 for b in part.blocks]
    assert h.w == ((0,) * k,) * (sum(map(len, circles)) + 2 * sum(part.weights))
    return sum(map(len, circles))


def _surgery_partition_items(seed):
    return [item for item in bench_corpus.build("surgery", seed)
            if item.id.startswith("partition/")]


def _item_link(item):
    """(framed link, partition) of a ``trace --partition`` corpus item."""
    if item.text is not None:
        d, _ = ld.loads(item.text)
    else:
        d = cli._load_catalog(item.argv[item.argv.index("--catalog") + 1])
    spec = next(a for a in item.argv if a.startswith("--partition="))
    part = cli._parse_partition(spec.removeprefix("--partition="), d.num_components)
    return tr.FramedLink(d, tuple(item.expect["framings"])), part


def _law_framings(d, part, rng):
    """Random framings that satisfy every block's framing law."""
    lkm = ld.linking_matrix(d)
    framings = [rng.randint(-3, 3) for _ in range(d.num_components)]
    for block in part.blocks:
        framings[block[-1]] = tr._block_law(lkm, block) - sum(framings[i] for i in block[:-1])
    return tuple(framings)


def _random_partition(n, rng):
    comps = list(range(n))
    rng.shuffle(comps)
    cuts = sorted(rng.sample(range(1, n), rng.randrange(n))) if n > 1 else []
    blocks = [comps[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return tr.WeightedPartition.of(blocks, [rng.randrange(3) for _ in blocks], n)


@pytest.mark.parametrize("seed", SURGERY_SEEDS)
def test_closed_form_matches_knotified_blocks_on_surgery_items(seed):
    items = _surgery_partition_items(seed)
    # the corpus fixes every seed's component counts and block sizes
    assert len(items) == 26
    assert sum(audit(*_item_link(item)) for item in items) == 62


def test_closed_form_matches_knotified_blocks_on_catalog_and_seeded_diagrams():
    rng = random.Random(base_seed())
    diagrams = _corpus() + [
        ld.catalog(name, param) for name, param in
        [("unknot", None), ("hopf", "+"), ("trefoil", "-"), ("figure8", None),
         ("whitehead", None), ("twist_family", 0), ("unlink", 3)]]
    multi_block = 0
    for d in diagrams:
        for _ in range(4):
            part = _random_partition(d.num_components, rng)
            audit(tr.FramedLink(d, _law_framings(d, part, rng)), part)
            multi_block += part.block_count > 1
    assert multi_block > 40


def test_partition_traces_build_no_diagram(monkeypatch, tmp_path):
    """On the seed-1 surgery partition items, ``high_order_trace``
    freezes no diagram and reads no linking number one pair at a time."""
    calls = {"high_order_trace": 0, "freeze": 0, "linking_number": 0}
    inside = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            if inside:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def traced(*args, **kwargs):
        calls["high_order_trace"] += 1
        inside.append(True)
        try:
            return high_order_trace(*args, **kwargs)
        finally:
            inside.pop()

    high_order_trace = tr.high_order_trace
    monkeypatch.setattr(tr, "high_order_trace", traced)
    monkeypatch.setattr(ld._Builder, "freeze", counting("freeze", ld._Builder.freeze))
    for module in (ld, tr):
        monkeypatch.setattr(module, "linking_number",
                            counting("linking_number", ld.linking_number))
    for k, item in enumerate(_surgery_partition_items(GOLDEN_SEED)):
        assert run_item(item, tmp_path / f"item{k}")[0] == 0
    assert calls == {"high_order_trace": 26, "freeze": 0, "linking_number": 0}
