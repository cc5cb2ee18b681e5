"""Pieces with one root, and corner pairing from the parse's sort.

``linkdiag._pieces`` returns at once when every component joins one
union-find root, and ``linkdiag._pair_corners`` pairs the consecutive
entries of the corners sorted by edge id, scanning the corners only to
name the edge it refuses.  The references below are the code both
replaced: the full union-find labelling and the dict pass over the
corners.  Pieces and ``piece_of`` must equal the reference's on
connected and split diagrams, and every refusal must carry the
reference's message, byte for byte.
"""

import random
from itertools import chain, groupby

import pytest

from conftest import base_seed, random_connected_diagram
from tracekit import linkdiag as ld
from tracekit.errors import InconsistentEdges


def ref_pieces(d):
    """(pieces, piece_of) by union-find, labelled in order of least
    crossing and grouped by a stable sort."""
    ec = d.edge_component
    corners = d.corner_edges
    under = list(map(ec.__getitem__, corners[0::4]))
    root = list(range(len(d.components)))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for u, o in set(zip(under, map(ec.__getitem__, corners[1::4]))):
        root[find(u)] = find(o)
    label = list(map([find(i) for i in root].__getitem__, under))
    number = {r: i for i, r in enumerate(dict.fromkeys(label))}
    piece_of = list(map(number.__getitem__, label))
    by_piece = sorted(range(len(label)), key=piece_of.__getitem__)
    return [set(g) for _, g in groupby(by_piece, piece_of.__getitem__)], piece_of


def ref_pair_corners(edges):
    """Corner -> partner corner by one dict pass, refusing the first edge
    used a third time, else the first corner's edge used once."""
    partner = [-1] * len(edges)
    first = {}
    for x, e in enumerate(edges):
        y = first.setdefault(e, x)
        if y != x:
            if partner[y] != -1:
                raise InconsistentEdges(f"edge {e} appears more than twice")
            partner[x] = y
            partner[y] = x
    if -1 in partner:
        raise InconsistentEdges(f"edge {edges[partner.index(-1)]} appears once")
    return partner


def _fresh(d):
    """The diagram without its memo, so ``_pieces`` runs on it anew."""
    return ld.LinkDiagram(d.crossings, d.components, d.loops, d.name)


def _pieces_of(d):
    fresh = _fresh(d)
    pieces = ld._pieces(fresh)
    return pieces, fresh.__dict__["piece_of"]


def _pure_closure(rng, strands, gens, length):
    """A closure where every strand is its own component: a random word
    on ``gens`` followed by its letters in reverse order."""
    half = [rng.choice(gens) for _ in range(length // 2)]
    word = [g * rng.choice((1, -1)) for g in half]
    return ld.from_braid(word + [g * rng.choice((1, -1)) for g in reversed(half)], strands)


def test_connected_multi_component_diagrams_are_one_piece():
    rng = random.Random(base_seed())
    diagrams = [ld.catalog(name, param) for name, param in
                (("borromean", None), ("whitehead", None), ("hopf", "-"),
                 ("twist_family", "-3"))]
    for _ in range(30):
        strands = rng.randrange(2, 7)
        diagrams.append(_pure_closure(rng, strands, range(1, strands), rng.randrange(4, 120)))
    for d in diagrams:
        if not ld.is_connected(d):
            continue  # a pure word may leave two strands apart
        assert len(d.components) >= 2
        pieces, piece_of = _pieces_of(d)
        assert (pieces, piece_of) == ref_pieces(d)
        assert pieces == [set(range(len(d.crossings)))]


def test_split_diagrams_match_the_reference():
    rng = random.Random(base_seed())
    seen = set()
    for _ in range(30):
        strands = rng.randrange(3, 8)
        gens = [g for g in range(1, strands) if rng.random() < 0.6] or [1]
        d = _pure_closure(rng, strands, gens, rng.randrange(4, 120))
        pieces, piece_of = _pieces_of(d)
        assert (pieces, piece_of) == ref_pieces(d)
        seen.add(len(pieces) > 1)
    assert seen == {False, True}


def _refusal(fn, *args):
    with pytest.raises(InconsistentEdges) as exc:
        fn(*args)
    return str(exc.value)


def _malformed(rng, edges):
    """The corner edge ids with one edge used once, or one used three or
    four times."""
    edges = list(edges)
    n = len(edges)
    kind = rng.randrange(3)
    if kind == 0:  # a fresh id: it and the id it replaced are used once
        edges[rng.randrange(n)] = rng.choice((min(edges) - 1, max(edges) + rng.randrange(1, 5)))
    elif kind == 1:  # a copied id is used three times, the replaced one once
        x = rng.randrange(n)
        edges[x] = rng.choice([e for e in edges if e != edges[x]])
    else:  # an id used twice takes two more corners
        e = rng.choice(edges)
        for x in rng.sample([x for x in range(n) if edges[x] != e], 2):
            edges[x] = e
    return edges


def test_refusals_name_the_reference_edge():
    rng = random.Random(base_seed())
    messages = set()
    for _ in range(200):
        d = random_connected_diagram(rng, rng.choice((2, 4, 8, 16)))
        # labels need not be 1..m: relabel with gaps, zero and negatives
        labels = rng.sample(range(-5, 4 * len(d.corner_edges)), len(d.corner_edges) // 2)
        edges = [labels[e - 1] for e in d.corner_edges]
        assert ld._pair_corners(edges) == ref_pair_corners(edges)
        bad = _malformed(rng, edges)
        expected = _refusal(ref_pair_corners, bad)
        assert _refusal(ld._pair_corners, bad) == expected
        tuples = [tuple(bad[x:x + 4]) for x in range(0, len(bad), 4)]
        assert _refusal(ld.assemble_pd, tuples) == expected
        messages.add(expected.split()[-1])
    # both refusals are drawn: "more than twice" and "once"
    assert messages == {"twice", "once"}


def test_a_given_sort_pairs_as_the_own_sort_does():
    rng = random.Random(base_seed())
    for _ in range(50):
        d = random_connected_diagram(rng, 8)
        edges = list(chain.from_iterable(c.edges for c in d.crossings))
        order = sorted(range(len(edges)), key=edges.__getitem__)
        assert ld._pair_corners(edges, order) == ld._pair_corners(edges) == d.partner
