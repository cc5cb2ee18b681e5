"""Braid closures against the closure pass they replaced.

``from_braid`` wires each strand position's closing edge, which is its
start edge, when it places the last letter at that position.  The
reference below is the earlier construction, kept verbatim apart from
module prefixes, the way ``test_input_path`` keeps the old assembly: it
gave every letter two fresh edges, then renamed each position's last
edge to its start edge in a pass over every corner.  On a seeded corpus
of words, strand counts given or inferred, the two must build the same
diagram or raise the same error.
"""

import random

import pytest

from conftest import base_seed
from tracekit import linkdiag as ld
from tracekit.errors import MalformedPD, TracekitError


# -- reference: fresh edges for every letter, then a closing rename pass ---------

def ref_from_braid(word: list[int], strands: int | None = None, name: str | None = None) -> ld.LinkDiagram:
    """Closure of a braid word; letter ±i crosses strand positions i, i+1
    with the sign of the letter (positive letters make positive
    crossings).  Positions untouched by the word close into loops."""
    if strands is None:
        strands = max((abs(x) for x in word), default=1) + 1
    if any(x == 0 or abs(x) >= strands for x in word):
        raise MalformedPD("braid letter out of range")
    b = ld._Builder(name=name)
    start = [b.new_edge_id() for _ in range(strands)]
    cur = list(start)
    used = [False] * strands
    for letter in word:
        i = abs(letter) - 1
        used[i] = used[i + 1] = True
        e_i, e_j = cur[i], cur[i + 1]
        f_i, f_j = b.new_edge_id(), b.new_edge_id()
        if letter > 0:
            # strand arriving from position i+1 passes over to position i
            b.add_crossing((e_i, f_i, f_j, e_j), 1)
        else:
            b.add_crossing((e_j, e_i, f_i, f_j), -1)
        cur[i], cur[i + 1] = f_i, f_j
    # closure: identify cur[p] with start[p]
    remap: dict[int, int] = {}
    for p in range(strands):
        if not used[p]:
            b.loops += 1
            continue
        if cur[p] == start[p]:
            continue
        remap[cur[p]] = start[p]
    for x, e in enumerate(b.edges):
        while e in remap:
            e = remap[e]
        b.edges[x] = e
    return b.freeze()


def outcome(fn, *args):
    """The diagram built, or the library error raised, as (class, message)."""
    try:
        return fn(*args)
    except TracekitError as exc:
        return type(exc), str(exc)


# -- corpus and checks ---------------------------------------------------------------

def _words(rng, count):
    """(word, strands): 1-8 strand positions, 0-40 letters, the strand
    count inferred two times in five; a given count may leave the top
    positions untouched, or be one short so the top letter is out of
    range."""
    out = []
    for _ in range(count):
        top = rng.randrange(1, 9)
        word = [rng.choice([1, -1]) * rng.randrange(1, top + 1)
                for _ in range(rng.randrange(41))]
        strands = None if rng.random() < 0.4 else top + rng.choice([0, 1, 1, 2])
        out.append((word, strands))
    return out


def test_closures_match_on_seeded_words():
    rng = random.Random(base_seed() + 29)
    kinds = {"diagram": 0, "loops": 0, "error": 0}
    for word, strands in _words(rng, 2500):
        got = outcome(ld.from_braid, word, strands)
        assert got == outcome(ref_from_braid, word, strands), (word, strands)
        if isinstance(got, ld.LinkDiagram):
            kinds["diagram"] += 1
            kinds["loops"] += got.loops > 0
        else:
            kinds["error"] += 1
    assert min(kinds.values()) >= 200, kinds


@pytest.mark.parametrize("word, strands", [
    ([], None), ([], 1), ([], 4),                   # the empty word: loops only
    ([1], None), ([-1], None), ([2], 3), ([-3], 5),  # single letters
    ([1, 1], 4), ([1, -3, 1], 6), ([2, 2, -2], 5),  # untouched positions
    ([1, 2, 3], 4), ([-3, -2, -1], None),            # every position once
    ([2], 2), ([0], 3), ([1, -4], 4),                # letters out of range
])
def test_closures_match_on_edge_cases(word, strands):
    got = outcome(ld.from_braid, word, strands, "w")
    assert got == outcome(ref_from_braid, word, strands, "w")
    if word == []:
        assert got.loops == (strands or 2) and not got.crossings  # 2 inferred
