"""The PD input path against the code it replaced.

``assemble_pd`` orients each component inside the one walk that feeds
the canonical tail, and ``parse_pd`` splits its text with one
``findall``.  The references below are the earlier implementations,
kept verbatim apart from module prefixes, the way ``test_flat_core``
keeps the dict-based faces: the dict-based assembly builds on the
tuple-slot builder of ``ref_builder``, and the five-pass assembly
(orientation walk, head marks, renumbering, a sign loop and a builder
freeze) on the library's builder.  On a seeded corpus the library must
build the same diagram, with the corner memos its parse writes equal to
the ones a diagram derives from its crossings, or raise the same
exception class; against the five-pass assembly, with the same message
too.  The tokenizer may differ only where the reference stopped reading
at a separator other than space, tab, newline or comma, rejected a code
starting with a comma, or rejected the edge id 0.
"""

import json
import math
import random
import re
from collections import Counter
from itertools import chain, count

import pytest

from conftest import base_seed
from ref_builder import HEAD, TAIL, RefBuilder
from tracekit import linkdiag as ld
from tracekit.errors import (
    InconsistentEdges,
    MalformedPD,
    OrientationConflict,
    TracekitError,
)

Corner = ld.Corner


# -- references: the position-loop tokenizer and dict-based assembly ---------------

_TUPLE_RE = re.compile(r"[Xx]?\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")
_TOKEN_RE = re.compile(r"[Xx]?\s*\([^)]*\)|O|\S+")


def ref_parse_pd(text: str, name: str | None = None) -> "ld.LinkDiagram":
    tuples: list[tuple[int, int, int, int]] = []
    nloops = 0
    rest = text.strip()
    pos = 0
    while pos < len(rest):
        m = _TOKEN_RE.match(rest, pos)
        if m is None:
            break
        tok = m.group(0).strip().strip(",")
        pos = m.end()
        while pos < len(rest) and rest[pos] in ", \t\n":
            pos += 1
        if not tok:
            continue
        if tok == "O":
            nloops += 1
            continue
        tm = _TUPLE_RE.fullmatch(tok)
        if tm is None:
            raise MalformedPD(f"unrecognized PD token {tok!r}")
        a, b, c, dd = (int(tm.group(i)) for i in range(1, 5))
        if min(a, b, c, dd) < 1:
            raise MalformedPD("edge ids must be positive")
        tuples.append((a, b, c, dd))
    if not tuples and nloops == 0:
        raise MalformedPD("empty PD code")
    return ref_assemble_pd(tuples, nloops, name, strict_under=True)


def ref_assemble_pd(
    tuples: list[tuple[int, int, int, int]],
    nloops: int = 0,
    name: str | None = None,
    strict_under: bool = True,
) -> ld.LinkDiagram:
    if nloops < 0:
        raise MalformedPD(f"loops must be non-negative, got {nloops}")
    occ: dict[int, list[Corner]] = {}
    for ci, tup in enumerate(tuples):
        for s, e in enumerate(tup):
            occ.setdefault(e, []).append((ci, s))
    for e, places in occ.items():
        if len(places) != 2:
            raise InconsistentEdges(f"edge {e} used {len(places)} times")

    def partner(corner: Corner) -> Corner:
        a, b = occ[tuples[corner[0]][corner[1]]]
        return b if corner == a else a

    def orient_cycle(e0: int, start_head: Corner) -> dict[int, Corner] | None:
        out: dict[int, Corner] = {}
        e, h = e0, start_head
        while True:
            out[e] = h
            c, s = h
            e_next = tuples[c][(s + 2) % 4]
            h_next = partner((c, (s + 2) % 4))
            if e_next == e0:
                return out if h_next == start_head else None
            if e_next in out:
                return None
            e, h = e_next, h_next

    def under_consistent(heads: dict[int, Corner]) -> bool:
        for e in heads:
            for corner in occ[e]:
                if corner[1] == 0 and heads[e] != corner:
                    return False
                if corner[1] == 2 and heads[e] == corner:
                    return False
        return True

    heads: dict[int, Corner] = {}
    seen: set[int] = set()
    for e0 in sorted(occ):
        if e0 in seen:
            continue
        fwd = orient_cycle(e0, occ[e0][0])
        bwd = orient_cycle(e0, occ[e0][1])
        if fwd is None or bwd is None:
            raise MalformedPD(f"strand through edge {e0} does not close up")
        seen |= set(fwd)
        candidates = [h for h in (fwd, bwd) if under_consistent(h)]
        if strict_under and not candidates:
            raise OrientationConflict(
                f"component {sorted(fwd)} cannot satisfy the under-strand convention"
            )
        if len(candidates) == 1:
            heads.update(candidates[0])
            continue
        pool = candidates or [fwd, bwd]
        heads.update(max(pool, key=lambda h: ref_ascents(h, occ, tuples, partner)))

    rank = {e: i for i, e in enumerate(sorted(occ), 1)}
    b = RefBuilder()
    b.loops = nloops
    b.name = name
    b._next_edge = len(rank) + 1
    for ci, tup in enumerate(tuples):
        slots: list[tuple[int, str]] = []
        for s, e in enumerate(tup):
            end = HEAD if heads[e] == (ci, s) else TAIL
            slots.append((rank[e], end))
        if slots[0][1] != HEAD:
            if strict_under:
                raise OrientationConflict(f"crossing {ci}: under-strand reversed")
            slots = slots[2:] + slots[:2]
        if slots[2][1] != TAIL or {slots[1][1], slots[3][1]} != {"h", "t"}:
            raise OrientationConflict(f"crossing {ci}: inconsistent orientation")
        b.add_crossing(slots)
    return b.freeze()


def ref_ascents(heads: dict[int, Corner], occ, tuples, partner) -> int:
    score = 0
    for e, h in heads.items():
        c, s = h
        nxt = tuples[c][(s + 2) % 4]
        if nxt == e + 1:
            score += 1
    return score


def flat_assemble_pd(
    tuples: list[tuple[int, int, int, int]],
    nloops: int = 0,
    name: str | None = None,
    strict_under: bool = True,
) -> ld.LinkDiagram:
    if nloops < 0:
        raise MalformedPD(f"loops must be non-negative, got {nloops}")
    if nloops > ld.CATALOG_MAX_SIZE:
        raise MalformedPD(f"{nloops} loops; link diagrams are limited to {ld.CATALOG_MAX_SIZE}")
    edges = list(chain.from_iterable(tuples))
    partner = ld._pair_corners(edges)
    # the first corner of each edge, in order of edge id
    firsts = sorted((x for x, y in enumerate(partner) if x < y), key=edges.__getitem__)
    head = [False] * len(edges)
    for x0 in firsts:
        if head[x0] or head[partner[x0]]:
            continue  # on a component already walked
        walk = [x0]
        while (x := partner[walk[-1] ^ 2]) != x0:
            walk.append(x)
        under = {x & 3 for x in walk} & {0, 2}
        if strict_under and len(under) == 2:
            raise OrientationConflict(
                f"component {sorted(edges[x] for x in walk)} cannot satisfy "
                "the under-strand convention"
            )
        if len(under) == 1:
            forward = 0 in under
        else:
            steps = [(edges[x], edges[x ^ 2]) for x in walk]
            forward = sum(b == a + 1 for a, b in steps) >= sum(a == b + 1 for a, b in steps)
        for x in walk:
            head[x if forward else x ^ 2] = True

    # the builder indexes edges by id, so renumber them 1..m in the same
    # order, which keeps freeze's component order and walk starts
    rank = dict(zip(map(edges.__getitem__, firsts), count(1)))
    flat = list(map(rank.__getitem__, edges))
    signs = []
    for c in range(0, len(flat), 4):
        if head[c]:
            signs.append(1 if head[c + 3] else -1)
        else:
            # only free mode leaves an under-strand flowing from slot 2
            flat[c:c + 4] = flat[c + 2:c + 4] + flat[c:c + 2]
            signs.append(1 if head[c + 1] else -1)
    return ld._Builder(flat, signs, len(rank) + 1, nloops, name).freeze()


def outcome(fn, *args):
    """The diagram built with its corner memos, or the class and message
    of the library error raised."""
    try:
        d = fn(*args)
    except TracekitError as exc:
        return type(exc), str(exc)
    return d, d.corner_edges, d.partner


def same_outcome(*args):
    """The library's outcome, checked against both references: the
    dict-based one up to error messages, the five-pass one exactly."""
    got = outcome(ld.assemble_pd, *args)
    assert got == outcome(flat_assemble_pd, *args), args
    ref = outcome(ref_assemble_pd, *args)
    if isinstance(got[0], type):
        assert got[0] == ref[0], args
    else:
        assert got == ref, args
    return got


# -- corpus ------------------------------------------------------------------------

def _variant(rng, rows):
    """Braid-closure rows, each change made with even odds: rows rotated
    or reflected, the row order reversed, ids shifted or scattered; and
    with odds of one in five, one entry corrupted."""
    rows = [list(r) for r in rows]
    if rng.random() < 0.5:
        for r in rng.sample(rows, rng.randrange(len(rows) + 1)):
            k = rng.randrange(1, 4)
            r[:] = r[k:] + r[:k]
    if rng.random() < 0.5:
        for r in rng.sample(rows, rng.randrange(len(rows) + 1)):
            r[:] = r[::-1]
    if rng.random() < 0.5:
        rows.reverse()
    if rng.random() < 0.5:
        ids = sorted({e for r in rows for e in r})
        if rng.random() < 0.5:
            shift = rng.randrange(-20, 20)
            new = {e: e + shift for e in ids}
        else:
            new = dict(zip(ids, rng.sample(range(-50, 10**6), len(ids))))
        rows = [[new[e] for e in r] for r in rows]
    if rows and rng.random() < 0.2:
        r = rng.choice(rows)
        r[rng.randrange(4)] = rng.randrange(-1, 2 * len(rows) + 2)
    return rows


def _tuple_lists(rng, count):
    out = []
    for _ in range(count):
        if rng.random() < 0.1:
            n = rng.randrange(0, 6)
            out.append([[rng.randrange(1, 2 * n + 2) for _ in range(4)] for _ in range(n)])
            continue
        strands = rng.randrange(2, 6)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 13))]
        rows = [c.edges for c in ld.from_braid(word, strands).crossings]
        out.append(_variant(rng, rows))
    return out


@pytest.fixture(scope="module")
def rational_tuples():
    """The tuple lists ``rational_link`` hands to ``assemble_pd`` for every
    fraction p/q with p < 80, both mirror images."""
    calls = []
    real = ld.assemble_pd

    def record(tuples, nloops, name, strict_under):
        calls.append((tuples, nloops, name, strict_under))
        return real(tuples, nloops, name, strict_under)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ld, "assemble_pd", record)
        for p in range(2, 80):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    for flip in (False, True):
                        ld.rational_link(p, q, f"{p}/{q}", flip)
    return calls


# -- assembly ----------------------------------------------------------------------

def test_assembly_matches_on_perturbed_braid_closures():
    rng = random.Random(base_seed() + 7)
    seen = Counter()
    for rows in _tuple_lists(rng, 2500):
        nloops = rng.choice([0, 0, 0, 1, 2, -1])
        for strict in (True, False):
            got = same_outcome(rows, nloops, "x", strict)
            seen[got[0] if isinstance(got[0], type) else "ok"] += 1
    assert seen["ok"] > 1500, seen
    for cls in (InconsistentEdges, OrientationConflict, MalformedPD):
        assert seen[cls] > 500, seen


def test_assembly_matches_on_every_small_rational_link(rational_tuples):
    assert len(rational_tuples) > 3800
    for tuples, nloops, name, strict in rational_tuples:
        assert strict is False
        for mode in (False, True):
            same_outcome(tuples, nloops, name, mode)


# -- tokenizer ---------------------------------------------------------------------

ALPHABET = "XxO()0123456789,  \t\n\f\v\xa0\ra-"
SEPARATORS = [", ", ",", " ", "\n", "\t", " ,\n", "\f", "\v", "\xa0", "\r", "\r\n", ""]


def _texts(rng, count):
    """Random strings, and PD codes of braid closures joined by random
    separators."""
    out = []
    for _ in range(count):
        if rng.random() < 0.5:
            out.append("".join(rng.choice(ALPHABET) for _ in range(rng.randrange(0, 30))))
            continue
        strands = rng.randrange(2, 5)
        word = [rng.choice([1, -1]) * rng.randrange(1, strands)
                for _ in range(rng.randrange(0, 7))]
        d = ld.from_braid(word, strands)
        shift = rng.choice([0, 0, -1])
        tokens = [f"{rng.choice(['X', 'x', ''])}({','.join(str(e + shift) for e in c.edges)})"
                  for c in d.crossings] + ["O"] * d.loops
        rng.shuffle(tokens)
        text = rng.choice(SEPARATORS)
        for tok in tokens:
            text += tok + rng.choice(SEPARATORS[:-1])
        out.append(text)
    return out


def _allowed_difference(text, ref_error):
    """The reference stopped at a separator it did not skip, choked on a
    leading comma, or rejected edge id 0."""
    if any(c.isspace() and c not in " \t\n" for c in text):
        return True
    if text.strip().startswith(","):
        return True
    return isinstance(ref_error, MalformedPD) and "positive" in str(ref_error)


def test_tokenizer_matches_the_position_loop():
    rng = random.Random(base_seed() + 8)
    differ = Counter()
    for text in _texts(rng, 6000):
        got = outcome(ld.parse_pd, text)[0]
        try:
            want, ref_error = ref_parse_pd(text), None
        except TracekitError as exc:
            want, ref_error = type(exc), exc
        if got != want:
            assert _allowed_difference(text, ref_error), repr(text)
            differ[type(ref_error).__name__ if ref_error else "ok"] += 1
    assert sum(differ.values()) > 50, differ


@pytest.mark.parametrize("sep", ["\f", "\v", "\xa0", "\r", "\r\n", "\u2028"])
def test_every_whitespace_separates_tokens(sep):
    codes = (["X(4,2,5,1)", "X(6,4,1,3)", "X(2,6,3,5)", "O"],
             ["O", "X(1,4,2,3)", "X(4,1,3,2)"])
    for tokens in codes:
        assert ld.parse_pd(sep.join(tokens)) == ld.parse_pd("\n".join(tokens))
    assert ld.parse_pd(f"X(4,2,5,1), X(6,4,1,3), X(2,6,3,5){sep}O").loops == 1


def test_commas_and_whitespace_are_interchangeable():
    assert ld.parse_pd(",O,O,O") == ld.parse_pd("O O O")
    assert ld.parse_pd(",,X(1,4,2,3),,X(4,1,3,2),") == ld.parse_pd("X(1,4,2,3) X(4,1,3,2)")


def test_edge_id_zero_parses_in_text_as_in_json():
    tuples = [(3, 1, 4, 0), (5, 3, 0, 2), (1, 5, 2, 4)]
    want = ld.catalog("trefoil")
    text = ", ".join(f"X({','.join(map(str, t))})" for t in tuples)
    assert ld.parse_pd(text, want.name) == want
    assert ld.loads(json.dumps({"pd": tuples, "name": want.name}))[0] == want
