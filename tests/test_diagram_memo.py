"""Each frozen diagram derives its faces, pieces and linking once.

``_canonical``, the tail that ``freeze`` and the parse share, walks the
faces and builds the pieces for its planarity check, and every later
reader takes them from the diagram's memo.  So over any run, ``faces``
and ``_pieces`` run at most once per canonical diagram, and
no caller may change what the memo holds.  Band merges, clasps, R2
pushes and direct-band searches read faces from corners, and ``_canonical``
pairs corners from the walk's heads, so surgery builds no face walks, and
none of them pairs corners again.
"""

import importlib
import sys

import pytest

from ref_blocks import knotify_blocks
from test_face_chirality import _corpus, _edge_pairs
from test_golden_reports import GOLDEN_SEED, run_item
from test_golden_reports import corpus as bench_corpus
from tracekit import linkdiag as ld
from tracekit import traces as tr
from tracekit.invariants import obstruction_report

# the package exports a function named ``seifert``, which hides the module
seifert = importlib.import_module("tracekit.seifert")

MEMOS = ("edge_component", "corner_edges", "partner", "corner_out",
         "face_corners", "face_of", "pieces", "piece_of", "linking")


@pytest.fixture(scope="module")
def corpus():
    return [(d, _edge_pairs(d)) for d in _corpus()]


def _exercise(d, pairs):
    """knotify, a two-block knotification, the invariant report and R2
    pushes."""
    n = d.num_components
    tr.knotify(tr.FramedLink(d, (0,) * n))
    if n >= 2:
        knotify_blocks(d, [range(0, n, 2), range(1, n, 2)])
    obstruction_report(d)
    for over, under in pairs:
        ld.r_moves(d, "R2+", (over, under))


def _counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_faces_and_pieces_run_at_most_once_per_freeze(monkeypatch, corpus):
    calls = {"faces": 0, "_pieces": 0, "_canonical": 0}
    for name in calls:
        monkeypatch.setattr(ld, name, _counting(calls, name, getattr(ld, name)))
    for d, pairs in corpus:
        _exercise(d, pairs)
    assert calls["_canonical"] > 1000, calls
    assert calls["faces"] <= calls["_canonical"]
    assert calls["_pieces"] <= calls["_canonical"]


def test_surgery_steps_build_no_face_walks_and_no_second_pairing(monkeypatch):
    guarded = {ld.band_merge.__code__, ld._r2_insert_mapped.__code__,
               tr._knotify_step.__code__, ld._Builder.freeze.__code__}
    calls = {"face_edge_parities": 0, "_pair_corners": 0}

    def outside_guarded(name, fn):
        def wrapped(*args):
            calls[name] += 1
            frame = sys._getframe(1)
            while frame is not None:
                assert frame.f_code not in guarded, (name, frame.f_code.co_name)
                frame = frame.f_back
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(ld, name, outside_guarded(name, getattr(ld, name)))
    # the Seifert oracle imports the face walks by name
    monkeypatch.setattr(seifert, "face_edge_parities", ld.face_edge_parities)
    for d in _corpus():
        _exercise(d, _edge_pairs(d))
    # parses pair corners, and nothing in surgery reads face walks
    assert calls["_pair_corners"] > 0 and calls["face_edge_parities"] == 0, calls
    # the face-walk wrapper sees the calls of the one reader left
    seifert.braid_form(ld.catalog("figure8"))
    assert calls["face_edge_parities"] > 0, calls


def test_seed1_surgery_pass_freezes_once_per_band_and_clasp_step(monkeypatch, tmp_path):
    """A seed-1 pass over the benchmark's surgery corpus builds 184
    canonical diagrams: 100 parses and 84 builder freezes.  Building each
    band merge and its clasp in one builder took 122 freezes off the 373
    of two builds per step, and the 26 ``trace --partition`` items
    stopped freezing (251 before) when high-order traces were read from
    the linking matrix instead of knotifying every block.  Parses end in
    the canonical tail without a builder.  Knotify always finds a direct
    band, so the pass makes no R2 push."""
    items = bench_corpus.build("surgery", GOLDEN_SEED)
    calls = {"_canonical": 0, "assemble_pd": 0, "freeze": 0, "_r2_insert_mapped": 0}
    for name in ("_canonical", "assemble_pd", "_r2_insert_mapped"):
        monkeypatch.setattr(ld, name, _counting(calls, name, getattr(ld, name)))
    monkeypatch.setattr(ld._Builder, "freeze",
                        _counting(calls, "freeze", ld._Builder.freeze))
    for k, item in enumerate(items):
        assert run_item(item, tmp_path / f"item{k}")[0] == 0
    assert calls["_canonical"] == 184
    assert (calls["assemble_pd"], calls["freeze"]) == (100, 84)
    assert calls["_r2_insert_mapped"] == 0


def test_seed1_surgery_pass_tests_each_band_for_one_piece_once(monkeypatch, tmp_path):
    """A seed-1 pass over the benchmark's surgery corpus asks
    ``_same_piece`` 73 times: once in each of the 68 edge-band builds,
    which also decide the clasp's drawing, and 5 times in the direct
    band's piece fallback.  The knotify step asking again for the clasp
    made 138."""
    items = bench_corpus.build("surgery", GOLDEN_SEED)
    calls = {"_same_piece": 0}
    monkeypatch.setattr(ld, "_same_piece", _counting(calls, "_same_piece", ld._same_piece))
    for k, item in enumerate(items):
        assert run_item(item, tmp_path / f"item{k}")[0] == 0
    assert calls["_same_piece"] == 73


def test_memo_is_never_mutated(corpus):
    for d, _ in corpus:
        for attr in MEMOS:
            getattr(d, attr)
    for d, pairs in corpus:
        _exercise(d, pairs)
    for d, _ in corpus:
        fresh = ld.LinkDiagram(d.crossings, d.components, d.loops, d.name)
        assert fresh == d and not set(MEMOS) & set(fresh.__dict__)
        for attr in MEMOS:
            assert d.__dict__[attr] == getattr(fresh, attr), attr
        assert fresh.face_corners == ld.faces(fresh)
        assert fresh.pieces == ld._pieces(fresh)


def test_linking_matrix_is_a_fresh_copy():
    d = ld.catalog("hopf", "+")
    m = ld.linking_matrix(d)
    m[0][0] = 7
    assert ld.linking_matrix(d) == [[0, 1], [1, 0]]
    assert d.linking == ((0, 1), (1, 0))
