"""Self-tests of the benchmark's own arithmetic and corpus.

    python3 -m pytest perfbench
"""

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(list(reversed(values)), 0.9) == 90
    assert run.percentile([7.0], 0.9) == 7.0


def test_p90_has_ten_samples_beyond_it():
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(99, 0.9) == 9
    assert all(run.samples_beyond(n, 0.9) >= 10 for n in range(100, 400))
    for workload in corpus.WORKLOADS:
        assert run.samples_beyond(len(corpus.build(workload, 1)), 0.9) >= 10


def _span(name, start, end, parent):
    return tracer.Span(name, f"g.{name}", start, end, parent, "item")


def test_self_time_subtracts_covered_children():
    spans = [
        _span("main", 0.0, 10.0, -1),
        _span("f", 1.0, 4.0, 0),
        _span("f", 2.0, 3.0, 1),   # nested call of the same function
        _span("g", 5.0, 6.0, 0),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    # a name's summed self time equals its outermost span, not double it
    assert sum(t for s, t in zip(spans, tracer.self_times(spans)) if s.name == "f") == 3.0
    assert sum(tracer.self_times(spans)) == 10.0


def test_tracer_nested_same_name_calls():
    t = tracer.Tracer(clock=itertools.count().__next__)

    def inner():
        return 1

    def outer():
        return t.call("faces", "linkdiag.faces", inner)

    t.call("faces", "linkdiag.faces", outer)
    t.present.add("linkdiag.faces")
    m = t.metrics(passes=1)
    # outer spans ticks 0..3, inner 1..2: self times 2 and 1
    assert m["linkdiag.faces_s"] == 3
    assert m["linkdiag.faces_calls"] == 2


def test_tracer_counts_errors_and_survives_missing_names(monkeypatch):
    monkeypatch.setitem(tracer.GROUPS, "linkdiag.gone", ("linkdiag", ("no_such_function",)))
    t = tracer.Tracer()
    t.install()
    try:
        from tracekit import linkdiag
        try:
            linkdiag.parse_pd("X(1,2)")
        except Exception:  # noqa: BLE001 - the malformed input is the point
            pass
    finally:
        t.uninstall()
    m = t.metrics(passes=1)
    assert "linkdiag.gone_s" not in m
    assert m["linkdiag.parse_calls"] == 1
    assert m["linkdiag.errors"] == 1


def test_install_patches_reexports_and_uninstall_restores():
    import tracekit
    from tracekit import invariants
    seifert_module = sys.modules["tracekit.seifert"]
    original = seifert_module.seifert
    t = tracer.Tracer()
    t.install()
    try:
        assert tracekit.seifert is seifert_module.seifert is invariants.seifert
        assert seifert_module.seifert is not original
    finally:
        t.uninstall()
    assert tracekit.seifert is original and invariants.seifert is original


def test_corpus_is_a_pure_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        a = corpus.corpus_digest(corpus.build(workload, 7))
        assert a == corpus.corpus_digest(corpus.build(workload, 7))
        assert a != corpus.corpus_digest(corpus.build(workload, 8))


def test_surgery_linking_matches_the_library():
    from tracekit import linkdiag
    for item in corpus.build("surgery", 3):
        if item.text is not None and item.argv[0] == "trace":
            d, _ = linkdiag.loads(item.text)
            assert linkdiag.linking_matrix(d) == item.expect["lk"], item.id
