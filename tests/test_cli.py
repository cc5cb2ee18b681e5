import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tracekit import cli
from tracekit import linkdiag as ld
from tracekit import traces
from tracekit.errors import (
    InputError,
    InternalInvariantError,
    MalformedPD,
    PreconditionError,
    TracekitError,
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_invariants_twist_family(capsys):
    code, out = run(capsys, "invariants", "--catalog", "twist_family:0")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == -3
    assert data["tau"] == 2
    assert data["g4_lb"] == 1
    assert any(v["claim"].startswith("planar-surface verdict: ObstructionFound")
               for v in data["verdicts"])


def test_trace_hopf(capsys):
    code, out = run(capsys, "trace", "--catalog", "hopf:+", "--framings", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["Q"] == [[0, 1], [1, 0]]
    assert data["chi"] == 3


def test_trace_partition(capsys):
    code, out = run(capsys, "trace", "--catalog", "hopf:+",
                    "--framings=-1,-1", "--partition", "1,2:g=0")
    assert code == 0
    data = json.loads(out)
    assert data["handles"] == [1, 1, 1, 0, 0]
    assert data["chi"] == 1


@pytest.mark.parametrize("partition", ["1,1,2:g=0", "1,2,2:g=0", "1,2:g=0|2:g=0", "2,1,2:g=1"])
def test_trace_partition_refuses_repeated_members(capsys, partition):
    code = cli.main(["trace", "--catalog", "hopf:+", "--framings=-1,-1",
                     "--partition", partition])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("precondition violated: blocks do not partition")


@pytest.mark.parametrize("partition", [":g=0|1,2:g=0", "1,2:g=0|", "1,2:g=0|,:g=0"])
def test_trace_partition_empty_block_is_an_input_error(capsys, partition):
    # the option's syntax has no empty block: an empty body is bad text
    code = cli.main(["trace", "--catalog", "hopf:+", "--framings=-1,-1",
                     "--partition", partition])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("input error: bad partition block")


def test_check_sphere_unlink(capsys):
    code, out = run(capsys, "check-sphere", "--catalog", "unlink:2",
                    "--framings", "0,0")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"]["status"] == "pass-necessary"
    assert data["verdict"]["data"]["chi_closed"] == 2


def test_check_sphere_fails_on_hopf(capsys):
    code, out = run(capsys, "check-sphere", "--catalog", "hopf:+",
                    "--framings", "0,0")
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "fail"


def test_knotify_command(capsys):
    code, out = run(capsys, "knotify", "--catalog", "hopf:+",
                    "--framings=-1,-1")
    assert code == 0
    data = json.loads(out)
    assert data["surgery_circles"] == 1
    assert data["framing"] == 0
    assert data["winding"] == [0]
    assert data["planar_framing_valid"] is True


def test_catalog_listing_and_entry(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "twist_family" in json.loads(out)["entries"]
    code, out = run(capsys, "catalog", "trefoil:+")
    assert code == 0
    data = json.loads(out)
    assert len(data["pd"]) == 3


def test_parse_roundtrip_file(tmp_path, capsys):
    d = ld.catalog("whitehead")
    path = tmp_path / "wh.json"
    path.write_text(ld.dumps(d))
    code, out = run(capsys, "parse", str(path))
    assert code == 0
    again, _ = ld.loads(out)
    assert again == d


def test_parse_pd_text_file(tmp_path, capsys):
    path = tmp_path / "tref.txt"
    path.write_text("X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)")
    code, out = run(capsys, "parse", str(path))
    assert code == 0
    assert len(json.loads(out)["pd"]) == 3


def test_check_schoenflies_file(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"name": "u2", "pd": [], "loops": 2, "dotted": [], "framings": [0, 0]}))
    code, out = run(capsys, "check-schoenflies", str(path))
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "pass-necessary"


def test_check_schoenflies_computes_the_winding_matrix_once(tmp_path, capsys, monkeypatch):
    """The verdict reads the W the report shows: a 1x2 W costs two
    linking numbers (four when each computed its own), and the report
    bytes are as before."""
    data = ld.to_json_dict(ld.catalog("borromean"))
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({**data, "dotted": [0], "framings": [0, 0]}))
    calls = []

    def counted(*args):
        calls.append(args[1:])
        return ld.linking_number(*args)

    monkeypatch.setattr(traces, "linking_number", counted)
    assert run(capsys, "check-schoenflies", str(path)) == (0, (
        '{"W": [[0, 0]], "attaching": [1, 2], "construction": "schoenflies-candidate", '
        '"dotted": [0], "verdict": {"checks": ["n = 2 >= 2k = 2", '
        '"coker(W) = (rank 1, torsion ()) != 0"], "data": {}, "status": "fail"}}\n'))
    assert calls == [(1, 0), (2, 0)]
    assert run(capsys, "check-schoenflies", str(path), "--format", "table") == (0, (
        'W: [[0, 0]]\nattaching: [1, 2]\nconstruction: "schoenflies-candidate"\n'
        'dotted: [0]\nverdict:\n'
        '  checks: ["n = 2 >= 2k = 2", "coker(W) = (rank 1, torsion ()) != 0"]\n'
        '  data:\n\n  status: "fail"\n'))


def test_exit_codes(tmp_path, capsys):
    code, _ = run(capsys, "parse", str(tmp_path / "missing.json"))
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("X(1,2,3)")
    code, _ = run(capsys, "parse", str(bad))
    assert code == 2
    code, _ = run(capsys, "invariants", "--catalog", "hopf:q")
    assert code == 3
    code, _ = run(capsys, "trace", "--catalog", "hopf:+", "--framings", "0")
    assert code == 3


def test_negative_loops_rejected(tmp_path, capsys):
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps({"pd": [[1, 4, 2, 3], [4, 1, 3, 2]], "loops": -1,
                                "framings": [0, 0]}))
    code, out = run(capsys, "trace", str(path))
    assert code == 2
    assert out == ""
    code, _ = run(capsys, "parse", str(path))
    assert code == 2


@pytest.mark.parametrize("command", ["parse", "trace", "knotify", "check-sphere"])
def test_json_framings_must_fit_the_components(tmp_path, capsys, command):
    """``parse`` refuses framings that fit no component count the way
    every framed command does, instead of echoing them."""
    path = tmp_path / "link.json"
    path.write_text(json.dumps({"pd": [[1, 3, 2, 4], [3, 1, 4, 2]], "framings": [1, 2, 3]}))
    assert cli.main([command, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "precondition violated: 3 framings for 2 components\n"


def test_batch_isolation_and_order(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    entries = [
        {"catalog": "twist_family:0"},
        {"catalog": "twist_family:-1"},
        {"catalog": "no_such_entry"},
        {"catalog": "twist_family:-2"},
    ]
    manifest.write_text(json.dumps({"entries": entries}))
    code, out = run(capsys, "batch", str(manifest))
    assert code == 0
    data = json.loads(out)
    assert [r["entry"] for r in data["rows"]] == [
        "twist_family:0", "twist_family:-1", "no_such_entry", "twist_family:-2"]
    assert [r["ok"] for r in data["rows"]] == [True, True, False, True]
    taus = [r["report"]["tau"] for r in data["rows"] if r["ok"]]
    assert taus == [2, 2, 2]
    assert data["summary"] == {
        "entries": 4, "failed": 1,
        "by_band": {"input": 0, "precondition": 1, "internal": 0}}


def test_foreign_exception_exits_4(capsys, monkeypatch):
    def report(d, name=None):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(cli, "obstruction_report", report)
    code = cli.main(["invariants", "--catalog", "trefoil:+"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "Traceback" in err
    assert "internal error: ZeroDivisionError: boom" in err


@pytest.mark.parametrize("error", [InternalInvariantError("boom"),
                                   ZeroDivisionError("boom")])
def test_batch_internal_row_exits_4(tmp_path, capsys, monkeypatch, error):
    real = cli.obstruction_report

    def report(d, name=None):
        if name == "figure8":
            raise error
        return real(d, name=name)

    monkeypatch.setattr(cli, "obstruction_report", report)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"catalog": "trefoil:+"}, {"catalog": "figure8"}, {"catalog": "nope"},
        {"file": str(tmp_path / "missing.json")}, {"catalog": "hopf:+"}]}))
    code = cli.main(["batch", str(manifest)])
    out, err = capsys.readouterr()
    assert code == 4
    assert f"{type(error).__name__}: boom" in err  # the row's traceback
    data = json.loads(out)
    # the rows after the failing one still run
    assert [r["ok"] for r in data["rows"]] == [True, False, False, False, True]
    assert data["rows"][1]["error"] == f"{type(error).__name__}: boom"
    assert data["summary"] == {
        "entries": 5, "failed": 3,
        "by_band": {"input": 1, "precondition": 1, "internal": 1}}


def test_batch_determinism(tmp_path, capsys):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"entries": [
        {"catalog": "borromean"}, {"catalog": "figure8"}]}))
    _, out1 = run(capsys, "batch", str(manifest))
    _, out2 = run(capsys, "batch", str(manifest))
    assert out1 == out2


def test_batch_unreadable_manifest(tmp_path, capsys):
    code, _ = run(capsys, "batch", str(tmp_path / "nope.json"))
    assert code == 2


@pytest.mark.parametrize("manifest, code", [
    ({}, 2), ({"entrys": [{"catalog": "hopf:+"}]}, 2), ({"entries": 5}, 2), (7, 2),
    ({"entries": []}, 0), ([], 0),
])
def test_batch_manifest_is_a_list_or_holds_one(tmp_path, capsys, manifest, code):
    """A manifest object without an ``entries`` list is malformed, not
    an empty batch."""
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    assert cli.main(["batch", str(path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert err == "input error: manifest must be a list of entries\n"
    else:
        assert json.loads(out)["summary"]["entries"] == 0


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "invariants", "--catalog", "figure8",
                    "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["det"] == 5


def test_table_format(capsys):
    code, out = run(capsys, "invariants", "--catalog", "figure8",
                    "--format", "table")
    assert code == 0
    assert "sigma: 0" in out
    assert "det: 5" in out
    # parse and catalog list their JSON fields too
    for argv, line in [(["parse", "--catalog", "hopf:+"], "loops: 0"),
                       (["catalog", "hopf:+"], "loops: 0"),
                       (["catalog"], "entries: ")]:
        code, out = run(capsys, *argv, "--format", "table")
        assert code == 0 and line in out, argv
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


def test_knotify_explicit_bands_flag(capsys):
    code, out = run(capsys, "knotify", "--catalog", "borromean",
                    "--framings", "0,0,0", "--bands", "[[2,10],[1,6]]")
    assert code == 0
    data = json.loads(out)
    assert data["surgery_circles"] == 2
    assert data["winding"] == [0, 0]


def test_twisted_band_on_a_loop_exits_2(tmp_path, capsys):
    link = tmp_path / "trefoil_and_loop.pd"
    link.write_text("X(4,2,5,1), X(6,4,1,3), X(2,6,3,5), O")
    code = cli.main(["knotify", str(link), "--bands", '[[["loop",0],1,3]]'])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "twisted bands on bare loops are not supported" in err
    assert cli.main(["knotify", str(link), "--bands", '[[["loop",0],1]]']) == 0


HOPF_JSON = {"pd": [[1, 4, 2, 3], [4, 1, 3, 2]]}
TREFOIL_AND_LOOP = {"pd": [[4, 2, 5, 1], [6, 4, 1, 3], [2, 6, 3, 5]], "loops": 1}


# -- which input and which framings a command reads ----------------------------

def test_catalog_wins_over_a_positional_file(tmp_path, capsys):
    path = tmp_path / "trefoil.pd"
    path.write_text(TREFOIL_TEXT)
    for command in ("parse", "invariants", "trace", "check-schoenflies"):
        assert run(capsys, command, str(path), "--catalog", "hopf:+") == \
            run(capsys, command, "--catalog", "hopf:+")


@pytest.mark.parametrize("command", ["trace", "knotify", "check-sphere"])
def test_framings_option_wins_over_json_framings(tmp_path, capsys, command):
    path = tmp_path / "hopf.json"
    path.write_text(json.dumps({**HOPF_JSON, "framings": [0, 0]}))
    code, from_option = run(capsys, command, str(path), "--framings=-1,-1")
    assert code == 0 and from_option != run(capsys, command, str(path))[1]
    path.write_text(json.dumps({**HOPF_JSON, "framings": [-1, -1]}))
    assert run(capsys, command, str(path)) == (0, from_option)


def test_check_schoenflies_framings_option_wins_and_defaults_per_attaching_circle(
        tmp_path, capsys):
    """The report does not depend on the framings, only on their count
    matching the attaching circles: three components, one dotted, two
    0-framed attaching circles unless ``--framings`` or the JSON says
    otherwise, and ``--framings`` first."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"pd": [], "loops": 3, "dotted": [1]}))
    code, out = run(capsys, "check-schoenflies", str(path))
    assert code == 0
    assert json.loads(out)["attaching"] == [0, 2]
    assert run(capsys, "check-schoenflies", str(path), "--framings", "0,0,0") == (2, "")
    path.write_text(json.dumps({"pd": [], "loops": 3, "dotted": [1], "framings": [0]}))
    assert run(capsys, "check-schoenflies", str(path)) == (2, "")
    assert run(capsys, "check-schoenflies", str(path), "--framings", "1,0") == (0, out)


NOT_A_STRING = ": catalog must be a string"
NO_SOURCE = " names no catalog or file"


@pytest.mark.parametrize("entry, why", [
    ({"catalog": None}, NOT_A_STRING),
    ({"catalog": 5}, NOT_A_STRING),
    ({"catalog": ["hopf:+"]}, NOT_A_STRING),
    ({"catalog": None, "file": "hopf.json"}, NOT_A_STRING),
    ({"file": 5}, NO_SOURCE),
    ({"file": None}, NO_SOURCE),
], ids=["catalog-null", "catalog-int", "catalog-list", "catalog-null-with-file",
        "file-int", "file-null"])
def test_batch_catalog_and_file_must_be_strings(tmp_path, capsys, monkeypatch, entry, why):
    """A manifest's ``catalog`` or ``file`` that is not a string is an
    input-band row, never coerced with ``str()`` into an entry name; a
    string ``catalog`` is read whatever ``file`` holds."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "hopf.json").write_text(json.dumps(HOPF_JSON))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([entry, {"catalog": "hopf:+", "file": 5}]))
    code, out = run(capsys, "batch", str(manifest))
    assert code == 0
    data = json.loads(out)
    assert [r["ok"] for r in data["rows"]] == [False, True]
    assert data["rows"][0]["error"] == f"InputError: manifest entry {entry!r}{why}"
    assert data["summary"]["by_band"] == {"input": 1, "precondition": 0, "internal": 0}


@pytest.mark.parametrize("argv, files, code", [
    (["invariants", "--catalog", "twist_family:abc"], {}, 2),
    (["knotify", "--catalog", "hopf:+", "--bands", '[[["loop","x"],1]]'], {}, 2),
    (["knotify", "--catalog", "hopf:+", "--bands", "[[1,2,0,99]]"], {}, 2),
    (["knotify", "{link}", "--bands", '[[["loop",0,5],1]]'], {"link": TREFOIL_AND_LOOP}, 2),
    (["knotify", "--catalog", "hopf:+", "--bands", '[[["knot",0],1]]'], {}, 2),
    (["knotify", "--catalog", "hopf:+", "--bands", "[[[5,0],1]]"], {}, 2),
    (["check-schoenflies"], {}, 2),
    (["trace", "{link}"], {"link": {**HOPF_JSON, "framings": ["a", 0]}}, 2),
    (["batch", "{manifest}"], {"manifest": [{"catalog": "hopf:+"}, 5]}, 0),
    (["catalog", ""], {}, 2),
    (["invariants", "--catalog", "figure8:x"], {}, 2),
    (["invariants", "--catalog", "unknot:7"], {}, 2),
    (["invariants", "--catalog", "hopf:"], {}, 2),
], ids=["catalog-param", "band-arc", "band-row-too-long", "band-loop-arc-too-long",
        "band-loop-arc-kind", "band-loop-arc-int", "schoenflies-no-input", "json-framings",
        "manifest-entry", "catalog-empty-name", "catalog-param-not-taken",
        "catalog-unknot-param", "catalog-empty-param"])
def test_malformed_input_never_crashes(tmp_path, capsys, argv, files, code):
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    argv = [a.format(**{n: tmp_path / n for n in files}) for a in argv]
    got, out = run(capsys, *argv)
    assert got == code
    if argv[0] == "batch":
        # the bad entry becomes a failed row; the batch goes on
        rows = json.loads(out)["rows"]
        assert [r["ok"] for r in rows] == [True, False]
    else:
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["catalog", "unlink:99999999999"],
    ["invariants", "--catalog", "twist_family:99999999999999"],
    ["invariants", "--catalog", "twist_family:-99999999999999"],
    ["catalog", f"unlink:{ld.CATALOG_MAX_SIZE + 1}"],
])
def test_oversized_catalog_parameters_are_refused_before_building(monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard let a diagram be built")

    monkeypatch.setattr(ld, "parse_pd", unreachable)
    monkeypatch.setattr(ld, "rational_link", unreachable)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"limited to {ld.CATALOG_MAX_SIZE}" in err


@pytest.mark.parametrize("argv", [
    ["trace", "--catalog", "hopf:+", "--framings=-1,-1", "--partition", "1,2:g=1000000000000"],
    ["trace", "--catalog", "hopf:+", "--framings=-1,-1",
     "--partition", f"1:g={ld.CATALOG_MAX_SIZE // 2}|2:g=1"],
    ["knotify", "--catalog", "hopf:+", "--bands", "[[1, 4, 1000000000000]]"],
    ["knotify", "--catalog", "hopf:+", "--bands", f"[[1, 4, {-ld.CATALOG_MAX_SIZE - 1}]]"],
])
def test_oversized_genus_and_twists_are_refused_before_building(monkeypatch, capsys, argv):
    def unreachable(*args, **kwargs):
        raise AssertionError("the size guard let a band or genus handle be built")

    monkeypatch.setattr(ld, "_band_build", unreachable)
    monkeypatch.setattr(traces, "knotify", unreachable)
    monkeypatch.setattr(traces, "high_order_trace", unreachable)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert f"limited to {ld.CATALOG_MAX_SIZE}" in err


@pytest.mark.parametrize("form", ["json", "pd-text"])
def test_link_file_loops_are_bounded_like_the_catalog(tmp_path, monkeypatch, capsys, form):
    """A link file's loops count is refused past the catalog bound before
    a corner is paired; the bound itself is still admitted."""
    def link_file(loops):
        path = tmp_path / f"{loops}.{form}"
        path.write_text(json.dumps({"pd": [], "loops": loops}) if form == "json"
                        else ", ".join(["O"] * loops))
        return str(path)

    n = ld.CATALOG_MAX_SIZE
    assert run(capsys, "parse", link_file(n))[0] == 0

    def unreachable(*args, **kwargs):
        raise AssertionError("the loops bound let a diagram be built")

    monkeypatch.setattr(ld, "_pair_corners", unreachable)
    monkeypatch.setattr(ld, "_Builder", unreachable)
    code = cli.main(["parse", link_file(n + 1)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"input error: {n + 1} loops; link diagrams are limited to {n}\n"


def test_largest_admitted_genus_still_traces(capsys):
    g = ld.CATALOG_MAX_SIZE // 2
    code = cli.main(["trace", "--catalog", "hopf:+", "--framings=-1,-1",
                     "--partition", f"1,2:g={g}"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["handles"] == [1, 2 * g + 1, 1, 0, 0]


def test_catalog_size_guard_counts_what_is_built():
    """The guard's crossing count for the twist family is the built
    diagram's, and the largest unlink the guard admits still builds."""
    for n in range(-12, 13):
        p, q = abs(6 * n - 4), abs(2 * n - 1)
        size = sum(ld._positive_continued_fraction(p, q))
        assert len(ld.catalog("twist_family", n).crossings) == size
    assert ld.catalog("unlink", ld.CATALOG_MAX_SIZE).loops == ld.CATALOG_MAX_SIZE


TREFOIL_TEXT = "X(4,2,5,1), X(6,4,1,3), X(2,6,3,5)"


@pytest.mark.parametrize("argv, link", [
    (["trace", "{link}"], {"pd": [[4.9, 2, 5, 1], [6, 4, 1, 3], [2, 6, 3, 5]],
                           "loops": 1.7, "framings": [2.5, True]}),
    (["trace", "{link}"], {**HOPF_JSON, "loops": 1.7}),
    (["trace", "{link}"], {**HOPF_JSON, "framings": [2.5, 0]}),
    (["trace", "{link}"], {**HOPF_JSON, "framings": [True, 0]}),
    (["parse", "{link}"], {"pd": ["4251", "6413", "2635"]}),
    (["parse", "{link}"], {"pd": [[1.0, 4, 2, 3], [4, 1, 3, 2]]}),
    (["check-schoenflies", "{link}"], {"pd": [], "loops": 2, "dotted": [0.0]}),
    (["check-schoenflies", "{link}"], {"pd": [], "loops": 2, "dotted": [False]}),
    (["knotify", "--catalog", "hopf:+", "--bands", "[[1,3,1.9]]"], None),
    (["knotify", "--catalog", "hopf:+", "--bands", "[[1.0,3]]"], None),
    (["knotify", "--catalog", "hopf:+", "--bands", "[[1,3,true]]"], None),
    (["knotify", "--catalog", "unlink:2", "--bands", '[[["loop",0.0],["loop",1]]]'],
     None),
])
def test_json_integers_are_never_coerced(tmp_path, capsys, argv, link):
    path = tmp_path / "link.json"
    if link is not None:
        path.write_text(json.dumps(link))
    code, out = run(capsys, *(a.format(link=path) for a in argv))
    assert code == 2
    assert out == ""


HOPF_ROW = [4, 1, 3, 2]


@pytest.mark.parametrize("pd, message", [
    ([[1, 4, 2, 3], [4, True, 3, 2]], "pd entry must be an integer, got True"),
    ([[1, 4, 2.0, 3], HOPF_ROW], "pd entry must be an integer, got 2.0"),
    ([[1, "4", 2, 3], HOPF_ROW], "pd entry must be an integer, got '4'"),
    ([[[1], 4, 2, 3], HOPF_ROW], "pd entry must be an integer, got [1]"),
    ([{"a": 1}, HOPF_ROW], "pd entry must be an integer, got 'a'"),
    (["1423", HOPF_ROW], "pd entry must be an integer, got '1'"),
    ([5, HOPF_ROW], "bad link JSON: 'int' object is not iterable"),
    ([None, HOPF_ROW], "bad link JSON: 'NoneType' object is not iterable"),
    # the first bad entry is named even when a later row is no list
    ([[1.5, 4, 2, 3], 5], "pd entry must be an integer, got 1.5"),
    ([HOPF_ROW, [1, 4, None, 3], None], "pd entry must be an integer, got None"),
    ([HOPF_ROW, [1, 4, 2, 3], 5], "bad link JSON: 'int' object is not iterable"),
    (7, "bad link JSON: 'int' object is not iterable"),
], ids=["bool", "float", "string", "list", "dict-row", "string-row", "int-row",
        "null-row", "entry-before-int-row", "later-entry-before-null-row",
        "int-row-after-int-rows", "pd-not-a-list"])
def test_pd_rows_that_are_not_json_integers(tmp_path, capsys, pd, message):
    path = tmp_path / "link.json"
    path.write_text(json.dumps({"pd": pd}))
    code = cli.main(["parse", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"input error: {message}\n"


def test_catalog_parameters():
    """An entry that takes no parameter refuses one; None means none."""
    assert ld.catalog("figure8", None) == ld.catalog("figure8")
    for name in ("unknot", "figure8", "whitehead", "borromean"):
        with pytest.raises(InputError):
            ld.catalog(name, "1")
    assert ld.catalog("hopf", None) == ld.catalog("hopf", "+")


def test_pd_text_in_check_schoenflies_and_batch(tmp_path, capsys):
    """Every command that reads a link file reads PD text as well."""
    text = tmp_path / "unlink.txt"
    text.write_text("O, O")
    code, out = run(capsys, "check-schoenflies", str(text))
    assert code == 0
    assert json.loads(out)["verdict"]["status"] == "pass-necessary"
    trefoil = tmp_path / "trefoil.txt"
    trefoil.write_text(TREFOIL_TEXT)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [{"file": str(trefoil)},
                                                {"catalog": "trefoil:+"}]}))
    code, out = run(capsys, "batch", str(manifest))
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["ok"] for r in rows] == [True, True]
    assert rows[0]["report"]["sigma"] == rows[1]["report"]["sigma"] == -2
    code, invariants = run(capsys, "invariants", str(trefoil))
    assert code == 0
    assert json.loads(invariants)["sigma"] == -2


@pytest.mark.parametrize("text", [
    "X(1,1,1,2), X(2,3,3,4)",                  # an edge used other than twice
    "X(1,2,3,4), X(1,4,3,2)",                  # an under-strand conflict
    '{"pd": [[1,4,2,3],[4,1,3,2]], "loops": -1}',
    " \n",                                     # an empty code
    "X(4,2,5,1) Q",                            # an unknown token
    "X(1,3,2,4), X(2,4,1,3)",                  # a non-planar code
], ids=["edge-count", "under-conflict", "negative-loops", "empty", "token",
        "non-planar"])
@pytest.mark.parametrize("command", ["parse", "check-schoenflies"])
def test_input_checks_exit_2(tmp_path, capsys, text, command):
    path = tmp_path / "link.txt"
    path.write_text(text)
    code, out = run(capsys, command, str(path))
    assert code == 2
    assert out == ""


def test_non_utf8_input_is_an_input_error(tmp_path, capsys):
    """A file that is not UTF-8 exits 2: from ``parse``, as a batch row
    (the input band) and as the manifest itself."""
    bad = tmp_path / "bad.pd"
    bad.write_bytes(b"\xff\xfeX(1,2,3,4)")
    code, out = run(capsys, "parse", str(bad))
    assert code == 2
    assert out == ""
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"file": str(bad)}, {"catalog": "hopf:+"}]))
    code, out = run(capsys, "batch", str(manifest))
    assert code == 0
    data = json.loads(out)
    assert [r["ok"] for r in data["rows"]] == [False, True]
    assert data["summary"]["by_band"] == {"input": 1, "precondition": 0,
                                          "internal": 0}
    manifest.write_bytes(b'\xff[{"catalog": "hopf:+"}]')
    code, out = run(capsys, "batch", str(manifest))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("name", [[1], 3, {}], ids=["list", "int", "object"])
@pytest.mark.parametrize("command", ["parse", "invariants"])
def test_link_name_must_be_a_string(tmp_path, capsys, command, name):
    path = tmp_path / "link.json"
    path.write_text(json.dumps({**HOPF_JSON, "name": name}))
    code, out = run(capsys, command, str(path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("name, label", [("hopf", "hopf"), ("", ""), (None, "")])
def test_link_name_string_empty_or_null(tmp_path, capsys, name, label):
    path = tmp_path / "link.json"
    path.write_text(json.dumps({**HOPF_JSON, "name": name}))
    code, out = run(capsys, "invariants", str(path))
    assert code == 0
    assert json.loads(out)["link"] == label
    d, _ = ld.from_json_dict({**HOPF_JSON, "name": name})
    assert d.name == (name or None)


# -- JSON that json.loads refuses without a JSONDecodeError --------------------------

@pytest.fixture
def long_int():
    """An integer literal longer than ``sys.get_int_max_str_digits()``,
    which ``int`` and ``json.loads`` refuse with a plain ValueError."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer string length limit in this Python")
    return "7" * max(5000, limit + 1)


@pytest.fixture(params=["digits", "nesting"])
def hostile(request):
    """A JSON value that ``json.loads`` refuses with a ValueError (too
    many digits) or a RecursionError (too deep)."""
    if request.param == "digits":
        return request.getfixturevalue("long_int")
    return "[" * 200_000 + "]" * 200_000


def _main(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command", ["parse", "trace"])
def test_hostile_link_json_is_an_input_error(tmp_path, capsys, hostile, command):
    path = tmp_path / "link.json"
    path.write_text('{"pd": %s}' % hostile)
    code, out, err = _main(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad JSON: ")


def test_hostile_pd_text_is_an_input_error(tmp_path, capsys, long_int):
    path = tmp_path / "link.pd"
    path.write_text(f"X({long_int},2,3,4)")
    code, out, err = _main(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad PD tuple: ")


def test_hostile_manifest_and_manifest_entry(tmp_path, capsys, hostile):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('[{"catalog": "hopf:+", "x": %s}]' % hostile)
    code, out, err = _main(capsys, "batch", str(manifest))
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad manifest JSON: ")
    link = tmp_path / "link.json"
    link.write_text('{"pd": %s}' % hostile)
    manifest.write_text(json.dumps([{"file": str(link)}, {"catalog": "hopf:+"}]))
    code, out, err = _main(capsys, "batch", str(manifest))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [r["ok"] for r in data["rows"]] == [False, True]
    assert data["rows"][0]["error"].startswith("MalformedPD: bad JSON: ")
    assert data["summary"]["by_band"] == {"input": 1, "precondition": 0, "internal": 0}


def test_hostile_bands_are_an_input_error(capsys, hostile):
    code, out, err = _main(capsys, "knotify", "--catalog", "hopf:+",
                           "--bands", "[[1, %s]]" % hostile)
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad bands JSON: ")


def test_hostile_json_in_loads_is_malformed_pd(hostile):
    with pytest.raises(MalformedPD, match="^bad JSON: "):
        ld.loads('{"pd": %s}' % hostile)


NUL = "a\x00b"  # a path ``open`` refuses with ValueError, not OSError


@pytest.mark.parametrize("argv, message", [
    (["parse", NUL], f"input error: cannot read {NUL}: "),
    (["batch", NUL], f"input error: cannot read manifest {NUL}: "),
    (["catalog", "--out", NUL], f"input error: cannot write {NUL}: "),
], ids=["input", "manifest", "out"])
def test_a_path_with_a_nul_exits_2(capsys, argv, message):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith(message)
    assert "Traceback" not in err


def test_a_manifest_file_with_a_nul_is_an_input_row(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([{"file": NUL}, {"catalog": "hopf:+"}]))
    code = cli.main(["batch", str(manifest)])
    out, err = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["rows"][0]["error"].startswith(f"InputError: cannot read {NUL}: ")
    assert [r["ok"] for r in data["rows"]] == [False, True]
    assert data["summary"]["by_band"] == {"input": 1, "precondition": 0, "internal": 0}


@pytest.mark.parametrize("entry, row, band", [
    # the path cannot be encoded, so it cannot be opened
    ({"file": "caf\u00e9.json"}, "entry=caf\u00e9.json  error=InputError: cannot read ",
     "input"),
    # the path is never opened, but the label still goes to --out
    ({"catalog": "caf\u00e9"}, "entry=caf\u00e9  error=UnknownCatalogEntry: ", "precondition"),
], ids=["file", "catalog"])
def test_non_ascii_batch_row_under_an_ascii_locale(tmp_path, entry, row, band):
    """Under an ASCII locale and filesystem encoding a non-ASCII manifest
    path is an input-band row, and ``--out`` is written in UTF-8, the
    encoding input files are read in."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING"))}
    env.update(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    (tmp_path / "manifest.json").write_text(json.dumps([entry]))
    proc = subprocess.run([sys.executable, "-m", "tracekit", "batch", "manifest.json",
                           "--format", "table", "--out", "report.txt"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert f"  - {row}" in report
    assert f"    {band}: 1\n" in report


# -- options and exit codes ---------------------------------------------------

LINK_COMMANDS = ("parse", "invariants", "trace", "knotify", "check-sphere",
                 "check-schoenflies")
# a command line that exits 0, per command
BASE_ARGV = {
    **{command: [command, "--catalog", "hopf:+"] for command in LINK_COMMANDS},
    "catalog": ["catalog", "trefoil:+"],
    "batch": ["batch", "{manifest}"],
}
# option -> the commands that take it
OPTION_COMMANDS = {
    "--partition": ("trace",),
    "--bands": ("knotify",),
    "--framings": ("trace", "knotify", "check-sphere", "check-schoenflies"),
    "--catalog": LINK_COMMANDS,
    "--out": tuple(BASE_ARGV),
}


def _argv(tmp_path, argv):
    manifest, link = tmp_path / "manifest.json", tmp_path / "link.json"
    if not manifest.exists():
        manifest.write_text(json.dumps([{"catalog": "trefoil:+"}]))
        link.write_text(json.dumps(HOPF_JSON))
    return [a.format(manifest=manifest, link=link, out=tmp_path) for a in argv]


@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    target = tmp_path / "missing" / "report.json"
    code = cli.main(_argv(tmp_path, BASE_ARGV[command]) + ["--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert f"input error: cannot write {target}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, command, fmt):
    argv = _argv(tmp_path, BASE_ARGV[command]) + ["--format", fmt]
    code, out = run(capsys, *argv)
    assert code == 0 and out
    target = tmp_path / "report.out"
    assert run(capsys, *argv, "--out", str(target)) == (0, "")
    assert target.read_text() == out


# command -> the library call it makes after reading its input
LIBRARY_CALL = {
    "parse": (ld, "to_json_dict"),
    "invariants": (cli, "obstruction_report"),
    "trace": (traces, "zero_trace"),
    "knotify": (traces, "knotify"),
    "check-sphere": (traces, "_sphere_verdict"),
    "check-schoenflies": (traces, "_schoenflies_verdict"),
    "catalog": (cli, "catalog"),
    "batch": (cli, "obstruction_report"),
}
# error -> exit code, the stderr line after any traceback, and the batch band
BAND_CASES = [
    (InputError("boom"), 2, "input error: boom", "input"),
    (PreconditionError("boom"), 3, "precondition violated: boom", "precondition"),
    (InternalInvariantError("boom"), 4, "internal invariant breach: boom", "internal"),
    (ZeroDivisionError("boom"), 4, "internal error: ZeroDivisionError: boom", "internal"),
    (TracekitError("boom"), 4, "internal error: TracekitError: boom", "internal"),
]


@pytest.mark.parametrize("error, code, line, band", BAND_CASES,
                         ids=[type(case[0]).__name__ for case in BAND_CASES])
@pytest.mark.parametrize("command", list(BASE_ARGV))
def test_each_error_band_maps_to_its_exit_code(tmp_path, capsys, monkeypatch,
                                               command, error, code, line, band):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(*LIBRARY_CALL[command], fail)
    got = cli.main(_argv(tmp_path, BASE_ARGV[command]))
    out, err = capsys.readouterr()
    traced = line.startswith("internal error: ")
    assert ("Traceback" in err) == (traced or (command == "batch" and code == 4))
    if command == "batch":
        # a failed row is counted under its band; only a bug fails the batch
        summary = json.loads(out)["summary"]
        assert summary["by_band"][band] == summary["failed"] == 1
        if band == "internal":
            assert got == 4
            assert err.endswith("internal invariant breach in 1 batch rows\n")
        else:
            assert (got, err) == (0, "")
        return
    assert (got, out) == (code, "")
    assert err.endswith(line + "\n") and (traced or err == line + "\n")


@pytest.mark.parametrize("option, command", [
    (option, command) for option, commands in OPTION_COMMANDS.items()
    for command in commands])
def test_empty_option_value_exits_2(tmp_path, capsys, option, command):
    """An option given as "" is malformed input, not an absent option."""
    base = [command, "{link}"] if option == "--catalog" else BASE_ARGV[command]
    base = _argv(tmp_path, base)
    assert run(capsys, *base)[0] == 0
    code, out = run(capsys, *base, option, "")
    assert code == 2
    assert out == ""


def test_main_returns_argparse_exit_code(capsys):
    assert cli.main(["invariants", "--nope"]) == 2
    assert "unrecognized arguments: --nope" in capsys.readouterr().err
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["--help"]) == 0
    assert "usage: tracekit" in capsys.readouterr().out


# -- the parser is built once per process ---------------------------------------

def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    argvs = [_argv(tmp_path, argv) for argv in BASE_ARGV.values()]
    cli.main(argvs[0])  # warm-up
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [cli.main(argvs[k % len(argvs)]) for k in range(50)]
    capsys.readouterr()
    assert codes == [0] * 50
    assert built == []
    cli.build_parser()
    assert len(built) == 1 + len(BASE_ARGV)  # the parser and its subparsers


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()


IMPORT_FOOTPRINT = (
    "import sys\n"
    "before = set(sys.modules)\n"  # what the interpreter's site already loaded
    "sys.path.insert(0, sys.argv[1])\n"
    "import tracekit.cli\n"
    "tracekit.cli.build_parser()\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_cli_start_loads_no_dataclasses_or_fractions():
    # every command process pays for these imports before its own work;
    # traceback (with linecache, tokenize, token and textwrap) serves
    # only the exit-4 paths
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_FOOTPRINT, src],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "tracekit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal", "traceback",
                         "linecache", "tokenize", "token", "textwrap"}


MIXED_SEQUENCE = [
    ["invariants", "--catalog", "figure8", "--format", "table"],
    ["invariants", "--catalog", "figure8"],
    ["trace", "--catalog", "hopf:+", "--framings=-1,-1", "--partition", "1,2:g=0",
     "--out", "{out}/trace.json"],
    ["trace", "--catalog", "hopf:+"],
    ["knotify", "--catalog", "borromean", "--framings", "0,0,0",
     "--bands", "[[2,10],[1,6]]", "--format", "table"],
    ["knotify", "--catalog", "borromean"],
    ["check-sphere", "--catalog", "unlink:2", "--framings", "1,0"],
    ["check-sphere", "--nope"],
    ["check-sphere", "--catalog", "unlink:2"],
    ["catalog", "trefoil:+", "--out", "{out}/catalog.json"],
    ["catalog"],
    ["batch", "{manifest}", "--format", "table"],
    ["batch", "{manifest}"],
]


def _run_sequence(directory, capsys, fresh):
    directory.mkdir()
    results = []
    for argv in MIXED_SEQUENCE:
        if fresh:
            cli._parser.cache_clear()
        code = cli.main(_argv(directory, argv))
        out, err = capsys.readouterr()
        files = {p.name: p.read_text() for p in sorted(directory.glob("*.json"))
                 if p.name not in ("manifest.json", "link.json")}
        for p in files:
            (directory / p).unlink()
        results.append((argv, code, out, err, files))
    return results


def test_no_state_carries_over_between_calls(tmp_path, capsys):
    """Each call on the reused parser answers as a freshly built one would."""
    reused = _run_sequence(tmp_path / "reused", capsys, fresh=False)
    fresh = _run_sequence(tmp_path / "fresh", capsys, fresh=True)
    assert reused == fresh
    assert [code for _, code, *_ in reused] == [0] * 7 + [2] + [0] * 5
    assert [sorted(files) for *_, files in reused if files] == [
        ["trace.json"], ["catalog.json"]]


def test_python_m_tracekit_matches_main(tmp_path, capsys):
    """``python -m tracekit`` is the one-shot process path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["invariants", "--catalog", "trefoil:+"]
    proc = subprocess.run([sys.executable, "-m", "tracekit", *argv], cwd=tmp_path,
                          env=env, capture_output=True, timeout=120)
    code, out = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())
    assert code == 0
    proc = subprocess.run([sys.executable, "-m", "tracekit", "invariants", "--nope"],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"unrecognized arguments: --nope" in proc.stderr
