"""The ``--format table`` bytes of one report per command, pinned.

The goldens pin JSON only, and JSON sorts every key and writes tuples as
lists.  The table is less forgiving: it writes a list of dicts as rows
but any other value as JSON, and it writes each batch row's nested
report with ``str``, in the report's insertion order.  So a tuple left
where a list was, or a reordered report dict, changes these bytes while
the JSON goldens still pass.
"""

import json

import pytest

from tracekit import cli

# a Hopf link plus a loop, the Hopf link's first component dotted
MIXED = {"pd": [[1, 4, 2, 3], [4, 1, 3, 2]], "loops": 1, "dotted": [0], "framings": [0, 0]}
MANIFEST = [{"catalog": "hopf:+"}, {"catalog": "no_such_entry"}]

# command -> (argv, its table report)
PINS = {
    "invariants": (
        ["invariants", "--catalog", "hopf:+"],
        """\
G4_lb: 0
chi4_ub: 2
det: 2
g4_lb: 0
l: 2
link: "hopf(+)"
sigma: -1
tau: 1
verdicts:
  - anchor=tau = (l - 1 - sigma)/2  claim=tau = 1  rule=tau-from-signature
  - anchor=2*G4 - l = -chi4  claim=chi4 <= 2 (and chi4 <= l = 2 always, with equality iff slice)  rule=chi4-g4-conversion
  - anchor=see chain  claim=planar-surface verdict: NoObstruction  rule=planar-obstruction-summary
  - anchor=a connected alternating diagram presents a non-split link  claim=connected alternating diagram: treated as non-split  rule=connected-alternating-nonsplit
  - anchor=tau = (l - 1 - sigma)/2  claim=tau = (l - 1 - sigma)/2 = 1  rule=tau-from-signature
  - anchor=tau <= g4 + l - 1  claim=slice genus bound: g4 >= tau - l + 1 = 0  rule=tau-slice-genus-bound
  - anchor=g4 bound is zero  claim=tau gives no obstruction to a planar surface  rule=planar-surface-obstruction
"""),
    "trace": (
        ["trace", "--catalog", "hopf:+", "--framings", "1,-1"],
        """\
Q: [[1, 1], [1, -1]]
W: []
b1: 0
b2: 2
boundary_h1:
  rank: 0
  torsion: [2]
chi: 3
construction: "trace"
handles: [1, 0, 2, 0, 0]
verdicts: []
"""),
    "trace --partition": (
        ["trace", "--catalog", "borromean", "--framings", "0,0,0", "--partition", "1,2:g=0|3:g=1"],
        """\
Q: [[0, 0], [0, 0]]
W: [[0, 0], [0, 0], [0, 0]]
b1: 3
b2: 2
boundary_h1: null
chi: 0
construction: "high_order_trace"
handles: [1, 3, 2, 0, 0]
verdicts: []
"""),
    "knotify": (
        ["knotify", "--catalog", "hopf:+", "--framings", "0,0"],
        """\
construction: "knotify"
diagram:
  loops: 0
  name: "hopf(+)"
  pd: [[1, 9, 2, 10], [12, 2, 9, 3], [3, 1, 4, 8], [7, 5, 8, 4], [11, 6, 12, 5], [6, 11, 7, 10]]
dotted_components: [1]
framing: 2
knot_component: 0
planar_framing_valid: false
surgery_circles: 1
winding: [0]
"""),
    "check-sphere": (
        ["check-sphere", "--catalog", "unlink:2"],
        """\
boundary_h1:
  rank: 2
  torsion: []
construction: "homotopy-sphere-candidate"
handles: [1, 0, 2, 0, 0]
verdict:
  checks: ["all framings are zero", "framing-linking matrix Q vanishes", "H1 of the boundary is free of rank 2", "closed-up Euler characteristic recomputed: 2", "b2 of the closed-up manifold recomputed: 0", "necessary conditions passed; whether the boundary is a connected sum of S1 x S2 is not decided"]
  data:
    b2_closed: 0
    chi_closed: 2
    h1_rank: 2
  status: "pass-necessary"
"""),
    "check-schoenflies": (
        ["check-schoenflies", "{mixed}"],
        """\
W: [[1, 0]]
attaching: [1, 2]
construction: "schoenflies-candidate"
dotted: [0]
verdict:
  checks: ["n = 2 >= 2k = 2", "coker of the winding matrix vanishes (abelianized simple connectivity)", "closed-up Euler characteristic with 1 3-handles: 2", "necessary conditions passed; no diffeomorphism asserted"]
  data:
    chi_closed: 2
    three_handles: 1
  status: "pass-necessary"
"""),
    "parse": (
        ["parse", "--catalog", "hopf:+"],
        """\
loops: 0
name: "hopf(+)"
pd: [[1, 4, 2, 3], [4, 1, 3, 2]]
"""),
    "catalog": (
        ["catalog"],
        """\
entries: ["unknot", "unlink", "hopf", "trefoil", "figure8", "whitehead", "borromean", "twist_family"]
"""),
    "batch": (
        ["batch", "{manifest}"],
        """\
rows:
  - entry=hopf:+  ok=True  report={'link': 'hopf:+', 'l': 2, 'sigma': -1, 'det': 2, 'tau': 1, 'g4_lb': 0, 'chi4_ub': 2, 'G4_lb': 0, 'verdicts': [{'claim': 'tau = 1', 'rule': 'tau-from-signature', 'anchor': 'tau = (l - 1 - sigma)/2'}, {'claim': 'chi4 <= 2 (and chi4 <= l = 2 always, with equality iff slice)', 'rule': 'chi4-g4-conversion', 'anchor': '2*G4 - l = -chi4'}, {'claim': 'planar-surface verdict: NoObstruction', 'rule': 'planar-obstruction-summary', 'anchor': 'see chain'}, {'claim': 'connected alternating diagram: treated as non-split', 'rule': 'connected-alternating-nonsplit', 'anchor': 'a connected alternating diagram presents a non-split link'}, {'claim': 'tau = (l - 1 - sigma)/2 = 1', 'rule': 'tau-from-signature', 'anchor': 'tau = (l - 1 - sigma)/2'}, {'claim': 'slice genus bound: g4 >= tau - l + 1 = 0', 'rule': 'tau-slice-genus-bound', 'anchor': 'tau <= g4 + l - 1'}, {'claim': 'tau gives no obstruction to a planar surface', 'rule': 'planar-surface-obstruction', 'anchor': 'g4 bound is zero'}]}
  - entry=no_such_entry  error=UnknownCatalogEntry: unknown catalog entry 'no_such_entry'  ok=False
summary:
  by_band:
    input: 0
    internal: 0
    precondition: 1
  entries: 2
  failed: 1
"""),
}


@pytest.mark.parametrize("command", list(PINS))
def test_table_report_bytes(tmp_path, capsys, command):
    (tmp_path / "mixed.json").write_text(json.dumps(MIXED))
    (tmp_path / "manifest.json").write_text(json.dumps(MANIFEST))
    argv, table = PINS[command]
    argv = [a.format(mixed=tmp_path / "mixed.json", manifest=tmp_path / "manifest.json")
            for a in argv]
    assert cli.main(argv + ["--format", "table"]) == 0
    assert capsys.readouterr().out == table
