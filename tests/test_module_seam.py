"""Only ``linkdiag`` knows the corner layout and the PD slot templates.

A frozen diagram's corner ``4c+s`` and the memo lists indexed by it
(``corner_edges``, ``corner_out``, ``partner``, ``face_of``,
``face_corners``, ``piece_of``) are read in ``linkdiag`` alone, and
only ``linkdiag`` adds crossings to a builder.  ``traces`` drives
knotification through ``_direct_band`` and ``_knotify_step``, and
``invariants`` takes its checkerboard shading from ``_shadings``, so
the syntax tree of every other module names none of these, and none
imports the private helpers the band surgery runs on.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tracekit"

CORNER_MEMOS = {"corner_edges", "corner_out", "partner", "face_of", "face_corners",
                "piece_of"}
BUILDER_CALLS = {"add_crossing", "cut", "new_edge_id"}
SURGERY_HELPERS = {"_band_merge_builder", "_end_face", "_reflect", "_same_piece"}


def _seam_breaches(source: str) -> dict[str, set[str]]:
    """The corner memos read, the builder methods called and the band
    surgery helpers imported by a module's source."""
    reads, calls, imports = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in CORNER_MEMOS:
            reads.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BUILDER_CALLS:
                calls.add(name)
        elif isinstance(node, ast.ImportFrom):
            imports |= {alias.name for alias in node.names} & SURGERY_HELPERS
    return {"reads": reads, "calls": calls, "imports": imports}


MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "linkdiag.py")


def test_every_module_is_checked():
    assert {"cli.py", "invariants.py", "traces.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_but_linkdiag_holds_corner_or_slot_arithmetic(module):
    breaches = _seam_breaches((PACKAGE / module).read_text())
    assert breaches == {"reads": set(), "calls": set(), "imports": set()}


def test_the_check_sees_each_kind_of_breach():
    source = ("from .linkdiag import _reflect, linking_number\n"
              "def f(d, b):\n"
              "    x = d.corner_edges.index(3)\n"
              "    b.add_crossing(*_reflect((1, 2, 3, 4), 1))\n"
              "    return d.piece_of[x >> 2], cut(b, 1)\n")
    assert _seam_breaches(source) == {"reads": {"corner_edges", "piece_of"},
                                      "calls": {"add_crossing", "cut"},
                                      "imports": {"_reflect"}}
