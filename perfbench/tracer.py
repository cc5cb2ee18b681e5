"""Per-layer spans for the traced benchmark run.

The tracer wraps public functions of every ``tracekit`` layer from the
outside: it replaces each function object wherever a ``tracekit`` module
binds it (the defining module, re-exports in ``tracekit/__init__``, and
``from .x import f`` copies in other layers), so ``src/`` is not edited.
Each call records a span (name, start, end, parent, item id) in memory.
Self time is a span's duration minus the part of it its child spans
cover.  A wrapped name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# metric group -> (module, wrapped functions).  The group's time is the
# summed self time of its functions' spans, reported as ``<group>_s``.
GROUPS = {
    # parsing includes freeze and canonicalization: _Builder.freeze is
    # internal and not wrapped
    "linkdiag.parse": ("linkdiag", ("parse_pd", "loads", "from_json_dict", "assemble_pd")),
    "linkdiag.faces": ("linkdiag", ("faces",)),
    "linkdiag.face_edge_parities": ("linkdiag", ("face_edge_parities",)),
    "linkdiag.r_moves": ("linkdiag", ("r_moves",)),
    "linkdiag.linking": ("linkdiag", ("linking_number", "linking_matrix", "total_linking")),
    "linkdiag.predicates": ("linkdiag", ("is_connected", "is_alternating")),
    "seifert.braid_form": ("seifert", ("braid_form",)),
    "seifert.seifert_circles": ("seifert", ("seifert_circles",)),
    "seifert.braid_word": ("seifert", ("braid_word",)),
    "seifert.matrix": ("seifert", ("seifert_matrix_from_word",)),
    "seifert.seifert": ("seifert", ("seifert",)),
    "invariants.goeritz": ("invariants", ("goeritz_data",)),
    "invariants.signature_gl": ("invariants", ("signature_gl",)),
    "invariants.determinant": ("invariants", ("determinant",)),
    "invariants.tau": ("invariants", ("tau_alternating",)),
    "invariants.planar": ("invariants", ("planar_obstruction",)),
    "invariants.report": ("invariants", ("obstruction_report",)),
    "exactlinalg.signature": ("exactlinalg", ("signature_symmetric",)),
    "exactlinalg.det": ("exactlinalg", ("det_int",)),
    "exactlinalg.snf": ("exactlinalg", ("smith_normal_form", "cokernel")),
    "traces.knotify": ("traces", ("knotify",)),
    "traces.high_order": ("traces", ("high_order_trace",)),
    "traces.zero_trace": ("traces", ("zero_trace",)),
    "traces.boundary_h1": ("traces", ("boundary_h1",)),
    "traces.checks": ("traces", ("homotopy_sphere_candidate", "schoenflies_candidate")),
}
LAYERS = ("linkdiag", "seifert", "invariants", "exactlinalg", "traces", "cli")
CLI_GROUP = "cli.self"  # the harness's own span around cli.main


def _braid_form_counts(args, result):
    cin, cout = len(args[0].crossings), len(result.crossings)
    # every coherence-restoring R2+ move adds exactly two crossings
    return {"seifert.crossings_in": cin, "seifert.crossings_braided": cout,
            "seifert.r2_pushes": (cout - cin) // 2}


def _signature_counts(args, result):
    return {"exactlinalg.signature_dim_sum": len(args[0]),
            "exactlinalg.signature_dim_max": len(args[0])}


# wrapped function -> counters read off its arguments and result
COUNTERS = {
    "braid_form": _braid_form_counts,
    "signature_symmetric": _signature_counts,
    "det_int": lambda args, result: {"exactlinalg.det_dim_sum": len(args[0])},
    # cokernel calls smith_normal_form, so only the latter counts sizes
    "smith_normal_form": lambda args, result: {"exactlinalg.snf_dim_sum": len(args[0])},
    "knotify": lambda args, result: {
        "traces.knotify_crossings_out": len(result.mixed.diagram.crossings)},
}
# counter -> the group whose function feeds it
COUNTER_GROUP = {
    "seifert.crossings_in": "seifert.braid_form",
    "seifert.crossings_braided": "seifert.braid_form",
    "seifert.r2_pushes": "seifert.braid_form",
    "exactlinalg.signature_dim_sum": "exactlinalg.signature",
    "exactlinalg.signature_dim_max": "exactlinalg.signature",
    "exactlinalg.det_dim_sum": "exactlinalg.det",
    "exactlinalg.snf_dim_sum": "exactlinalg.snf",
    "traces.knotify_crossings_out": "traces.knotify",
}
MAX_COUNTERS = {"exactlinalg.signature_dim_max"}


@dataclass(slots=True)
class Span:
    name: str      # wrapped function name
    group: str
    start: float
    end: float
    parent: int    # index of the parent span, -1 for a root
    item: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans
    of one thread nest strictly, so the children's durations add up; a
    nested call of the same function is its parent's child like any
    other, so it is neither lost nor counted twice."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Records spans while installed; ``uninstall`` restores every patched
    binding."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.item = ""
        self.counts: dict[str, int] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.present: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def call(self, name: str, group: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else -1
        index = len(self.spans)
        span = Span(name, group, self.clock(), 0.0, parent, self.item)
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.end = self.clock()
            self.stack.pop()
            self.errors[group.split(".")[0]] += 1
            raise
        span.end = self.clock()
        self.stack.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            for key, value in counter(args, result).items():
                if key in MAX_COUNTERS:
                    self.counts[key] = max(self.counts.get(key, 0), value)
                else:
                    self.counts[key] = self.counts.get(key, 0) + value
        return result

    def _wrapper(self, name: str, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, group, fn, *args, **kwargs)
        return traced

    # -- patching ---------------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "tracekit" or key.startswith("tracekit."))]
        for group, (module, names) in GROUPS.items():
            mod = sys.modules.get(f"tracekit.{module}")
            for name in names:
                fn = getattr(mod, name, None) if mod is not None else None
                if not callable(fn):
                    continue
                self.present.add(group)
                wrapper = self._wrapper(name, group, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._patched):
            setattr(m, attr, fn)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics for one pass over the corpus: summed self
        times, call counts, counters and errors, divided by ``passes``."""
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            seconds[span.group] = seconds.get(span.group, 0.0) + own
            calls[span.group] = calls.get(span.group, 0) + 1
        out: dict[str, float] = {}
        for group in list(GROUPS) + [CLI_GROUP]:
            if group != CLI_GROUP and group not in self.present:
                continue  # absent after a rename or deletion
            out[f"{group}_s"] = seconds.get(group, 0.0) / passes
            if group != CLI_GROUP:
                out[f"{group}_calls"] = calls.get(group, 0) // passes
        for key, group in COUNTER_GROUP.items():
            if group in self.present:
                value = self.counts.get(key, 0)
                out[key] = value if key in MAX_COUNTERS else value // passes
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer] // passes
        return out
