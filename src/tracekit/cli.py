"""Command-line front end: JSON-first reports over the library.

Every command is one pipeline: a ``_cmd_*`` function computes its report
as a dict and writes nothing, and ``main`` alone renders it (``--format``),
writes it (``--out`` or stdout) and picks the exit code.  The library
returns records (named tuples); the ``_shape_*`` and ``_cmd_*`` functions
here alone know the report keys, but for the link file format
(``linkdiag.to_json_dict``) that ``parse`` and ``catalog`` report.

Exit codes: 0 success, 2 malformed input, 3 precondition violation,
4 internal invariant breach or any exception from outside the library's
error bands (always a bug); each band's class in ``errors`` carries its
exit code and stderr prefix.  Malformed input includes a usage error,
an option given an empty value (``--framings ""``, ``--partition ""``,
``--bands ""``, ``--catalog ""``, ``--out ""``) and an ``--out`` path that
cannot be written.  Identical inputs produce byte-identical reports;
batch rows follow manifest order, and a batch exits 4 when any row
failed outside the input and precondition bands.

Every command reads its link through ``_load``: a ``--catalog`` entry,
else a link file given by position (link JSON or PD text), and ``batch``
each manifest entry the same way.  ``_read`` is the one place a file is
opened for reading, ``linkdiag.decode_json`` the one JSON decoder, and
``_framings`` picks the framings of the framed commands.

``main(argv)`` returns the exit code, usage errors and ``--help``
included, and may be called any number of times in one process: the
argument parser is built once per process and reused, and no call's
options carry over to the next.  ``build_parser()`` still returns a
fresh parser.
"""

import argparse
import functools
import json
import sys

from . import linkdiag, traces
from .errors import BANDS, InputError, InternalInvariantError
from .invariants import ObstructionReport, obstruction_report
from .linkdiag import BandSpec, LinkDiagram, catalog, json_int, parse_pd


def _load_catalog(entry: str) -> LinkDiagram:
    name, colon, param = entry.partition(":")
    if not name:
        raise InputError(f"empty catalog entry name in {entry!r}")
    if colon and not param:
        raise InputError(f"empty catalog parameter in {entry!r}")
    return catalog(name, param if colon else None)


def _read(path: str, what: str = "") -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL or unencodable path, or not UTF-8
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def _load(entry: str | None, path: str | None) -> tuple[LinkDiagram, list[int] | None, dict]:
    """(diagram, JSON framings, JSON object) of catalog ``entry``, else of
    the file at ``path``: link JSON, which starts with ``{``, or a PD code
    in text form."""
    if entry is not None:
        return _load_catalog(entry), None, {}
    if path is None:
        raise InputError("need an input file or --catalog")
    text = _read(path)
    if not text.lstrip().startswith("{"):
        return parse_pd(text), None, {}
    data = linkdiag.decode_json(text)
    return (*linkdiag.from_json_dict(data), data)


def _framings(args, framings: list[int] | None, circles: int) -> tuple[int, ...]:
    """``--framings``, else the JSON ``framings``, else 0 on each circle."""
    if args.framings is None:
        return tuple(framings) if framings is not None else (0,) * circles
    try:
        return tuple(int(x) for x in args.framings.split(","))
    except ValueError as exc:
        raise InputError(f"bad framings {args.framings!r}") from exc


def _load_framed(args) -> traces.FramedLink:
    d, framings, _ = _load(args.catalog, args.input)
    return traces.FramedLink(d, _framings(args, framings, d.num_components))


def _parse_partition(text: str, components: int) -> traces.WeightedPartition:
    blocks = []
    weights = []
    for chunk in text.split("|"):
        body, _, weight = chunk.partition(":")
        if not weight.startswith("g="):
            raise InputError(f"bad partition block {chunk!r} (want i,j:g=N)")
        try:
            blocks.append([int(x) - 1 for x in body.split(",")])
            weights.append(int(weight[2:]))
        except ValueError as exc:
            raise InputError(f"bad partition block {chunk!r}") from exc
    return traces.WeightedPartition.of(blocks, weights, components)


def _parse_bands(text: str) -> list[BandSpec]:
    rows = linkdiag.decode_json(text, "bands JSON", InputError)

    def arc(x, row):
        if isinstance(x, list):
            if len(x) != 2 or x[0] != "loop":
                raise InputError(f"bad band {row!r}: a loop arc is [\"loop\", k]")
            return ("loop", json_int(x[1], "band loop index"))
        return json_int(x, "band arc")

    if not isinstance(rows, list):
        raise InputError("bands must be a JSON list")
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) not in (2, 3):
            raise InputError(f"bad band {row!r}: want [arc, arc] or [arc, arc, twists]")
        framing = json_int(row[2], "band twist count") if len(row) > 2 else 0
        out.append(BandSpec(arc(row[0], row), arc(row[1], row), framing))
    return out


def _emit(args, report: dict):
    """Render ``report`` in ``--format`` and write it to ``--out`` or stdout."""
    payload = (_as_table(report) if args.format == "table"
               else json.dumps(report, sort_keys=True)) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc


def _as_table(data: dict, indent: str = "") -> str:
    lines = []
    for key in sorted(data):
        value = data[key]
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_as_table(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for row in value:
                cells = "  ".join(f"{k}={row[k]}" for k in sorted(row))
                lines.append(f"{indent}  - {cells}")
        else:
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)


# -- reports -----------------------------------------------------------------

def _shape_obstruction(r: ObstructionReport) -> dict:
    # batch tables print this dict with str(), so its order is output too
    return {
        "link": r.name,
        "l": r.components,
        "sigma": r.sigma,
        "det": r.det,
        "tau": r.tau,
        "g4_lb": r.g4_lower_bound,
        "chi4_ub": r.chi4_upper_bound,
        "G4_lb": r.g4_renormalized_lower_bound,
        "verdicts": [{"claim": v.claim, "rule": v.rule, "anchor": v.anchor}
                     for v in r.verdicts],
    }


def _shape_h1(boundary: tuple[int, tuple[int, ...]]) -> dict:
    return {"rank": boundary[0], "torsion": list(boundary[1])}


def _shape_trace(h: traces.HandleDecomposition, boundary_h1: dict | None) -> dict:
    return {
        "construction": h.provenance,
        "handles": list(h.handles),
        "Q": [list(r) for r in h.q],
        "W": [list(r) for r in h.w],
        "chi": h.chi,
        "b1": h.b1,
        "b2": h.b2,
        "boundary_h1": boundary_h1,
        "verdicts": [],
    }


def _shape_candidate(v: traces.TraceVerdict) -> dict:
    return {"status": v.status, "checks": list(v.checks), "data": dict(v.data)}


# -- commands ----------------------------------------------------------------

def _cmd_parse(args) -> dict:
    d, framings, _ = _load(args.catalog, args.input)
    if framings is not None:
        traces.FramedLink(d, tuple(framings))  # one framing per component
    return linkdiag.to_json_dict(d, framings)


def _cmd_invariants(args) -> dict:
    return _shape_obstruction(obstruction_report(_load(args.catalog, args.input)[0]))


def _cmd_trace(args) -> dict:
    link = _load_framed(args)
    if args.partition is not None:
        part = _parse_partition(args.partition, link.components)
        return _shape_trace(traces.high_order_trace(link, part), None)
    h = traces.zero_trace(link)
    return _shape_trace(h, _shape_h1(traces._h1_of(h)))


def _cmd_knotify(args) -> dict:
    link = _load_framed(args)
    bands = _parse_bands(args.bands) if args.bands is not None else None
    kn = traces.knotify(link, bands)
    return {
        "construction": "knotify",
        "surgery_circles": kn.surgery_circles,
        "framing": kn.framing,
        "winding": list(kn.winding),
        "planar_framing_valid": traces.planar_framing_valid(link),
        "diagram": linkdiag.to_json_dict(kn.mixed.diagram),
        "dotted_components": list(kn.mixed.dotted),
        "knot_component": kn.knot_component,
    }


def _cmd_check_sphere(args) -> dict:
    link = _load_framed(args)
    trace = traces.zero_trace(link)
    boundary = traces._h1_of(trace)
    return {
        "construction": "homotopy-sphere-candidate",
        "verdict": _shape_candidate(traces._sphere_verdict(link, trace, boundary)),
        "handles": list(trace.handles),
        "boundary_h1": _shape_h1(boundary),
    }


def _cmd_check_schoenflies(args) -> dict:
    d, framings, data = _load(args.catalog, args.input)
    try:
        dotted = tuple(json_int(x, "dotted index") for x in data.get("dotted", ()))
    except TypeError as exc:
        raise InputError(f"bad dotted list: {exc}") from exc
    framings = _framings(args, framings, d.num_components - len(dotted))
    mixed = traces.MixedLink(d, dotted, framings)
    w = mixed.winding_matrix()
    return {
        "construction": "schoenflies-candidate",
        "dotted": list(dotted),
        "attaching": list(mixed.attaching),
        "W": w,
        "verdict": _shape_candidate(traces._schoenflies_verdict(mixed, w)),
    }


def _cmd_catalog(args) -> dict:
    if args.name is None:
        return {"entries": list(linkdiag.CATALOG_NAMES)}
    return linkdiag.to_json_dict(_load_catalog(args.name))


def _cmd_batch(args) -> dict:
    manifest = linkdiag.decode_json(_read(args.manifest, "manifest "),
                                    "manifest JSON", InputError)
    if isinstance(manifest, dict):
        manifest = manifest.get("entries")  # an object without them is malformed
    if not isinstance(manifest, list):
        raise InputError("manifest must be a list of entries")
    rows = []
    by_band = {cls.band: 0 for cls in BANDS}
    for entry in manifest:
        label = (entry.get("catalog") or entry.get("file") or "?"
                 if isinstance(entry, dict) else "?")
        try:
            report = obstruction_report(_load_entry(entry), name=str(label))
            rows.append({"entry": str(label), "ok": True, "report": _shape_obstruction(report)})
        except Exception as exc:  # noqa: BLE001  - isolate per-entry failures
            # anything outside the input and precondition bands is a bug
            band = exc.band if isinstance(exc, BANDS) else InternalInvariantError.band
            if band == InternalInvariantError.band:
                import traceback  # only a bug needs it; it slows start-up
                traceback.print_exc()  # a bug: keep where it happened
            by_band[band] += 1
            rows.append({"entry": str(label), "ok": False,
                         "error": f"{type(exc).__name__}: {exc}"})
    return {
        "rows": rows,
        "summary": {"entries": len(rows), "failed": sum(by_band.values()),
                    "by_band": by_band},
    }


def _load_entry(entry) -> LinkDiagram:
    if not isinstance(entry, dict):
        raise InputError(f"manifest entry {entry!r} is not an object")
    if not isinstance(entry.get("catalog", ""), str):
        raise InputError(f"manifest entry {entry!r}: catalog must be a string")
    if "catalog" not in entry and not isinstance(entry.get("file"), str):
        raise InputError(f"manifest entry {entry!r} names no catalog or file")
    return _load(entry.get("catalog"), entry.get("file"))[0]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="framed-link calculus: invariants, sliceness "
                    "obstructions, and trace handle decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, out_help=None):
        p.add_argument("--out", help=out_help)
        p.add_argument("--format", choices=("json", "table"), default="json")

    def add_common(p, with_framings=True):
        p.add_argument("input", nargs="?", help="link JSON or PD text file")
        p.add_argument("--catalog", help="catalog entry name[:param]")
        if with_framings:
            p.add_argument("--framings", help="comma-separated integers")
        add_output(p, "write the report here instead of stdout")

    p = sub.add_parser("parse", help="parse and canonicalize a diagram")
    add_common(p, with_framings=False)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("invariants", help="signature, determinant, tau, bounds")
    add_common(p, with_framings=False)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("trace", help="handle decomposition of a framed link")
    add_common(p)
    p.add_argument("--partition", help='high-order blocks, e.g. "1,2:g=0|3:g=1"')
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("knotify", help="merge to a knot with surgery circles")
    add_common(p)
    p.add_argument("--bands", help='JSON band list [[arc,arc,twists?],...]')
    p.set_defaults(func=_cmd_knotify)

    p = sub.add_parser("check-sphere", help="homotopy 4-sphere necessary conditions")
    add_common(p)
    p.set_defaults(func=_cmd_check_sphere)

    p = sub.add_parser("check-schoenflies",
                       help="Schoenflies candidate necessary conditions")
    add_common(p)
    p.set_defaults(func=_cmd_check_schoenflies)

    p = sub.add_parser("catalog", help="list catalog entries or emit one")
    p.add_argument("name", nargs="?", help="entry name[:param]")
    add_output(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("batch", help="run invariant reports over a manifest")
    p.add_argument("manifest")
    add_output(p)
    p.set_defaults(func=_cmd_batch)

    return parser


# The parser main reuses: built on the first call, not at import, and
# never mutated after, so each parse_args starts from the same state.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; argparse's own
    exits (2 for a usage error, 0 after ``--help``) are returned too."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        report = args.func(args)
        _emit(args, report)
    except BANDS as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001  - anything else is a bug
        import traceback  # only a bug needs it; it slows start-up
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return InternalInvariantError.exit_code
    if args.command == "batch":
        breaches = report["summary"]["by_band"][InternalInvariantError.band]
        if breaches:
            print(f"{InternalInvariantError.prefix} in {breaches} batch rows",
                  file=sys.stderr)
            return InternalInvariantError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
