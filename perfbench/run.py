"""tracekit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload alternating --seed 1 --seconds 40 --trace 0

Closed loop, one client: each corpus item is one ``tracekit.cli.main(argv)``
call made in-process, the next only after the previous returns; no
threads, no subprocess per item.  Passes over the corpus repeat until
``--seconds`` have elapsed (the first pass always completes).

Every call, and every set-up sample, is preceded by a run of a fixed
kernel (kernel.py) in the same thread, and its time is scaled by
``kernel.SECONDS / kernel time``: on a shared machine the speed of a core
drifts by tens of percent over seconds to minutes, and the kernel, timed
next to the call, measures that drift.  An item's latency is the median
of its scaled calls.  Raw times are kept in the result file.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with every
call's latency and the environment, goes to
``.bench_out/BENCH_<workload>_seed<seed>[_traced].json``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends a
third of the time untraced and the rest with every layer's public
functions wrapped (see tracer.py), and reports per-layer self times,
counts and the tracing overhead.

Correctness gate: an item fails if any of its calls exits nonzero or
raises, if its report bytes differ between calls, if its report digest
differs from the golden digest (default seed only), or if its report
disagrees with an independent check made outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden"
GOLDEN_SEED = 1
SETUP_SAMPLES = 15
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run

sys.path.insert(0, str(HERE))
import corpus  # noqa: E402
import tracer as tracing  # noqa: E402
from kernel import SECONDS as KERNEL_SECONDS, timed_kernel  # noqa: E402

SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from kernel import timed_kernel\n"
    "timed_kernel()\n"
    "k = timed_kernel()  # the second run, warm like the timed calls\n"
    "t = time.perf_counter()\n"
    "import tracekit.cli\n"
    "tracekit.cli.build_parser()\n"
    "print(time.perf_counter() - t, k)\n"
)


# -- arithmetic ----------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    fraction ``q`` of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank percentile."""
    return n - max(1, math.ceil(q * n))


# -- measurement ---------------------------------------------------------------

def measure_setup() -> list[tuple[float, float]]:
    """(seconds, kernel seconds) to import tracekit.cli and build its
    parser, each sample in a fresh interpreter (every tracekit invocation
    pays this)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, kern = map(float, proc.stdout.split())
        out.append((seconds, kern))
    return out


@dataclass
class Calls:
    """Everything measured over the passes of one phase of a run."""

    raw: list[list[float]]      # per item, seconds per call
    kernel: list[list[float]]   # per item, the kernel's time before each call
    digests: list[set[str]]
    reports: list[str | None]
    errors: dict[str, str] = field(default_factory=dict)
    walls: list[float] = field(default_factory=list)  # complete passes only

    def scaled(self) -> list[float]:
        """Per item, the median of its calls scaled to kernel speed."""
        return [statistics.median(r * KERNEL_SECONDS / k for r, k in zip(rs, ks))
                for rs, ks in zip(self.raw, self.kernel)]

    def per_pass(self) -> float:
        """Mean raw time of one complete pass, calls only."""
        return sum(map(sum, self.raw)) / len(self.walls)


def call(cli, argv: list[str], trace=None):
    """One closed-loop request; returns (seconds, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if trace is None:
                code = cli.main(argv)
            else:
                code = trace.call("main", tracing.CLI_GROUP, cli.main, argv)
        except Exception:  # noqa: BLE001 - a crash is a failed item, not a harness abort
            error = traceback.format_exc()
        t1 = time.perf_counter()
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()}"
    return t1 - t0, out.getvalue(), error


def run_passes(cli, items, argvs, seconds: float, trace=None, whole=False) -> Calls:
    """Repeat passes over the corpus until ``seconds`` elapse.  The first
    pass always completes, and with ``whole`` every pass does."""
    n = len(items)
    calls = Calls([[] for _ in range(n)], [[] for _ in range(n)],
                  [set() for _ in range(n)], [None] * n)
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for i, (item, argv) in enumerate(zip(items, argvs)):
            if calls.walls and (i == 0 or not whole) and time.perf_counter() - start >= seconds:
                return calls
            if trace is not None:
                trace.item = item.id
            calls.kernel[i].append(timed_kernel())
            dt, text, error = call(cli, argv, trace)
            calls.raw[i].append(dt)
            calls.digests[i].add(hashlib.sha256(text.encode()).hexdigest())
            if calls.reports[i] is None:
                calls.reports[i] = text
            if error is not None:
                calls.errors.setdefault(item.id, error)
        calls.walls.append(time.perf_counter() - p0)
        gc.collect()


# -- correctness ----------------------------------------------------------------

def _diagram(item: corpus.Item):
    from tracekit import linkdiag
    if item.text is None:
        name, _, param = item.argv[item.argv.index("--catalog") + 1].partition(":")
        return linkdiag.catalog(name, param or None)
    if item.text.lstrip().startswith("{"):
        return linkdiag.loads(item.text)[0]
    return linkdiag.parse_pd(item.text)


def oracle(item: corpus.Item, report: str) -> str | None:
    """Check a report against facts computed independently of it;
    returns a reason on disagreement."""
    from tracekit.invariants import determinant_goeritz

    data = json.loads(report)
    command = item.argv[0]
    if command == "invariants":
        want = determinant_goeritz(_diagram(item))
        return None if data["det"] == want else f"det {data['det']} != Goeritz {want}"
    lk, framings = item.expect["lk"], item.expect["framings"]
    n = len(lk)
    total_lk = sum(lk[i][j] for i in range(n) for j in range(i + 1, n))
    if command == "knotify":
        if data["framing"] != sum(framings) + 2 * total_lk or any(data["winding"]):
            return f"knotify framing {data['framing']} / winding {data['winding']}"
        return None
    if command == "check-sphere":
        passes = data["verdict"]["status"] == "pass-necessary"
        unlinked = not any(map(any, lk))
        return None if passes == unlinked else \
            f"verdict {data['verdict']['status']} with linking {lk}"
    if "blocks" in item.expect:
        blocks = item.expect["blocks"]
        want = [[0 if a == b else sum(lk[i][j] for i in blocks[a] for j in blocks[b])
                 for b in range(len(blocks))] for a in range(len(blocks))]
    else:
        want = [[framings[i] if i == j else lk[i][j] for j in range(n)] for i in range(n)]
    return None if data["Q"] == want else f"Q {data['Q']} != {want}"


def gate(items, calls: Calls, golden_items: dict | None) -> dict[str, str]:
    """Every failed item with its reason."""
    failures = dict(calls.errors)
    for i, item in enumerate(items):
        if item.id in failures:
            continue
        if len(calls.digests[i]) != 1:
            failures[item.id] = "report bytes differ between calls"
        elif golden_items is not None and golden_items.get(item.id) not in calls.digests[i]:
            failures[item.id] = "report digest differs from golden"
        else:
            try:
                reason = oracle(item, calls.reports[i])
            except Exception:  # noqa: BLE001 - an unreadable report fails its item
                reason = traceback.format_exc()
            if reason is not None:
                failures[item.id] = reason
    return failures


# -- main ----------------------------------------------------------------------

def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
    }


def import_cli():
    if not (SRC / "tracekit" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tracekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracekit.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "tracekit").resolve():
        raise SystemExit(f"perfbench: imported tracekit from {cli.__file__}, not {SRC}")
    return cli


def write_inputs(items, directory: Path) -> list[list[str]]:
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for item in items:
        path = None
        if item.text is not None:
            path = directory / hashlib.sha256(item.text.encode()).hexdigest()[:16]
            path.write_text(item.text)
        argvs.append(item.command(str(path) if path else None))
    return argvs


UNITS = {"_ms": "ms", "_mb": "MB", "_s": "s", "overhead": "ratio", "_frac": "ratio"}


def _unit(key: str) -> str:
    return next((unit for suffix, unit in UNITS.items() if key.endswith(suffix)), "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, default=GOLDEN_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help="store this run's report digests as the golden set "
                         "for this workload (they must pass every other check)")
    args = ap.parse_args(argv)

    cli = import_cli()
    setup = measure_setup()
    items = corpus.build(args.workload, args.seed)
    digest = corpus.corpus_digest(items)
    work = OUT / "inputs" / f"{args.workload}_seed{args.seed}_{os.getpid()}"
    try:
        argvs = write_inputs(items, work)
        if args.trace:
            base = run_passes(cli, items, argvs, args.seconds * UNTRACED_SHARE, whole=True)
            trace = tracing.Tracer()
            trace.install()
            try:
                calls = run_passes(cli, items, argvs, args.seconds * (1 - UNTRACED_SHARE),
                                   trace, whole=True)
            finally:
                trace.uninstall()
            calls.digests = [a | b for a, b in zip(base.digests, calls.digests)]
            calls.errors = {**base.errors, **calls.errors}
        else:
            calls = run_passes(cli, items, argvs, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []
    golden_path = GOLDEN / f"{args.workload}.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else None
    golden_items = None
    if args.seed == GOLDEN_SEED and not args.record_golden:
        if golden is None:
            problems.append("no golden digests recorded")
        elif golden["corpus"] != digest:
            problems.append("corpus differs from the one the golden digests were made on")
        else:
            golden_items = golden["items"]
    failures = gate(items, calls, golden_items)
    OUT.mkdir(exist_ok=True)
    n = len(items)
    scaled = calls.scaled()
    result = {
        "environment": environment(args),
        "corpus_digest": digest, "golden_checked": golden_items is not None,
        "attempted": n, "failed": len(failures), "failed_frac": len(failures) / n,
        "failures": failures, "problems": problems,
        "passes": len(calls.walls), "pass_walls_s": calls.walls,
        "item_samples": n, "p90_samples_beyond": samples_beyond(n, 0.9),
        "kernel_seconds": KERNEL_SECONDS,
        "setup_samples": [{"raw_s": t, "kernel_s": k} for t, k in setup],
        "items": {item.id: {"latency_ms": s * 1e3,
                            "raw_ms": [x * 1e3 for x in raw],
                            "kernel_ms": [x * 1e3 for x in kern]}
                  for item, s, raw, kern in zip(items, scaled, calls.raw, calls.kernel)},
    }
    if args.trace:
        metrics = trace.metrics(len(calls.walls))
        metrics["cli.failed_frac"] = len(failures) / n
        metrics["trace.wall_s"] = calls.per_pass()
        metrics["trace.self_sum_s"] = sum(v for k, v in metrics.items()
                                          if k.endswith("_s") and not k.startswith("trace."))
        metrics["trace.overhead"] = sum(scaled) / sum(base.scaled())
        spans_path = OUT / f"spans_{args.workload}_seed{args.seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in trace.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.item]) + "\n")
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(t * KERNEL_SECONDS / k for t, k in setup),
            "wall_s": sum(scaled),
            "item_p50_ms": percentile(scaled, 0.5) * 1e3,
            "item_p90_ms": percentile(scaled, 0.9) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    result["metrics"] = {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}

    if args.record_golden:
        if failures:
            raise SystemExit(f"perfbench: not recording golden digests, {len(failures)} items failed")
        GOLDEN.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps({
            "seed": args.seed, "corpus": digest,
            "items": {item.id: next(iter(d)) for item, d in zip(items, calls.digests)},
        }, indent=1, sort_keys=True) + "\n")

    name = f"BENCH_{args.workload}_seed{args.seed}{'_traced' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    for reason in problems + [f"{k}: {v}" for k, v in failures.items()]:
        print(f"FAIL {reason.strip()}")
    for key, m in result["metrics"].items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": n, "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
