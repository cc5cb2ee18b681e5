"""Benchmark reports stay byte-identical.

Every seed-1 item of the three benchmark corpora (``perfbench/corpus.py``)
runs in-process through ``tracekit.cli.main``, and each report's sha256
must equal the one recorded in ``perfbench/golden/<workload>.json``.  A
refactor that changes any report fails here, without a benchmark run.
The traced run's tracer must also find every function it wraps: it
drops the metrics of a group whose function is gone, so renaming or
deleting one would change the benchmark's metric set.
The benchmark directory is only read: its modules are loaded without
writing bytecode, and the input files go under ``tmp_path``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from tracekit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN_SEED = 1


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"_golden_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # their dataclasses look their module up
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = before
    return module


corpus = _load_perfbench("corpus")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_reports_match_golden_digests(workload, tmp_path):
    golden = json.loads((PERFBENCH / "golden" / f"{workload}.json").read_text())
    items = corpus.build(workload, GOLDEN_SEED)
    assert corpus.corpus_digest(items) == golden["corpus"]
    assert {item.id for item in items} == set(golden["items"])
    mismatched = []
    for k, item in enumerate(items):
        code, out, err = run_item(item, tmp_path / f"item{k}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        if code != 0 or digest != golden["items"][item.id]:
            mismatched.append((item.id, code, err.strip()))
    assert not mismatched


def run_item(item, path):
    """(exit code, stdout, stderr) of one corpus item run through
    ``cli.main``, its input file written to ``path`` when it has one."""
    if item.text is not None:
        path.write_text(item.text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(item.command(str(path) if item.text is not None else None))
    return code, out.getvalue(), err.getvalue()


def test_tracer_wraps_every_group():
    module = _load_perfbench("tracer")
    tracer = module.Tracer()
    tracer.install()  # over the imported tracekit.cli and its layers
    try:
        assert tracer.present == set(module.GROUPS)
    finally:
        tracer.uninstall()
