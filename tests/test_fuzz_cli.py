"""Fuzzing the command line with random PD input.

Every command must answer a random diagram with a report or a clean
input/precondition error: no traceback, and exit code 0, 2 or 3.  The
inputs are PD JSON and PD text of at most 30 crossings, some of them
valid braid closures and some perturbed or random, with random loop
counts, framings, dotted lists, ``--bands`` values and ``trace
--partition`` values.  An unperturbed braid closure sometimes gets a
partition of its own components with framings that meet every block's
law, so a ``trace --partition`` run can succeed; its word then uses
every generator, so those runs see crossings.  Braid closures have at
most 4 strands and so at most 4 components, which keeps reports small
(they grow quadratically with the component count) while the parse
sees words of up to 30 letters.  The run is seeded from TRACEKIT_SEED.
"""

import contextlib
import io
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import base_seed
from tracekit import cli
from tracekit import linkdiag as ld
from tracekit.errors import TracekitError

MAX_CROSSINGS = 30
COMMANDS = ("parse", "invariants", "trace", "knotify", "check-sphere",
            "check-schoenflies")


@st.composite
def pd_rows(draw, every_generator=False):
    """(a list of PD 4-tuples, whether it is an unperturbed braid
    closure): a braid closure, perhaps with one entry changed, or random
    edge ids.  With ``every_generator`` the closure word uses each of its
    at most 3 generators, so the diagram has crossings."""
    n = draw(st.integers(0, MAX_CROSSINGS))
    if draw(st.booleans()):
        strands = draw(st.integers(2, 4))
        letters = st.integers(1, strands - 1).flatmap(
            lambda i: st.sampled_from([i, -i]))
        if every_generator:
            word = draw(st.lists(letters, min_size=strands - 1,
                                 max_size=max(n, strands - 1)))
            word[:strands - 1] = [i * draw(st.sampled_from([1, -1]))
                                  for i in range(1, strands)]
            word = draw(st.permutations(word))
        else:
            word = draw(st.lists(letters, max_size=n))
        rows = [list(c.edges) for c in ld.from_braid(word, strands).crossings]
        if rows and draw(st.booleans()):
            i = draw(st.integers(0, len(rows) - 1))
            rows[i][draw(st.integers(0, 3))] = draw(st.integers(0, 2 * n + 1))
            return rows, False
        return rows, True
    edge = st.integers(0, 2 * n + 1)
    return draw(st.lists(st.lists(edge, min_size=3, max_size=5), max_size=n)), False


arcs = st.one_of(st.integers(0, 14),
                 st.tuples(st.sampled_from(["loop", "x"]), st.integers(-1, 3)).map(list))
bands = st.one_of(
    st.none(),
    st.lists(st.tuples(arcs, arcs, st.integers(-3, 3)).map(list), max_size=3).map(json.dumps),
    st.text(max_size=8),
)
framing_lists = st.lists(st.integers(-5, 5), max_size=5)
cli_framings = st.one_of(st.none(), framing_lists.map(lambda f: ",".join(map(str, f))),
                         st.text(max_size=6))
# well-shaped "i,j:g=N|..." blocks with out-of-range, repeated and
# missing indices and negative genera, random text, or no option
partition_blocks = st.tuples(st.lists(st.integers(-1, 6), min_size=1, max_size=4),
                             st.integers(-1, 3))
partitions = st.one_of(
    st.none(),
    st.lists(partition_blocks, min_size=1, max_size=3).map(
        lambda blocks: "|".join(f"{','.join(map(str, b))}:g={g}" for b, g in blocks)),
    st.text(max_size=10),
)


@st.composite
def law_partitions(draw, d):
    """(``--partition``, ``--framings``) values: a weighted partition of
    the components of ``d`` and framings that meet each block's law,
    sum of t_i = -2 lk(block)."""
    n = d.num_components
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    lkm = ld.linking_matrix(d)
    framings = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    for block in blocks:
        need = -2 * sum(lkm[i][j] for i, j in itertools.combinations(block, 2))
        framings[block[-1]] = need - sum(framings[i] for i in block[:-1])
    spec = "|".join(f"{','.join(str(i + 1) for i in b)}:g={draw(st.integers(0, 2))}"
                    for b in blocks)
    return spec, ",".join(map(str, framings))


@st.composite
def inputs(draw):
    """(file name, file text, extra command-line options)."""
    law = draw(st.integers(0, 3)) > 0
    rows, closure = draw(pd_rows(every_generator=law))
    loops = draw(st.integers(-2, 3))
    if draw(st.booleans()):
        data = {"pd": rows, "loops": loops}
        for key, values in (("framings", framing_lists), ("dotted", st.lists(
                st.integers(-1, 5), max_size=3))):
            if draw(st.booleans()):
                data[key] = draw(values)
        name, text = "link.json", json.dumps(data)
    else:
        tuples = [f"X({','.join(map(str, r))})" for r in rows]
        name, text = "link.txt", ", ".join(tuples + ["O"] * max(loops, 0))
    opts = {"--framings": draw(cli_framings), "--bands": draw(bands),
            "--partition": draw(partitions)}
    if closure and law:
        try:
            d = ld.loads(text)[0] if name == "link.json" else ld.parse_pd(text)
        except TracekitError:  # negative loops or an empty diagram
            d = None
        if d is not None:
            opts["--partition"], opts["--framings"] = draw(law_partitions(d))
    return name, text, opts


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(base_seed())
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=inputs())
def test_commands_never_crash_on_random_pd(workdir, case):
    name, text, opts = case
    path = workdir / name
    path.write_text(text)
    for command in COMMANDS:
        argv = [command, str(path)]
        if command not in ("parse", "invariants"):
            if opts["--framings"] is not None:
                argv.append(f"--framings={opts['--framings']}")
        if command == "knotify" and opts["--bands"] is not None:
            argv.append(f"--bands={opts['--bands']}")
        if command == "trace" and opts["--partition"] is not None:
            argv.append(f"--partition={opts['--partition']}")
        code, err = run_cli(argv)
        assert "Traceback" not in err, (argv, text)
        assert code in (0, 2, 3), (argv, text, err)
