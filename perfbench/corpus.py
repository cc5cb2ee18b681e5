"""Seeded corpora for the three benchmark workloads.

A corpus is a list of ``Item`` s: one ``tracekit`` command line each,
plus the input file text it reads and the facts the correctness gate
checks the report against.  It is a pure function of (workload, seed):
the seed picks braid letters, signs, rational fractions, framings and
partitions, while the *shape* of every corpus (how many items, at which
sizes, in which cost classes) is fixed, so that every seed costs about
the same and two seeds can be compared.

Input files are written with the library's own serializers
(``serialize_pd`` / ``dumps``), so each workload also exercises both
parsers.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("alternating", "braids", "surgery")

HERE = Path(__file__).resolve().parent
RATIONAL_POOL = HERE / "rational_pool.json"

# alternating: rational links drawn per Seifert-circle class of the input
# diagram.  That count decides how many coherence-restoring R2 moves
# braid_form makes, and with them the cost: ~5 ms at 2-6 circles, ~0.1 s
# at 12, seconds beyond 17.  Fixed class quotas keep the cost profile of
# every seed the same.  The bulk (2-6 circles, at most 20 crossings) stays
# below twist_family(-4), and the 12-circle draws above it, so exactly ten
# items lie beyond the 90th percentile and it always falls on
# twist_family(-4).
RATIONAL_QUOTA = {2: 14, 3: 16, 4: 16, 5: 16, 6: 16, 12: 4}
RATIONAL_MAX_CROSSINGS = 20
TWIST_FAMILY = range(2, -11, -1)  # twist_family(-10) is the ROADMAP baseline
ALT_CATALOG = ("hopf:+", "hopf:-", "trefoil:+", "trefoil:-", "figure8", "whitehead")

# braids: (strands, crossings, copies).  Most items are small so the
# median and the tail measure different things.  The cost of one closure
# varies with its letters, by ~5% at 20-30 crossings, ~10-20% beyond 70,
# and far more for large alternating ones (the tau path runs the Goeritz
# signature twice), so every seed costs the same only if no single item
# weighs much: sizes stop at 120 crossings, only small items are
# alternating, and the 90th percentile falls mid-way through fifteen
# 70-crossing items.
BRAID_LADDER = ((4, 20, 10), (5, 20, 10), (6, 20, 9),
                (4, 30, 10), (5, 30, 10), (6, 30, 10),
                (4, 45, 6), (5, 45, 6), (6, 45, 6),
                (4, 60, 2), (5, 60, 2), (6, 60, 2),
                (4, 70, 5), (5, 70, 5), (6, 70, 5),
                (5, 100, 2), (4, 120, 1), (6, 120, 1))
BRAID_MAX_ALTERNATING = 30  # crossings; every tenth item up to this size

# surgery: pure braid closures (one component per strand), one per size
# from 20 to 220 crossings, cycling through (strands, generators used)
# patterns.  A strand no generator touches closes into a crossing-free
# loop; a missing generator splits the diagram.  Evenly spread sizes give
# a continuum of costs, so the median and the 90th percentile do not jump
# between clusters from seed to seed.  The 124-crossing link carries
# ROADMAP's knotify baseline.
SURGERY_SIZES = (20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 124, 130, 140,
                 150, 160, 170, 180, 190, 200, 220)
SURGERY_PATTERNS = ((2, (1,)), (3, (1, 2)), (4, (1, 2, 3)), (5, (1, 2, 3, 4)),
                    (6, (1, 2, 3, 4, 5)),
                    (6, (1, 2, 4)), (5, (1, 3)))  # split, with a loop
SURGERY_CATALOG = ("unlink:2", "unlink:3", "borromean", "twist_family:0",
                   "twist_family:-2", "twist_family:-4")
SURGERY_COMMANDS = ("knotify", "trace", "partition", "check-sphere")


@dataclass
class Item:
    """One command of a corpus.  ``argv`` may hold ``{input}``, replaced
    by the path of the file holding ``text``."""

    id: str
    argv: list[str]
    text: str | None = None
    expect: dict = field(default_factory=dict)

    def command(self, path: str | None) -> list[str]:
        return [a.replace("{input}", path) if path else a for a in self.argv]


def corpus_digest(items: list[Item]) -> str:
    """sha256 over every item's id, command template and input text."""
    h = hashlib.sha256()
    for it in items:
        h.update(json.dumps([it.id, it.argv, it.text]).encode())
    return h.hexdigest()


def build(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "alternating":
        return _alternating(rng)
    if workload == "braids":
        return _braids(rng)
    if workload == "surgery":
        return _surgery(rng)
    raise ValueError(f"unknown workload {workload!r}")


# -- alternating ---------------------------------------------------------------

def _alternating(rng: random.Random) -> list[Item]:
    from tracekit import linkdiag

    items = [Item(f"catalog/{name}", ["invariants", "--catalog", name])
             for name in ALT_CATALOG]
    items += [Item(f"twist_family/{n}", ["invariants", "--catalog", f"twist_family:{n}"])
              for n in TWIST_FAMILY]
    pool = json.loads(RATIONAL_POOL.read_text())
    k = 0
    for circles, quota in RATIONAL_QUOTA.items():
        for p, q in rng.sample(pool[str(circles)], quota):
            flip = rng.random() < 0.5
            d = linkdiag.rational_link(p, q, f"rational({p}/{q})", flip=flip)
            tag = f"rational/s{circles}/{p}_{q}{'m' if flip else ''}"
            # alternate the two input formats: PD text and link JSON
            text = linkdiag.serialize_pd(d) if k % 2 == 0 else linkdiag.dumps(d)
            items.append(Item(tag, ["invariants", "{input}"], text + "\n"))
            k += 1
    return items


def write_rational_pool(path: Path = RATIONAL_POOL) -> None:
    """Class every connected rational_link(p, q), p < 100, with at most
    RATIONAL_MAX_CROSSINGS crossings by the Seifert circle count of its
    diagram, for the classes RATIONAL_QUOTA draws."""
    import math
    import sys

    from tracekit import linkdiag
    seifert_circles = sys.modules["tracekit.seifert"].seifert_circles

    pool: dict[str, list[list[int]]] = {str(s): [] for s in RATIONAL_QUOTA}
    for p in range(3, 100):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            d = linkdiag.rational_link(p, q)
            s = str(len(seifert_circles(d)))
            if (s in pool and len(d.crossings) <= RATIONAL_MAX_CROSSINGS
                    and linkdiag.is_connected(d)):
                pool[s].append([p, q])
    path.write_text(json.dumps(pool, separators=(",", ":")) + "\n")


# -- braids --------------------------------------------------------------------

def _letters(rng: random.Random, gens, crossings: int) -> list[int]:
    """A shuffled word using each generator of ``gens`` equally often
    (as near as divides), so the Goeritz and Seifert matrix sizes depend
    on the ladder entry only and not on the seed."""
    word = [gens[i % len(gens)] for i in range(crossings)]
    rng.shuffle(word)
    return word


def _braids(rng: random.Random) -> list[Item]:
    from tracekit import linkdiag

    items = []
    k = 0
    for strands, crossings, copies in BRAID_LADDER:
        for _ in range(copies):
            gens = tuple(range(1, strands))
            word = _letters(rng, gens, crossings)
            alternating = k % 10 == 9 and crossings <= BRAID_MAX_ALTERNATING
            if alternating:
                word = [g if g % 2 else -g for g in word]
            else:
                word = [g * rng.choice((1, -1)) for g in word]
            d = linkdiag.from_braid(word, strands, f"braid{k:03d}")
            tag = f"braid/{k:03d}/s{strands}n{crossings}{'a' if alternating else ''}"
            items.append(Item(tag, ["invariants", "{input}"], linkdiag.dumps(d) + "\n"))
            k += 1
    return items


# -- surgery -------------------------------------------------------------------

def pure_word(rng: random.Random, gens, crossings: int) -> list[int]:
    """A pure braid word of the given length: a random word followed by
    its generators in reverse order with fresh signs, so every strand
    closes up on itself."""
    half = _letters(rng, gens, crossings // 2)
    word = [g * rng.choice((1, -1)) for g in half]
    word += [g * rng.choice((1, -1)) for g in reversed(half)]
    return word


def word_linking(word: list[int], strands: int) -> list[list[int]]:
    """Linking matrix of the closure of a pure braid word, strand by
    strand: half the signed crossings between two strands."""
    at = list(range(strands))
    twice = [[0] * strands for _ in range(strands)]
    for letter in word:
        i = abs(letter) - 1
        a, b = at[i], at[i + 1]
        sign = 1 if letter > 0 else -1
        twice[a][b] += sign
        twice[b][a] += sign
        at[i], at[i + 1] = b, a
    return [[x // 2 for x in row] for row in twice]


def _component_linking(word, strands, gens) -> list[list[int]]:
    """Linking matrix in the library's component order: strands touched
    by the word first, in strand order, then the crossing-free loops."""
    used = sorted({g - 1 for g in gens} | {g for g in gens})
    order = used + [s for s in range(strands) if s not in used]
    lk = word_linking(word, strands)
    return [[lk[a][b] for b in order] for a in order]


def _partition(rng: random.Random, lk: list[list[int]]):
    """A random weighted partition of the components and framings that
    satisfy the block law sum_{i in B} t_i = -2 lk(B) on every block."""
    n = len(lk)
    comps = list(range(n))
    rng.shuffle(comps)
    # block sizes depend on n only (3, 3, ..., rest), so that how much
    # knotification a partition needs does not vary with the seed
    blocks = [sorted(comps[i:i + 3]) for i in range(0, n, 3)]
    blocks.sort()
    framings = [0] * n
    for block in blocks:
        internal = sum(lk[i][j] for i in block for j in block if i < j)
        for i in block[:-1]:
            framings[i] = rng.randint(-3, 3)
        framings[block[-1]] = -2 * internal - sum(framings[i] for i in block[:-1])
    weights = [rng.randint(0, 2) for _ in blocks]
    text = "|".join(",".join(str(i + 1) for i in b) + f":g={g}"
                    for b, g in zip(blocks, weights))
    return blocks, framings, text


def _surgery(rng: random.Random) -> list[Item]:
    from tracekit import linkdiag

    links = []  # (tag, source argv, input text, linking matrix)
    for k, crossings in enumerate(SURGERY_SIZES):
        strands, gens = SURGERY_PATTERNS[k % len(SURGERY_PATTERNS)]
        word = pure_word(rng, gens, crossings)
        d = linkdiag.from_braid(word, strands, f"pure{k:02d}")
        tag = f"s{strands}g{''.join(map(str, gens))}n{crossings}"
        links.append((tag, ["{input}"], linkdiag.dumps(d) + "\n",
                      _component_linking(word, strands, gens)))
    for name in SURGERY_CATALOG:
        entry, _, param = name.partition(":")
        d = linkdiag.catalog(entry, param or None)
        # the catalog's linking numbers come from the library itself
        links.append((name, ["--catalog", name], None, linkdiag.linking_matrix(d)))

    items = []
    for tag, source, text, lk in links:
        n = len(lk)
        for cmd in SURGERY_COMMANDS:
            if cmd == "partition":
                blocks, framings, spec = _partition(rng, lk)
                extra = [f"--partition={spec}"]
                expect = {"lk": lk, "framings": framings, "blocks": blocks}
            else:
                framings = ([0] * n if cmd == "check-sphere"
                            else [rng.randint(-4, 4) for _ in range(n)])
                extra = []
                expect = {"lk": lk, "framings": framings}
            argv = (["trace" if cmd == "partition" else cmd] + source
                    + [f"--framings={','.join(map(str, framings))}"] + extra)
            items.append(Item(f"{cmd}/{tag}", argv, text, expect))
    return items


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    write_rational_pool()
