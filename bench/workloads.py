"""Seeded workloads for the CLI benchmark.

Every workload is a list of `brieskorn.cli.main` argument vectors built from
exponent tuples.  The tuples are drawn from the seed and filtered by vertex
count and ell, computed through the public library (`bci_data`,
`bci_seifert`, `hj_expand`, `PDDegreeModel`); the program itself sees only
argv and batch files.

Each workload draws one tuple per stratum of the quantity its cost grows
with, so that two seeds give passes of about the same cost and the
seed-to-seed spread of a run stays small.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass

from brieskorn import PDDegreeModel, bci_data, bci_seifert, hj_expand

GOLDEN_TUPLES = ((2, 3, 3, 4), (6, 10, 45))


@dataclass(frozen=True)
class Shape:
    """What the filters look at."""

    ell: int
    vertices: int


def shape(exponents):
    data = bci_data(exponents)
    arms = bci_seifert(data).arms
    return Shape(ell=data.ell,
                 vertices=1 + sum(len(hj_expand(a, b)) for a, b in arms))


# Weight of one entry update on long integers, per squared 30-bit digit,
# against one update on short ones; fitted to timings of negative_definite
# on 70 graphs of 60-200 vertices.
LONG_ENTRY_WEIGHT = 0.16


def elimination_work(exponents):
    """Estimated work of a dense fraction-free elimination of the graph's
    intersection matrix, in the vertex order of star_graph.

    Step k updates (n-k-1)^2 entries.  The entries between the arms still
    open hold integers about as long as the k-th leading principal minor,
    which is near c0 times the alphas of the arms already eliminated times
    the continuant of the current arm's prefix; they are weighted by their
    squared length in digits.
    """
    seifert = bci_seifert(bci_data(exponents))
    chains = [hj_expand(a, b) for a, b in seifert.arms]
    n = 1 + sum(map(len, chains))
    open_arms = len(chains)
    done = 1
    digits = (seifert.c0.bit_length() + 29) // 30
    work = (n - 1) ** 2 + LONG_ENTRY_WEIGHT * open_arms ** 2 * digits ** 2
    k = 1
    for (alpha, _), chain in zip(seifert.arms, chains):
        prev, cur = 0, 1
        for j, c in enumerate(chain):
            prev, cur = cur, c * cur - prev
            if j == len(chain) - 1:
                open_arms -= 1
            digits = ((done * cur * seifert.c0).bit_length() + 29) // 30
            work += (n - k - 1) ** 2 + LONG_ENTRY_WEIGHT * open_arms ** 2 * digits ** 2
            k += 1
        done *= alpha
    return work


@dataclass(frozen=True)
class Call:
    """One `cli.main` call: its argv, subcommand and the tuples it computes
    (one tuple, or every line of a batch file)."""

    argv: tuple
    sub: str
    tuples: tuple


@dataclass
class Workload:
    calls: list
    shapes: dict  # exponent tuple -> Shape


def _log_edges(lo, hi, bins):
    """bins + 1 integer edges spaced evenly in log between lo and hi + 1."""
    return [round(lo * ((hi + 1) / lo) ** (k / bins)) for k in range(bins + 1)]


CANDIDATES_PER_BIN = 4


def _stratified(rng, draw, measure, edges, shapes):
    """One tuple for each bin [edges[k], edges[k+1]) of the measured
    quantity: of the first CANDIDATES_PER_BIN drawn into the bin, the one
    closest to the bin's centre in log scale."""
    bins = [[] for _ in range(len(edges) - 1)]
    measured = {}
    need = len(bins) * CANDIDATES_PER_BIN
    while need:
        t = draw(rng)
        if t not in shapes:
            shapes[t] = shape(t)
        if t not in measured:
            measured[t] = measure(t, shapes[t])
        value = measured[t]
        if value is None or not edges[0] <= value < edges[-1]:
            continue
        k = next(i for i in range(len(bins)) if value < edges[i + 1])
        if len(bins[k]) < CANDIDATES_PER_BIN and t not in bins[k]:
            bins[k].append(t)
            need -= 1
    return [min(b, key=lambda t: (abs(math.log(measured[t] ** 2 / (lo * hi))), t))
            for b, lo, hi in zip(bins, edges, edges[1:])]


def _draw(m, hi):
    return lambda rng: tuple(sorted(rng.randint(2, hi) for _ in range(m)))


MANY_ARMS_WORK = (75_000, 3_800_000)


def many_arms(seed):
    """4-exponent tuples with a_i <= 30, ell <= 2,000 and 60-200 vertices.

    The graph layer's dense definiteness check is the cost here, and at
    equal vertex count it still costs several times more on graphs with many
    arms and large arm alphas.  So the tuples are drawn one per bin of 25
    bins spaced evenly in log of elimination_work over MANY_ARMS_WORK (about
    1-99% of such graphs), which makes passes of different seeds cost about
    the same.  Each tuple runs through bci, graph, cycles --order 16 and
    pgmax: 100 calls a pass.
    """
    rng = random.Random(seed)
    shapes = {}

    def measure(t, s):
        if s.ell > 2000 or not 60 <= s.vertices <= 200:
            return None
        return elimination_work(t)

    tuples = _stratified(rng, _draw(4, 30), measure, _log_edges(*MANY_ARMS_WORK, 25), shapes)
    rng.shuffle(tuples)
    subs = (("bci",), ("graph",), ("cycles", "--order", "16"), ("pgmax",))
    return Workload(_single_calls(tuples, subs), shapes)


def pinkham_work(exponents):
    """cutoff * (arm count + 6): the Pinkham sum visits every degree below
    the cutoff, each at a cost of a few steps plus one per arm; the
    coefficients are fitted to timings of the long-series calls."""
    pd = PDDegreeModel.from_bci(bci_data(exponents))
    return pd.cutoff() * (pd.arm_count() + 6)


LONG_SERIES_ELL = (8000, 40000)
LONG_SERIES_VERTICES = 60
# about 5-95% of pinkham_work over the tuples of each m that pass the filter
LONG_SERIES_WORK = {3: (90_000, 430_000), 4: (210_000, 1_250_000)}


def long_series(seed):
    """Tuples with at most LONG_SERIES_VERTICES vertices and ell in
    LONG_SERIES_ELL.

    The band stops at 40,000 rather than 250,000 so that a pass of 100 calls
    fits the run time, and the vertex cap is 60 rather than 100 so that the
    graph layer (about 50 ms a call on a 100-vertex graph) stays nearly
    idle.  The Pinkham sum is the largest cost, and it grows
    with the cutoff (about ell for m = 3, 2 ell for m = 4) times the arm
    count, so ten m = 3 and ten m = 4 tuples are drawn one per bin spaced
    evenly in log of pinkham_work over LONG_SERIES_WORK[m].  Each tuple runs
    through pg, pgmax, series --order <ell> (one full period), bci and
    cycles --order 16; the cycles call is there so that every layer of the
    trace does work on this workload too.
    """
    rng = random.Random(seed)
    shapes = {}
    lo, hi = LONG_SERIES_ELL

    def measure(t, s):
        if not lo <= s.ell <= hi or s.vertices > LONG_SERIES_VERTICES:
            return None
        return pinkham_work(t)

    tuples = []
    for m, top in ((3, 99), (4, 40)):
        edges = _log_edges(*LONG_SERIES_WORK[m], 10)
        tuples.extend(_stratified(rng, _draw(m, top), measure, edges, shapes))
    rng.shuffle(tuples)
    calls = []
    for t in tuples:
        args = tuple(str(a) for a in t)
        for sub, extra in (("pg", ()), ("pgmax", ()),
                           ("series", ("--order", str(shapes[t].ell))),
                           ("bci", ()), ("cycles", ("--order", "16"))):
            calls.append(Call((sub,) + args + extra, sub, (t,)))
    return Workload(calls, shapes)


SMALL_BATCH_CHUNKS = 17
SMALL_BATCH_CHUNK_SIZE = 20
SMALL_BATCH_SUBS = (("pg",), ("pgmax",), ("bci",), ("cycles", "--order", "3"),
                    ("graph",), ("series",))


def small_batch(seed, workdir):
    """Batch files of small tuples: m in {3, 4}, a_i <= 12, at most 40
    vertices and ell <= 1,500, plus the goldens 2 3 3 4 and 6 10 45.

    The pool of all other such tuples (964 of them) is sorted by vertex
    count and ell and cut into equal strata, one tuple drawn from each.  The
    tuples are dealt round-robin into 17 files of 20 lines, so that every
    file holds a cross-section of the pool, and every file goes through each
    batchable subcommand: 102 calls and 340 tuples a pass.
    """
    rng = random.Random(seed)
    shapes = {t: shape(t) for m in (3, 4)
              for t in itertools.combinations_with_replacement(range(2, 13), m)}
    pool = sorted((t for t, s in shapes.items()
                   if s.vertices <= 40 and s.ell <= 1500 and t not in GOLDEN_TUPLES),
                  key=lambda t: (shapes[t].vertices, shapes[t].ell, t))
    for t in GOLDEN_TUPLES:
        shapes.setdefault(t, shape(t))
    picks = SMALL_BATCH_CHUNKS * SMALL_BATCH_CHUNK_SIZE - len(GOLDEN_TUPLES)
    bounds = [len(pool) * k // picks for k in range(picks + 1)]
    tuples = list(GOLDEN_TUPLES) + [pool[rng.randrange(bounds[k], bounds[k + 1])]
                                    for k in range(picks)]
    calls = []
    for c in range(SMALL_BATCH_CHUNKS):
        chunk = tuple(tuples[c::SMALL_BATCH_CHUNKS])
        path = os.path.join(workdir, "chunk%02d.txt" % c)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(map(str, t)) + "\n" for t in chunk))
        for sub in SMALL_BATCH_SUBS:
            calls.append(Call((sub[0], "--batch", path) + sub[1:], sub[0], chunk))
    return Workload(calls, shapes)


def _single_calls(tuples, subs):
    calls = []
    for t in tuples:
        args = tuple(str(a) for a in t)
        for sub in subs:
            calls.append(Call((sub[0],) + args + sub[1:], sub[0], (t,)))
    return calls


def build(name, seed, workdir):
    """The workload `name` for `seed`; batch files are written to workdir."""
    if name == "many-arms":
        return many_arms(seed)
    if name == "long-series":
        return long_series(seed)
    if name == "small-batch":
        return small_batch(seed, workdir)
    raise ValueError("unknown workload %r" % name)
