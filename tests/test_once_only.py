"""Every report computes each of its stages once, star graphs cost linear
work and do the work of identical arms once (down to one `hj_expand` per arm
type), lay out each run of equal arms at once and list no arm's vertices
until `arms()` is read, `bci`, `graph` and `cycles` make no walk of a
star, and a dual cycle makes none even of a star read back from JSON, `pg`,
`pgmax` and `series` list no arm of the Seifert invariant, nor do `bci`
and `graph`, which write the arms' text from the runs, `bci` builds no
Apéry array of the weights <e>, only that of <ghat>,
and make no solve, since Z and M are
minimal cycles and Z_K is read off the Seifert invariant, a cycle report
pairs each cycle once, from its tuple of coefficients rather than item by
item, and `bci` reads its squares off cycle reports, the genus sums sweep
the degrees instead of calling deg per n, `pgmax` reads one period of them
with no model call per degree, and none on a rational central curve, where
it prints the checked p_g, `bci` reads z0 and m0 off the weights with no h0
read, `bci` and `series` expand the Hilbert series once, through the
printed head, from its binomial terms, and print the numerator from those
terms, with no dense numerator list or polynomial, `series --order` makes
a running sum only for the factors that its sparse part and the strided
one leave (none for `series 4 17 26 27 --order 23868`), and `pg` builds
and expands none: it counts p_g by
lattice points and by Pinkham's sum in closed form, with no degree sweep,
and the count makes one floor_sum per degree of its free basis.
`table all` builds the (2,3,3,4) study once, and `series`, `cycles` and
`table` hand their bulky values to json.dumps pre-written: each vertex map
and long int list arrives as its JSON text, never as a plain dict or list.

Calls are counted by wrapping a function wherever a `brieskorn.*` module
binds it, so a call is seen whichever import path it takes.  Apéry builds
are counted by generator tuple through the function behind the cached
`_apery` property, which refuses to build one of more than 10^5 entries.
"""

import json
import sys
import tracemalloc
from collections import Counter
from math import lcm, prod

import pytest

from brieskorn import (BciModel, HilbertSeries, HyperellipticMaxModel,
                       InputError, IntPolynomial, InternalInvariantError,
                       OverrideModel, QCycle, ResolutionGraph, SeifertInvariant,
                       WeightSemigroup, bci_data, bci_graph, canonical_cycle,
                       coordinate_cycle, dual_cycle, fundamental_cycle,
                       hilbert_series, mz_criterion_weighted, pinkham_pg,
                       pinkham_pg_closed, series_prefix, z0_m0)
from brieskorn import cycles, graph, pdmodel
from brieskorn.cli import main
from brieskorn.numerics import NumericalSemigroup

COUNTED = (("cycles", "fundamental_cycle"), ("graph", "canonical_cycle"),
           ("bci", "hilbert_series"))


def _counting(counts, name, target):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return target(*args, **kwargs)
    return wrapper


def _patch(monkeypatch, module, name, make_wrapper):
    """Bind make_wrapper(f) wherever a `brieskorn.*` module binds the
    function f = brieskorn.<module>.<name>."""
    target = getattr(sys.modules["brieskorn." + module], name)
    wrapper = make_wrapper(target)
    for owner in [mod for key, mod in list(sys.modules.items())
                  if key == "brieskorn" or key.startswith("brieskorn.")]:
        for attr, value in list(vars(owner).items()):
            if value is target:
                monkeypatch.setattr(owner, attr, wrapper)


def _count_calls(monkeypatch, counted):
    counts = Counter()
    for module, name in counted:
        _patch(monkeypatch, module, name,
               lambda target, name=name: _counting(counts, name, target))
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count_calls(monkeypatch, COUNTED)


@pytest.fixture
def apery_builds(monkeypatch):
    """The Apery arrays built, counted by generator tuple; one of more than
    10^5 entries fails the test before it is allocated."""
    builds = Counter()
    apery = NumericalSemigroup.__dict__["_apery"]
    build = apery.func

    def counting(semigroup):
        builds[semigroup.generators] += 1
        assert semigroup.generators[0] <= 10 ** 5, (
            "Apery array of %d entries" % semigroup.generators[0])
        return build(semigroup)

    monkeypatch.setattr(apery, "func", counting)
    return builds


def run(capsys, *argv):
    assert main(list(argv)) == 0
    capsys.readouterr()


def test_bci_report_computes_each_stage_once(calls, apery_builds, capsys):
    run(capsys, "bci", "6", "10", "14", "15")
    assert calls == {"fundamental_cycle": 1, "canonical_cycle": 1,
                     "hilbert_series": 1}
    # the weights are decided on <ghat_i> = <4, 6, 10, 30>, through its
    # reduction by the gcd 2; none on the Apery array of <e>
    assert apery_builds == {(2, 3, 5, 15): 1}
    assert tuple(sorted(bci_data((6, 10, 14, 15)).e)) not in apery_builds


def test_pg_builds_the_series_once(calls, capsys):
    # at most once: both genus routes count from the exponents, so the
    # series is never built
    run(capsys, "pg", "6", "10", "14", "15")
    assert calls["hilbert_series"] == 0


def test_cycles_solves_the_canonical_cycle_once(calls, capsys):
    run(capsys, "cycles", "6", "10", "14", "15")
    assert calls["canonical_cycle"] == 1
    assert calls["fundamental_cycle"] == 1


def test_batch_builds_each_stage_once_per_tuple(calls, apery_builds, capsys,
                                                tmp_path):
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 3 4\n6 10 45\n")
    run(capsys, "bci", "--batch", str(batch))
    assert calls == {"fundamental_cycle": 2, "canonical_cycle": 2,
                     "hilbert_series": 2}
    # <ghat_i> is <3, 2, 2, 3> and <5, 3, 2>; <e> is <6, 4, 4, 3> and <15, 9, 2>
    assert apery_builds == {(2, 3): 1, (2, 3, 5): 1}
    for exponents in ((2, 3, 3, 4), (6, 10, 45)):
        assert tuple(sorted(bci_data(exponents).e)) not in apery_builds


def test_mz_criterion_builds_no_apery_array_of_the_weights(apery_builds):
    # e_m = 121,330,189 entries in the Apery array of <e>; the weights are
    # decided on <ghat_i> = <1, 1, 1, 1, 1>, whose array has one
    data = bci_data((101, 103, 107, 109, 113))
    tracemalloc.start()
    try:
        model = BciModel(data)
        mz = mz_criterion_weighted(model)
        generators = model.weights.minimal_generators()
        model.weights.contains((data.m - 2) * data.ell - sum(data.e))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # alpha = ell = a_i e_i is a weight, and every e_i < 2 e_m is minimal
    assert (mz.verdict, mz.h0_alpha_nonzero) == (True, True)
    assert generators == sorted(data.e)
    assert apery_builds == {(1,): 1}
    assert peak < 2 ** 20


@pytest.fixture
def linear_algebra(monkeypatch):
    return _count_calls(monkeypatch, (("graph", "negative_definite"),
                                      ("graph", "_walk_from_root")))


def _assert_no_solve(linear_algebra, monkeypatch, capsys, sub):
    # Z = L_z0 and M = L_{e_m} come from the arm recursion, Z_K is read off
    # the Seifert invariant, and star_graph lays the star out with no walk
    dual = _count_calls(monkeypatch, (("graph", "dual_cycle"),))
    run(capsys, sub, "6", "10", "14", "15")
    assert linear_algebra["negative_definite"] == 0
    assert linear_algebra["_walk_from_root"] == 0
    assert dual["dual_cycle"] == 0


def test_bci_report_makes_no_solve(linear_algebra, monkeypatch, capsys):
    _assert_no_solve(linear_algebra, monkeypatch, capsys, "bci")


def test_cycles_report_makes_no_solve(linear_algebra, monkeypatch, capsys):
    _assert_no_solve(linear_algebra, monkeypatch, capsys, "cycles")


def test_graph_report_makes_no_solve(linear_algebra, monkeypatch, capsys):
    _assert_no_solve(linear_algebra, monkeypatch, capsys, "graph")


def test_canonical_cycle_of_a_tree_without_a_center_is_refused(linear_algebra):
    # the E8 tree is refused with no center given; centred at its trivalent
    # vertex 4 it is a star, walked once by the constructor, and Z_K = 0 on
    # a rational double point is read off its invariant with no further walk
    vertices = [(-2, 0)] * 8
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]
    with pytest.raises(InputError, match="^graph has no central vertex$"):
        ResolutionGraph(vertices, edges)
    star = ResolutionGraph(vertices, edges, central=4)
    assert canonical_cycle(star) == QCycle.zero(8)
    assert linear_algebra == {"_walk_from_root": 1}


def test_coordinate_cycles_make_no_solve(linear_algebra):
    data = bci_data((6, 10, 14, 15))
    g = bci_graph(data)
    for i in range(data.m):
        coordinate_cycle(data, g, i)
    assert linear_algebra == {}


def test_star_reports_read_no_walk(monkeypatch, capsys):
    # 27,000 arms: star_graph lays the star out from its Seifert invariant,
    # and no report walks it
    counts = _count_calls(monkeypatch, (("graph", "_walk_from_root"),))
    for sub in ("graph", "cycles", "bci"):
        run(capsys, sub, "30", "30", "30", "30", "31")
    assert counts == {}
    # the public constructor walks a star once, 27,000 arms again, to read
    # its invariant; a dual cycle reads the invariant and walks nothing
    read = ResolutionGraph.from_json(bci_graph(bci_data((30, 30, 30, 30, 31))).to_json())
    assert read.num_vertices == 27001 and counts == {"_walk_from_root": 1}
    star = bci_graph(bci_data((6, 10, 14, 15)))
    dual_cycle(star, 0)
    dual_cycle(star, 1)
    dual_cycle(read, 27000)
    assert counts == {"_walk_from_root": 1}


def test_star_reports_list_no_arm_vertices(monkeypatch, capsys):
    # 27,000 arms in one run: star_graph lays them out run by run, and no
    # report reads arms(), so no graph builds a vertex tuple per arm
    built, reads = [], Counter()

    def recording(star_graph):
        def wrapper(seifert):
            built.append(star_graph(seifert))
            return built[-1]
        return wrapper

    _patch(monkeypatch, "graph", "star_graph", recording)
    monkeypatch.setattr(ResolutionGraph, "arms",
                        _counting(reads, "arms", ResolutionGraph.arms))
    for sub in ("graph", "cycles", "bci"):
        run(capsys, sub, "30", "30", "30", "30", "31")
    assert reads == {} and len(built) == 3
    for g in built:
        assert g._seifert.arm_runs == (((31, 1), 27000),)
        assert "_arms" not in vars(g)
    # the arms are listed on the first read
    assert len(built[0].arms()) == 27000 and "_arms" in vars(built[0])


def _record_bci_data(monkeypatch):
    """The list that each BrieskornData made from now on is appended to."""
    made = []

    def recording(bci_data):
        def wrapper(exponents):
            made.append(bci_data(exponents))
            return made[-1]
        return wrapper

    _patch(monkeypatch, "bci", "bci_data", recording)
    return made


@pytest.mark.parametrize("exponents", [("200", "200", "200", "201"),
                                       ("30", "30", "30", "30", "31")])
@pytest.mark.parametrize("sub", ["pg", "pgmax", "series"])
def test_genus_and_series_reports_list_no_arm_of_the_invariant(
        monkeypatch, capsys, sub, exponents):
    # 40,000 and 27,000 arms, each tuple's in one run: bci_seifert hands in
    # the runs, and these reports print nothing per arm
    made = _record_bci_data(monkeypatch)
    run(capsys, sub, *exponents)
    (data,) = made
    assert "arms" not in vars(data.seifert)
    assert len(data.seifert.arm_runs) == 1


@pytest.mark.parametrize("sub", ["bci", "graph"])
def test_bci_and_graph_write_the_arms_from_the_runs(monkeypatch, capsys, sub):
    # 40,000 arms in one run: the report repeats the run's pair text and
    # lists no arm, in json and in text, and the text is the listed arms'
    made = _record_bci_data(monkeypatch)
    outs = []
    for fmt in ("json", "text"):
        assert main([sub, "200", "200", "200", "201", "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    assert len(made) == 2
    assert not any("arms" in vars(data.seifert) for data in made)
    seifert = made[0].seifert
    plain = json.dumps({"g": seifert.g, "c0": seifert.c0,
                        "arms": [list(arm) for arm in seifert.arms]},
                       sort_keys=True, separators=(",", ":"))
    assert len(seifert.arms) == 40000
    assert '"seifert":%s' % plain in outs[0]
    assert "\nseifert: %s\n" % plain in outs[1]


def _plain_bulk(value):
    """The int lists longer than 64 and the all-int vertex-keyed dicts
    anywhere in value."""
    if isinstance(value, dict):
        if value and all(k.isdigit() and type(v) is int for k, v in value.items()):
            yield value
        for v in value.values():
            yield from _plain_bulk(v)
    elif isinstance(value, list):
        if len(value) > 64 and all(type(v) is int for v in value):
            yield value
        for v in value:
            yield from _plain_bulk(v)


@pytest.mark.parametrize("argv, key, size", [
    # 36,109 coefficients and a numerator of 36,109 entries
    (("series", "36", "51", "59", "--order", "36108"), "coefficients", 36109),
    # 21 maps on 199 vertices: Z, M and their products, Z_K and L_1..L_16
    (("cycles", "9", "10", "18", "27", "--order", "16"), "canonical_cycle", 199),
    # six case-study rows, each with its numerator, and the maximal type's M
    (("table", "all", "--format", "json"), "table2", 6),
])
def test_reports_hand_bulky_values_to_the_encoder_pre_written(
        monkeypatch, capsys, argv, key, size):
    # vertex maps and int lists reach json.dumps as their JSON text, with
    # no plain value for it to encode item by item
    handed = []
    dumps = json.dumps

    def recording(obj, *args, **kwargs):
        handed.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", recording)
    assert main(list(argv)) == 0
    assert len(json.loads(capsys.readouterr().out)[key]) == size
    assert len(handed) == 1 and list(_plain_bulk(handed[0])) == []


@pytest.mark.parametrize("argv, vertices", [
    (("graph", "23", "24", "24", "24"), 12673),
    (("bci", "18", "19", "19", "19"), 6138),
])
def test_large_star_graphs_finish(capsys, argv, vertices):
    assert main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["graph"]["vertices"]) == vertices


@pytest.mark.parametrize("sub", ["pg", "pgmax"])
def test_genus_sums_do_not_call_deg_per_degree(monkeypatch, capsys, sub):
    # ell = 47,027 puts Pinkham's cutoff near 47,000; pgmax sums one period
    # of degrees and calls deg only for the cutoff guard, with no model
    # called per degree, and pg counts lattice points without Pinkham's sum
    counts = _count_calls(monkeypatch, (("pdmodel", "pinkham_pg"),))
    monkeypatch.setattr(SeifertInvariant, "deg",
                        _counting(counts, "deg", SeifertInvariant.deg))
    for model in (BciModel, HyperellipticMaxModel, OverrideModel):
        monkeypatch.setattr(model, "h0_at", _counting(counts, "h0_at", model.h0_at))
    assert main([sub, "31", "37", "41"]) == 0
    assert capsys.readouterr().out.split()[0] == "6894"
    assert counts["pinkham_pg"] == 0
    if sub == "pg":
        assert counts["deg"] <= 4
    else:
        assert 1 <= counts["deg"] <= 4
        assert counts["h0_at"] == 0


def test_pgmax_at_genus_zero_makes_no_period_tally(monkeypatch, capsys):
    # on a rational central curve pgmax prints the checked p_g, with no
    # tally over the period: P = 47,027 here, and 994,010,994 for
    # (997, 998, 999), where the tally would run for minutes
    counts = _count_calls(monkeypatch, (("pdmodel", "_clifford_max_pg"),))
    run(capsys, "pgmax", "31", "37", "41")
    assert counts == {}
    assert main(["pgmax", "997", "998", "999"]) == 0
    assert capsys.readouterr().out == "164922494\n"
    assert counts == {}
    run(capsys, "pgmax", "6", "10", "14", "15")  # central genus 36
    assert counts == {"_clifford_max_pg": 1}


def test_pg_max_reads_one_period_of_degrees(monkeypatch, capsys):
    # the arm alphas of (6, 10, 14, 15) are all 7, so P = 7 against a
    # cutoff of 351: one period of the degree stream answers pgmax
    seifert = bci_data((6, 10, 14, 15)).seifert
    assert lcm(*(a for a, _ in seifert.arm_types)) == 7
    assert seifert.cutoff() == 351
    expected = "%d\n" % pinkham_pg(HyperellipticMaxModel(seifert))
    drawn = Counter()
    degrees = SeifertInvariant.degrees

    def counted(self, stop):
        for deg in degrees(self, stop):
            drawn["degrees"] += 1
            yield deg

    monkeypatch.setattr(SeifertInvariant, "degrees", counted)
    assert main(["pgmax", "6", "10", "14", "15"]) == 0
    assert capsys.readouterr().out == expected
    assert 0 < drawn["degrees"] <= 7


def test_bci_finds_z0_and_m0_on_degree_streams(monkeypatch, capsys):
    # z0 = m0 = 1147 here: bci_seifert hands z0 = min(e_m, alpha) to
    # fundamental_cycle and mz_criterion_weighted, and m0 = e_m is the least
    # weight, so no degree is walked to find either
    counts = Counter()
    monkeypatch.setattr(SeifertInvariant, "deg",
                        _counting(counts, "deg", SeifertInvariant.deg))
    monkeypatch.setattr(WeightSemigroup, "contains",
                        _counting(counts, "contains", WeightSemigroup.contains))
    assert main(["bci", "31", "37", "41"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z0"] == report["m0"] == 1147
    # each membership test of the weights reads one deg: alpha, a, and the
    # three differences of generators that minimal_generators tests
    assert counts["contains"] == 5
    assert counts["deg"] - counts["contains"] <= 4


def test_tampered_coefficient_below_m0_raises():
    # the walk checks each h0 it reads, here past the printed head
    model = BciModel(bci_data((31, 37, 41)))
    model.series = model.series.plus_polynomial(IntPolynomial([0] * 500 + [1]))
    with pytest.raises(InternalInvariantError,
                       match=r"^h0\(D_500\) = 1 outside the admissible range"):
        z0_m0(model)


def test_bci_walks_no_degrees_for_m0(monkeypatch, capsys):
    # m0 = e_m and z0 = min(e_m, alpha) are read off the weights: neither
    # the report nor the criterion on a BciModel reads an h0
    counts = _count_calls(monkeypatch, (("pdmodel", "z0_m0"),))
    monkeypatch.setattr(BciModel, "h0_at", _counting(counts, "h0_at", BciModel.h0_at))
    run(capsys, "bci", "31", "37", "41")
    mz = mz_criterion_weighted(BciModel(bci_data((31, 37, 41))))
    assert (mz.z0, mz.m0) == (1147, 1147)
    assert counts == {}


def _distinct_chains(g):
    return {tuple(g.selfint[v] for v in arm) for arm in g.arms()}


def test_minimal_cycles_recurse_once_per_distinct_chain(monkeypatch, capsys):
    calls = Counter()
    recurse = cycles.minimal_arm_cycle

    def counted(chain, m0):
        calls[tuple(chain), m0] += 1
        return recurse(chain, m0)

    monkeypatch.setattr(cycles, "minimal_arm_cycle", counted)
    data = bci_data((6, 10, 14, 15))
    g = bci_graph(data)
    z0, e_m = g._seifert.z0(), data.e[-1]
    assert main(["cycles", "6", "10", "14", "15", "--order", "16"]) == 0
    capsys.readouterr()
    # L_1..L_16, and Z = L_z0 and M = L_{e_m} once more each
    assert {n for _, n in calls} == set(range(1, 17))
    assert len({chain for chain, _ in calls}) == len(_distinct_chains(g)) < len(g.arms())
    assert all(k == 1 + (n == z0) + (n == e_m) for (_, n), k in calls.items())


def test_fundamental_cycle_evaluates_each_chain_once(monkeypatch, capsys):
    counts = Counter()
    monkeypatch.setattr(graph, "hj_evaluate",
                        _counting(counts, "hj_evaluate", graph.hj_evaluate))
    # star_graph hands its Seifert invariant to the graph
    assert main(["cycles", "6", "10", "14", "15", "--order", "16"]) == 0
    capsys.readouterr()
    assert counts["hj_evaluate"] == 0
    # a graph read back from JSON has to find it, once per distinct chain
    g = ResolutionGraph.from_json(bci_graph(bci_data((6, 10, 14, 15))).to_json())
    fundamental_cycle(g)
    assert counts["hj_evaluate"] == len(_distinct_chains(g))


@pytest.fixture
def expansions(monkeypatch):
    """The order of every HilbertSeries.expand call."""
    orders = []
    expand = HilbertSeries.expand

    def wrapper(self, order):
        orders.append(order)
        return expand(self, order)

    monkeypatch.setattr(HilbertSeries, "expand", wrapper)
    return orders


GENUS_ROUTES = (("pdmodel", "pinkham_pg"), ("pdmodel", "pinkham_pg_closed"),
                ("bci", "lattice_pg"))


def test_pg_expands_the_series_once(expansions, monkeypatch, capsys):
    # at most once: Pinkham's sum reads a prefix count of the series
    genus = _count_calls(monkeypatch, GENUS_ROUTES + (("bci", "hilbert_series"),))
    assert main(["pg", "31", "37", "41"]) == 0
    assert capsys.readouterr().out == "6894\n"
    assert len(expansions) == 0
    assert genus == {"lattice_pg": 1, "pinkham_pg_closed": 1}


def test_closed_pinkham_sum_reads_neither_the_count_nor_the_a_invariant(
        expansions, monkeypatch):
    # the two runtime routes share the free-basis count series_prefix, read
    # at the a-invariant by lattice_pg and below the cutoff by this sum
    counts = _count_calls(monkeypatch, (("bci", "lattice_pg"), ("bci", "a_invariant"),
                                        ("bci", "hilbert_series")))
    assert pinkham_pg_closed(BciModel(bci_data((31, 37, 41)))) == 6894
    assert counts == {} and expansions == []


@pytest.mark.parametrize("exponents", [(31, 37, 41), (60, 70, 84, 105)])
def test_series_prefix_counts_each_basis_degree_once(monkeypatch, exponents):
    # one floor_sum per degree of the k_i < a_i monomials in the first m - 2
    # coordinates: no more than min(top + 1, prod a_i) of them
    data = bci_data(exponents)
    top = data.seifert.cutoff() - 1
    counts = _count_calls(monkeypatch, (("numerics", "floor_sum"),))
    series_prefix(data, top)
    assert 0 < counts["floor_sum"] <= min(top + 1, prod(data.exponents[:-2]))


def test_library_pinkham_sum_expands_the_series_once(expansions):
    # twice, and never per degree: the checked head through
    # min(2 * ell, 64) = 64, then one extension through Pinkham's cutoff
    data = bci_data((31, 37, 41))
    assert pinkham_pg(BciModel(data)) == 6894
    assert len(expansions) == 2
    assert expansions[0] == min(2 * data.ell, 64) == 64
    assert expansions[1] >= data.seifert.cutoff() - 1


def test_pg_of_a_large_tuple_runs_in_little_memory(capsys):
    # ell = 994,010,994: a series expansion would hold about 10^9 ints
    tracemalloc.start()
    try:
        assert main(["pg", "997", "998", "999"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "164922494\n"
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("argv", [("bci", "23", "41", "43"),
                                  ("series", "23", "41", "43", "--order", "64"),
                                  ("series", "36", "51", "59", "--order", "36108"),
                                  ("bci", "12", "14", "17", "27")])
def test_long_series_reports_build_no_dense_polynomial(monkeypatch, capsys, argv):
    # ell = 40,549, 36,108 and 12,852: the numerator (1 - t^ell)^(m - 2) is
    # kept as its m - 1 terms and printed run by run from them, with no
    # IntPolynomial and no list of its (m - 2) * ell + 1 coefficients
    counts = Counter()
    monkeypatch.setattr(IntPolynomial, "__init__",
                        _counting(counts, "IntPolynomial", IntPolynomial.__init__))
    monkeypatch.setattr(HilbertSeries, "_dense_numerator", _counting(
        counts, "_dense_numerator", HilbertSeries._dense_numerator))
    run(capsys, *argv)
    assert counts == {}


def test_bci_series_holds_its_binomial_terms_alone():
    # m - 1 = 2 nonzero terms, against (m - 2) * ell + 1 = 40,550 dense ones
    data = bci_data((23, 41, 43))
    assert hilbert_series(data).terms == ((0, 1), (data.ell, -1))


def test_bci_expands_the_series_once(expansions, capsys):
    # the checked head through min(2 * ell, 64) = 64 is the one expansion,
    # printed whole by bci and by series without --order; m0 = 1147 is read
    # off the weights
    for sub in ("bci", "series"):
        run(capsys, sub, "31", "37", "41")
        assert expansions == [64], sub
        expansions.clear()


@pytest.mark.parametrize("argv, running_sums", [
    # m = 4: 2 * 5 * 18 = 180, then 5 * 18 * 27 = 2,430 and 44 * 27 * 28 =
    # 33,264 <= 47,738: three factors join the sparse part, the fourth is
    # laid down by strides, and no running sum is left
    (("series", "4", "17", "26", "27", "--order", "23868"), 0),
    # m = 5: four factors join the sparse part, the fifth is laid down
    (("series", "3", "4", "5", "7", "11", "--order", "4620"), 0),
    # m = 3: 2 * 37 * 52 = 3,848, then 36 terms: 36 * 52 * 60 > 72,218
    (("series", "36", "51", "59", "--order", "36108"), 1),
    # m = 4: 2 * 13 * 15 = 390 and 13 * 15 * 18 = 3,510, then 70 terms:
    # 70 * 18 * 28 > 25,706
    (("series", "12", "14", "17", "27", "--order", "12852"), 1),
    # 2 * 201 * 301 > 6,002: every factor summed
    (("series", "2", "3", "5", "--order", "3000"), 3),
    # factors 1, 1, 1: 2 * 5001 * 5001 > 10,002, every factor summed
    (("series", "6", "6", "6", "--order", "5000"), 3),
])
def test_series_expands_its_largest_factors_sparsely(
        expansions, monkeypatch, capsys, argv, running_sums):
    # one expansion through --order, which runs a running sum only for the
    # factors that the sparse part and the strided one leave
    counts = _count_calls(monkeypatch, (("numerics", "_running_sums"),))
    run(capsys, *argv)
    assert expansions == [int(argv[-1])]
    assert counts["_running_sums"] == running_sums


@pytest.mark.parametrize("exponents", [
    (3, 3, 3, 3, 3, 3), (2, 2, 4, 4, 4, 4), (2,) * 30])
def test_pg_counts_many_coordinates_without_enumerating(
        expansions, monkeypatch, capsys, exponents):
    # 81, 64 and 2^28 basis monomials against 36, 42 and 104 series
    # coefficients: the count tallies them by degree instead
    genus = _count_calls(monkeypatch, GENUS_ROUTES)
    assert main(["pg", *map(str, exponents)]) == 0
    pg = int(capsys.readouterr().out)
    assert genus == {"lattice_pg": 1, "pinkham_pg_closed": 1}
    assert len(expansions) == 0
    if len(exponents) == 6:
        assert pg == pinkham_pg(BciModel(bci_data(exponents)))


def test_star_graph_expands_each_arm_type_once(monkeypatch):
    expanded = Counter()
    expand = graph.hj_expand

    def counted(alpha, beta):
        expanded[alpha, beta] += 1
        return expand(alpha, beta)

    monkeypatch.setattr(graph, "hj_expand", counted)
    seifert = bci_data((6, 10, 14, 15)).seifert
    assert len(graph.star_graph(seifert).arms()) > len(seifert.arm_types)
    assert expanded == dict.fromkeys(seifert.arm_types, 1)


def test_bci_solves_an_alpha_one_family_without_dual_cycle(monkeypatch, capsys):
    # M is the coordinate cycle of a = 15, whose family has alpha = 1
    assert bci_data((6, 10, 14, 15)).alphas[-1] == 1
    counts = _count_calls(monkeypatch, (("graph", "dual_cycle"),))
    run(capsys, "bci", "6", "10", "14", "15")
    assert counts["dual_cycle"] == 0


@pytest.fixture
def products_and_pairings(monkeypatch):
    counts = Counter()
    for name in ("pairing", "products"):
        method = getattr(ResolutionGraph, name)
        monkeypatch.setattr(ResolutionGraph, name, _counting(counts, name, method))
    return counts


def test_cycle_reports_take_each_square_from_the_products(products_and_pairings,
                                                          capsys):
    # two cycle reports (Z and M): one products pass each, and the
    # self-intersection and p_a read off it with no second pairing
    run(capsys, "cycles", "6", "10", "14", "15")
    assert products_and_pairings == {"products": 2}


def test_bci_takes_each_square_from_a_cycle_report(products_and_pairings, capsys):
    # -Z^2, p_a(Z) and the lower bound 1 - Z^2 from one products pass over
    # Z, and -M^2 from one over M, with no pairing call
    run(capsys, "bci", "6", "10", "14", "15")
    assert products_and_pairings == {"products": 2}


def test_cycle_reports_read_the_coefficient_tuple(monkeypatch, capsys):
    # products, squares and deg on the center read each cycle's tuple of
    # coefficients, not the cycle item by item
    counts = Counter()
    monkeypatch.setattr(QCycle, "__getitem__",
                        _counting(counts, "getitem", QCycle.__getitem__))
    run(capsys, "cycles", "9", "10", "18", "27", "--order", "16")
    run(capsys, "bci", "9", "10", "18", "27")
    assert counts == {}


def test_table2_builds_the_2334_study_once(monkeypatch, capsys):
    # the data, the Clifford-maximal model and its series are built once for
    # the maximal type and the six rows; z0_m0 runs once for the maximal
    # type and once per row
    pdmodel._maximal_2334.cache_clear()
    pdmodel.max_type_2334.cache_clear()
    counts = _count_calls(monkeypatch, (("bci", "bci_data"), ("bci", "hilbert_series"),
                                        ("pdmodel", "z0_m0")))
    run(capsys, "table", "2")
    assert counts == {"bci_data": 1, "hilbert_series": 1, "z0_m0": 7}


def test_table_all_builds_the_2334_study_once(monkeypatch, capsys):
    # table 1 reads the graph, Z and the Brieskorn series of the maximal type
    pdmodel._maximal_2334.cache_clear()
    pdmodel.max_type_2334.cache_clear()
    counts = _count_calls(monkeypatch, (("bci", "bci_graph"), ("cycles", "fundamental_cycle"),
                                        ("bci", "hilbert_series")))
    run(capsys, "table", "all")
    assert counts == {"bci_graph": 1, "fundamental_cycle": 1, "hilbert_series": 1}
