"""Every report computes each of its stages once, star graphs cost linear
work and do the work of identical arms once, the genus sums and z0, m0
sweep the degrees instead of calling deg per n, and `pg` and `bci` expand
the Hilbert series once, counting p_g by lattice points and by Pinkham's
sum in closed form, with no degree sweep.

Calls are counted by wrapping a function wherever a `brieskorn.*` module
binds it, so a call is seen whichever import path it takes.  Apéry builds
are counted through the function behind the cached `_apery` property.
"""

import json
import sys
from collections import Counter

import pytest

from brieskorn import (BciModel, HilbertSeries, InternalInvariantError,
                       ResolutionGraph, SeifertInvariant, bci_data, bci_graph,
                       fundamental_cycle, mz_criterion_weighted, pinkham_pg,
                       z0_m0)
from brieskorn import cycles, graph
from brieskorn.cli import main
from brieskorn.numerics import NumericalSemigroup

COUNTED = (("cycles", "fundamental_cycle"), ("graph", "canonical_cycle"),
           ("bci", "hilbert_series"))


def _counting(counts, name, target):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return target(*args, **kwargs)
    return wrapper


def _count_calls(monkeypatch, counted):
    counts = Counter()
    owners = [mod for name, mod in list(sys.modules.items())
              if name == "brieskorn" or name.startswith("brieskorn.")]
    for module, name in counted:
        target = getattr(sys.modules["brieskorn." + module], name)
        wrapper = _counting(counts, name, target)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is target:
                    monkeypatch.setattr(owner, attr, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    counts = _count_calls(monkeypatch, COUNTED)
    apery = NumericalSemigroup.__dict__["_apery"]
    monkeypatch.setattr(apery, "func", _counting(counts, "apery", apery.func))
    return counts


def run(capsys, *argv):
    assert main(list(argv)) == 0
    capsys.readouterr()


def test_bci_report_computes_each_stage_once(calls, capsys):
    run(capsys, "bci", "6", "10", "14", "15")
    assert calls == {"fundamental_cycle": 1, "canonical_cycle": 1,
                     "hilbert_series": 1, "apery": 1}


def test_pg_builds_the_series_once(calls, capsys):
    run(capsys, "pg", "6", "10", "14", "15")
    assert calls["hilbert_series"] == 1


def test_cycles_solves_the_canonical_cycle_once(calls, capsys):
    run(capsys, "cycles", "6", "10", "14", "15")
    assert calls["canonical_cycle"] == 1
    assert calls["fundamental_cycle"] == 1


def test_batch_builds_each_stage_once_per_tuple(calls, capsys, tmp_path):
    batch = tmp_path / "tuples.txt"
    batch.write_text("2 3 3 4\n6 10 45\n")
    run(capsys, "bci", "--batch", str(batch))
    assert calls == {"fundamental_cycle": 2, "canonical_cycle": 2,
                     "hilbert_series": 2, "apery": 2}


@pytest.fixture
def linear_algebra(monkeypatch):
    return _count_calls(monkeypatch, (("graph", "negative_definite"),
                                      ("graph", "_solve_on_graph")))


def test_bci_report_solves_once_per_cycle(linear_algebra, capsys):
    run(capsys, "bci", "6", "10", "14", "15")
    assert linear_algebra["negative_definite"] == 0
    # Z_K, and one solve for the whole family of M's coordinate
    assert 1 <= linear_algebra["_solve_on_graph"] <= 2


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
    # ell = 47,027 puts Pinkham's cutoff near 47,000; pgmax reads one
    # degree stream and calls deg only for the cutoff guard, and pg counts
    # lattice points without Pinkham's sum
    counts = _count_calls(monkeypatch, (("pdmodel", "pinkham_pg"),))
    monkeypatch.setattr(SeifertInvariant, "deg",
                        _counting(counts, "deg", SeifertInvariant.deg))
    assert main([sub, "31", "37", "41"]) == 0
    assert capsys.readouterr().out.split()[0] == "6894"
    if sub == "pg":
        assert counts["pinkham_pg"] == 0
        assert counts["deg"] <= 4
    else:
        assert 1 <= counts["deg"] <= 4


def test_bci_finds_z0_and_m0_on_degree_streams(monkeypatch, capsys):
    # z0 = m0 = 1147 here: one lazy degree sweep finds z0 for both
    # fundamental_cycle and z0_m0, and m0 is read off the checked series
    # with its h0 range checks on one more sweep
    counts = Counter()
    monkeypatch.setattr(SeifertInvariant, "deg",
                        _counting(counts, "deg", SeifertInvariant.deg))
    assert main(["bci", "31", "37", "41"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["z0"] == report["m0"] == 1147
    assert counts["deg"] <= 4


@pytest.mark.parametrize("check", [z0_m0, mz_criterion_weighted])
def test_tampered_coefficient_below_m0_raises(check):
    model = BciModel(bci_data((31, 37, 41)))
    model.checked_coefficients[500] = -1
    with pytest.raises(InternalInvariantError,
                       match=r"^h0\(D_500\) = -1 outside the admissible range"):
        check(model)


def _distinct_chains(g):
    return {tuple(g.selfint[v] for v in arm) for arm in g.arms()}


def test_minimal_cycles_recurse_once_per_distinct_chain(monkeypatch, capsys):
    calls = Counter()
    recurse = cycles.minimal_arm_cycle

    def counted(chain, m0):
        calls[tuple(chain), m0] += 1
        return recurse(chain, m0)

    monkeypatch.setattr(cycles, "minimal_arm_cycle", counted)
    g = bci_graph(bci_data((6, 10, 14, 15)))
    z0 = g._seifert.z0()
    assert main(["cycles", "6", "10", "14", "15", "--order", "16"]) == 0
    capsys.readouterr()
    # L_1..L_16, and Z = L_z0 once more
    assert {n for _, n in calls} == set(range(1, 17))
    assert len({chain for chain, _ in calls}) == len(_distinct_chains(g)) < len(g.arms())
    assert all(k == (2 if n == z0 else 1) for (_, n), k in calls.items())


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
    genus = _count_calls(monkeypatch, GENUS_ROUTES)
    assert main(["pg", "31", "37", "41"]) == 0
    assert capsys.readouterr().out == "6894\n"
    assert len(expansions) == 1
    assert genus == {"lattice_pg": 1, "pinkham_pg_closed": 1}


def test_library_pinkham_sum_expands_the_series_once(expansions):
    # the first h0 read expands through Pinkham's cutoff
    assert pinkham_pg(BciModel(bci_data((31, 37, 41)))) == 6894
    assert len(expansions) == 1


def test_bci_expands_the_series_once(expansions, capsys):
    # the checked expansion also serves h0 up to m0 = 1147; the report's
    # 64 coefficients are one more expansion of order 64
    run(capsys, "bci", "31", "37", "41")
    assert len([n for n in expansions if n > 128]) == 1
    assert len(expansions) == 2


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
    assert len(expansions) == 1
    if len(exponents) == 6:
        assert pg == pinkham_pg(BciModel(bci_data(exponents)))
