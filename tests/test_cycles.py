"""Fundamental and minimal cycles checked against brute-force oracles."""

import json

import pytest

from brieskorn import (
    InputError,
    QCycle,
    ResolutionGraph,
    arithmetic_genus,
    bci_data,
    bci_graph,
    canonical_cycle,
    cycle_report,
    deg_on_central,
    dual_cycle,
    fundamental_cycle,
    minimal_arm_cycle,
    minimal_cycle,
    seifert_of_graph,
    star_graph,
)
from brieskorn.report import _dumps
from oracles import (_min_arm_vector, fraction_pivot_solve, full_box_fundamental,
                     is_antinef, laufer_fundamental, star_fundamental_oracle)
from properties import PROPERTY, given, relabelled_stars, seifert_invariants, st


def graph_of(exponents):
    return bci_graph(bci_data(exponents))


def chain_graph(n):
    """The A_n chain, centred at one end."""
    return ResolutionGraph([(-2, 0)] * n, [(i, i + 1) for i in range(n - 1)], central=0)


# -- fundamental cycle ---------------------------------------------------


def test_fundamental_cycle_chain_graphs():
    for n in range(1, 7):
        z = fundamental_cycle(chain_graph(n))
        assert z.as_integers() == (1,) * n


def test_fundamental_cycle_golden_2334():
    graph = graph_of((2, 3, 3, 4))
    z = fundamental_cycle(graph)
    assert z.as_integers() == (2, 1, 1, 1)
    assert graph.pairing(z, z) == -2
    assert is_antinef(graph, z)
    assert not is_antinef(graph, z - QCycle.unit(4, 0))


def test_fundamental_cycle_golden_e8():
    # (2,3,5) resolves to the E8 diagram; its fundamental cycle is the
    # highest root, with coefficient 6 on the trivalent curve.
    graph = graph_of((2, 3, 5))
    z = fundamental_cycle(graph)
    assert z.as_integers() == (6, 3, 4, 2, 5, 4, 3, 2)
    assert graph.pairing(z, z) == -2
    assert arithmetic_genus(graph, z) == 0
    assert z == minimal_cycle(graph, 6)


def test_fundamental_cycle_matches_full_box(small_multisets):
    graphs = [chain_graph(n) for n in (2, 3, 4, 5)]
    graphs.append(graph_of((6, 10, 45)))
    graphs.extend(g for g in map(graph_of, small_multisets)
                  if g.num_vertices <= 4)
    assert len(graphs) > 10
    for graph in graphs:
        expected = full_box_fundamental(graph, bound=6)
        assert fundamental_cycle(graph).as_integers() == expected


def test_fundamental_cycle_matches_stratum_oracle(small_multisets):
    sample = [(2, 3, 5), (2, 3, 3, 4), (6, 10, 45)] + list(small_multisets)[::4]
    for exponents in sample:
        graph = graph_of(exponents)
        z = fundamental_cycle(graph)
        assert z.as_integers() == star_fundamental_oracle(graph), exponents
        # minimality ties the two production routes together: the
        # fundamental cycle is the minimal cycle at its own central weight
        assert z == minimal_cycle(graph, z[graph.central]), exponents


@PROPERTY
@given(seifert_invariants())
def test_star_fundamental_cycle_matches_laufer(seifert):
    # Laufer's iteration, run on the star itself, against L_z0
    star = star_graph(seifert)
    z = fundamental_cycle(star)
    assert z.as_integers() == laufer_fundamental(star)
    assert z[star.central] == seifert.z0()


def _relabel(graph, label):
    """The same star with vertex v renamed label[v]."""
    vertices = [None] * graph.num_vertices
    for v, pair in enumerate(zip(graph.selfint, graph.genus)):
        vertices[label[v]] = pair
    edges = [(label[i], label[j]) for i, j in graph.edges]
    return ResolutionGraph(vertices, edges, central=label[graph.central])


@PROPERTY
@given(relabelled_stars(), st.data())
def test_arm_classes_match_per_vertex_work(star, data):
    # star_graph numbers a star center first and arm by arm; the relabelled
    # copy puts its center and arms anywhere, and has no Seifert invariant
    # handed in
    seifert, label = star
    base = star_graph(seifert)
    n = base.num_vertices
    relabelled = _relabel(base, label)
    z = fundamental_cycle(base)
    assert [fundamental_cycle(relabelled)[label[v]] for v in range(n)] == list(z)
    assert sorted(seifert_of_graph(relabelled).arms) == sorted(seifert.arms)
    # values in {-1, 0} agree on some identical arms and differ on others
    coeffs = data.draw(st.lists(st.integers(-1, 0), min_size=n, max_size=n))
    j = data.draw(st.integers(0, n - 1))
    central = data.draw(st.integers(0, 40))
    # the relabelled copy spreads its arm values through its walk
    for m in (0, 1, seifert.z0(), central, data.draw(st.integers(41, 10 ** 9))):
        assert ([minimal_cycle(relabelled, m)[label[v]] for v in range(n)]
                == list(minimal_cycle(base, m)))
    # the arm of j differs from the other arms of its class
    w = dual_cycle(base, j)
    assert [dual_cycle(relabelled, label[j])[label[v]] for v in range(n)] == list(w)
    rhs = [-(v == j) for v in range(n)]
    assert list(w) == fraction_pivot_solve(base.intersection_matrix(), rhs)
    for graph in (base, relabelled):
        assert graph.products(coeffs) == [graph.product_with_vertex(coeffs, i)
                                          for i in range(n)]
        expected = [0] * n
        expected[graph.central] = central
        for arm in graph.arms():
            chain = [-graph.selfint[v] for v in arm]
            for v, c in zip(arm, minimal_arm_cycle(chain, central)):
                expected[v] = c
        assert minimal_cycle(graph, central).as_integers() == tuple(expected)


# -- minimal cycles ------------------------------------------------------


def test_minimal_arm_cycle_matches_box():
    from itertools import product

    chains = [c for r in (1, 2, 3) for c in product((2, 3, 4), repeat=r)]
    for chain in chains:
        for m0 in range(7):
            got = minimal_arm_cycle(list(chain), m0)
            selfints = tuple(-c for c in chain)
            assert tuple(got) == _min_arm_vector(selfints, m0, bound=8)


def test_minimal_arm_cycle_errors():
    with pytest.raises(InputError):
        minimal_arm_cycle([2, 2], -1)
    with pytest.raises(InputError):
        minimal_arm_cycle([2, 1], 3)


def test_minimal_arm_cycle_takes_an_integral_central_coefficient():
    with pytest.raises(InputError, match="^2.5 is not an integer$"):
        minimal_arm_cycle([2, 2], 2.5)
    # an integral float is its integer, and the coefficients stay ints
    # (repr tells [2, 1] from [2.0, 1.0])
    assert repr(minimal_arm_cycle([2, 2], 2.0)) == "[2, 1]"


def test_minimal_cycle_ladder_2334():
    graph = graph_of((2, 3, 3, 4))
    expected = {
        0: (0, 0, 0, 0),
        1: (1, 1, 1, 1),
        2: (2, 1, 1, 1),
        3: (3, 2, 2, 2),
        4: (4, 2, 2, 2),
    }
    for n, coeffs in expected.items():
        assert minimal_cycle(graph, n).as_integers() == coeffs
    m = minimal_cycle(graph, 3)
    assert graph.pairing(m, m) == -6
    assert deg_on_central(graph, minimal_cycle(graph, 1)) == -1


def test_minimal_cycle_degree_matches_divisor_degree():
    for exponents in ((2, 3, 3, 4), (2, 3, 5), (6, 10, 45)):
        data = bci_data(exponents)
        graph = graph_of(exponents)
        for n in range(61):
            cycle = minimal_cycle(graph, n)
            assert deg_on_central(graph, cycle) == data.seifert.deg(n)


def test_minimal_cycle_subadditive():
    graph = graph_of((2, 3, 3, 4))
    cycles = {n: minimal_cycle(graph, n) for n in range(51)}
    for a in range(1, 26):
        for b in range(a, 26):
            assert cycles[a + b] <= cycles[a] + cycles[b]


def test_minimal_cycle_huge_central_weight_stays_exact():
    graph = graph_of((2, 3, 3, 4))
    data = bci_data((2, 3, 3, 4))
    n = 10 ** 6
    cycle = minimal_cycle(graph, n)
    assert cycle.as_integers() == (n, n // 2, n // 2, n // 2)
    assert deg_on_central(graph, cycle) == data.seifert.deg(n) == n // 2


def test_minimal_cycle_errors():
    # a chain without a center is refused when it is built, before any
    # minimal cycle is asked of it
    with pytest.raises(InputError, match="^graph has no central vertex$"):
        ResolutionGraph([(-2, 0)] * 3, [(0, 1), (1, 2)])
    graph = graph_of((2, 3, 5))
    with pytest.raises(InputError):
        minimal_cycle(graph, -1)
    # a fractional central coefficient is bad input, not an internal breach;
    # an integral float is its integer
    with pytest.raises(InputError, match="^2.5 is not an integer$"):
        minimal_cycle(graph, 2.5)
    assert minimal_cycle(graph, 6.0) == minimal_cycle(graph, 6) == fundamental_cycle(graph)


# -- arithmetic genus and reports ----------------------------------------


def test_arithmetic_genus_goldens():
    graph = graph_of((2, 3, 3, 4))
    z = fundamental_cycle(graph)
    assert arithmetic_genus(graph, z) == 4
    assert arithmetic_genus(graph, z * 2) == 5
    point = graph_of((2, 2, 2))
    assert arithmetic_genus(point, fundamental_cycle(point)) == 0


def test_arithmetic_genus_rejects_bad_cycles():
    from fractions import Fraction

    graph = graph_of((2, 3, 3, 4))
    with pytest.raises(InputError):
        arithmetic_genus(graph, QCycle.zero(4))
    with pytest.raises(InputError):
        arithmetic_genus(graph, QCycle([1, 1, 1, -1]))
    with pytest.raises(InputError):
        arithmetic_genus(graph, QCycle([Fraction(1, 2), 1, 1, 1]))


def test_cycle_report_integral():
    graph = graph_of((2, 3, 3, 4))
    report = cycle_report(graph, fundamental_cycle(graph))
    assert report.self_intersection == -2
    assert report.pa == 4
    assert report.products == [-1, 0, 0, 0]
    blob = json.loads(_dumps(report.to_json_dict()))
    assert blob["self_intersection"] == -2
    assert blob["pa"] == 4


def test_cycle_report_fractional_canonical_cycle():
    # cyclic quotient with a single -3 curve: Z_K = (1/3) E, not integral
    graph = ResolutionGraph([(-3, 0)], [], central=0)
    zk = canonical_cycle(graph)
    assert not zk.is_integral
    report = cycle_report(graph, zk)
    assert report.pa is None
    blob = json.loads(_dumps(report.to_json_dict()))
    assert blob["self_intersection"] == "-1/3"
