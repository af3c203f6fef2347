"""Exponent arithmetic, coordinate cycles, and semigroups of the links."""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from brieskorn import (
    BciModel,
    InputError,
    QCycle,
    a_invariant,
    arm_families,
    bci_data,
    bci_graph,
    bci_seifert,
    coordinate_cycle,
    divisor_degree_semigroup,
    dual_cycle,
    fundamental_cycle,
    hilbert_series,
    is_antinef,
    lattice_pg,
    m_equals_z,
    maximal_ideal_cycle,
    minimal_cycle,
    pg_from_series,
    pinkham_pg,
    pinkham_pg_closed,
    semigroup_equivalence_check,
    weight_semigroup,
)
from oracles import fraction_c0, numerator_product_form, series_sum_pg, simplex_pg
from properties import PROPERTY, example, exponent_tuples, given


# -- derived data ----------------------------------------------------------


def test_data_golden_2334():
    data = bci_data((2, 3, 3, 4))
    assert data.exponents == (2, 3, 3, 4)
    assert data.ell == 12
    assert data.e == (6, 4, 4, 3)
    assert data.alphas == (1, 1, 1, 2)
    assert data.alpha == 2
    assert data.ghat == 6
    assert data.ghats == (3, 2, 2, 3)
    assert data.betas == (0, 0, 0, 1)
    assert data.g == 2
    assert data.c0 == 2
    assert Fraction(data.ghat, data.ell) == Fraction(1, 2)
    seifert = bci_seifert(data)
    assert (seifert.g, seifert.c0) == (2, 2)
    assert seifert.arms == ((2, 1), (2, 1), (2, 1))
    assert seifert.deg_divisor() == Fraction(1, 2)


def test_data_golden_61045():
    data = bci_data((6, 10, 45))
    assert data.ell == 90
    assert data.e == (15, 9, 2)
    assert data.alphas == (1, 1, 3)
    assert data.alpha == 3
    assert data.ghat == 30
    assert data.ghats == (5, 3, 2)
    assert data.betas == (0, 0, 1)
    assert data.g == 11
    assert data.c0 == 1
    assert Fraction(data.ghat, data.ell) == Fraction(1, 3)
    seifert = bci_seifert(data)
    assert (seifert.g, seifert.c0) == (11, 1)
    assert seifert.arms == ((3, 1), (3, 1))


def test_data_golden_triple_point():
    data = bci_data((2, 2, 2))
    assert data.ell == 2
    assert data.e == (1, 1, 1)
    assert data.alphas == (1, 1, 1)
    assert data.ghats == (2, 2, 2)
    assert data.g == 0
    assert data.c0 == 2
    assert a_invariant(data) == -1
    graph = bci_graph(data)
    assert graph.num_vertices == 1
    assert graph.selfint == (-2,)


def test_data_golden_e8():
    data = bci_data((2, 3, 5))
    assert data.ell == 30
    assert data.e == (15, 10, 6)
    assert data.alphas == (2, 3, 5)
    assert data.alpha == 30
    assert data.ghats == (1, 1, 1)
    assert data.betas == (1, 2, 4)
    assert (data.g, data.c0) == (0, 2)
    graph = bci_graph(data)
    assert graph.num_vertices == 8
    assert all(s == -2 for s in graph.selfint)


def test_input_order_is_tracked():
    data = bci_data((45, 6, 10))
    assert data.exponents == (6, 10, 45)
    assert data.input_positions == (1, 2, 0)
    assert data.to_json_dict()["input_positions"] == [1, 2, 0]
    assert bci_data((45, 6, 10)).e == bci_data((6, 10, 45)).e


def test_data_rejects_bad_exponents():
    with pytest.raises(InputError):
        bci_data((2, 3))
    with pytest.raises(InputError):
        bci_data((2, 3, 1))
    with pytest.raises(InputError):
        bci_data((2, 3, 0))
    data = bci_data((2, 3, 5))
    with pytest.raises(InputError):
        data.seifert.deg(-1)


def test_beta_congruence_everywhere(small_multisets):
    for exponents in small_multisets:
        data = bci_data(exponents)
        for e_i, a_i, b_i in zip(data.e, data.alphas, data.betas):
            if a_i == 1:
                assert b_i == 0
            else:
                assert 0 <= b_i < a_i
                assert (e_i * b_i) % a_i == a_i - 1


def test_divisor_degree_golden_table():
    data = bci_data((2, 3, 3, 4))
    assert [data.seifert.deg(n) for n in range(1, 8)] == [-1, 1, 0, 2, 1, 3, 2]
    assert data.seifert.deg(0) == 0


# -- coordinate and maximal ideal cycles ------------------------------------


def test_coordinate_cycles_2334():
    data = bci_data((2, 3, 3, 4))
    graph = bci_graph(data)
    first = coordinate_cycle(data, graph, 0)
    assert first.cycle.as_integers() == (6, 3, 3, 3)
    assert first.central_coefficient == 6
    last = coordinate_cycle(data, graph, 3)
    assert last.cycle.as_integers() == (3, 2, 2, 2)
    assert last.central_coefficient == 3
    with pytest.raises(InputError):
        coordinate_cycle(data, graph, 4)


def test_coordinate_cycle_family_structure():
    data = bci_data((6, 10, 45))
    graph = bci_graph(data)
    assert arm_families(data) == [[], [], [0, 1]]
    third = coordinate_cycle(data, graph, 2)
    arms = graph.arms()
    expected = dual_cycle(graph, arms[0][-1]) + dual_cycle(graph, arms[1][-1])
    assert third.cycle == expected
    assert third.central_coefficient == 2


def test_maximal_ideal_cycle_is_minimal_cycle_at_e_m(small_multisets):
    for exponents in small_multisets:
        data = bci_data(exponents)
        graph = bci_graph(data)
        cycle = maximal_ideal_cycle(data, graph)
        assert is_antinef(graph, cycle), exponents
        assert cycle == minimal_cycle(graph, data.e[-1]), exponents
        assert fundamental_cycle(graph) <= cycle, exponents


def test_fundamental_cycle_central_weight(small_multisets):
    # the least weight of a nonzero function is min(e_m, alpha), and it is
    # the central multiplicity of the fundamental cycle
    for exponents in small_multisets:
        data = bci_data(exponents)
        graph = bci_graph(data)
        z = fundamental_cycle(graph)
        assert z[graph.central] == min(data.e[-1], data.alpha), exponents


def test_m_equals_z_goldens():
    assert not m_equals_z(bci_data((2, 3, 3, 4)))
    witness = m_equals_z(bci_data((2, 3, 3, 4)))
    assert (witness.e_m, witness.alpha) == (3, 2)
    assert m_equals_z(bci_data((6, 10, 45))).equal
    assert m_equals_z(bci_data((2, 3, 5))).equal


def test_m_equals_z_matches_cycles(small_multisets):
    for exponents in small_multisets:
        data = bci_data(exponents)
        graph = bci_graph(data)
        same = maximal_ideal_cycle(data, graph) == fundamental_cycle(graph)
        assert m_equals_z(data).equal == same, exponents


def test_multiples_of_alpha_lie_on_the_central_dual():
    data = bci_data((2, 3, 3, 4))
    graph = bci_graph(data)
    e0_dual = dual_cycle(graph, graph.central)
    assert e0_dual.as_integers() == (2, 1, 1, 1)
    for n in range(1, 25):
        deg = data.seifert.deg(n)
        if deg <= 0:
            continue
        hit = minimal_cycle(graph, n) == e0_dual * deg
        assert hit == (n % data.alpha == 0), n


# -- graded ring data --------------------------------------------------------


def test_a_invariant_goldens():
    assert a_invariant(bci_data((2, 3, 3, 4))) == 7
    data = bci_data((6, 10, 45))
    assert a_invariant(data) == 64
    assert weight_semigroup(data).contains(64)


def test_weight_and_degree_semigroups():
    data = bci_data((6, 10, 45))
    assert weight_semigroup(data).generators == (2, 9, 15)
    assert divisor_degree_semigroup(data).generators == (2, 3, 5)
    assert semigroup_equivalence_check(data, 3) == (False, False)
    assert semigroup_equivalence_check(data, 2) == (True, True)
    assert semigroup_equivalence_check(data, 0) == (True, True)


def test_hilbert_series_structure():
    data = bci_data((2, 3, 3, 4))
    series = hilbert_series(data)
    assert series.denominator_factors == (3, 4, 4, 6)
    num = series.numerator
    assert num.coeff(0) == 1 and num.coeff(12) == -2 and num.coeff(24) == 1
    assert num.degree == 24
    assert pg_from_series(series) == 8
    assert series.expand(8) == [1, 0, 0, 1, 2, 0, 2, 2, 3]


@pytest.mark.parametrize("exponents", [
    (2, 3, 5), (6, 10, 45), (2, 3, 3, 4), (4, 6, 10, 15), (2, 2, 3, 3, 5),
    (2, 2, 2, 2, 2, 2), (3, 3, 3, 3, 3, 3)])
def test_hilbert_numerator_is_the_product_form(exponents):
    data = bci_data(exponents)
    assert hilbert_series(data).numerator == numerator_product_form(data)


# -- geometric genus ---------------------------------------------------------

# m = 3 with a_i <= 9, m = 4 with a_i <= 7, m = 5 with a_i <= 5
GENUS_CORPUS = [t for m, top in ((3, 9), (4, 7), (5, 5))
                for t in combinations_with_replacement(range(2, top + 1), m)]


def test_lattice_pg_matches_every_genus_route():
    assert len(GENUS_CORPUS) == 302
    for exponents in GENUS_CORPUS:
        data = bci_data(exponents)
        pg = lattice_pg(data)
        assert pg == pinkham_pg(BciModel(data)), exponents
        assert pg == pinkham_pg_closed(BciModel(data)), exponents
        assert pg == pg_from_series(hilbert_series(data)), exponents
        assert pg == series_sum_pg(data), exponents
        if data.m == 3:
            assert pg == simplex_pg(exponents), exponents


@pytest.mark.parametrize("exponents", [
    (2, 2, 2), (2, 2, 5), (2, 2, 9), (2, 3, 3), (2, 3, 4), (2, 3, 5)])
def test_lattice_pg_of_rational_singularities(exponents):
    data = bci_data(exponents)
    assert a_invariant(data) < 0
    assert lattice_pg(data) == 0
    assert pinkham_pg(BciModel(data)) == 0
    assert pinkham_pg_closed(BciModel(data)) == 0
    assert pg_from_series(hilbert_series(data)) == 0


@PROPERTY
@given(exponent_tuples())
@example((2, 2, 2, 2, 2))
@example((24, 23, 22))
def test_c0_matches_the_fraction_route(exponents):
    data = bci_data(exponents)
    assert data.c0 == fraction_c0(data)
    assert data.seifert.deg_divisor() == Fraction(data.ghat, data.ell)


@PROPERTY
@given(exponent_tuples())
@example((2, 2, 2, 2, 2))
@example((24, 23, 22))
def test_lattice_pg_property(exponents):
    data = bci_data(exponents)
    pg = lattice_pg(data)
    assert pg == series_sum_pg(data)
    assert pg == pinkham_pg(BciModel(data))
    assert pg == pinkham_pg_closed(BciModel(data))
    if data.m == 3:
        assert pg == simplex_pg(data.exponents)


def test_lattice_pg_goldens():
    # (997, 998, 999) counts without expanding a 10^9-term series, and
    # (2,) * 16 tallies its 2^14 basis monomials in 15 degrees
    for exponents, pg in (((2, 3, 3, 4), 8), ((6, 10, 45), 284),
                          ((31, 37, 41), 6894), ((997, 998, 999), 164_922_494),
                          ((2,) * 16, 372_736)):
        assert lattice_pg(bci_data(exponents)) == pg
