"""Exponent arithmetic, coordinate cycles, and semigroups of the links."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, prod

import pytest

from brieskorn import (
    BciModel,
    InputError,
    InternalInvariantError,
    QCycle,
    SeifertInvariant,
    WeightSemigroup,
    a_invariant,
    bci_data,
    bci_graph,
    bci_seifert,
    canonical_cycle,
    coordinate_cycle,
    divisor_degree_semigroup,
    dual_cycle,
    fundamental_cycle,
    hilbert_series,
    hj_expand,
    lattice_pg,
    laufer_pg,
    m_equals_z,
    maximal_ideal_cycle,
    minimal_cycle,
    pg_from_series,
    pinkham_pg,
    pinkham_pg_closed,
    series_prefix,
    star_graph,
    weight_semigroup,
)
from brieskorn.bci import _arm_canonical_sum, _milnor_number
from brieskorn.graph import _hj_length
from conftest import EXPONENT_CORPUS, SEED
from oracles import (arm_families, dual_sum_coordinate_cycle, expanded_prefix,
                     fraction_c0, free_basis_series, is_antinef,
                     numerator_product_form, semigroup_equivalence_check,
                     series_sum_pg, simplex_pg)
from properties import PROPERTY, example, exponent_tuples, given, st


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


def _assert_coordinate_cycles_match_dual_sums(exponents):
    data = bci_data(exponents)
    graph = bci_graph(data)
    for i in range(data.m):
        cycle = coordinate_cycle(data, graph, i)
        assert cycle.cycle == dual_sum_coordinate_cycle(data, graph, i), (exponents, i)
        assert cycle.central_coefficient == cycle.cycle[graph.central] == data.e[i]
    return data


def test_coordinate_cycles_match_dual_sums(small_multisets):
    trivial = 0
    for exponents in small_multisets:
        data = _assert_coordinate_cycles_match_dual_sums(exponents)
        trivial += data.alphas.count(1)
    # the alpha_i = 1 families, summed from the central dual, are covered
    assert trivial


@PROPERTY
@given(exponent_tuples())
@example((6, 10, 14, 15))
@example((2, 3, 3, 4, 4))
@example((24, 23, 22))
def test_coordinate_cycles_match_dual_sums_property(exponents):
    _assert_coordinate_cycles_match_dual_sums(exponents)


def test_coordinate_cycle_checks_the_center():
    # a graph whose center is one step more negative than the tuple's: the
    # arm recursion still builds L_{e_i}, but deg D_{e_i} grows by e_i
    data = bci_data((6, 10, 45))
    s = data.seifert
    graph = star_graph(SeifertInvariant(s.g, s.c0 + 1, s.arms))
    for i in range(data.m):
        with pytest.raises(InternalInvariantError, match=r"has deg D_%d = " % data.e[i]):
            coordinate_cycle(data, graph, i)


def _assert_z0_matches_the_degree_walk(exponents):
    # bci_seifert sets its runs and z0 unchecked; the checked constructor,
    # handed every arm one pair at a time (alpha = 1 families included, as
    # (1, 0) arms), groups its own runs and walks the degrees for z0
    d = bci_data(exponents)
    trusted = d.seifert
    assert "_z0" in vars(trusted)  # handed in, not walked
    arms = [(alpha, beta) for alpha, beta, ghat in zip(d.alphas, d.betas, d.ghats)
            for _ in range(ghat)]
    checked = SeifertInvariant(d.g, d.c0, arms)
    assert checked == trusted
    assert checked.arm_runs == trusted.arm_runs
    assert checked.arm_types == trusted.arm_types
    assert checked.chains == trusted.chains
    assert checked.degree_period == trusted.degree_period
    assert checked.arms == trusted.arms == tuple(a for a in arms if a[0] >= 2)
    assert checked.cutoff() == trusted.cutoff()
    assert "_z0" not in vars(checked)
    assert checked.z0() == trusted.z0()


def test_z0_matches_the_degree_walk():
    for exponents in EXPONENT_CORPUS:
        _assert_z0_matches_the_degree_walk(exponents)


@PROPERTY
@given(exponent_tuples())
@example((2, 3, 3, 4))
@example((6, 10, 45))
def test_z0_matches_the_degree_walk_property(exponents):
    _assert_z0_matches_the_degree_walk(exponents)


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


def _assert_canonical_cycle_is_watanabes(exponents):
    # a BCI is Gorenstein, and Watanabe's canonical module of R(X, D) puts
    # the central coefficient of Z_K at a + 1: an oracle that shares no code
    # with the closed form on the Seifert invariant
    data = bci_data(exponents)
    zk = canonical_cycle(bci_graph(data))
    assert zk.is_integral, exponents
    assert zk[0] == a_invariant(data) + 1, exponents


def test_canonical_cycle_is_watanabes_on_the_corpus():
    assert len(EXPONENT_CORPUS) == 1136
    for exponents in EXPONENT_CORPUS:
        _assert_canonical_cycle_is_watanabes(exponents)


@PROPERTY
@given(exponent_tuples())
@example((2, 3, 3, 4))
@example((6, 10, 45))
def test_canonical_cycle_is_watanabes_property(exponents):
    _assert_canonical_cycle_is_watanabes(exponents)


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


def _assert_weights_match_the_apery_route(exponents):
    # BciModel.weights decides membership on deg D_n and <ghat>; the Apery
    # array of <e> is the oracle of the three facts bci prints from it
    data = bci_data(exponents)
    weights, oracle = BciModel(data).weights, weight_semigroup(data)
    assert type(weights) is WeightSemigroup
    assert weights.generators == oracle.generators
    for n in (data.alpha, a_invariant(data)):
        assert weights.contains(n) == oracle.contains(n), (exponents, n)
    assert weights.minimal_generators() == oracle.minimal_generators(), exponents


def test_weights_match_the_apery_route_on_the_corpus():
    assert len(EXPONENT_CORPUS) == 1136
    for exponents in EXPONENT_CORPUS:
        _assert_weights_match_the_apery_route(exponents)


@PROPERTY
@given(exponent_tuples())
@example((2, 3, 5))  # a = -1
@example((6, 6, 6))  # the ghat_i have gcd 6
def test_weights_match_the_apery_route_property(exponents):
    _assert_weights_match_the_apery_route(exponents)


def test_weight_membership_matches_the_apery_route(corpus200):
    for exponents in corpus200:
        data = bci_data(exponents)
        weights, oracle = WeightSemigroup(data), weight_semigroup(data)
        for n in range(-2, 3 * data.ell):
            assert weights.contains(n) == oracle.contains(n), (exponents, n)


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
        assert pg == laufer_pg(data), exponents
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
    assert pg == laufer_pg(data)
    if data.m == 3:
        assert pg == simplex_pg(data.exponents)


def test_lattice_pg_goldens():
    # (997, 998, 999) counts without expanding a 10^9-term series, and
    # (2,) * 16 tallies its 2^14 basis monomials in 15 degrees
    for exponents, pg in (((2, 3, 3, 4), 8), ((6, 10, 45), 284),
                          ((31, 37, 41), 6894), ((997, 998, 999), 164_922_494),
                          ((2,) * 16, 372_736)):
        assert lattice_pg(bci_data(exponents)) == pg
        assert laufer_pg(bci_data(exponents)) == pg


# -- Laufer's formula ----------------------------------------------------------


def test_laufer_pg_is_the_lattice_count_on_the_corpus():
    assert len(EXPONENT_CORPUS) == 1136
    for exponents in EXPONENT_CORPUS:
        data = bci_data(exponents)
        assert laufer_pg(data) == lattice_pg(data), exponents


def test_milnor_number_at_m_3_is_brieskorn_phams():
    for exponents in EXPONENT_CORPUS:
        if len(exponents) == 3:
            assert _milnor_number(exponents) == prod(a - 1 for a in exponents), exponents


def test_milnor_number_goldens():
    # the simple elliptic singularity of two quadrics in C^4 (K^2 = -4, p_g
    # = 1, chi(E) = 0), and (2, 3, 3, 4): 1 + 64 = 12*8 - 32 + 1
    assert _milnor_number((2, 2, 2, 2)) == 7
    assert _milnor_number((2, 3, 3, 4)) == 64


def test_arm_canonical_sums_are_the_walked_sums():
    # per arm, the telescoped sum is shift*period * sum_i z_i*(b_i - 2) over
    # the arm's vertices of Z_K on the spread graph, and the chain lengths
    # by runs count the graph's vertices
    for exponents in EXPONENT_CORPUS:
        data = bci_data(exponents)
        seifert, graph = data.seifert, bci_graph(data)
        zk = canonical_cycle(graph).coeffs
        period, shift = seifert.degree_period
        excess = seifert.canonical_excess()
        for arm, vertices in zip(seifert.arms, graph.arms()):
            chain = seifert.chains[arm]
            walked = sum(zk[v] * (c - 2) for v, c in zip(vertices, chain))
            assert _arm_canonical_sum(arm, excess, shift, period) == \
                walked * shift * period, (exponents, arm)
        assert 1 + sum(k * _hj_length(*arm) for arm, k in seifert.arm_types.items()) \
            == graph.num_vertices, exponents


def test_chain_lengths_by_runs_are_the_chain_lengths():
    # s = len(hj_expand(alpha, beta)) and t = len(hj_expand(alpha, alpha -
    # beta)) for every reduced pair with alpha <= 150, and for one seeded
    # beta at every alpha <= 10^4; Riemenschneider's duality ties the two:
    # sum_i (b_i - 2) = t - 1
    rng = random.Random(SEED)
    pairs = [(a, b) for a in range(2, 151) for b in range(1, a) if gcd(a, b) == 1]
    for a in range(151, 10 ** 4 + 1):
        b = rng.randrange(1, a)
        while gcd(a, b) != 1:
            b = rng.randrange(1, a)
        pairs.append((a, b))
    for a, b in pairs:
        chain = hj_expand(a, b)
        assert _hj_length(a, b) == len(chain), (a, b)
        t = _hj_length(a, a - b)
        assert t == len(hj_expand(a, a - b)), (a, b)
        assert sum(chain) - 2 * len(chain) == t - 1, (a, b)


def test_chain_length_of_an_arm_too_long_to_walk():
    # the arm of type (10^21 + 1, beta) of 2 3 10^21 + 1 has 1.67 * 10^20
    # vertices, counted by runs of 2s, one divmod each
    data = bci_data((2, 3, 10 ** 21 + 1))
    (alpha, beta), count = data.seifert.arm_runs[-1]
    assert (alpha, count) == (10 ** 21 + 1, 1)
    assert _hj_length(alpha, beta) == 166_666_666_666_666_666_670
    assert _hj_length(alpha, alpha - beta) == 2
    assert laufer_pg(data) == 166_666_666_666_666_666_666


def test_laufer_pg_refuses_a_fractional_genus(monkeypatch):
    # a Milnor number off by one puts 1/12 on p_g, which must not round away
    data = bci_data((2, 3, 3, 4))
    monkeypatch.setattr("brieskorn.bci._milnor_number", lambda exponents: 65)
    with pytest.raises(InternalInvariantError, match="Laufer's formula gives p_g"):
        laufer_pg(data)


# -- the series prefix count and the ring-series shape -----------------------

# m = 3, 4, 5 and 6; (31, 37, 41) has Pinkham's cutoff near 47,000;
# (60, 70, 84, 105) and (200, 200, 200, 200) have a cutoff far below the
# product of their free-basis exponents, the latter with every e_i = 1
PREFIX_CORPUS = [(2, 3, 3, 4), (6, 10, 45), (31, 37, 41), (2, 2, 3, 3, 5),
                 (2, 2, 2, 3, 3, 3), (60, 70, 84, 105), (200, 200, 200, 200)]


def test_series_prefix_matches_the_expansion():
    for exponents in PREFIX_CORPUS:
        data = bci_data(exponents)
        cutoff = data.seifert.cutoff()
        assert series_prefix(data, -1) == 0
        assert series_prefix(data, 0) == 1
        assert series_prefix(data, cutoff - 1) == expanded_prefix(data, cutoff - 1), \
            exponents
        assert series_prefix(data, a_invariant(data)) == lattice_pg(data), exponents


@PROPERTY
@given(exponent_tuples(), st.data())
def test_series_prefix_property(exponents, draw):
    data = bci_data(exponents)
    top = draw.draw(st.integers(-1, 3 * data.ell))
    assert series_prefix(data, top) == expanded_prefix(data, top)
    assert series_prefix(data, a_invariant(data)) == lattice_pg(data)


def _assert_ring_series(data):
    # leading 1 and no negative coefficient through the old runtime check
    # order, and nonnegative at every order by the free-basis form
    series = hilbert_series(data)
    order = max(len(series.numerator.coeffs) + sum(data.e) + 16,
                data.seifert.cutoff())
    coeffs = series.expand(order)
    assert coeffs[0] == 1 and min(coeffs) >= 0
    free = free_basis_series(data)
    assert min(free.numerator.coeffs) >= 0
    assert free.expand(order) == coeffs


def test_bci_series_is_a_ring_series():
    for exponents in GENUS_CORPUS + PREFIX_CORPUS:
        _assert_ring_series(bci_data(exponents))


@PROPERTY
@given(exponent_tuples())
def test_bci_series_is_a_ring_series_property(exponents):
    _assert_ring_series(bci_data(exponents))


@pytest.mark.parametrize("call, message", [
    (lambda data: BciModel(data).weights.contains(6.5), "^6.5 is not an integer$"),
    (lambda data: series_prefix(data, 2.5), "^2.5 is not an integer$"),
    (lambda data: coordinate_cycle(data, bci_graph(data), 1.5), "^1.5 is not an integer$"),
], ids=["weights", "series-prefix", "coordinate-cycle"])
def test_fractional_arguments_are_refused_by_name(call, message):
    # the weights truncated 6.5 to the member 6; the other two raised a bare
    # TypeError
    with pytest.raises(InputError, match=message):
        call(bci_data((2, 3, 5)))


def test_integral_arguments_of_any_type_are_their_integers():
    data = bci_data((2, 3, 5))
    graph = bci_graph(data)
    assert coordinate_cycle(data, graph, 1.0) == coordinate_cycle(data, graph, 1)
    weights = BciModel(data).weights
    assert weights.contains(Fraction(6)) and not weights.contains(1.0)
    assert series_prefix(data, 12.0) == series_prefix(data, 12)
