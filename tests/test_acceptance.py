"""Acceptance suite: one test per shipped guarantee, exact-integer tolerances.

Each test prints a single pass/fail line under pytest -v.  The property
tests (criterion 5) draw on the seeded corpora from conftest and on the
brute-force oracles in oracles.py; everything else is frozen goldens.
"""

import random

import pytest

from brieskorn import (
    BciModel,
    HilbertSeries,
    HyperellipticMaxModel,
    IntPolynomial,
    ModelInconsistencyError,
    NumericalSemigroup,
    a_invariant,
    arithmetic_genus,
    bci_data,
    bci_graph,
    bci_seifert,
    canonical_cycle,
    case_study_2334,
    deg_on_central,
    divisor_degree_semigroup,
    dual_cycle,
    fundamental_cycle,
    hilbert_series,
    m_equals_z,
    maximal_ideal_cycle,
    minimal_cycle,
    multiplicity_bound,
    max_type_2334,
    pg_difference,
    pg_from_series,
    pg_max,
    pinkham_pg,
    weight_semigroup,
)
from brieskorn.cli import ReportContext, bci_report
from conftest import SEED
from oracles import full_box_fundamental, semigroup_sieve, star_fundamental_oracle


def test_criterion_1_exponents_2334_full_report():
    data = bci_data((2, 3, 3, 4))
    graph = bci_graph(data)
    assert data.e == (6, 4, 4, 3)
    assert data.alphas == (1, 1, 1, 2)
    assert data.g == 2
    assert data.c0 == 2
    seifert = bci_seifert(data)
    assert (seifert.g, seifert.c0, seifert.arms) == (2, 2, ((2, 1),) * 3)

    z = fundamental_cycle(graph)
    mx = maximal_ideal_cycle(data, graph)
    zk = canonical_cycle(graph)
    assert z.as_integers() == (2, 1, 1, 1)
    assert mx.as_integers() == (3, 2, 2, 2)
    assert zk == z * 4
    assert arithmetic_genus(graph, z) == 4
    assert arithmetic_genus(graph, z * 2) == 5
    assert a_invariant(data) == 7
    assert pinkham_pg(BciModel(data)) == 8
    assert not m_equals_z(data).equal
    assert -graph.pairing(mx, mx) == 6

    report = bci_report(ReportContext(None, (2, 3, 3, 4)))
    assert report["pg"] == 8
    assert report["a_invariant"] == 7
    assert report["m_equals_z"] is False
    assert report["minus_m_squared"] == 6
    assert report["pa_fundamental_cycle"] == 4
    assert report["canonical_cycle"] == {"0": 8, "1": 4, "2": 4, "3": 4}


def test_criterion_2_hilbert_series_goldens():
    data = bci_data((2, 3, 3, 4))
    ring = hilbert_series(data)
    assert ring.expand(8) == [1, 0, 0, 1, 2, 0, 2, 2, 3]

    maxed = ring.plus_polynomial(IntPolynomial([0, 0, 1, 0, 0, 1]))
    assert maxed.expand(10) == [1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 4]

    assert pg_from_series(ring) == 8
    assert pg_from_series(maxed) == 10
    assert pg_difference(maxed, ring) == 2

    # the closed form of the maximal structure gives the same series
    closed = HilbertSeries(IntPolynomial.one_minus_power(6)
                           * IntPolynomial.one_minus_power(20),
                           (2, 3, 4, 10))
    assert closed.expand(10) == maxed.expand(10)
    assert pg_from_series(closed) == 10


def test_criterion_3_exponents_6_10_45():
    data = bci_data((6, 10, 45))
    assert data.e == (15, 9, 2)
    assert data.ghats == (5, 3, 2)
    assert data.alpha == 3
    seifert = bci_seifert(data)
    assert (seifert.g, seifert.c0, seifert.arms) == (11, 1, ((3, 1), (3, 1)))
    assert data.seifert.deg(3) == 1
    assert not weight_semigroup(data).contains(3)
    assert not divisor_degree_semigroup(data).contains(1)
    assert m_equals_z(data).equal

    # the graph is hyperelliptic type, so the maximal genus is attained
    # (exact) and the graph-derived and exponent-derived routes to the
    # maximal model agree; the actual structure is Clifford-dominated
    top = pg_max(bci_graph(data))
    assert top.exact
    assert top.value == pinkham_pg(
        HyperellipticMaxModel(bci_seifert(data)))
    here = pinkham_pg(BciModel(data))
    assert here == pg_from_series(hilbert_series(data)) == 284
    assert top.value >= here


def test_criterion_4_case_study_table():
    expected = {
        (1, 1, 1, 1): (8, 3, 4, False, (2, 3, 8, 10), (3, 8, 10)),
        (0, 2, 1, 1): (8, 4, 4, False, (2, 4, 5, 11), (4, 5, 11)),
        (0, 2, 0, 1): (7, 4, 5, False, (2, 4, 7, 9, 10), (4, 7, 9, 10)),
        (0, 1, 1, 2): (8, 5, 5, True, (2, 5, 6, 7, 8), (5, 6, 7, 8)),
        (0, 1, 1, 1): (7, 5, 5, False, (2, 5, 6, 8, 9), (5, 6, 8, 9)),
        (0, 1, 0, 1): (6, 6, 7, False, (2, 6, 7, 8, 9, 10, 11),
                       (6, 7, 8, 9, 10, 11)),
    }
    for vector, (pg, mult, emb, gor, gens, gamma) in expected.items():
        row = case_study_2334(*vector)
        assert row.pg == pg, vector
        assert row.multiplicity == mult, vector
        assert row.embedding_dimension == emb, vector
        assert row.gorenstein == gor, vector
        assert row.generator_degrees == gens, vector
        assert row.value_semigroup_generators == gamma, vector

    with pytest.raises(ModelInconsistencyError, match="negative"):
        case_study_2334(0, 1, 0, 2)


def test_criterion_5_property_suite(small_multisets, corpus200):
    rng = random.Random(SEED + 7)

    # (a) fundamental cycle against the brute-force minimum over the
    #     coefficient box, on every graph with m <= 4 exponents all <= 5
    for exponents in small_multisets:
        graph = bci_graph(bci_data(exponents))
        expected = star_fundamental_oracle(graph, bound=12)
        assert fundamental_cycle(graph).as_integers() == expected, exponents
        if graph.num_vertices <= 4:
            assert full_box_fundamental(graph, bound=6) == expected, exponents

    for exponents in corpus200:
        data = bci_data(exponents)
        graph = bci_graph(data)
        n_top = 3 * data.ell

        # (b) n has a section iff its divisor degree is a degree of sections:
        #     n in <e_1..e_m>  <=>  deg D_n in <ghat_1..ghat_m>
        degs = [data.seifert.deg(n) for n in range(n_top + 1)]
        weight_members = semigroup_sieve(data.e, n_top)
        degree_members = semigroup_sieve(data.ghats, max(max(degs), 0))
        for n in range(n_top + 1):
            lhs = weight_members[n]
            rhs = degs[n] >= 0 and degree_members[degs[n]]
            assert lhs == rhs, (exponents, n)

        # (c) central multiplicity of the fundamental cycle, and the degree
        #     of every minimal cycle on the central curve
        z = fundamental_cycle(graph)
        assert z[graph.central] == min(data.e[-1], data.alpha), exponents
        for n in range(201):
            ln = minimal_cycle(graph, n)
            assert deg_on_central(graph, ln) == data.seifert.deg(n), \
                (exponents, n)

        # (d) the two independent geometric genus routes agree
        assert pinkham_pg(BciModel(data)) == pg_from_series(hilbert_series(data)), \
            exponents

        # (e) the canonical cycle is integral (numerically Gorenstein)
        zk = canonical_cycle(graph)
        assert zk.is_integral, exponents

        # (f) dual cycles pair to minus the identity
        n_verts = graph.num_vertices
        if n_verts <= 15:
            picks = range(n_verts)
        else:
            picks = set(rng.sample(range(n_verts), 3)) | {graph.central}
        for j in picks:
            ej = dual_cycle(graph, j)
            for i in range(n_verts):
                assert graph.product_with_vertex(ej, i) == (-1 if i == j else 0), \
                    (exponents, j, i)


def test_criterion_6_multiplicity_bounds():
    data = bci_data((2, 3, 3, 4))
    graph = bci_graph(data)
    bound = multiplicity_bound(graph, maximal_ideal_cycle(data, graph),
                               fundamental_cycle(graph))
    assert bound.lower_bound == 3

    top = max_type_2334()
    assert top.minus_m_squared == 4
    assert top.multiplicity_lower_bound == 3
