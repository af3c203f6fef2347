"""Graphs, continued fractions, exact linear algebra, Seifert round trips,
and the dual and canonical cycles against the oracles' solves."""

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import pytest

from brieskorn import (BciModel, HyperellipticMaxModel, InputError,
                       InternalInvariantError, QCycle, ResolutionGraph,
                       SeifertInvariant, arithmetic_genus, canonical_cycle,
                       case_study_2334, cycle_report, dual_cycle,
                       fundamental_cycle, hj_evaluate, hj_expand,
                       is_numerically_gorenstein, max_type_2334,
                       multiplicity_bound, mz_criterion_weighted,
                       negative_definite, seifert_of_graph, star_graph)
from brieskorn.bci import bci_data, bci_graph
from brieskorn.numerics import HilbertSeries, IntPolynomial, NumericalSemigroup
from brieskorn.pdmodel import pg_max
from brieskorn.report import (_dumps, _Prewritten, exact_json, json_map_text, report_json,
                              report_value)

from conftest import SEED, all_small_multisets
from oracles import (bareiss_det, fraction_hj_evaluate, fraction_pivot_solve,
                     neighbour_walk_arms, per_arm_runs, solve_exact, star_lists)
from properties import (PROPERTY, centred_trees, example, given,
                        relabelled_stars, seifert_arm_lists, seifert_invariants,
                        st, tree_systems, weighted_trees)

NO_CENTER = "^graph has no central vertex$"

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _det_fraction(m):
    """Determinant by exact Gaussian elimination."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for cc in range(c, n):
                m[r][cc] -= f * m[c][cc]
    return det


def negdef_oracle(matrix):
    """Negative definite iff the k-th leading principal minor has sign (-1)^k."""
    for k in range(1, len(matrix) + 1):
        det = _det_fraction([row[:k] for row in matrix[:k]])
        if det == 0 or (det > 0) != (k % 2 == 0):
            return False
    return True


def _tree_matrix(vertices, edges):
    m = [[0] * len(vertices) for _ in vertices]
    for i, (s, _) in enumerate(vertices):
        m[i][i] = s
    for i, j in edges:
        m[i][j] = m[j][i] = 1
    return m


def _random_tree_matrix(rng, n):
    """Symmetric tree matrix with random diagonal in [-4, 0]."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = rng.randint(-4, 0)
    for v in range(1, n):
        u = rng.randrange(v)
        m[u][v] = m[v][u] = 1
    return m


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------


def test_hj_expand_goldens():
    assert hj_expand(2, 1) == [2]
    assert hj_expand(3, 1) == [3]
    assert hj_expand(3, 2) == [2, 2]
    assert hj_expand(5, 4) == [2, 2, 2, 2]
    assert hj_expand(7, 3) == [3, 2, 2]
    assert hj_expand(11, 7) == [2, 3, 2, 2]


def test_hj_evaluate_goldens():
    assert hj_evaluate([2]) == (2, 1)
    assert hj_evaluate([2, 2, 2]) == (4, 3)
    assert hj_evaluate([3, 2, 2]) == (7, 3)


def test_hj_round_trip_exhaustive():
    from math import gcd
    for alpha in range(2, 201):
        for beta in range(1, alpha):
            if gcd(alpha, beta) != 1:
                continue
            chain = hj_expand(alpha, beta)
            assert all(c >= 2 for c in chain)
            assert hj_evaluate(chain) == (alpha, beta)


@PROPERTY
@given(st.integers(2, 2000).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(1, a - 1))).filter(
    lambda pair: math.gcd(*pair) == 1))
def test_hj_evaluate_matches_the_fraction_route(pair):
    chain = hj_expand(*pair)
    assert hj_evaluate(chain) == fraction_hj_evaluate(chain) == pair


def test_hj_rejects_bad_input():
    with pytest.raises(InputError):
        hj_expand(1, 1)
    with pytest.raises(InputError):
        hj_expand(4, 2)  # not coprime
    with pytest.raises(InputError):
        hj_expand(3, 3)
    with pytest.raises(InputError):
        hj_evaluate([])
    with pytest.raises(InputError):
        hj_evaluate([2, 1, 2])


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def test_negative_definite_matches_minor_oracle():
    rng = random.Random(SEED)
    seen_true = seen_false = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = _random_tree_matrix(rng, n)
        expected = negdef_oracle(m)
        assert negative_definite(m) == expected
        seen_true += expected
        seen_false += not expected
    assert seen_true > 20 and seen_false > 20  # both branches exercised


def test_negative_definite_on_bci_matrices():
    for exps in all_small_multisets():
        m = bci_graph(bci_data(exps)).intersection_matrix()
        assert negative_definite(m)
        assert negdef_oracle(m)


def test_negative_definite_simple_cases():
    assert negative_definite([[-1]])
    assert not negative_definite([[0]])
    assert not negative_definite([[1]])
    assert negative_definite([[-2, 1], [1, -2]])
    assert not negative_definite([[-2, 1], [1, 0]])
    assert not negative_definite([[-1, 1], [1, -1]])  # singular


def test_negative_definite_takes_integer_entries_alone():
    # int() truncated -0.5 to 0 and answered False for a definite matrix
    with pytest.raises(InputError, match="^-0.5 is not an integer$"):
        negative_definite([[-0.5]])
    assert negative_definite([[-2.0, Fraction(1)], [True, -2]])


@PROPERTY
@given(weighted_trees())
@example(([(-1, 0), (-1, 0)], [(0, 1)]))                        # singular
@example(([(-2, 0)] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)]))     # affine D4
@example(([(-2, 0), (-1, 0), (-2, 0)], [(2, 1), (1, 0)]))       # last pivot 0
def test_pivot_signs_agree_with_bareiss_and_minors(tree):
    # self-intersections up to +1 give zero pivots and indefinite matrices
    vertices, edges = tree
    m = _tree_matrix(vertices, edges)
    expected = negative_definite(m)
    assert negdef_oracle(m) == expected
    rhs = [0] * len(vertices)
    if expected:
        assert fraction_pivot_solve(m, rhs) == rhs
    else:
        with pytest.raises(InputError, match="^intersection matrix is not "
                                             "negative definite$"):
            fraction_pivot_solve(m, rhs)


@PROPERTY
@given(seifert_invariants())
def test_center_determinant_is_degree_times_alphas(seifert):
    # det(-I) of a star is deg D times the product of its alphas, so a star
    # is negative definite exactly when deg D > 0
    graph = star_graph(seifert)
    alphas = math.prod(a for a, _ in seifert.arms)
    negated = [[-x for x in row] for row in graph.intersection_matrix()]
    assert bareiss_det(negated) == seifert.deg_divisor() * alphas


@PROPERTY
@given(tree_systems())
@example(([(-1, 0), (-1, 0)], [(0, 1)], [1, 0]))                    # singular
@example(([(-2, 0)] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
          [0, 1, 0, 0, 0]))                                          # affine D4
@example(([(-2, 0), (-1, 0), (-2, 0)], [(2, 1), (1, 0)], [1, 2, 3]))  # last pivot 0
@example(([(-2, 0), (1, 0)], [(0, 1)], [1, 1]))                     # indefinite
def test_fraction_pivots_match_gauss_jordan(system):
    # the two solves that the dual and canonical cycles are checked against
    vertices, edges, rhs = system
    m = _tree_matrix(vertices, edges)
    if not negative_definite(m):
        with pytest.raises(InputError, match="^intersection matrix is not "
                                             "negative definite$"):
            fraction_pivot_solve(m, rhs)
        if bareiss_det(m) == 0:
            with pytest.raises(InternalInvariantError):
                solve_exact(m, rhs)
        return
    x = fraction_pivot_solve(m, rhs)
    assert x == solve_exact(m, rhs)
    assert all(type(c) is int for c in x if c == int(c))


def test_solve_exact_random_systems():
    rng = random.Random(SEED + 1)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = _random_tree_matrix(rng, n)
        for i in range(n):
            m[i][i] = rng.randint(-5, -2)
        if not negative_definite(m):
            continue
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        x = solve_exact(m, rhs)
        for i in range(n):
            assert sum(Fraction(m[i][j]) * x[j] for j in range(n)) == rhs[i]


# ---------------------------------------------------------------------------
# rational cycles
# ---------------------------------------------------------------------------


def test_qcycle_normalization_and_ops():
    c = QCycle([Fraction(4, 2), Fraction(1, 3), 0])
    assert c.coeffs == (2, Fraction(1, 3), 0)
    assert isinstance(c.coeffs[0], int)
    assert not c.is_integral
    assert c.is_effective
    assert c.support == (0, 1)
    d = 3 * c
    assert d.coeffs == (6, 1, 0)
    assert d.is_integral and d.as_integers() == (6, 1, 0)
    assert (d - d).is_zero
    assert QCycle([1, 1, 0]) <= d
    assert not (d <= QCycle([1, 1, 0]))
    assert (-c).coeffs == (-2, Fraction(-1, 3), 0)
    assert json_map_text(c.coeffs) == '{"0":2,"1":"1/3","2":0}'


def test_qcycle_is_immutable():
    c = QCycle([1])
    with pytest.raises(AttributeError):
        c.coeffs = (2,)


def test_qcycle_as_integers_rejects_fractions():
    with pytest.raises(InputError):
        QCycle([Fraction(1, 2)]).as_integers()


def test_qcycle_size_mismatch():
    with pytest.raises(InputError):
        QCycle([1, 2]) + QCycle([1])


# ---------------------------------------------------------------------------
# resolution graph validation
# ---------------------------------------------------------------------------


def test_graph_rejects_malformed_input():
    # each graph has a center, and still fails for its named reason
    for vertices, edges, message in (
            ([], [], "^graph needs at least one vertex$"),
            ([(-2, -1)], [], "^genus must be >= 0, got -1$"),
            ([(-2, 0), (-2, 0)], [(0, 0)], "^self-loop at vertex 0$"),
            ([(-2, 0), (-2, 0)], [(0, 2)], r"^edge \(0, 2\) out of range$"),
            ([(-2, 0), (-2, 0)], [], "^graph must be a tree: 2 vertices need 1 "
                                     "edges, got 0$"),
            ([(-2, 0)] * 3, [(0, 1), (0, 1)], r"^duplicate edge \(0, 1\)$"),
            ([(0, 0)], [], "^intersection matrix is not negative definite$")):
        with pytest.raises(InputError, match=message):
            ResolutionGraph(vertices, edges, central=0)
    with pytest.raises(InputError, match="^central vertex 5 out of range$"):
        ResolutionGraph([(-2, 0), (-2, 0), (-2, 0)], [(0, 1), (1, 2)], central=5)
    with pytest.raises(InputError, match=NO_CENTER):
        ResolutionGraph([(-2, 0)], [])


def test_star_validation_rejects_minus_one_chains():
    # a (-1) on an arm must be rejected, not contracted
    with pytest.raises(InputError, match="rejected, not contracted"):
        ResolutionGraph([(-3, 0), (-1, 0)], [(0, 1)], central=0)
    # without a center the same chain is refused; centred at the -1 vertex
    # it is a star, with deg D = 1 - 1/3
    with pytest.raises(InputError, match=NO_CENTER):
        ResolutionGraph([(-3, 0), (-1, 0)], [(0, 1)])
    g = ResolutionGraph([(-3, 0), (-1, 0)], [(0, 1)], central=1)
    assert g.arms() == ((0,),)


def test_star_validation_rejects_positive_genus_arms():
    with pytest.raises(InputError, match="genus"):
        ResolutionGraph([(-2, 0), (-2, 1)], [(0, 1)], central=0)


@pytest.mark.parametrize("vertices, edges, message", [
    # a -1 on the first arm, a genus-1 vertex on the second
    ([(-6, 0), (-2, 0), (-1, 0), (-2, 1)], [(0, 1), (1, 2), (0, 3)],
     "arm vertex 2 has self-intersection -1; chains with -1 vertices are "
     "rejected, not contracted"),
    # the same two faults with the arms swapped
    ([(-6, 0), (-2, 1), (-2, 0), (-1, 0)], [(0, 1), (0, 2), (2, 3)],
     "arm vertex 1 has genus 1"),
    # both faults on one vertex: the genus is named
    ([(-6, 0), (-1, 1)], [(0, 1)], "arm vertex 1 has genus 1"),
])
def test_star_validation_names_the_first_fault_of_the_walk(vertices, edges, message):
    with pytest.raises(InputError) as info:
        ResolutionGraph(vertices, edges, central=0)
    assert str(info.value) == message


def test_arms_require_star_shape():
    # vertex 1 branches away from the center: not star-shaped, though the
    # matrix is negative definite
    assert negative_definite(_tree_matrix([(-3, 0), (-2, 0), (-3, 0), (-3, 0)],
                                          [(0, 1), (1, 2), (1, 3)]))
    with pytest.raises(InputError, match="star"):
        ResolutionGraph([(-3, 0), (-2, 0), (-3, 0), (-3, 0)],
                        [(0, 1), (1, 2), (1, 3)], central=0)


def test_arms_listed_center_outward():
    g = ResolutionGraph([(-2, 0), (-2, 0), (-2, 0), (-2, 0), (-2, 0)],
                        [(0, 1), (0, 2), (2, 3), (3, 4)], central=0)
    assert g.arms() == ((1,), (2, 3, 4))
    assert len(g.neighbors(0)) == 2 and g.neighbors(2) == (0, 3)


def test_branching_vertex_is_named_arm_by_arm():
    # the arm out of vertex 1 branches at vertex 8, the arm out of vertex 2
    # at vertex 2 itself: the first arm's branch is the one named
    edges = [(0, 1), (1, 8), (8, 6), (8, 7), (0, 2), (2, 3), (2, 4), (0, 5)]
    degree = [sum(v in e for e in edges) for v in range(9)]
    vertices = [(-d - 1, 0) for d in degree]
    with pytest.raises(InputError, match="^vertex 8 branches off the central "
                                         "curve; graph is not star-shaped$"):
        ResolutionGraph(vertices, edges, central=0)


def test_central_vertex_range_is_checked_first():
    # out of range is reported before the definiteness error
    for central in (5, -1):
        with pytest.raises(InputError, match="^central vertex %d out of range$"
                                             % central):
            ResolutionGraph([(-2, 0), (-2, 0), (1, 0)], [(0, 1), (1, 2)],
                            central=central)


def _relabelled_star(star):
    """(vertices, edges, central) of the star graph of seifert with vertex v
    renamed label[v]."""
    seifert, label = star
    base = star_graph(seifert)
    vertices = [None] * base.num_vertices
    for v, pair in enumerate(zip(base.selfint, base.genus)):
        vertices[label[v]] = pair
    edges = [(label[i], label[j]) for i, j in base.edges]
    return vertices, edges, label[base.central]


@PROPERTY
@given(st.one_of(relabelled_stars().map(_relabelled_star), centred_trees()))
def test_one_walk_gives_arms_and_layout(case):
    # the constructor's walk from the center lists each arm as one run
    vertices, edges, central = case
    try:
        arms = neighbour_walk_arms(len(vertices), edges, central)
    except InputError as exc:
        with pytest.raises(InputError, match="^%s$" % re.escape(str(exc))):
            ResolutionGraph(vertices, edges, central=central)
        return
    graph = ResolutionGraph(vertices, edges, central=central)
    assert graph.arms() == arms
    walk = graph._walk or tuple(range(graph.num_vertices))
    assert walk == (central,) + sum(arms, ())


@PROPERTY
@given(seifert_invariants())
@example(SeifertInvariant(g=2, c0=1, arms=()))
@example(SeifertInvariant(g=1, c0=3, arms=((5, 2), (1, 0), (7, 3), (5, 2), (2, 1))))
def test_star_graph_is_the_checked_graph_of_its_lists(seifert):
    # star_graph lays its star out with no checks; the public constructor,
    # handed the same vertices and edges one by one, checks and sorts them
    star = star_graph(seifert)
    vertices, edges = star_lists(seifert)
    checked = ResolutionGraph(vertices, edges, central=0)
    assert star.num_vertices == checked.num_vertices
    assert star.selfint == checked.selfint
    assert star.genus == checked.genus
    assert star.edges == checked.edges
    assert star._neighbors == checked._neighbors
    # both keep the identity walk and the same invariant, and list the same
    # arms, star_graph only on the first read
    assert star._walk is checked._walk is None
    assert seifert_of_graph(star) == seifert_of_graph(checked)
    assert star._seifert.arm_runs == checked._seifert.arm_runs
    assert star._seifert.chains == checked._seifert.chains
    assert "_arms" not in vars(star)
    assert star.arms() == checked.arms()
    assert star == checked


def _plain_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _vertex_maps(size):
    """Int, Fraction and mixed values on size vertices, with the plain
    vertex-id-keyed dict of each: an integral value, a Fraction such as
    Fraction(2, 2) too, as a JSON int, and any other as "p/q"."""
    ints = [(-1) ** i * (i * 7919 % 1009) for i in range(size)]
    ints[size // 2:size // 2 + 2] = [2 ** 64, -(2 ** 64)][:size - size // 2]
    for values in (ints, tuple(ints), list(range(-3, size - 3)),
                   [Fraction(i - 5, 3) for i in range(size)],
                   [Fraction(i, 2) if i % 3 else -i for i in range(size)]):
        yield values, {str(i): int(v) if v == int(v) else str(v)
                       for i, v in enumerate(values)}


@pytest.mark.parametrize("size", [0, 1, 199, 4095, 4096, 4097, 4396])
def test_json_map_keys_each_value_by_its_vertex_id(size):
    for values, expected in _vertex_maps(size):
        assert json_map_text(values) == _plain_json(expected)


@pytest.mark.parametrize("size", [0, 1, 2, 10, 11, 100, 101, 1000, 1001])
def test_json_map_text_is_the_json_of_json_map(size):
    # the sorted-string key order crosses each power of ten: "1", "10", "100"
    for values, expected in _vertex_maps(size):
        assert json_map_text(values) == _plain_json(expected)


# -- report values and reports ----------------------------------------------


def test_report_value_writes_each_type_one_way():
    # ints, bools, strings, None and lists pass as they are
    listed = [1, (2, Fraction(1, 2))]
    assert [report_value(v) for v in (3, True, "s", None)] == [3, True, "s", None]
    assert report_value(listed) is listed
    # a tuple is a list at any depth, and a Fraction its exact_json, "p"
    # when integral
    nested = ((1, Fraction(1, 2)), (), (Fraction(4, 2),))
    assert report_value(nested) == [[1, "1/2"], [], ["2"]]
    assert report_value(Fraction(-2, 3)) == "-2/3" and report_value(Fraction(6, 3)) == "2"
    # a cycle is its pre-written vertex map, keys "0", "1", "10", "11", "2", ...
    cycle = QCycle([2, Fraction(1, 3), 0] + [1] * 9)
    written = report_value(cycle)
    assert type(written) is _Prewritten and written.text == json_map_text(cycle.coeffs)
    assert written == {str(i): exact_json(c) for i, c in enumerate(cycle)}
    # anything else is a nested report
    report = pg_max(bci_data((2, 3, 7)).seifert)
    assert report_value((report,)) == [report.to_json_dict()]


@dataclass(frozen=True)
class _Report:
    series: HilbertSeries
    pairs: tuple
    cycle: QCycle


def test_report_json_writes_one_entry_per_field():
    report = _Report(HilbertSeries([1, 0, -1], (2, 1)), ((1, 2),), QCycle([1, Fraction(2, 3)]))
    assert report_json(report, pairs="pair_list") == {
        "series_numerator": [1, 0, -1], "series_denominator_factors": [1, 2],
        "series": "(1 - t^2) / ((1 - t)(1 - t^2))",
        "pair_list": [[1, 2]], "cycle": {"0": 1, "1": "2/3"}}


_CAVEAT = ("m0 = z0 compares only the central multiplicities; models with m0 = z0 and "
           "maximal ideal cycle different from the fundamental cycle exist on this very "
           "graph type")
_A2 = ([(-2, 0)] * 2, [(0, 1)], 0)  # the A_2 chain, centred at one end


@pytest.mark.parametrize("build, expected", [
    (lambda: bci_data((4, 2, 3, 3)), {
        "exponents": [2, 3, 3, 4], "input_positions": [1, 2, 3, 0], "ell": 12,
        "e": [6, 4, 4, 3], "alpha_i": [1, 1, 1, 2], "alpha": 2, "ghat": 6,
        "ghat_i": [3, 2, 2, 3], "beta_i": [0, 0, 0, 1], "g": 2, "c0": 2}),
    (lambda: cycle_report(ResolutionGraph(*_A2), QCycle([1, 1])), {
        "coefficients": {"0": 1, "1": 1}, "products": {"0": -1, "1": -1},
        "self_intersection": -2, "pa": 0}),
    # the dual of the center: fractional, so no p_a; its products are the
    # integral Fractions -1 and 0, written as JSON ints like any integral value
    (lambda: cycle_report(ResolutionGraph(*_A2), dual_cycle(ResolutionGraph(*_A2), 0)), {
        "coefficients": {"0": "2/3", "1": "1/3"}, "products": {"0": -1, "1": 0},
        "self_intersection": "-2/3", "pa": None}),
    (lambda: pg_max(bci_data((2, 3, 7)).seifert), {
        "value": 1, "exact": True,
        "reason": "determined by degrees for central genus <= 1"}),
    (lambda: pg_max(bci_data((2, 3, 3, 4)).seifert), {
        "value": 10, "exact": True, "reason": "realized by a hyperelliptic-type structure"}),
    (lambda: pg_max(SeifertInvariant(g=2, c0=1, arms=((2, 1), (3, 1)))), {
        "value": 26, "exact": False, "reason": "upper bound model only"}),
    (lambda: mz_criterion_weighted(BciModel(bci_data((2, 3, 3, 4)))), {
        "kind": "bci", "verdict": False, "exact": True, "z0": 2, "m0": 3, "e_m": 3,
        "alpha": 2, "h0_alpha_nonzero": False}),
    (lambda: mz_criterion_weighted(HyperellipticMaxModel(bci_data((2, 3, 3, 4)).seifert)), {
        "kind": "model", "verdict": True, "exact": False, "z0": 2, "m0": 2,
        "h0_witness": 1, "caveat": _CAVEAT}),
    (lambda: case_study_2334(1, 1, 1, 1), {
        "overrides": {"h3": 1, "h4": 1, "h5": 1, "h7": 1},
        "h0_head": [1, 0, 1, 1, 1, 1, 2, 1, 3, 2, 4, 3], "deficiencies": [[4, 1], [7, 1]],
        "series_numerator": [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
        "series_denominator_factors": [2, 3],
        "series": "(1 + t^8 + t^10) / ((1 - t^2)(1 - t^3))",
        "pg": 8, "second_generator_degree": 3, "multiplicity": 3,
        "generator_degrees": [2, 3, 8, 10], "embedding_dimension": 4, "gorenstein": False,
        "value_semigroup_generators": [3, 8, 10], "z0": 2, "m0": 2,
        "mz": {"kind": "model", "verdict": True, "exact": False, "z0": 2, "m0": 2,
               "h0_witness": 1, "caveat": _CAVEAT},
        "abhyankar_bound": 4, "sally_bound": None,
        "hypotheses": ["maximal ideal cycle = fundamental cycle (h0(D_2) = 1 with the "
                       "degree-2 section generic)",
                       "multiplicity read off the second generator degree assumes the "
                       "corresponding linear system is basepoint-free"]}),
    (max_type_2334, {
        "pg": 10, "m_cycle": {"0": 2, "1": 2, "2": 1, "3": 1}, "minus_m_squared": 4,
        "multiplicity_lower_bound": 3, "multiplicity": 4, "generator_degrees": [2, 3, 4, 10],
        "relation_degrees": [6, 20], "embedding_dimension": 4, "gorenstein": True,
        "complete_intersection": True,
        "series_numerator": [1] + [0] * 5 + [-1] + [0] * 13 + [-1] + [0] * 5 + [1],
        "series_denominator_factors": [2, 3, 4, 10],
        "series": "(1 - t^6 - t^20 + t^26) / ((1 - t^2)(1 - t^3)(1 - t^4)(1 - t^10))",
        "z0": 2, "m0": 2, "caveat": _CAVEAT}),
], ids=["brieskorn-data", "cycle-integral", "cycle-fractional", "pgmax-genus-0",
        "pgmax-hyperelliptic", "pgmax-bound", "mz-bci", "mz-model", "case-2334",
        "max-type"])
def test_report_json_is_the_literal_report(build, expected):
    # the dict equals the literal, and the encoder writes the literal's bytes
    written = build().to_json_dict()
    assert written == expected
    assert _dumps(written) == _plain_json(expected)


def _plain_graph_json(graph):
    return _plain_json({"vertices": [{"selfint": s, "genus": g}
                                     for s, g in zip(graph.selfint, graph.genus)],
                        "edges": [list(e) for e in graph.edges],
                        "central": graph.central})


@PROPERTY
@given(relabelled_stars().map(_relabelled_star))
def test_graph_json_is_the_json_of_its_lists(case):
    # relabelled stars mostly walk their arms in an order that is not the
    # identity
    graph = ResolutionGraph(*case)
    assert graph.to_json() == _plain_graph_json(graph)
    assert ResolutionGraph.from_json(graph.to_json()) == graph


def test_graph_json_of_a_relabelled_star_and_a_tree_without_a_center():
    seifert = SeifertInvariant(g=1, c0=3, arms=((5, 2), (7, 3), (5, 2), (2, 1)))
    vertices, edges, central = _relabelled_star(
        (seifert, [3, 0, 8, 1, 7, 2, 6, 4, 5]))
    star = ResolutionGraph(vertices, edges, central)
    assert star._walk is not None and star.central == 3
    assert star.to_json() == _plain_graph_json(star)
    # a tree without a center is refused; centred at its genus-1 vertex it
    # is a star
    text = ('{"central":%s,"edges":[[0,1],[1,2]],"vertices":[{"genus":0,"selfint":-2},'
            '{"genus":1,"selfint":-3},{"genus":0,"selfint":-2}]}')
    with pytest.raises(InputError, match=NO_CENTER):
        ResolutionGraph.from_json(text % "null")
    with pytest.raises(InputError, match=NO_CENTER):
        ResolutionGraph([(-2, 0), (-3, 1), (-2, 0)], [(1, 0), (2, 1)])
    tree = ResolutionGraph([(-2, 0), (-3, 1), (-2, 0)], [(1, 0), (2, 1)], central=1)
    assert tree.to_json() == _plain_graph_json(tree) == text % 1


def _construction_error(vertices, edges, central):
    try:
        ResolutionGraph(vertices, edges, central)
    except InputError as exc:
        return str(exc)
    return None


@PROPERTY
@given(seifert_invariants(), st.integers(0, 3))
@example(SeifertInvariant(g=0, c0=2, arms=((2, 1), (2, 1))), 1)   # deg D = 0
@example(SeifertInvariant(g=1, c0=1, arms=((3, 1), (1, 0))), 1)   # deg D = -1/3
@example(SeifertInvariant(g=0, c0=1, arms=()), 1)                  # a 0-curve
@example(SeifertInvariant(g=2, c0=1, arms=()), 3)                  # a +2-curve
def test_star_definiteness_is_read_off_its_invariant(seifert, raise_center):
    # the star of seifert with the center's self-intersection raised, so
    # that deg D <= 0 on some draws: the constructor reads definiteness off
    # the invariant, and agrees with Bareiss elimination of the matrix
    vertices, edges = star_lists(seifert)
    vertices[0] = (vertices[0][0] + raise_center, vertices[0][1])
    error = _construction_error(vertices, edges, 0)
    definite = negative_definite(_tree_matrix(vertices, edges))
    assert error == (None if definite else "intersection matrix is not negative definite")
    period, shift = seifert.degree_period
    assert definite == (shift - raise_center * period > 0)
    assert _construction_error(vertices, edges, None) == "graph has no central vertex"


def test_pairing_and_products():
    g = ResolutionGraph([(-2, 0), (-3, 0)], [(0, 1)], central=0)
    assert g.pairing([1, 0], [0, 1]) == 1
    assert g.pairing([1, 1], [1, 1]) == -2 - 3 + 2
    assert g.product_with_vertex([1, 1], 0) == -1
    assert g.canonical_product([0, 1]) == 1  # K.E_1 = -E_1^2 - 2
    assert g.canonical_product([1, 1]) == 0 + 1


def _dense_pairing(graph, a, b):
    matrix = graph.intersection_matrix()
    n = graph.num_vertices
    return sum(a[i] * matrix[i][j] * b[j] for i in range(n) for j in range(n)
               if matrix[i][j])


STARS = st.one_of(
    seifert_invariants().map(star_graph),
    relabelled_stars().map(lambda star: ResolutionGraph(*_relabelled_star(star))))


@PROPERTY
@given(STARS, st.data())
def test_pairing_is_the_dense_form(graph, data):
    n = graph.num_vertices
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))
    a = data.draw(st.lists(entry, min_size=n, max_size=n))
    b = data.draw(st.lists(entry, min_size=n, max_size=n))
    assert graph.pairing(a, b) == _dense_pairing(graph, a, b) == graph.pairing(b, a)
    for x, y in ((a[:-1], b), (a + [0], b), (a, b[:-1]), (a, b + [0])):
        with pytest.raises(InputError, match="coefficients on a graph with"):
            graph.pairing(x, y)


@PROPERTY
@given(STARS, st.data())
def test_genus_and_multiplicity_bound_are_the_dense_formulas(graph, data):
    n = graph.num_vertices
    effective = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    c, z = data.draw(effective), data.draw(effective)
    c_square = _dense_pairing(graph, c, c)
    canonical = sum(x * (-s - 2 + 2 * g)
                    for x, s, g in zip(c, graph.selfint, graph.genus))
    assert arithmetic_genus(graph, c) == 1 + Fraction(c_square + canonical, 2)
    bound = multiplicity_bound(graph, c, z)
    assert bound.minus_square == -c_square
    assert bound.lower_bound == 1 - _dense_pairing(graph, z, z)


# ---------------------------------------------------------------------------
# Seifert invariants
# ---------------------------------------------------------------------------


def test_seifert_validation():
    with pytest.raises(InputError):
        SeifertInvariant(g=-1, c0=2, arms=())
    with pytest.raises(InputError):
        SeifertInvariant(g=0, c0=2, arms=((1, 1),))
    with pytest.raises(InputError):
        SeifertInvariant(g=0, c0=2, arms=((4, 2),))  # not reduced
    with pytest.raises(InputError):
        SeifertInvariant(g=0, c0=1, arms=((2, 1), (2, 1)))  # degree 0
    # an arm that is not a pair is refused by name, not by a bare TypeError
    # or ValueError from unpacking it
    for arm in ((2,), (2, 1, 0), 2):
        with pytest.raises(InputError, match=r"^arm %s is not an \(alpha, beta\) pair$"
                           % re.escape(repr(arm))):
            SeifertInvariant(g=0, c0=2, arms=((3, 1), arm))
    # an alpha = 1 arm is checked, then dropped
    s = SeifertInvariant(g=0, c0=2, arms=((2, 1), (1, 0)))
    assert s.deg_divisor() == Fraction(3, 2)
    assert s.arms == ((2, 1),) and s.arm_runs == (((2, 1), 1),)


def test_seifert_arms_become_pairs_of_ints():
    # each distinct arm is normalised once, equal arms of other types come
    # out as the same pair of ints and join one run, and the alpha = 1 arm
    # is dropped
    s = SeifertInvariant(g=0, c0=3, arms=[[Fraction(2), 1], (2, True), (3, 2),
                                          (3.0, 2), (1, 0)])
    assert s.arms == ((2, 1), (2, 1), (3, 2), (3, 2))
    assert s.arm_runs == (((2, 1), 2), ((3, 2), 2))
    assert {type(x) for arm in s.arms for x in arm} == {int}


@pytest.mark.parametrize("build", [
    lambda: SeifertInvariant(g=0, c0=2, arms=((2.5, 1), (3, 1), (5, 1))),
    lambda: SeifertInvariant(g=0.5, c0=2, arms=((2, 1),)),
    lambda: SeifertInvariant(g=0, c0=1.5, arms=((2, 1),)),
    lambda: ResolutionGraph([(-2.5, 0), (-3, 0.9)], [(0, 1.7)], central=0.2),
    lambda: bci_data((2.9, 3, 5)),
    lambda: NumericalSemigroup([2.5, 3]),
    lambda: HilbertSeries.from_terms([(0, 1), (2.5, -1)], [2]),
    lambda: HilbertSeries([1, -1], [Fraction(5, 2)]),
    lambda: IntPolynomial([1, 0.5]),
], ids=["arm", "g", "c0", "graph", "exponents", "generators", "terms",
        "factors", "coefficients"])
def test_non_integral_numbers_are_refused_not_truncated(build):
    with pytest.raises(InputError, match="is not an integer$"):
        build()


@PROPERTY
@given(seifert_arm_lists())
@example((0, 3, ((2, 1), (1, 0), (2, 1), (3, 1), (2, 1))))
def test_arm_runs_group_equal_neighbours(drawn):
    # the drawn arms come permuted, so equal types are often not adjacent;
    # the alpha = 1 arm above joins its neighbours into one run
    g, c0, arms = drawn
    seifert = SeifertInvariant(g, c0, arms)
    runs = per_arm_runs(arms)
    assert seifert.arm_runs == tuple(map(tuple, runs))
    assert seifert.arms == tuple(a for a in arms if a[0] >= 2)
    counts = {}
    for arm in seifert.arms:
        counts[arm] = counts.get(arm, 0) + 1
    assert seifert.arm_types == counts
    assert list(seifert.arm_types) == list(counts)
    assert seifert.chains == {arm: tuple(hj_expand(*arm)) for arm in counts}


def test_a_graph_without_a_center_has_no_invariant():
    # no graph without a center is built, from lists or from JSON, so every
    # graph has an invariant to read
    with pytest.raises(InputError, match=NO_CENTER):
        ResolutionGraph([(-2, 0), (-2, 0)], [(0, 1)])
    text = ResolutionGraph([(-2, 0), (-2, 0)], [(0, 1)], central=0).to_json()
    for blob in (text.replace('"central":0', '"central":null'),
                 text.replace('"central":0,', '')):
        with pytest.raises(InputError, match=NO_CENTER):
            ResolutionGraph.from_json(blob)
    g = ResolutionGraph.from_json(text)
    assert pg_max(g).value == 0
    assert seifert_of_graph(g).arms == ((2, 1),) and g.arms() == ((1,),)


@pytest.mark.parametrize("read", [lambda s, n: s.deg(n),
                                  lambda s, n: list(s.degrees(n)),
                                  lambda s, n: s.deg_sum(n)],
                         ids=["deg", "degrees", "deg_sum"])
def test_degree_indices_are_exact_integers(read):
    # a fractional index is refused by name; an integral float is its
    # integer, and the degrees stay ints (repr tells 2 from 2.0)
    seifert = SeifertInvariant(g=0, c0=2, arms=((2, 1), (3, 2), (5, 4)))
    with pytest.raises(InputError, match="^2.5 is not an integer$"):
        read(seifert, 2.5)
    assert repr(read(seifert, 4.0)) == repr(read(seifert, 4))


def test_e8_graph_from_seifert():
    s = SeifertInvariant(g=0, c0=2, arms=((2, 1), (3, 2), (5, 4)))
    g = star_graph(s)
    assert g.num_vertices == 8
    assert all(b == -2 for b in g.selfint)
    assert tuple(len(a) for a in g.arms()) == (1, 2, 4)
    # the (2,3,5) Brieskorn sphere resolves to the same graph
    assert bci_graph(bci_data((2, 3, 5))) == g


def test_alpha_one_arms_emit_no_vertices():
    s = SeifertInvariant(g=1, c0=1, arms=((1, 0), (1, 0)))
    g = star_graph(s)
    assert g.num_vertices == 1
    assert seifert_of_graph(g).arms == ()


def test_seifert_round_trip_random():
    rng = random.Random(SEED + 2)
    from math import gcd
    built = 0
    while built < 120:
        arms = []
        for _ in range(rng.randint(0, 6)):
            a = rng.randint(1, 50)
            if a == 1:
                arms.append((1, 0))
            else:
                b = rng.choice([x for x in range(1, a) if gcd(a, x) == 1])
                arms.append((a, b))
        slack = rng.randint(1, 3)
        c0 = slack + int(sum(Fraction(b, a) for a, b in arms))
        s = SeifertInvariant(g=rng.randint(0, 3), c0=c0, arms=tuple(arms))
        assert seifert_of_graph(star_graph(s)) == s
        # the checked constructor reads the same invariant off the graph
        g = ResolutionGraph.from_json(star_graph(s).to_json())
        assert seifert_of_graph(g) == s
        built += 1


# ---------------------------------------------------------------------------
# distinguished rational cycles
# ---------------------------------------------------------------------------


def test_dual_cycle_identity_small_graphs():
    for exps in ((2, 3, 5), (2, 3, 3, 4), (2, 2, 2), (3, 4, 5)):
        g = bci_graph(bci_data(exps))
        for j in range(g.num_vertices):
            w = dual_cycle(g, j)
            for i in range(g.num_vertices):
                assert g.product_with_vertex(w, i) == (-1 if i == j else 0)


def _assert_dual_is_the_solve(graph, j, matrix):
    """dual_cycle(graph, j) against the Fraction-pivot solve of
    W.E_i = -delta_ij on the graph's matrix, coefficient types included."""
    rhs = [0] * graph.num_vertices
    rhs[j] = -1
    expected = fraction_pivot_solve(matrix, rhs)
    w = dual_cycle(graph, j)
    assert list(w) == expected, j
    assert list(map(type, w)) == list(map(type, expected)), j


def test_dual_cycle_is_the_solve_on_the_corpus(corpus200):
    # every vertex of the graphs with at most 40 vertices, and the center
    # and three other vertices of the larger ones
    rng = random.Random(SEED + 3)
    for exponents in corpus200:
        graph = bci_graph(bci_data(exponents))
        n, matrix = graph.num_vertices, graph.intersection_matrix()
        for j in range(n) if n <= 40 else [0] + rng.sample(range(1, n), 3):
            _assert_dual_is_the_solve(graph, j, matrix)


@PROPERTY
@given(relabelled_stars())
@example((SeifertInvariant(g=0, c0=1, arms=()), [0]))
def test_dual_cycle_of_a_relabelled_star_is_the_solve(star):
    # through the public constructor, with the center and arms anywhere
    graph = ResolutionGraph(*_relabelled_star(star))
    matrix = graph.intersection_matrix()
    for j in range(graph.num_vertices):
        _assert_dual_is_the_solve(graph, j, matrix)


@PROPERTY
@given(STARS, st.data())
def test_dual_sum_is_the_sum_of_dual_cycles(graph, data):
    # the duals of the listed vertices add up to one solve of the summed
    # right-hand side
    n = graph.num_vertices
    listed = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    rhs = [-listed.count(i) for i in range(n)]
    total = QCycle.zero(n)
    for j in listed:
        total = total + dual_cycle(graph, j)
    assert list(total) == fraction_pivot_solve(graph.intersection_matrix(), rhs)
    assert graph.products(total.coeffs) == rhs


@pytest.mark.parametrize("j, message", [
    (-1, "^vertex -1 out of range for a graph with 8 vertices$"),
    (8, "^vertex 8 out of range for a graph with 8 vertices$"),
    (1.5, "^1.5 is not an integer$"),
], ids=["negative", "past-the-end", "fractional"])
def test_dual_cycle_refuses_a_vertex_outside_the_graph(j, message):
    graph = bci_graph(bci_data((2, 3, 5)))
    with pytest.raises(InputError, match=message):
        dual_cycle(graph, j)


def test_dual_cycle_takes_an_integral_vertex_of_any_type():
    # as everywhere in the library, True is the integer 1 and Fraction(2)
    # the integer 2; the cycle is the same
    graph = bci_graph(bci_data((2, 3, 5)))
    assert dual_cycle(graph, True) == dual_cycle(graph, 1)
    assert dual_cycle(graph, Fraction(2)) == dual_cycle(graph, 2.0) == dual_cycle(graph, 2)


def test_canonical_cycle_goldens():
    g = bci_graph(bci_data((2, 3, 3, 4)))
    zk = canonical_cycle(g)
    assert zk == QCycle([8, 4, 4, 4])
    assert is_numerically_gorenstein(g)
    # adjunction at every vertex: (K + Z_K) . E_i = 0, K.E_i = -E_i^2 - 2 + 2g_i
    for i in range(g.num_vertices):
        assert -g.selfint[i] - 2 + 2 * g.genus[i] == -g.product_with_vertex(zk, i)


@PROPERTY
@given(STARS)
@example(ResolutionGraph([(-3, 0)], [], central=0))
def test_canonical_cycle_of_a_star_is_the_solve(graph):
    # the closed form on the Seifert invariant against the Fraction-pivot
    # and Gauss-Jordan solves of Z_K.E_i = -K.E_i, by adjunction, coefficient
    # types included; the relabelled stars come through the public
    # constructor with a non-identity layout
    rhs = [s + 2 - 2 * g for s, g in zip(graph.selfint, graph.genus)]
    matrix = graph.intersection_matrix()
    solved = fraction_pivot_solve(matrix, rhs)
    zk = canonical_cycle(graph)
    assert list(zk) == solved == solve_exact(matrix, rhs)
    assert list(map(type, zk)) == list(map(type, solved))


def test_cyclic_quotient_not_numerically_gorenstein():
    g = ResolutionGraph([(-3, 0)], [], central=0)
    # Z_K . E = -K . E = E^2 + 2 = -1, so Z_K = (1/3) E: not integral
    zk = canonical_cycle(g)
    assert zk.coeffs == (Fraction(1, 3),)
    assert not is_numerically_gorenstein(g)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    g = bci_graph(bci_data((2, 3, 3, 4)))
    assert ResolutionGraph.from_json(g.to_json()) == g
    blob = json.loads(g.to_json())
    assert blob["central"] == 0
    assert len(blob["vertices"]) == 4
    g2 = ResolutionGraph.from_json_dict(blob)
    assert g2 == g and hash(g2) == hash(g)


def test_json_rejects_malformed():
    with pytest.raises(InputError):
        ResolutionGraph.from_json("{not json")
    with pytest.raises(InputError):
        ResolutionGraph.from_json_dict({"vertices": [{"selfint": -2}]})
    # each of these is a one-field edit of a valid two-vertex serialization
    good = {"vertices": [{"selfint": -2, "genus": 0}, {"selfint": -3, "genus": 1}],
            "edges": [[0, 1]], "central": 1}
    assert ResolutionGraph.from_json(json.dumps(good)).central == 1
    for vertex, field, value in ((None, "edges", [[0]]), (None, "edges", 5),
                                 (0, "selfint", "x"), (None, "central", "a"),
                                 (0, "selfint", -2.5)):
        blob = json.loads(json.dumps(good))
        (blob["vertices"][vertex] if vertex is not None else blob)[field] = value
        with pytest.raises(InputError, match="malformed graph serialization"):
            ResolutionGraph.from_json(json.dumps(blob))


def test_dot_output():
    g = bci_graph(bci_data((2, 3, 3, 4)))
    dot = g.to_dot()
    assert dot.startswith("graph resolution {") and dot.endswith("}")
    assert dot.count("doublecircle") == 1
    assert "v0 -- v1;" in dot
    assert "g=2" in dot  # central genus label
