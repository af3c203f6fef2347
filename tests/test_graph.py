"""Graphs, continued fractions, exact linear algebra, Seifert round trips."""

import json
import math
import random
import re
from fractions import Fraction

import pytest

from brieskorn import (InputError, InternalInvariantError, QCycle,
                       ResolutionGraph, SeifertInvariant, canonical_cycle,
                       dual_cycle, dual_sum, hj_evaluate, hj_expand,
                       is_numerically_gorenstein, negative_definite,
                       seifert_of_graph, star_graph)
from brieskorn.bci import bci_data, bci_graph
from brieskorn.graph import _solve_on_graph

from conftest import SEED, all_small_multisets
from oracles import (bareiss_det, fraction_hj_evaluate, fraction_pivot_solve,
                     neighbour_walk_arms, solve_exact)
from properties import (PROPERTY, centred_trees, example, given,
                        relabelled_stars, seifert_invariants, st, tree_systems,
                        weighted_trees)

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


def _graph_or_none(tree):
    try:
        return ResolutionGraph(*tree)
    except InputError:
        return None


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
    if expected:
        assert ResolutionGraph(vertices, edges).num_vertices == len(vertices)
    else:
        with pytest.raises(InputError, match="^intersection matrix is not "
                                             "negative definite$"):
            ResolutionGraph(vertices, edges)


@PROPERTY
@given(st.one_of(
    weighted_trees(-5, -2).map(_graph_or_none).filter(lambda g: g is not None),
    seifert_invariants().map(star_graph)))
def test_root_determinant_is_the_bareiss_determinant(graph):
    # the walk starts at the center of a star, and at vertex 0 otherwise
    root = graph._order[0]
    assert root == (0 if graph.central is None else graph.central)
    negated = [[-x for x in row] for row in graph.intersection_matrix()]
    assert graph._det[root] == bareiss_det(negated)


@PROPERTY
@given(seifert_invariants())
def test_center_determinant_is_degree_times_alphas(seifert):
    graph = star_graph(seifert)
    alphas = math.prod(a for a, _ in seifert.arms)
    assert graph._det[graph.central] == seifert.deg_divisor() * alphas


@PROPERTY
@given(tree_systems())
@example(([(-1, 0), (-1, 0)], [(0, 1)], [1, 0]))                    # singular
@example(([(-2, 0)] * 5, [(0, 1), (0, 2), (0, 3), (0, 4)],
          [0, 1, 0, 0, 0]))                                          # affine D4
@example(([(-2, 0), (-1, 0), (-2, 0)], [(2, 1), (1, 0)], [1, 2, 3]))  # last pivot 0
@example(([(-2, 0), (1, 0)], [(0, 1)], [1, 1]))                     # indefinite
def test_integer_solve_matches_fraction_pivots_and_gauss_jordan(system):
    vertices, edges, rhs = system
    m = _tree_matrix(vertices, edges)
    if not negative_definite(m):
        with pytest.raises(InputError, match="^intersection matrix is not "
                                             "negative definite$"):
            ResolutionGraph(vertices, edges)
        with pytest.raises(InputError):
            fraction_pivot_solve(m, rhs)
        if bareiss_det(m) == 0:
            with pytest.raises(InternalInvariantError):
                solve_exact(m, rhs)
        return
    x = _solve_on_graph(ResolutionGraph(vertices, edges), rhs)
    expected = fraction_pivot_solve(m, rhs)
    assert x == expected == solve_exact(m, rhs)
    assert list(map(type, x)) == list(map(type, expected))


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
    assert c.coeff_map() == {"0": 2, "1": "1/3", "2": 0}


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
    with pytest.raises(InputError):
        ResolutionGraph([], [])
    with pytest.raises(InputError):
        ResolutionGraph([(-2, -1)], [])  # negative genus
    with pytest.raises(InputError):
        ResolutionGraph([(-2, 0), (-2, 0)], [(0, 0)])  # loop
    with pytest.raises(InputError):
        ResolutionGraph([(-2, 0), (-2, 0)], [(0, 2)])  # out of range
    with pytest.raises(InputError):
        ResolutionGraph([(-2, 0), (-2, 0)], [])  # not a tree
    with pytest.raises(InputError):
        ResolutionGraph([(-2, 0), (-2, 0), (-2, 0)], [(0, 1), (0, 1)])  # dup edge
    with pytest.raises(InputError):
        ResolutionGraph([(0, 0)], [])  # not negative definite
    with pytest.raises(InputError):
        ResolutionGraph([(-2, 0), (-2, 0), (-2, 0)],
                        [(0, 1), (1, 2)], central=5)


def test_star_validation_rejects_minus_one_chains():
    # a (-1) on an arm must be rejected, not contracted
    with pytest.raises(InputError, match="rejected, not contracted"):
        ResolutionGraph([(-3, 0), (-1, 0)], [(0, 1)], central=0)
    # same chain without a central designation is a legal lattice
    g = ResolutionGraph([(-3, 0), (-1, 0)], [(0, 1)])
    assert g.central is None


def test_star_validation_rejects_positive_genus_arms():
    with pytest.raises(InputError, match="genus"):
        ResolutionGraph([(-2, 0), (-2, 1)], [(0, 1)], central=0)


def test_arms_require_star_shape():
    # vertex 1 branches away from the center: not star-shaped
    g = ResolutionGraph([(-3, 0), (-2, 0), (-3, 0), (-3, 0)],
                        [(0, 1), (1, 2), (1, 3)])
    assert negative_definite(g.intersection_matrix())
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


def _below(graph, root, v):
    """The vertices whose path to root runs through v."""
    everything = set(range(graph.num_vertices))
    if v == root:
        return everything
    reached, stack = {root}, [root]
    while stack:
        for w in graph.neighbors(stack.pop()):
            if w != v and w not in reached:
                reached.add(w)
                stack.append(w)
    return everything - reached


def _check_walk(graph, root):
    # the walk is a preorder from the root: each vertex is followed by the
    # rest of its subtree, whose determinant is the graph's D_v
    order = graph._order
    assert order[0] == root and sorted(order) == list(range(graph.num_vertices))
    matrix = graph.intersection_matrix()
    for i, v in enumerate(order):
        below = sorted(_below(graph, root, v))
        assert sorted(order[i:i + len(below)]) == below
        assert graph._det[v] == bareiss_det([[-matrix[a][b] for b in below]
                                             for a in below])


@PROPERTY
@given(st.one_of(relabelled_stars().map(_relabelled_star), centred_trees()))
def test_one_walk_gives_arms_layout_and_subtree_determinants(case):
    vertices, edges, central = case
    plain = ResolutionGraph(vertices, edges)
    _check_walk(plain, 0)
    try:
        arms = neighbour_walk_arms(plain, central)
    except InputError as exc:
        with pytest.raises(InputError, match="^%s$" % re.escape(str(exc))):
            ResolutionGraph(vertices, edges, central=central)
        return
    graph = ResolutionGraph(vertices, edges, central=central)
    _check_walk(graph, central)
    assert graph.arms() == arms
    assert graph._arm_layout.order == (central,) + sum(arms, ())


def test_pairing_and_products():
    g = ResolutionGraph([(-2, 0), (-3, 0)], [(0, 1)])
    assert g.pairing([1, 0], [0, 1]) == 1
    assert g.pairing([1, 1], [1, 1]) == -2 - 3 + 2
    assert g.product_with_vertex([1, 1], 0) == -1
    assert g.canonical_degree(1) == 1
    assert g.canonical_product([1, 1]) == 0 + 1


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
    s = SeifertInvariant(g=0, c0=2, arms=((2, 1), (1, 0)))
    assert s.deg_divisor() == Fraction(3, 2)
    assert s.nontrivial_arms() == ((2, 1),)


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
        g = star_graph(s)
        r = seifert_of_graph(g)
        assert r.g == s.g and r.c0 == s.c0
        assert sorted(r.arms) == sorted(s.nontrivial_arms())
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


@PROPERTY
@given(st.one_of(
    weighted_trees(-5, -2).map(_graph_or_none).filter(lambda g: g is not None),
    seifert_invariants().map(star_graph)), st.data())
def test_dual_sum_is_the_sum_of_dual_cycles(graph, data):
    n = graph.num_vertices
    listed = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    w = dual_sum(graph, listed)
    total = QCycle.zero(n)
    for j in listed:
        total = total + dual_cycle(graph, j)
    assert w == total
    for i in range(n):
        assert graph.product_with_vertex(w, i) == -listed.count(i)


def test_canonical_cycle_goldens():
    g = bci_graph(bci_data((2, 3, 3, 4)))
    zk = canonical_cycle(g)
    assert zk == QCycle([8, 4, 4, 4])
    assert is_numerically_gorenstein(g)
    # adjunction at every vertex: (K + Z_K) . E_i = 0
    for i in range(g.num_vertices):
        assert g.canonical_degree(i) == -g.product_with_vertex(zk, i)


def test_cyclic_quotient_not_numerically_gorenstein():
    g = ResolutionGraph([(-3, 0)], [])
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


def test_dot_output():
    g = bci_graph(bci_data((2, 3, 3, 4)))
    dot = g.to_dot()
    assert dot.startswith("graph resolution {") and dot.endswith("}")
    assert dot.count("doublecircle") == 1
    assert "v0 -- v1;" in dot
    assert "g=2" in dot  # central genus label
