"""Independent brute-force oracles used by the cycle, degree, graph and
acceptance tests.

The fundamental cycle is the componentwise-smallest nonzero anti-nef cycle.
Two oracle routes avoid the production algorithm entirely:

* full-box: enumerate every candidate in a coefficient box and take the
  componentwise minimum of the anti-nef ones (tiny graphs only);

* stratum: on a star-shaped graph, once the central coefficient z0 is fixed
  the anti-nef constraints decouple arm by arm, each arm's feasible set is
  closed under componentwise min, and those minima grow with z0.  The
  fundamental cycle is therefore the assembly at the smallest z0 whose
  central product is <= 0.  Minimal arm vectors here come from box
  enumeration, not from the production recursion.

Production computes the fundamental cycle as the minimal cycle L_{z0};
Laufer's iteration, run on the star itself, is the third route.  The
coordinate cycle of x_i is summed from the duals of its family's arm ends
by one linear solve, against the production minimal cycle L_{e_i}; z0 is
walked degree by degree by a SeifertInvariant built afresh, against the
production min(e_m, alpha) that bci_seifert hands in.

Divisor degrees are summed one arm at a time, against the production sum
over arm types, and taken one deg call per n, against the production sweep
`SeifertInvariant.degrees`.  The orbifold degree c0 - sum(beta/alpha),
Pinkham's cutoff and the value of a continued fraction are taken in
Fractions, against the production integer pair (P, S) =
`SeifertInvariant.degree_period` and the integer continuants; Pinkham's sum is taken one h1 call per degree,
against the production pass over one degree stream.  Series expansion and
division by (1 - t^d) run element by element over the dense numerator,
against the production sparse product over the numerator's nonzero terms,
strided slices and running sums per residue class.  The geometric genus is
counted point by point inside the simplex sum i/a_i <= 1 (m = 3) and summed
from one series expansion, against the production lattice count; the series numerator is
multiplied out factor by factor, against the production binomial form; a
prefix sum of the series coefficients is read from one expansion, against
the production prefix count; and the series is rewritten over the free basis
with a nonnegative numerator, against the production series.
The Apéry set of a numerical semigroup is relaxed sweep after sweep until
it settles, against the production round robin of Böcker and Lipták, one
pass per generator.  Linear systems on trees are solved by dense
Gauss-Jordan elimination and by Fraction pivots eliminated leaf first, one
vertex at a time, against the production dual and canonical cycles, read
off the Seifert invariant with no solve.  Negative definiteness is checked
by fraction-free Bareiss elimination (`brieskorn.graph.negative_definite`),
by leading principal minors (`negdef_oracle` in test_graph.py) and by the
signs of the Fraction pivots, against the sign of deg D that ResolutionGraph
checks, and a star's det(-I) is taken by Bareiss against deg D * prod(alpha).  The arms of a star are
found by walking the neighbour lists out of the center, one arm per
neighbour, against the production split of the graph's single walk.  A
star's vertices and edges are listed one at a time and handed to the public
constructor, which checks and sorts them, against star_graph's layout from
the runs of the Seifert invariant, and those runs are grown one arm at a
time from the drawn arm list, against the runs that the constructor groups.
pgmax at central genus 0 prints the checked p_g, against pg_max's tally
over one period of degrees.  is_antinef and semigroup_equivalence_check are helpers
that only the tests use.
"""

import math
from fractions import Fraction
from itertools import product

from brieskorn.bci import (a_invariant, divisor_degree_semigroup, hilbert_series,
                           weight_semigroup)
from brieskorn.errors import (InputError, InternalInvariantError,
                              ModelInconsistencyError)
from brieskorn.graph import QCycle, hj_expand
from brieskorn.numerics import HilbertSeries, IntPolynomial


def is_antinef(graph, cycle):
    """True iff cycle . E_i <= 0 for every vertex i."""
    return max(graph.products(cycle)) <= 0


def semigroup_equivalence_check(data, n):
    """(n in <e_1..e_m>, deg D_n in <ghat_1..ghat_m>) — the two sides of the
    section-existence criterion; they must agree for every n >= 0."""
    lhs = weight_semigroup(data).contains(n)
    d = data.seifert.deg(n)
    rhs = d >= 0 and divisor_degree_semigroup(data).contains(d)
    return lhs, rhs


def star_lists(seifert):
    """(vertices, edges) of the star of a Seifert invariant, one vertex and
    one edge at a time: the center, then each arm from the center outward,
    every vertex joined to the one before it."""
    vertices = [(-seifert.c0, seifert.g)]
    edges = []
    for alpha, beta in seifert.arms:
        prev = 0
        for c in hj_expand(alpha, beta):
            vertices.append((-c, 0))
            edges.append((prev, len(vertices) - 1))
            prev = len(vertices) - 1
    return vertices, edges


def per_arm_runs(arms):
    """[(alpha, beta), count] runs of equal neighbours among the listed arms
    with alpha >= 2, grown one arm at a time."""
    runs = []
    for arm in arms:
        if arm[0] < 2:
            continue
        if runs and runs[-1][0] == arm:
            runs[-1][1] += 1
        else:
            runs.append([arm, 1])
    return runs


def _products(graph, coeffs):
    return [graph.product_with_vertex(coeffs, i)
            for i in range(graph.num_vertices)]


def full_box_fundamental(graph, bound):
    """Componentwise minimum of all nonzero anti-nef cycles in [0..bound]^n.

    Asserts the minimum is itself anti-nef (min-closure) and strictly inside
    the box, so the box was large enough.
    """
    n = graph.num_vertices
    best = None
    for cand in product(range(bound + 1), repeat=n):
        if not any(cand):
            continue
        if all(p <= 0 for p in _products(graph, cand)):
            best = cand if best is None else tuple(map(min, best, cand))
    assert best is not None, "no anti-nef cycle inside the box"
    assert all(c < bound for c in best), "box too small for a safe minimum"
    assert all(p <= 0 for p in _products(graph, best)), "min-closure failed"
    return best


def _min_arm_vector(chain, z0, bound, _cache={}):
    """Componentwise-minimal arm coefficients feasible against center z0.

    chain holds the arm's self-intersections from the center outward; a
    vector x is feasible when every arm vertex has nonpositive product:
    prev + selfint*x_j + next <= 0 with prev = z0 at the first vertex.
    Brute force over the box, with the same closure and interiority checks.
    """
    key = (chain, z0, bound)
    if key in _cache:
        return _cache[key]
    s = len(chain)
    best = None
    for x in product(range(bound + 1), repeat=s):
        ok = True
        for j in range(s):
            prev = z0 if j == 0 else x[j - 1]
            nxt = x[j + 1] if j + 1 < s else 0
            if prev + chain[j] * x[j] + nxt > 0:
                ok = False
                break
        if ok:
            best = x if best is None else tuple(map(min, best, x))
    assert best is not None, "no feasible arm vector inside the box"
    assert all(c < bound for c in best), "arm box too small"
    for j in range(s):
        prev = z0 if j == 0 else best[j - 1]
        nxt = best[j + 1] if j + 1 < s else 0
        assert prev + chain[j] * best[j] + nxt <= 0, "arm min-closure failed"
    _cache[key] = best
    return best


def star_fundamental_oracle(graph, bound=12):
    """Fundamental cycle of a star-shaped graph by stratum search."""
    c = graph.central
    assert c is not None
    arms = graph.arms()
    chains = [tuple(graph.selfint[v] for v in arm) for arm in arms]
    for z0 in range(1, bound + 1):
        vectors = [_min_arm_vector(chain, z0, bound) for chain in chains]
        central_product = (z0 * graph.selfint[c]
                           + sum(v[0] for v in vectors if v))
        if central_product <= 0:
            coeffs = [0] * graph.num_vertices
            coeffs[c] = z0
            for arm, vec in zip(arms, vectors):
                for v, x in zip(arm, vec):
                    coeffs[v] = x
            return tuple(coeffs)
    raise AssertionError("no feasible central coefficient <= %d" % bound)


def semigroup_sieve(generators, limit):
    """members[n] for 0 <= n <= limit of the semigroup the generators span."""
    members = [False] * (limit + 1)
    members[0] = True
    for g in generators:
        if g <= 0:
            raise ValueError("generators must be positive")
        for i in range(g, limit + 1):
            if members[i - g]:
                members[i] = True
    return members


def apery_relaxation(generators):
    """Smallest member of each residue class mod the least generator, by
    shortest-path relaxation swept over every class and generator until
    nothing changes; None marks a class no member reaches (gcd > 1)."""
    gens = sorted(set(generators))
    a = gens[0]
    dist = [None] * a
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(a):
            if dist[r] is None:
                continue
            for g in gens[1:]:
                nr, nd = (r + g) % a, dist[r] + g
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    changed = True
    return tuple(dist)


def per_arm_deg(seifert, n):
    """deg D_n = n*c0 - sum of ceil(n*beta/alpha), one term per arm."""
    total = n * seifert.c0
    for a, b in seifert.arms:
        if b:
            total -= (n * b + a - 1) // a
    return total


def fraction_degree(seifert):
    """deg D = c0 - sum of beta/alpha, one Fraction per arm."""
    return seifert.c0 - sum(Fraction(b, a) for a, b in seifert.arms)


def fraction_cutoff(seifert):
    """Pinkham's cutoff floor((2g - 2 + #arms) / deg D) + 1, at least 0, with
    #arms counting the arms with alpha >= 2."""
    arm_count = sum(1 for a, _ in seifert.arms if a >= 2)
    bound = Fraction(2 * seifert.g - 2 + arm_count) / fraction_degree(seifert)
    return max(math.floor(bound) + 1, 0)


def fraction_c0(data):
    """c0 = sum of ghat_i*beta_i/alpha_i + prod(a_i)/ell^2, in Fractions."""
    prod_a = math.prod(data.exponents)
    return (sum(Fraction(k * b, x) for k, b, x in zip(data.ghats, data.betas, data.alphas))
            + Fraction(prod_a, data.ell * data.ell))


def fraction_hj_evaluate(chain):
    """alpha/beta = c_1 - 1/(c_2 - 1/(... - 1/c_r)), evaluated from the
    inside out in Fractions."""
    value = Fraction(chain[-1])
    for c in reversed(chain[:-1]):
        value = c - 1 / value
    return value.numerator, value.denominator


def deg_per_n(seifert, stop):
    """deg D_0, ..., deg D_{stop-1}, one deg call per n."""
    return [seifert.deg(n) for n in range(stop)]


def pinkham_per_degree(model):
    """Pinkham's sum with one h1 call per degree, checked as in production."""
    pd = model.pd
    total = 0
    for n in range(pd.cutoff()):
        h1 = model.h1(n)
        if h1 < 0:
            raise ModelInconsistencyError("h1(D_%d) = %d is negative" % (n, h1))
        total += h1
    return total


def expand_per_element(series, order):
    """Taylor coefficients [c_0, ..., c_order]: the numerator read one
    coefficient at a time, then c[i] += c[i - d] for each factor (1 - t^d)."""
    numerator = series.numerator
    c = [numerator.coeff(i) for i in range(order + 1)]
    for d in series.denominator_factors:
        for i in range(d, order + 1):
            c[i] += c[i - d]
    return c


def div_one_minus_power_per_element(poly, d):
    """Quotient coefficients of poly by (1 - t^d), or None when the division
    is not exact; one quotient coefficient at a time."""
    coeffs = poly.coeffs
    if not coeffs:
        return []
    n = len(coeffs) - 1
    if n < d:
        return None
    q = [0] * (n - d + 1)
    for i in range(n - d + 1):
        q[i] = coeffs[i] + (q[i - d] if i >= d else 0)
    for i in range(n - d + 1, n + 1):
        if coeffs[i] != -(q[i - d] if i >= d else 0):
            return None
    return q


def simplex_pg(exponents):
    """p_g of x^a1 + y^a2 + z^a3 = 0 as #{i, j, k >= 1 : i/a1 + j/a2 + k/a3 <= 1},
    one lattice point at a time."""
    a1, a2, a3 = exponents
    top = a1 * a2 * a3
    return sum(1 for i in range(1, a1 + 1) for j in range(1, a2 + 1)
               for k in range(1, a3 + 1)
               if i * a2 * a3 + j * a1 * a3 + k * a1 * a2 <= top)


def series_sum_pg(data):
    """sum_{k <= a} dim R_k, read from one expansion of the Hilbert series."""
    a = a_invariant(data)
    return sum(hilbert_series(data).expand(a)) if a >= 0 else 0


def expanded_prefix(data, top):
    """sum_{k <= top} [t^k] of the Hilbert series, read from one expansion."""
    return sum(hilbert_series(data).expand(top)) if top >= 0 else 0


def free_basis_series(data):
    """The Hilbert series as prod_{i <= m-2} (sum_{k < a_i} t^{k e_i}) over
    (1 - t^{e_{m-1}})(1 - t^{e_m}).  Since a_i e_i = ell each geometric sum
    is (1 - t^ell) / (1 - t^{e_i}); the numerator has no negative
    coefficient, so neither has the series at any order."""
    num = IntPolynomial([1])
    for a, e in zip(data.exponents[:-2], data.e[:-2]):
        num = num * IntPolynomial([int(k % e == 0) for k in range((a - 1) * e + 1)])
    return HilbertSeries(num, data.e[-2:])


def numerator_product_form(data):
    """(1 - t^ell)^(m-2), multiplied out one factor at a time."""
    num = IntPolynomial([1])
    for _ in range(data.m - 2):
        num = num * IntPolynomial.one_minus_power(data.ell)
    return num


def solve_exact(matrix, rhs):
    """Solve matrix . x = rhs over the rationals by dense elimination."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot_row is None:
            raise InternalInvariantError("singular intersection matrix")
        a[col], a[pivot_row] = a[pivot_row], a[col]
        piv = a[col][col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / piv
                for c in range(col, n + 1):
                    a[r][c] -= f * a[col][c]
    return [a[i][n] / a[i][i] for i in range(n)]


def bareiss_det(matrix):
    """Determinant of an integer matrix by fraction-free elimination, with
    row swaps past zero pivots."""
    m = [[int(x) for x in row] for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        swap = next((r for r in range(k, n) if m[r][k]), None)
        if swap is None:
            return 0
        if swap != k:
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev if n else 1


def fraction_pivot_solve(matrix, rhs):
    """Solve matrix . x = rhs for the intersection matrix of a tree (0/1 off
    the diagonal), one vertex at a time: Fraction pivots eliminated leaf
    first from a walk out of vertex 0, then one upward and one downward
    sweep.  Raises InputError unless every pivot is negative, which is
    negative definiteness.  Integral entries of the solution are ints."""
    n = len(matrix)
    parent = [-1] * n
    order = [0]
    for v in order:
        for w in range(n):
            if w != v and matrix[v][w] and w != parent[v]:
                parent[w] = v
                order.append(w)
    pivots = [Fraction(matrix[v][v]) for v in range(n)]
    for v in reversed(order):
        if pivots[v] >= 0:
            raise InputError("intersection matrix is not negative definite")
        if v:
            pivots[parent[v]] -= 1 / pivots[v]
    load = [Fraction(b) for b in rhs]
    for v in reversed(order[1:]):
        load[parent[v]] -= load[v] / pivots[v]
    x = [None] * n
    for v in order:
        x[v] = (load[v] - (x[parent[v]] if v else 0)) / pivots[v]
    return [c.numerator if c.denominator == 1 else c for c in x]


def neighbour_walk_arms(n, edges, central):
    """Arms of the tree on n vertices with these edges around the given
    central vertex, each listed from the center outward and ordered by first
    vertex, by walking the neighbour lists out of the center.  Raises
    InputError naming the first vertex, arm by arm, with two ways out."""
    neighbors = [sorted(i + j - v for i, j in edges if v in (i, j)) for v in range(n)]
    arms = []
    for start in neighbors[central]:
        chain = [start]
        prev, cur = central, start
        while True:
            nxt = [v for v in neighbors[cur] if v != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise InputError("vertex %d branches off the central curve; "
                                 "graph is not star-shaped" % cur)
            prev, cur = cur, nxt[0]
            chain.append(cur)
        arms.append(chain)
    arms.sort(key=lambda c: c[0])
    assert sum(map(len, arms)) == n - 1, "an arm was missed"
    return tuple(map(tuple, arms))


def arm_families(data):
    """For each exponent slot, the ordinals of its arms in graph.arms() order
    (empty for alpha_i = 1 families): bci_seifert lays the arms out family
    by family, ghat_i of them for each alpha_i >= 2."""
    spans = []
    pos = 0
    for i in range(data.m):
        if data.alphas[i] >= 2:
            spans.append(list(range(pos, pos + data.ghats[i])))
            pos += data.ghats[i]
        else:
            spans.append([])
    return spans


def dual_sum_coordinate_cycle(data, graph, i):
    """Cycle of the coordinate x_i as the sum of the duals of its family's
    arm ends, or for alpha_i = 1 of ghat_i copies of the central dual, by
    one Fraction-pivot solve."""
    rhs = [0] * graph.num_vertices
    if data.alphas[i] >= 2:
        for k in arm_families(data)[i]:
            rhs[graph.arms()[k][-1]] -= 1
    else:
        rhs[graph.central] -= data.ghats[i]
    return QCycle(fraction_pivot_solve(graph.intersection_matrix(), rhs))


def laufer_fundamental(graph):
    """Laufer's iteration: from the reduced cycle, add E_i, smallest i
    first, while E_i meets the cycle positively."""
    z = [1] * graph.num_vertices
    while True:
        i = next((k for k, p in enumerate(_products(graph, z)) if p > 0), None)
        if i is None:
            return tuple(z)
        z[i] += 1
