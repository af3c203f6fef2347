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

Production computes the fundamental cycle of a star-shaped graph as the
minimal cycle L_{z0}; Laufer's iteration, which production runs on trees
without a center, is the third route, reached by rebuilding a star graph
without its center.

Divisor degrees are summed one arm at a time, against the production sum
over arm types, and taken one deg call per n, against the production sweep
`SeifertInvariant.degrees`.  The orbifold degree c0 - sum(beta/alpha),
Pinkham's cutoff and the value of a continued fraction are taken in
Fractions, against the production integer pair (P, S) =
`SeifertInvariant.degree_period` and the integer continuants; Pinkham's sum is taken one h1 call per degree,
against the production pass over one degree stream.  Series expansion and
division by (1 - t^d) run element by element, against the production running
sums per residue class.  The geometric genus is counted point by point
inside the simplex sum i/a_i <= 1 (m = 3) and summed from one series
expansion, against the production lattice count; the series numerator is
multiplied out factor by factor, against the production binomial form.
Linear systems on trees are solved by dense Gauss-Jordan elimination and by
Fraction pivots eliminated leaf first, one vertex at a time, against the
production integer solve scaled by the determinant, which visits one arm of
each class of identical arms.  Negative definiteness is checked by
fraction-free Bareiss elimination (`brieskorn.graph.negative_definite`), by
leading principal minors (`negdef_oracle` in test_graph.py) and by the
signs of the Fraction pivots, against the signs of the subtree determinants
that ResolutionGraph checks; those determinants are checked against a
Bareiss determinant.  The arms of a star are found by walking the neighbour
lists out of the center, one arm per neighbour, against the production split
of the graph's single depth-first walk.
"""

import math
from fractions import Fraction
from itertools import product

from brieskorn.bci import a_invariant, hilbert_series
from brieskorn.errors import (InputError, InternalInvariantError,
                              ModelInconsistencyError)
from brieskorn.numerics import IntPolynomial


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
    c = [series.numerator.coeff(i) for i in range(order + 1)]
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


def neighbour_walk_arms(graph, central):
    """Arms of the graph around the given central vertex, each listed from
    the center outward and ordered by first vertex, by walking the neighbour
    lists out of the center.  Raises InputError naming the first vertex,
    arm by arm, with two ways out."""
    arms = []
    for start in graph.neighbors(central):
        chain = [start]
        prev, cur = central, start
        while True:
            nxt = [v for v in graph.neighbors(cur) if v != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise InputError("vertex %d branches off the central curve; "
                                 "graph is not star-shaped" % cur)
            prev, cur = cur, nxt[0]
            chain.append(cur)
        arms.append(chain)
    arms.sort(key=lambda c: c[0])
    assert sum(map(len, arms)) == graph.num_vertices - 1, "an arm was missed"
    return tuple(map(tuple, arms))
