"""Resolution graphs, their intersection lattices, and Hirzebruch-Jung chains.

A resolution graph here is a star-shaped weighted tree: every vertex carries
the self-intersection number and the genus of an exceptional curve, one
vertex is the central curve, and each arm is a chain of rational curves
whose self-intersections form a Hirzebruch-Jung continued fraction.  Such a
graph is equivalent to its Seifert invariant
(g, c0, (alpha_1, beta_1), ..., (alpha_k, beta_k)), which it keeps as the one
description of its arms: the arm work is done once per arm type and spread
over the invariant's runs of equal arms, definiteness is deg D > 0, and the
dual and canonical cycles are read off the invariant with no linear solve.

All arithmetic is exact: integers and fractions.Fraction only.  A graph
reads and writes its own JSON; report.py writes every other report value.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, cycle, groupby, islice, repeat
from math import gcd, lcm
from operator import itemgetter, mul, sub

from .errors import InputError, InternalInvariantError, Record, exact_int
from .numerics import floor_sum


# ---------------------------------------------------------------------------
# Hirzebruch-Jung continued fractions
# ---------------------------------------------------------------------------

def hj_expand(alpha, beta):
    """Expand alpha/beta >= 1 into the chain [c_1, ..., c_r], every c_j >= 2.

    The chain is the unique negative continued fraction with
    alpha/beta = c_1 - 1/(c_2 - 1/(... - 1/c_r)).
    """
    if alpha < 2:
        raise InputError("need alpha >= 2, got alpha=%r" % (alpha,))
    if not 1 <= beta < alpha:
        raise InputError("need 1 <= beta < alpha, got (%r, %r)" % (alpha, beta))
    if gcd(alpha, beta) != 1:
        raise InputError("alpha=%d and beta=%d are not coprime" % (alpha, beta))
    chain = []
    a, b = alpha, beta
    while b:
        c = -(-a // b)  # ceil(a/b); c >= 2 because a > b
        chain.append(c)
        a, b = b, c * b - a
    return chain


def _hj_length(alpha, beta):
    """len(hj_expand(alpha, beta)) in O(log alpha) steps, for a reduced pair
    1 <= beta < alpha.  hj_expand's step maps (a, b) to (b, c*b - a); at
    c = 2 it takes d = a - b off both, so a run of 2s lasts while b >= d, a
    run of b // d steps that ends at (b % d + d, b % d): one divmod.  A step
    with c >= 3 at least halves a, and one follows every run."""
    length, a, b = 0, alpha, beta
    while b:
        if a <= 2 * b:  # ceil(a/b) = 2
            d = a - b
            run, b = divmod(b, d)
            length += run
            a = b + d
        else:
            length += 1
            a, b = b, -(-a // b) * b - a
    return length


@lru_cache(maxsize=65536)
def _continuants(chain):
    """(numerator, denominator) of [[c_j, ..., c_s]] for every truncation.

    These are consecutive continuants p_j = c_j*p_{j+1} - p_{j+2} (the
    determinants of the arm's outer pieces), which are coprime.
    """
    tails = []
    outer, cur = 0, 1
    for c in reversed(chain):
        outer, cur = cur, c * cur - outer
        tails.append((cur, outer))
    tails.reverse()
    return tuple(tails)


def hj_evaluate(chain):
    """Evaluate a chain [c_1, ..., c_r] back to a reduced pair (alpha, beta)."""
    chain = tuple(chain)
    if not chain:
        raise InputError("empty continued-fraction chain")
    if any(c < 2 for c in chain):
        raise InputError("chain entries must be >= 2: %r" % (list(chain),))
    return _continuants(chain)[0]


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def negative_definite(matrix):
    """True iff the symmetric integer matrix is negative definite.

    Fraction-free (Bareiss) elimination; after round k the pivot equals the
    (k+1)x(k+1) leading principal minor, whose sign must be (-1)^(k+1).
    Dense and cubic in the size, and called by no report: ResolutionGraph
    reads a star's definiteness off its Seifert invariant, deg D > 0.  The
    tests use it as an oracle, and the benchmark's tracer still names it.
    """
    n = len(matrix)
    m = [list(map(exact_int, row)) for row in matrix]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv == 0 or (piv < 0) != (k % 2 == 0):
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (piv * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = piv
    return True


def _walk_from_root(graph):
    """(order, parent): a depth-first walk from the central vertex, children
    in id order.  It lists every vertex after its parent, and each arm of a
    star as one run from the center outward; a tree with n-1 edges is
    connected iff the walk reaches everything."""
    n = graph.num_vertices
    root = graph.central
    parent = [None] * n  # None until the walk reaches the vertex
    parent[root] = -1
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for w in reversed(graph._neighbors[v]):
            if parent[w] is None:
                parent[w] = v
                stack.append(w)
    if len(order) != n:
        raise InputError("graph is not connected")
    return order, parent


def _exact_quotient(num, den):
    """num/den as an int when it is one, else as a Fraction."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _star_of_walk(graph):
    """(seifert, walk) of a graph: the Seifert invariant read off the
    graph's walk, checked to be star-shaped around the center, and the
    walk, or None when it is the identity.  Each distinct chain is
    evaluated once.  With every arm entry >= 2, the star is negative
    definite exactly when deg D > 0, which the invariant checks, so no
    determinant is computed."""
    order, parent = _walk_from_root(graph)
    order, central = tuple(order), graph.central
    # the walk lists each arm as one run, from a child of the center out;
    # arm k sits at bounds[k]:bounds[k + 1] of the walk
    bounds = []
    for i in range(1, len(order)):
        v = order[i]
        if len(graph.neighbors(v)) > 2:
            raise InputError("vertex %d branches off the central curve; "
                             "graph is not star-shaped" % v)
        if parent[v] == central:
            bounds.append(i)
    bounds.append(len(order))
    # each chain is made from a list at its final size, not grown from a generator
    chains = [tuple([-graph.selfint[v] for v in order[a:b]])
              for a, b in zip(bounds, bounds[1:])]
    # arm curves are rational with self-intersection <= -2; a failure names
    # the first offending vertex of the walk
    if (sum(graph.genus) > graph.genus[central]
            or any(min(chain) < 2 for chain in chains)):
        for v in order[1:]:
            if graph.genus[v]:
                raise InputError("arm vertex %d has genus %d" % (v, graph.genus[v]))
            if graph.selfint[v] > -2:
                raise InputError(
                    "arm vertex %d has self-intersection %d; chains with "
                    "-1 vertices are rejected, not contracted" % (v, graph.selfint[v]))
    types = {chain: hj_evaluate(chain) for chain in set(chains)}
    try:
        seifert = SeifertInvariant(g=graph.genus[central], c0=-graph.selfint[central],
                                   arms=tuple(map(types.__getitem__, chains)))
    except InputError:
        # each arm is a reduced pair and the genus is >= 0, so the check
        # that failed is deg D > 0
        raise InputError("intersection matrix is not negative definite") from None
    return seifert, None if order == tuple(range(len(order))) else order


def _spread(graph, center_value, values):
    """The per-vertex list of a star with center_value at the center and
    values[t] along every arm of type t, laid out run by run."""
    laid = [center_value]
    for arm, k in graph._seifert.arm_runs:
        laid += values[arm] * k
    if graph._walk is not None:  # each vertex once, so no value is compared
        laid = [value for _, value in sorted(zip(graph._walk, laid))]
    return laid


# ---------------------------------------------------------------------------
# rational cycles
# ---------------------------------------------------------------------------

_INT = frozenset((int,))


def _normalize(value):
    if type(value) is int:
        return value
    f = value if type(value) is Fraction else Fraction(value)
    return f.numerator if f.denominator == 1 else f


class QCycle:
    """Rational combination of the exceptional curves E_0, ..., E_{n-1}.

    Coefficients are exact; integral values are stored as int.  Comparison
    operators are componentwise, so <= and >= give the effective partial
    order on cycles.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= _INT:
            coeffs = tuple(map(_normalize, coeffs))
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("QCycle is immutable")

    @classmethod
    def zero(cls, size):
        return cls([0] * size)

    @classmethod
    def unit(cls, size, index, value=1):
        coeffs = [0] * size
        coeffs[index] = value
        return cls(coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, i):
        return self.coeffs[i]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, QCycle) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _check_size(self, other):
        if len(self) != len(other):
            raise InputError("cycles live on different vertex sets")

    def __add__(self, other):
        self._check_size(other)
        return QCycle(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_size(other)
        return QCycle(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return QCycle(-a for a in self.coeffs)

    def __mul__(self, scalar):
        return QCycle(a * scalar for a in self.coeffs)

    __rmul__ = __mul__

    def __le__(self, other):
        self._check_size(other)
        return all(a <= b for a, b in zip(self.coeffs, other.coeffs))

    def __ge__(self, other):
        self._check_size(other)
        return all(a >= b for a, b in zip(self.coeffs, other.coeffs))

    @property
    def is_integral(self):
        return set(map(type, self.coeffs)) <= _INT

    @property
    def is_effective(self):
        return min(self.coeffs, default=0) >= 0

    @property
    def is_zero(self):
        return not any(self.coeffs)

    @property
    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def as_integers(self):
        if not self.is_integral:
            raise InputError("cycle has non-integral coefficients: %r" % (self,))
        return tuple(self.coeffs)

    def __repr__(self):
        return "QCycle(%s)" % (", ".join(str(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# resolution graphs
# ---------------------------------------------------------------------------

class ResolutionGraph:
    """Weighted dual graph of an exceptional divisor, star-shaped.

    vertices: sequence of (self_intersection, genus) pairs
    edges:    vertex-id pairs; the graph must be a connected tree
    central:  id of the central curve; a graph without one is refused

    Construction validates the tree shape and the star shape (every other
    vertex rational, on a chain, with self-intersection <= -2; chains with
    -1 vertices are rejected rather than contracted), and reads negative
    definiteness off the star's Seifert invariant, deg D > 0.

    star_graph builds its graphs without this constructor, straight from a
    Seifert invariant that is already known to be valid.
    """

    def __init__(self, vertices, edges, central=None):
        verts = [(exact_int(s), exact_int(g)) for s, g in vertices]
        if not verts:
            raise InputError("graph needs at least one vertex")
        for s, g in verts:
            if g < 0:
                raise InputError("genus must be >= 0, got %d" % g)
        n = len(verts)
        edge_set = set()
        for e in edges:
            i, j = exact_int(e[0]), exact_int(e[1])
            if i == j:
                raise InputError("self-loop at vertex %d" % i)
            if not (0 <= i < n and 0 <= j < n):
                raise InputError("edge (%d, %d) out of range" % (i, j))
            key = (min(i, j), max(i, j))
            if key in edge_set:
                raise InputError("duplicate edge %r" % (key,))
            edge_set.add(key)
        if len(edge_set) != n - 1:
            raise InputError("graph must be a tree: %d vertices need %d edges, got %d"
                             % (n, n - 1, len(edge_set)))
        if central is not None:
            central = exact_int(central)
        else:
            raise InputError("graph has no central vertex")
        if not 0 <= central < n:
            raise InputError("central vertex %d out of range" % central)

        self.selfint = tuple(s for s, _ in verts)
        self.genus = tuple(g for _, g in verts)
        self.edges = tuple(sorted(edge_set))
        self.num_vertices = n
        self.central = central

        # the edges are sorted pairs i < j, so each vertex meets its smaller
        # neighbours before its larger ones: the lists come out sorted
        nbrs = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(map(tuple, nbrs))
        # the walk checks connectedness, and the invariant definiteness; the
        # invariant is also the graph's only description of its arms
        self._seifert, self._walk = _star_of_walk(self)

    # -- basic structure ----------------------------------------------------

    def neighbors(self, i):
        return self._neighbors[i]

    def intersection_matrix(self):
        n = self.num_vertices
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = self.selfint[i]
        for i, j in self.edges:
            m[i][j] = m[j][i] = 1
        return m

    def arms(self):
        """Arms of the star, each from the center out; listed on first read."""
        return self._arms

    @cached_property
    def _arms(self):
        sizes = [len(self._seifert.chains[arm]) for arm in self._seifert.arms]
        walk = self._walk or range(self.num_vertices)
        return tuple(tuple(walk[a:a + size])
                     for a, size in zip(accumulate(sizes, initial=1), sizes))

    # -- intersection pairing -----------------------------------------------

    def product_with_vertex(self, coeffs, i):
        """(sum_j c_j E_j) . E_i, exact."""
        total = coeffs[i] * self.selfint[i]
        for j in self._neighbors[i]:
            total += coeffs[j]
        return total

    def products(self, coeffs):
        """[C.E_i for every vertex i] for the cycle C with these
        coefficients: c_i*E_i^2, plus across each edge the coefficient at
        its other end.  One pass over all the vertices: on the integral
        cycles that reports pair, grouping identical arms into classes
        costs more than it saves.  Products are exact values as QCycle keeps
        them: an integral one is an int, of a fractional cycle too."""
        self._check_size(coeffs)
        out = list(map(mul, coeffs, self.selfint))
        for i, j in self.edges:
            out[i] += coeffs[j]
            out[j] += coeffs[i]
        # a sum of ints is an int, and one Fraction makes it a Fraction: a
        # cheaper test than the type of every coefficient
        if type(sum(coeffs)) is not int:
            out = list(map(_normalize, out))
        return out

    def _check_size(self, coeffs):
        if len(coeffs) != self.num_vertices:
            raise InputError("cycle has %d coefficients on a graph with %d vertices"
                             % (len(coeffs), self.num_vertices))

    def pairing(self, a, b):
        """Intersection pairing A.B = sum_i a_i (B.E_i) of two cycles."""
        a = tuple(a)
        self._check_size(a)
        return _normalize(sum(map(mul, a, self.products(tuple(b)))))

    def canonical_product(self, coeffs):
        """K . (sum_j c_j E_j)."""
        return _normalize(sum(map(mul, coeffs, self._canonical_degrees)))

    @cached_property
    def _canonical_degrees(self):
        """[K.E_i for every vertex i], by adjunction K.E_i = -E_i^2 - 2 + 2g_i."""
        return [2 * g - s - 2 for s, g in zip(self.selfint, self.genus)]

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """The graph as compact JSON with sorted keys, {"central", "edges",
        "vertices"}, each vertex {"genus", "selfint"}, written straight from
        the graph's tuples, one text per distinct vertex weight."""
        weights = list(zip(self.genus, self.selfint))
        vertex = {w: '{"genus":%d,"selfint":%d}' % w for w in set(weights)}
        return '{"central":%d,"edges":[%s],"vertices":[%s]}' % (
            self.central,
            ",".join(map("[%d,%d]".__mod__, self.edges)),
            ",".join(map(vertex.__getitem__, weights)))

    @classmethod
    def from_json_dict(cls, data):
        """Graph from its JSON form; every number in it must be a JSON
        integer, and each edge a pair."""
        try:
            vertices = [(v["selfint"], v["genus"]) for v in data["vertices"]]
            edges = [(i, j) for i, j in data["edges"]]
            central = data.get("central")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed graph serialization: %s" % exc) from exc
        numbers = [x for pair in vertices + edges for x in pair]
        if central is not None:
            numbers.append(central)
        for x in numbers:
            if type(x) is not int:
                raise InputError("malformed graph serialization: %r is not an integer"
                                 % (x,))
        return cls(vertices, edges, central=central)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError("invalid JSON: %s" % exc) from exc
        return cls.from_json_dict(data)

    def to_dot(self):
        """DOT rendering; the central vertex is double-circled."""
        lines = ["graph resolution {"]
        for i in range(self.num_vertices):
            label = str(self.selfint[i])
            if self.genus[i]:
                label += " [g=%d]" % self.genus[i]
            shape = ' shape="doublecircle"' if i == self.central else ""
            lines.append('  v%d [label="%s"%s];' % (i, label, shape))
        for i, j in self.edges:
            lines.append("  v%d -- v%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, ResolutionGraph)
                and self.selfint == other.selfint
                and self.genus == other.genus
                and self.edges == other.edges
                and self.central == other.central)

    def __hash__(self):
        return hash((self.selfint, self.genus, self.edges, self.central))

    def __repr__(self):
        return "ResolutionGraph(%d vertices, central=%r)" % (self.num_vertices, self.central)


# ---------------------------------------------------------------------------
# Seifert invariants
# ---------------------------------------------------------------------------

class SeifertInvariant(Record):
    """Star-shaped data (g, c0, arm_runs): the arms with alpha >= 2 as
    ((alpha, beta), count) runs of equal neighbours, in order.

    The constructor takes the arms as (alpha, beta) pairs and checks each
    distinct one.  Arms with alpha = 1 must carry beta = 0; they emit no
    vertices and change no invariant, so they are dropped.  deg D = c0 -
    sum(beta/alpha) must be positive, which for star graphs is negative
    definiteness; it is kept in integers as degree_period.

    This is also the Pinkham-Demazure degree model of the divisor ladder
    D_n: deg, arm_count and cutoff work on arm_types, the runs grouped by
    type, so they cost O(distinct arm types).
    """

    g: int
    c0: int
    arm_runs: tuple

    def __init__(self, g, c0, arms):
        g, c0 = exact_int(g), exact_int(c0)
        if g < 0:
            raise InputError("genus must be >= 0, got %d" % g)
        # each arm is made a pair of ints before any two are compared
        runs = [(arm, len(list(same))) for arm, same in groupby(map(_arm_pair, arms))]
        for a, b in dict.fromkeys(arm for arm, _ in runs):
            if a < 1:
                raise InputError("arm with alpha=%d" % a)
            if a == 1 and b != 0:
                raise InputError("arm (1, %d): alpha=1 forces beta=0" % b)
            if a > 1 and not (1 <= b < a and gcd(a, b) == 1):
                raise InputError("arm (%d, %d) is not a reduced Seifert pair" % (a, b))
        # two runs of one type that only alpha = 1 arms kept apart join up
        runs = groupby((run for run in runs if run[0][0] >= 2), itemgetter(0))
        self._set(g, c0, tuple((arm, sum(k for _, k in same)) for arm, same in runs))
        if self.degree_period[1] <= 0:
            raise InputError("orbifold degree %s is not positive" % self.deg_divisor())

    def _set(self, g, c0, arm_runs):
        """The unchecked entry, for runs of reduced pairs, no two neighbours
        of one type, with deg D > 0; bci_seifert calls it on a bare instance."""
        vars(self).update(g=g, c0=c0, arm_runs=arm_runs)

    @cached_property
    def arms(self):
        """The arms, one (alpha, beta) pair each, listed from the runs on first read."""
        arms = []
        for arm, k in self.arm_runs:
            arms += [arm] * k
        return tuple(arms)

    @cached_property
    def arm_types(self):
        """{(alpha, beta): count} over the arms with alpha >= 2."""
        types = Counter()
        for arm, k in self.arm_runs:
            types[arm] += k
        return types

    @cached_property
    def chains(self):
        """{(alpha, beta): chain} over the arm types, one hj_expand each: the
        arm's -self-intersections from the center outward."""
        return {arm: tuple(hj_expand(*arm)) for arm in self.arm_types}

    @cached_property
    def degree_period(self):
        """(P, S): P the lcm of the alphas and S = P*deg D, an integer, so
        that deg D_{n+P} = deg D_n + S."""
        period = lcm(*(a for a, _ in self.arm_types))
        return period, period * self.c0 - sum(
            k * b * (period // a) for (a, b), k in self.arm_types.items())

    def canonical_excess(self):
        """S*y_0, an integer: S of degree_period, and y_0 = (2g - 2 +
        sum_i (1 - 1/alpha_i))/deg D, the central coefficient of Z_K less 1
        (canonical_cycle)."""
        period, _ = self.degree_period
        return period * (2 * self.g - 2 + self.arm_count()) - sum(
            k * (period // a) for (a, _), k in self.arm_types.items())

    def deg_divisor(self):
        """deg D = c0 - sum beta_i/alpha_i = S/P, an exact positive rational."""
        period, shift = self.degree_period
        return Fraction(shift, period)

    def deg(self, n):
        """deg D_n = n*c0 - sum_i ceil(n*beta_i/alpha_i), an exact integer."""
        n = exact_int(n)
        if n < 0:
            raise InputError("degree index must be >= 0, got %r" % (n,))
        return n * self.c0 - sum(k * ((n * b + a - 1) // a)
                                 for (a, b), k in self.arm_types.items())

    def degrees(self, stop):
        """deg D_0, ..., deg D_{stop-1}, lazily.

        deg D_{n+1} - deg D_n is c0 less one step per arm type, and each
        type's steps repeat with period alpha; the sweep runs those periods
        side by side and sums the steps, so it costs O(distinct arm types)
        per degree and keeps O(sum of alpha) extra memory, whatever stop is.
        """
        stop = exact_int(stop)
        if stop < 0:
            raise InputError("degree count must be >= 0, got %r" % (stop,))
        steps = repeat(self.c0)
        for (a, b), k in self.arm_types.items():
            steps = map(sub, steps, _arm_type_steps(a, b, k))
        return islice(accumulate(steps, initial=0), stop)

    def deg_sum(self, stop):
        """deg D_0 + ... + deg D_{stop-1} in closed form: each arm type's
        ceilings sum to one floor_sum, so it costs O(log) per arm type."""
        stop = exact_int(stop)
        if stop < 0:
            raise InputError("degree count must be >= 0, got %r" % (stop,))
        return self.c0 * (stop * (stop - 1) // 2) - sum(
            k * floor_sum(stop, a, b, a - 1) for (a, b), k in self.arm_types.items())

    def arm_count(self):
        return sum(self.arm_types.values())

    def z0(self):
        """First n >= 1 with deg D_n >= 0.

        bci_seifert hands in min(e_m, alpha); any other invariant walks the
        degrees to find it."""
        return self._z0

    @cached_property
    def _z0(self):
        # each arm's ceiling exceeds n*beta/alpha by less than 1, so
        # deg D_n > n*deg D - arm_count >= 0 once n >= arm_count/deg D
        period, shift = self.degree_period
        stop = max(-(-self.arm_count() * period // shift), 1) + 1
        z0 = next((n for n, d in enumerate(self.degrees(stop)) if n and d >= 0), None)
        if z0 is None:
            raise InternalInvariantError("no n < %d with deg D_n >= 0" % stop)
        return z0

    def cutoff(self):
        """Smallest N with deg D_n > 2g-2 for every n >= N.

        Each arm's ceiling loses less than 1, so n*degD > 2g-2+#arms makes
        deg D_n > 2g-2; past that point h1 vanishes.
        """
        period, shift = self.degree_period
        return max((2 * self.g - 2 + self.arm_count()) * period // shift + 1, 0)


def _arm_type_steps(alpha, beta, k):
    """k*(ceil((n+1)*beta/alpha) - ceil(n*beta/alpha)) for n = 0, 1, 2, ...,
    which repeats with period alpha."""
    ceilings = [k * ((r * beta + alpha - 1) // alpha) for r in range(alpha + 1)]
    return cycle([hi - lo for lo, hi in zip(ceilings, ceilings[1:])])


def _arm_pair(arm):
    """An arm as a pair of ints, or an InputError that names it."""
    try:
        a, b = arm
    except (TypeError, ValueError):
        raise InputError("arm %r is not an (alpha, beta) pair" % (arm,)) from None
    return exact_int(a), exact_int(b)


def star_graph(seifert):
    """Build the star-shaped resolution graph of a Seifert invariant.

    The central vertex gets id 0; the invariant's runs of equal arms are
    laid out in order, a run at a time, each arm from the center outward.
    The graph keeps the invariant it was built from, and lists its arms
    only when arms() is read.

    The graph is laid out here, not by the ResolutionGraph constructor, with
    nothing to check: hj_expand gives chain entries >= 2, and such a star is
    negative definite exactly when deg D > 0, which SeifertInvariant checks
    (bci_data's arithmetic, for bci_seifert's runs).  The edges come out
    sorted, the center's first, and no walk is made: the layout is the
    identity.
    """
    selfint, starts, edges, neighbors = [-seifert.c0], [], [], [None]
    for arm, k in seifert.arm_runs:
        chain = seifert.chains[arm]
        size, start = len(chain), len(selfint)
        selfint += [-c for c in chain] * k
        stop = len(selfint)
        starts += range(start, stop, size)
        # along an arm, vertex v meets v - 1 and v + 1, except that an arm's
        # first vertex meets the center instead and its last nothing further out
        inner = list(range(start - 1, stop - 1))
        inner[::size] = [0] * k
        run = list(zip(inner, range(start + 1, stop + 1)))
        run[size - 1::size] = zip(inner[size - 1::size])
        neighbors += run
        run = list(zip(inner, range(start, stop)))
        del run[::size]  # the center's edges come first
        edges += run
    neighbors[0] = tuple(starts)

    n = len(selfint)
    graph = ResolutionGraph.__new__(ResolutionGraph)
    graph.selfint = tuple(selfint)
    graph.genus = (seifert.g,) + (0,) * (n - 1)
    graph.edges = tuple(list(zip(repeat(0), starts)) + edges)
    graph.num_vertices = n
    graph._neighbors = tuple(neighbors)
    graph.central = 0
    graph._seifert, graph._walk = seifert, None
    return graph


def seifert_of_graph(graph):
    """The Seifert invariant that a star-shaped graph keeps: inverse to
    star_graph, since an invariant holds no alpha = 1 arms."""
    return graph._seifert


# ---------------------------------------------------------------------------
# distinguished cycles
# ---------------------------------------------------------------------------

def dual_cycle(graph, j):
    """The rational cycle W with W.E_i = -delta_{ji} for every i, read off
    the Seifert invariant with no solve.

    Take an arm of type (alpha, beta) with chain c_1, ..., c_s, and let
    p_k = det[c_k, ..., c_s], p_{s+1} = 1, be its continuants.  On an arm
    without j, the equations at its vertices and w_{s+1} = 0 give
    w_k = w_0*p_{k+1}/alpha.  On the arm A that holds j at position t, the
    inner part adds a multiple of q_k, where q_0 = 0, q_1 = 1 and
    q_{k+1} = c_k*q_k - q_{k-1}; q vanishes at the center, and since
    q_{k+1}*p_{k+1} - q_k*p_{k+2} = alpha_A for every k, W.E_j = -1 fixes
    the multiple at p_{t+1}/alpha_A.  So w_k = (w_0*p_{k+1} + p_{t+1}*q_k)
    /alpha_A for k <= t, and w_k = (w_0 + q_t)*p_{k+1}/alpha_A for k >= t.
    The central equation then gives w_0 = 1/deg D = P/S when j is the
    center, and w_0 = p_{t+1}*P/(alpha_A*S) otherwise, in the integers
    (P, S) of degree_period.  Each distinct chain is walked once, and the
    chain of A once more.
    """
    n = graph.num_vertices
    j = exact_int(j)
    if not 0 <= j < n:
        raise InputError("vertex %d out of range for a graph with %d vertices" % (j, n))
    seifert = graph._seifert
    period, shift = seifert.degree_period
    walk = graph._walk or range(n)
    place = walk.index(j)  # j's position in the run-by-run layout
    num, den = period, shift  # w_0 = num/den
    if place:
        first = 1  # the layout position of the first vertex of A
        for arm, k in seifert.arm_runs:
            size = len(seifert.chains[arm])
            if place < first + k * size:
                break
            first += k * size
        first += (place - first) // size * size
        t, alpha, chain = place - first + 1, arm[0], seifert.chains[arm]
        tails = _continuants(chain)
        reach = tails[t - 1][1]  # p_{t+1}
        num, den = reach * period, alpha * shift
    values = {(a, b): [_exact_quotient(num * p, den * a) for _, p in _continuants(chain)]
              for (a, b), chain in seifert.chains.items()}
    laid = _spread(graph, _exact_quotient(num, den), values)
    if place:
        # the arm of j, scaled by den*alpha: q_prev is q_t once the inner loop ends
        scaled, q_prev, q = [], 0, 1
        for (_, p), c in zip(tails[:t], chain):
            scaled.append(num * p + den * reach * q)
            q_prev, q = q, c * q - q_prev
        scaled += [(num + den * q_prev) * p for _, p in tails[t:]]
        for v, x in zip(walk[first:first + len(chain)], scaled):
            laid[v] = _exact_quotient(x, den * alpha)
    return QCycle(laid)


def canonical_cycle(graph):
    """The rational cycle Z_K with (K + Z_K).E_i = 0 for every i.

    Z_K is read off the Seifert invariant: with y = Z_K - 1, the equation at
    each arm vertex is y_{j+1} = c_j*y_j - y_{j-1}, and past the arm's end
    y_{s+1} = -1, which forces y_1 = (y_0*beta - 1)/alpha on an arm of type
    (alpha, beta).  The central equation then gives y_0 = (2g - 2 +
    sum_i (1 - 1/alpha_i))/deg D, which is canonical_excess()/S in the
    integers of degree_period.  Each distinct chain runs its recursion
    once, scaled by S*alpha, and must end at -1.
    """
    seifert = graph._seifert
    shift = seifert.degree_period[1]
    excess = seifert.canonical_excess()
    arm_values = {}
    for (alpha, beta), chain in seifert.chains.items():
        scale = shift * alpha
        prev, cur = excess * alpha, excess * beta - shift  # scale*y_0, scale*y_1
        values = arm_values[alpha, beta] = []
        for c in chain:
            values.append(_exact_quotient(cur + scale, scale))
            prev, cur = cur, c * cur - prev
        if cur != -scale:
            raise InternalInvariantError("canonical cycle misses y = -1 past "
                                         "the end of chain %r" % (list(chain),))
    return QCycle(_spread(graph, _exact_quotient(shift + excess, shift), arm_values))


def is_numerically_gorenstein(graph):
    """True iff the canonical cycle has integral coefficients."""
    return canonical_cycle(graph).is_integral
