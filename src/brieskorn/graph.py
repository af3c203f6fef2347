"""Resolution graphs, their intersection lattices, and Hirzebruch-Jung chains.

A resolution graph here is a weighted tree: every vertex carries the
self-intersection number and the genus of an exceptional curve, and the
intersection matrix the tree defines must be negative definite.  A star-shaped
graph additionally designates a central vertex; each arm is then a chain of
rational curves whose self-intersections form a Hirzebruch-Jung continued
fraction, and the graph is equivalent to its Seifert invariant
(g, c0, (alpha_1, beta_1), ..., (alpha_k, beta_k)).

All arithmetic is exact: integers and fractions.Fraction only.  The tree
work runs on integer subtree determinants, and on a star-shaped graph it is
done once per class of identical arms.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, cycle, islice, repeat
from math import gcd, lcm
from operator import mul, sub
from typing import NamedTuple

from .errors import InputError, InternalInvariantError
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
    Dense and cubic in the size: ResolutionGraph checks its trees by the
    signs of their subtree determinants instead, and this stays as their
    oracle.
    """
    n = len(matrix)
    m = [[int(x) for x in row] for row in matrix]
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


def _solve_on_graph(graph, rhs):
    """Solve I(graph) . x = rhs exactly, in integers scaled by det(-I).

    With D_v the graph's subtree determinants and P_v the products of their
    children's, the upward sweep L_v = rhs_v*P_v + sum_c L_c*(P_v/D_c) and
    the downward sweep X_root = -L_root, X_v = (X_parent*P_v - L_v*det)/D_v
    give X = det*x; each division is exact, because det times the inverse
    matrix is integral.  On a star the sweeps visit one representative of
    each class of identical arms (the same chain and the same right-hand
    side on the arm), weighted by the size of its class, and the solution is
    copied out to the other arms of the class.
    """
    n = graph.num_vertices
    copies = [1] * n  # how many copies of v the sweeps stand for
    star = graph.central is not None
    if star:
        layout = graph._arm_layout
        classes = layout.classes(layout.laid(rhs))
        reps = [layout.arms[k] for k in classes.reps]
        visit = [graph.central]
        for arm, count in zip(reps, classes.counts):
            copies[arm[0]] = count
            visit += arm
    else:
        visit = graph._order
    det, prod, parent = graph._det, graph._prod, graph._parent
    load = [0] * n
    for v in reversed(visit[1:]):
        lv = load[v] = load[v] + rhs[v] * prod[v]
        p = parent[v]
        load[p] += copies[v] * lv * (prod[p] // det[v])
    root = visit[0]
    total = det[root]
    scaled = [0] * n
    scaled[root] = -(load[root] + rhs[root] * prod[root])
    for v in visit[1:]:
        scaled[v] = (scaled[parent[v]] * prod[v] - load[v] * total) // det[v]
    x = [None] * n
    for v in visit:
        q, r = divmod(scaled[v], total)
        x[v] = Fraction(scaled[v], total) if r else q
    if not star:
        return x
    return layout.spread(x[graph.central], [[x[v] for v in arm] for arm in reps],
                         classes.of_arm)


class _ArmClasses(NamedTuple):
    reps: list    # arm index of the first arm of each class
    counts: list  # the number of arms in each class
    of_arm: list  # the class of each arm, in arms() order


class _ArmLayout:
    """The vertices of a star in the order of the graph's walk: center
    first, then arm by arm, each from the center outward, in arms() order;
    star_graph numbers its vertices this way.  The arms are split off the
    walk here, once.  Work on identical arms is done once per class and
    spread back over the layout."""

    def __init__(self, graph):
        order, parent = graph._order, graph._parent
        self.order = tuple(order)
        if self.order == tuple(range(len(self.order))):
            self.position = None
        else:
            self.position = [0] * len(self.order)
            for p, v in enumerate(self.order):
                self.position[v] = p
        # the walk lists each arm as one run, from a child of the center
        # out; arm k sits at bounds[k]:bounds[k + 1] of the layout
        self.bounds = []
        for i in range(1, len(order)):
            v = order[i]
            if len(graph.neighbors(v)) > 2:
                raise InputError("vertex %d branches off the central curve; "
                                 "graph is not star-shaped" % v)
            if parent[v] == graph.central:
                self.bounds.append(i)
        self.bounds.append(len(order))
        self.arms = tuple(tuple(order[a:b])
                          for a, b in zip(self.bounds, self.bounds[1:]))
        selfint = self.laid(graph.selfint)
        # each chain is made from a list, at its final size, and equal
        # chains share one tuple: tuple(generator) would grow and shrink
        # every chain and leave the spare tuples in CPython's free lists
        distinct = {}
        self.chains = tuple(distinct.setdefault(chain, chain) for chain in
                            (tuple([-s for s in selfint[a:b]])
                             for a, b in zip(self.bounds, self.bounds[1:])))
        self.chain_classes = self.classes()

    def laid(self, values):
        """A per-vertex sequence as a tuple in layout order."""
        values = tuple(values)
        return values if self.position is None else tuple(map(values.__getitem__,
                                                              self.order))

    def classes(self, laid=None):
        """Classes of arms with the same chain and, when laid (values in
        layout order) is given, the same values on the arm; in order of
        first appearance."""
        seen = {}  # chain -> [(values on the arm, class)]
        reps, counts, of_arm = [], [], []
        bounds = self.bounds
        for k, chain in enumerate(self.chains):
            values = None if laid is None else laid[bounds[k]:bounds[k + 1]]
            known = seen.setdefault(chain, [])
            for other, c in known:
                if other == values:
                    break
            else:
                c = len(reps)
                known.append((values, c))
                reps.append(k)
                counts.append(0)
            counts[c] += 1
            of_arm.append(c)
        return _ArmClasses(reps, counts, of_arm)

    def spread(self, center_value, class_values, of_arm):
        """The per-vertex list with center_value at the center and, on every
        arm, the values of its class."""
        laid = [center_value]
        for c in of_arm:
            laid += class_values[c]
        if self.position is None:
            return laid
        return list(map(laid.__getitem__, self.position))


def _arm_products(chain, center_value, values):
    """C.E_j along one arm, from the center outward, for a cycle C with the
    given central coefficient and coefficients on the arm; chain holds the
    arm's -self-intersections."""
    values = list(values)
    return [m * -c + prev + nxt for c, m, prev, nxt in
            zip(chain, values, [center_value] + values[:-1], values[1:] + [0])]


# ---------------------------------------------------------------------------
# rational cycles
# ---------------------------------------------------------------------------

_INT = frozenset((int,))


def _normalize(value):
    if type(value) is int:
        return value
    f = value if type(value) is Fraction else Fraction(value)
    return f.numerator if f.denominator == 1 else f


def exact_json(value):
    """JSON form of an exact value: a Fraction becomes the string "p/q" (or
    "p" when integral); ints and None pass through."""
    return str(value) if isinstance(value, Fraction) else value


def json_map(values):
    """Vertex-id-keyed map of exact values, for JSON output."""
    if set(map(type, values)) <= _INT:
        return dict(zip(map(str, range(len(values))), values))
    return {str(i): exact_json(v) for i, v in enumerate(values)}


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

    def coeff_map(self):
        """Vertex-id-keyed coefficient map for JSON output."""
        return json_map(self.coeffs)

    def __repr__(self):
        return "QCycle(%s)" % (", ".join(str(c) for c in self.coeffs))


# ---------------------------------------------------------------------------
# resolution graphs
# ---------------------------------------------------------------------------

class ResolutionGraph:
    """Weighted dual graph of an exceptional divisor.

    vertices: sequence of (self_intersection, genus) pairs
    edges:    vertex-id pairs; the graph must be a connected tree
    central:  optional id of the central curve of a star-shaped graph

    Construction validates the tree shape and negative definiteness (by the
    signs of the subtree determinants, which it keeps for the linear
    solves); if a central vertex is given, it also validates the star shape
    (every other vertex rational, on a chain, with self-intersection <= -2;
    chains with -1 vertices are rejected rather than contracted).
    """

    def __init__(self, vertices, edges, central=None):
        verts = [(int(s), int(g)) for s, g in vertices]
        if not verts:
            raise InputError("graph needs at least one vertex")
        for s, g in verts:
            if g < 0:
                raise InputError("genus must be >= 0, got %d" % g)
        n = len(verts)
        edge_set = set()
        for e in edges:
            i, j = int(e[0]), int(e[1])
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

        self.selfint = tuple(s for s, _ in verts)
        self.genus = tuple(g for _, g in verts)
        self.edges = tuple(sorted(edge_set))
        self.num_vertices = n

        # the edges are sorted pairs i < j, so each vertex meets its smaller
        # neighbours before its larger ones: the lists come out sorted
        nbrs = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(map(tuple, nbrs))

        if central is not None:
            central = int(central)
            if not 0 <= central < n:
                raise InputError("central vertex %d out of range" % central)
        # a depth-first walk from the root (the central vertex, if there is
        # one), children in id order, lists every vertex after its parent,
        # and each arm of a star as one run from the center outward; a tree
        # with n-1 edges is connected iff the walk reaches everything
        root = 0 if central is None else central
        parent = [None] * n  # None until the walk reaches the vertex
        parent[root] = -1
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for w in reversed(self._neighbors[v]):
                if parent[w] is None:
                    parent[w] = v
                    stack.append(w)
        if len(order) != n:
            raise InputError("graph is not connected")

        # D_v = det(-I) on the subtree of v, P_v = the product of the D_c
        # of v's children.  Expanding along v's row,
        # D_v = -s_v*P_v - sum_c P_c*(P_v/D_c); the sum is kept in `cross`
        # as the children arrive.  With the vertices taken leaf first, each
        # leading principal minor of -I is the product of D_v over the
        # maximal subtrees completed so far, so by Sylvester's criterion I
        # is negative definite iff every D_v is positive.
        det = [0] * n
        prod = [1] * n
        cross = [0] * n
        for v in reversed(order):
            d = -self.selfint[v] * prod[v] - cross[v]
            if d <= 0:
                raise InputError("intersection matrix is not negative definite")
            det[v] = d
            p = parent[v]
            if p >= 0:
                cross[p] = cross[p] * d + prod[v] * prod[p]
                prod[p] *= d
        self._order, self._parent, self._det, self._prod = order, parent, det, prod

        self.central = central
        if central is not None:
            self._validate_star()

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

    def _validate_star(self):
        for arm in self.arms():
            for v in arm:
                if self.genus[v] != 0:
                    raise InputError("arm vertex %d has genus %d" % (v, self.genus[v]))
                if self.selfint[v] > -2:
                    raise InputError(
                        "arm vertex %d has self-intersection %d; chains with "
                        "-1 vertices are rejected, not contracted" % (v, self.selfint[v]))

    def arms(self):
        """Arms of a star-shaped graph, each listed from the center outward."""
        return self._arm_layout.arms

    @cached_property
    def _arm_layout(self):
        if self.central is None:
            raise InputError("graph has no central vertex")
        return _ArmLayout(self)

    @cached_property
    def _seifert(self):
        """The Seifert invariant of a star-shaped graph; star_graph hands in
        the one it was built from."""
        return seifert_of_graph(self)

    # -- intersection pairing -----------------------------------------------

    def product_with_vertex(self, coeffs, i):
        """(sum_j c_j E_j) . E_i, exact."""
        total = coeffs[i] * self.selfint[i]
        for j in self._neighbors[i]:
            total += coeffs[j]
        return total

    def products(self, coeffs):
        """[C.E_i for every vertex i] for the cycle C with these
        coefficients; on a star, once per class of identical arms."""
        if self.central is None:
            return [self.product_with_vertex(coeffs, i)
                    for i in range(self.num_vertices)]
        layout = self._arm_layout
        laid = layout.laid(coeffs)
        classes = layout.classes(laid)
        center = laid[0]
        total = center * self.selfint[self.central]
        arm_products = []
        for k, count in zip(classes.reps, classes.counts):
            a, b = layout.bounds[k], layout.bounds[k + 1]
            arm_products.append(_arm_products(layout.chains[k], center, laid[a:b]))
            total += count * laid[a]
        return layout.spread(total, arm_products, classes.of_arm)

    @cached_property
    def _edge_ends(self):
        return tuple(i for i, _ in self.edges), tuple(j for _, j in self.edges)

    def pairing(self, a, b):
        """Intersection pairing of two cycles."""
        a, b = tuple(a), tuple(b)
        heads, tails = self._edge_ends
        total = sum(map(mul, map(mul, a, b), self.selfint))
        total += sum(map(mul, map(a.__getitem__, heads), map(b.__getitem__, tails)))
        total += sum(map(mul, map(a.__getitem__, tails), map(b.__getitem__, heads)))
        return _normalize(total)

    def canonical_degree(self, i):
        # adjunction: K.E_i = -E_i^2 - 2 + 2g_i
        return -self.selfint[i] - 2 + 2 * self.genus[i]

    def canonical_product(self, coeffs):
        """K . (sum_j c_j E_j)."""
        degrees = map(self.canonical_degree, range(self.num_vertices))
        return _normalize(sum(map(mul, coeffs, degrees)))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        return {
            "vertices": [{"selfint": s, "genus": g}
                         for s, g in zip(self.selfint, self.genus)],
            "edges": [list(e) for e in self.edges],
            "central": self.central,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, data):
        try:
            vertices = [(v["selfint"], v["genus"]) for v in data["vertices"]]
            edges = data["edges"]
            central = data.get("central")
        except (KeyError, TypeError) as exc:
            raise InputError("malformed graph serialization: %s" % exc) from exc
        return cls(vertices, edges, central=central)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError("invalid JSON: %s" % exc) from exc
        return cls.from_json_dict(data)

    def to_dot(self):
        """DOT rendering; the central vertex, if any, is double-circled."""
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

@dataclass(frozen=True)
class SeifertInvariant:
    """Star-shaped data (g, c0, arms); arms are (alpha, beta) pairs.

    Arms with alpha = 1 are allowed (they emit no vertices) but must carry
    beta = 0.  The orbifold degree deg D = c0 - sum(beta/alpha) must be
    positive, which for star graphs is negative definiteness; it is kept in
    integers as degree_period.

    This is also the Pinkham-Demazure degree model of the divisor ladder
    D_n: deg, arm_count and cutoff work on arm_types, the arms with
    alpha >= 2 grouped by type, so they cost O(distinct arm types).
    """

    g: int
    c0: int
    arms: tuple

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple((int(a), int(b)) for a, b in self.arms))
        if self.g < 0:
            raise InputError("genus must be >= 0, got %d" % self.g)
        for a, b in dict.fromkeys(self.arms):
            if a < 1:
                raise InputError("arm with alpha=%d" % a)
            if a == 1 and b != 0:
                raise InputError("arm (1, %d): alpha=1 forces beta=0" % b)
            if a > 1 and not (1 <= b < a and gcd(a, b) == 1):
                raise InputError("arm (%d, %d) is not a reduced Seifert pair" % (a, b))
        if self.degree_period[1] <= 0:
            raise InputError("orbifold degree %s is not positive" % self.deg_divisor())

    def nontrivial_arms(self):
        return tuple((a, b) for a, b in self.arms if a >= 2)

    @cached_property
    def arm_types(self):
        """{(alpha, beta): count} over the arms with alpha >= 2."""
        return Counter(self.nontrivial_arms())

    @cached_property
    def degree_period(self):
        """(P, S): P the lcm of the alphas and S = P*deg D, an integer, so
        that deg D_{n+P} = deg D_n + S."""
        period = lcm(*(a for a, _ in self.arm_types))
        return period, period * self.c0 - sum(
            k * b * (period // a) for (a, b), k in self.arm_types.items())

    def deg_divisor(self):
        """deg D = c0 - sum beta_i/alpha_i = S/P, an exact positive rational."""
        period, shift = self.degree_period
        return Fraction(shift, period)

    def deg(self, n):
        """deg D_n = n*c0 - sum_i ceil(n*beta_i/alpha_i), an exact integer."""
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
        if stop < 0:
            raise InputError("degree count must be >= 0, got %r" % (stop,))
        steps = repeat(self.c0)
        for (a, b), k in self.arm_types.items():
            steps = map(sub, steps, _arm_type_steps(a, b, k))
        return islice(accumulate(steps, initial=0), stop)

    def deg_sum(self, stop):
        """deg D_0 + ... + deg D_{stop-1} in closed form: each arm type's
        ceilings sum to one floor_sum, so it costs O(log) per arm type."""
        if stop < 0:
            raise InputError("degree count must be >= 0, got %r" % (stop,))
        return self.c0 * (stop * (stop - 1) // 2) - sum(
            k * floor_sum(stop, a, b, a - 1) for (a, b), k in self.arm_types.items())

    def arm_count(self):
        return sum(self.arm_types.values())

    def z0(self):
        """First n >= 1 with deg D_n >= 0."""
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


def star_graph(seifert):
    """Build the star-shaped resolution graph of a Seifert invariant.

    The central vertex gets id 0; arms are laid out in the given order, each
    emitted from the center outward, and each arm type is expanded once.
    Arms with alpha = 1 emit no vertices.  The graph keeps the invariant it
    was built from.
    """
    chains = {arm: hj_expand(*arm) for arm in seifert.arm_types}
    vertices = [(-seifert.c0, seifert.g)]
    edges = []
    for arm in seifert.nontrivial_arms():
        prev = 0
        for c in chains[arm]:
            vertices.append((-c, 0))
            edges.append((prev, len(vertices) - 1))
            prev = len(vertices) - 1
    graph = ResolutionGraph(vertices, edges, central=0)
    graph._seifert = seifert
    return graph


def seifert_of_graph(graph):
    """Read the Seifert invariant off a star-shaped graph.

    Inverse to star_graph up to the (invisible) alpha = 1 arms: each arm's
    self-intersections, read from the center outward, evaluate to alpha/beta,
    once per distinct chain.
    """
    layout = graph._arm_layout  # raises on a graph without a center
    c = graph.central
    classes = layout.chain_classes
    pairs = [hj_evaluate(layout.chains[k]) for k in classes.reps]
    arms = tuple(map(pairs.__getitem__, classes.of_arm))
    return SeifertInvariant(g=graph.genus[c], c0=-graph.selfint[c], arms=arms)


# ---------------------------------------------------------------------------
# distinguished cycles
# ---------------------------------------------------------------------------

def dual_sum(graph, vertices):
    """Sum of the dual cycles of the listed vertices, by one solve: the
    rational cycle W with W.E_i = -(times i is listed) for every i."""
    rhs = [0] * graph.num_vertices
    for j in vertices:
        rhs[j] -= 1
    return QCycle(_solve_on_graph(graph, rhs))


def dual_cycle(graph, j):
    """The rational cycle W with W.E_i = -delta_{ji} for every i."""
    return dual_sum(graph, (j,))


def canonical_cycle(graph):
    """The rational cycle Z_K with (K + Z_K).E_i = 0 for every i."""
    rhs = [-graph.canonical_degree(i) for i in range(graph.num_vertices)]
    return QCycle(_solve_on_graph(graph, rhs))


def is_numerically_gorenstein(graph):
    """True iff the canonical cycle has integral coefficients."""
    return canonical_cycle(graph).is_integral
