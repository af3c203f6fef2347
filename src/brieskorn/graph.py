"""Resolution graphs, their intersection lattices, and Hirzebruch-Jung chains.

A resolution graph here is a weighted tree: every vertex carries the
self-intersection number and the genus of an exceptional curve, and the
intersection matrix the tree defines must be negative definite.  A star-shaped
graph additionally designates a central vertex; each arm is then a chain of
rational curves whose self-intersections form a Hirzebruch-Jung continued
fraction, and the graph is equivalent to its Seifert invariant
(g, c0, (alpha_1, beta_1), ..., (alpha_k, beta_k)).

All arithmetic is exact: integers and fractions.Fraction only.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, cycle, islice, repeat
from math import floor, gcd
from operator import sub

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


def hj_evaluate(chain):
    """Evaluate a chain [c_1, ..., c_r] back to a reduced pair (alpha, beta)."""
    chain = list(chain)
    if not chain:
        raise InputError("empty continued-fraction chain")
    if any(c < 2 for c in chain):
        raise InputError("chain entries must be >= 2: %r" % (chain,))
    value = Fraction(chain[-1])
    for c in reversed(chain[:-1]):
        value = c - 1 / value  # value > 1 throughout, never zero
    return value.numerator, value.denominator


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def negative_definite(matrix):
    """True iff the symmetric integer matrix is negative definite.

    Fraction-free (Bareiss) elimination; after round k the pivot equals the
    (k+1)x(k+1) leading principal minor, whose sign must be (-1)^(k+1).
    Dense and cubic in the size: ResolutionGraph checks its trees by the
    leaf-first pivot signs instead, and this stays as their oracle.
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
    """Solve I(graph) . x = rhs exactly, in time linear in the vertex count.

    The graph's leaf-first order and pivots already reduce the matrix, since
    a tree has no fill-in and every off-diagonal entry is 1; one upward sweep
    reduces the right-hand side and one downward sweep solves.
    """
    order, parent, pivots = graph._order, graph._parent, graph._pivots
    load = list(rhs)
    for v in reversed(order[1:]):
        if load[v]:
            load[parent[v]] -= load[v] / pivots[v]
    x = [None] * graph.num_vertices
    for v in order:
        x[v] = (load[v] - (x[parent[v]] if v else 0)) / pivots[v]
    return x


# ---------------------------------------------------------------------------
# rational cycles
# ---------------------------------------------------------------------------

def _normalize(value):
    if type(value) is int:
        return value
    f = Fraction(value)
    return f.numerator if f.denominator == 1 else f


def exact_json(value):
    """JSON form of an exact value: a Fraction becomes the string "p/q" (or
    "p" when integral); ints and None pass through."""
    return str(value) if isinstance(value, Fraction) else value


class QCycle:
    """Rational combination of the exceptional curves E_0, ..., E_{n-1}.

    Coefficients are exact; integral values are stored as int.  Comparison
    operators are componentwise, so <= and >= give the effective partial
    order on cycles.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(_normalize(c) for c in coeffs))

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
        return all(isinstance(c, int) for c in self.coeffs)

    @property
    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    @property
    def support(self):
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def as_integers(self):
        if not self.is_integral:
            raise InputError("cycle has non-integral coefficients: %r" % (self,))
        return tuple(self.coeffs)

    def coeff_map(self):
        """Vertex-id-keyed coefficient map for JSON output."""
        return {str(i): exact_json(c) for i, c in enumerate(self.coeffs)}

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
    signs of the leaf-first pivots, which it keeps for the linear solves); if
    a central vertex is given, it also validates the star shape (every other
    vertex rational, on a chain, with self-intersection <= -2; chains with
    -1 vertices are rejected rather than contracted).
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

        nbrs = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(tuple(sorted(v)) for v in nbrs)

        # a walk from vertex 0 lists every vertex after its parent; a tree
        # with n-1 edges is connected iff the walk reaches everything
        parent = [-1] * n
        seen = [True] + [False] * (n - 1)
        order = [0]
        for v in order:
            for w in self._neighbors[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise InputError("graph is not connected")

        # Eliminating leaves first leaves the tree without fill-in, and the
        # leading principal minors of the permuted matrix are the products
        # of the pivots, so by Sylvester's criterion the matrix is negative
        # definite iff every pivot is negative.
        pivots = [Fraction(s) for s in self.selfint]
        for v in reversed(order):
            if pivots[v] >= 0:
                raise InputError("intersection matrix is not negative definite")
            if v:
                pivots[parent[v]] -= 1 / pivots[v]
        self._order, self._parent, self._pivots = order, parent, pivots

        if central is not None:
            central = int(central)
            if not 0 <= central < n:
                raise InputError("central vertex %d out of range" % central)
        self.central = central
        if central is not None:
            self._validate_star()

    # -- basic structure ----------------------------------------------------

    def neighbors(self, i):
        return self._neighbors[i]

    def degree(self, i):
        return len(self._neighbors[i])

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

    @cached_property
    def _arms(self):
        if self.central is None:
            raise InputError("graph has no central vertex")
        arms = []
        for start in self.neighbors(self.central):
            chain = [start]
            prev, cur = self.central, start
            while True:
                nxt = [v for v in self.neighbors(cur) if v != prev]
                if not nxt:
                    break
                if len(nxt) > 1:
                    raise InputError("vertex %d branches off the central curve; "
                                     "graph is not star-shaped" % cur)
                prev, cur = cur, nxt[0]
                chain.append(cur)
            arms.append(chain)
        arms.sort(key=lambda c: c[0])
        if sum(len(a) for a in arms) != self.num_vertices - 1:
            raise InternalInvariantError("arm decomposition missed a vertex")
        return tuple(tuple(a) for a in arms)

    def arms(self):
        """Arms of a star-shaped graph, each listed from the center outward."""
        return self._arms

    # -- intersection pairing -----------------------------------------------

    def product_with_vertex(self, coeffs, i):
        """(sum_j c_j E_j) . E_i, exact."""
        total = coeffs[i] * self.selfint[i]
        for j in self._neighbors[i]:
            total += coeffs[j]
        return total

    def pairing(self, a, b):
        """Intersection pairing of two cycles."""
        total = 0
        for i in range(self.num_vertices):
            total += a[i] * b[i] * self.selfint[i]
        for i, j in self.edges:
            total += a[i] * b[j] + a[j] * b[i]
        return _normalize(total)

    def canonical_degree(self, i):
        # adjunction: K.E_i = -E_i^2 - 2 + 2g_i
        return -self.selfint[i] - 2 + 2 * self.genus[i]

    def canonical_product(self, coeffs):
        """K . (sum_j c_j E_j)."""
        return _normalize(sum(coeffs[i] * self.canonical_degree(i)
                              for i in range(self.num_vertices)))

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
    beta = 0.  The orbifold degree c0 - sum(beta/alpha) must be positive,
    which for star graphs is negative definiteness.

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
        for a, b in self.arms:
            if a < 1:
                raise InputError("arm with alpha=%d" % a)
            if a == 1 and b != 0:
                raise InputError("arm (1, %d): alpha=1 forces beta=0" % b)
            if a > 1 and not (1 <= b < a and gcd(a, b) == 1):
                raise InputError("arm (%d, %d) is not a reduced Seifert pair" % (a, b))
        if self.deg_divisor() <= 0:
            raise InputError("orbifold degree %s is not positive" % self.deg_divisor())

    def nontrivial_arms(self):
        return tuple((a, b) for a, b in self.arms if a >= 2)

    @cached_property
    def arm_types(self):
        """{(alpha, beta): count} over the arms with alpha >= 2."""
        return Counter(self.nontrivial_arms())

    def deg_divisor(self):
        """deg D = c0 - sum beta_i/alpha_i, an exact positive rational."""
        return self.c0 - sum(k * Fraction(b, a) for (a, b), k in self.arm_types.items())

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
        """First n >= 1 with deg D_n >= 0.

        Each arm's ceiling exceeds n*beta/alpha by less than 1, so the scan
        stops by n = arm_count/deg D at the latest.
        """
        n = 1
        while self.deg(n) < 0:
            n += 1
        return n

    def cutoff(self):
        """Smallest N with deg D_n > 2g-2 for every n >= N.

        Each arm's ceiling loses less than 1, so n*degD > 2g-2+#arms makes
        deg D_n > 2g-2; past that point h1 vanishes.
        """
        bound = Fraction(2 * self.g - 2 + self.arm_count()) / self.deg_divisor()
        return max(floor(bound) + 1, 0)


def _arm_type_steps(alpha, beta, k):
    """k*(ceil((n+1)*beta/alpha) - ceil(n*beta/alpha)) for n = 0, 1, 2, ...,
    which repeats with period alpha."""
    ceilings = [k * ((r * beta + alpha - 1) // alpha) for r in range(alpha + 1)]
    return cycle([hi - lo for lo, hi in zip(ceilings, ceilings[1:])])


def star_graph(seifert):
    """Build the star-shaped resolution graph of a Seifert invariant.

    The central vertex gets id 0; arms are laid out in the given order, each
    emitted from the center outward.  Arms with alpha = 1 emit no vertices.
    """
    vertices = [(-seifert.c0, seifert.g)]
    edges = []
    for alpha, beta in seifert.arms:
        if alpha == 1:
            continue
        prev = 0
        for c in hj_expand(alpha, beta):
            vertices.append((-c, 0))
            edges.append((prev, len(vertices) - 1))
            prev = len(vertices) - 1
    return ResolutionGraph(vertices, edges, central=0)


def seifert_of_graph(graph):
    """Read the Seifert invariant off a star-shaped graph.

    Inverse to star_graph up to the (invisible) alpha = 1 arms: each arm's
    self-intersections, read from the center outward, evaluate to alpha/beta.
    """
    if graph.central is None:
        raise InputError("graph has no central vertex")
    c = graph.central
    arms = tuple(hj_evaluate([-graph.selfint[v] for v in arm]) for arm in graph.arms())
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
    rhs = [graph.selfint[i] + 2 - 2 * graph.genus[i] for i in range(graph.num_vertices)]
    return QCycle(_solve_on_graph(graph, rhs))


def is_numerically_gorenstein(graph):
    """True iff the canonical cycle has integral coefficients."""
    return canonical_cycle(graph).is_integral
