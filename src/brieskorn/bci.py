"""Brieskorn complete intersections from their exponent tuples.

Everything about the singularity with equations sum_i c_{ji} x_i^{a_i} = 0
(generic coefficients, m >= 3 exponents) is elementary arithmetic in the
exponents: the Seifert invariant of the resolution graph, the coordinate
cycles cut out by the x_i, the maximal ideal cycle, the a-invariant, and the
Hilbert series of the graded coordinate ring.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import comb, lcm, prod

from .errors import InputError, InternalInvariantError, exact_int
from .cycles import deg_on_central, minimal_cycle
from .graph import QCycle, SeifertInvariant, star_graph
from .numerics import HilbertSeries, NumericalSemigroup, floor_sum
from .report import report_json


@dataclass(frozen=True)
class BrieskornData:
    """Arithmetic data of an exponent tuple, sorted ascending.

    input_positions maps sorted slots back to the user's order:
    exponents[k] was originally at position input_positions[k].
    """

    exponents: tuple
    input_positions: tuple
    ell: int          # lcm of all exponents
    e: tuple          # e_i = ell / a_i (weights of the coordinates)
    alphas: tuple     # alpha_i = ell / lcm(others)
    alpha: int        # product of the alpha_i
    ghat: int         # (prod a_i) / ell
    ghats: tuple      # ghat_i = ghat * alpha_i / a_i (arms in the i-th family)
    betas: tuple      # e_i * beta_i = -1 mod alpha_i, 0 <= beta_i < alpha_i
    g: int            # genus of the central curve
    c0: int           # -(central self-intersection)

    @property
    def m(self):
        return len(self.exponents)

    @cached_property
    def seifert(self):
        """The Seifert invariant, built once; its deg(n) is deg D_n."""
        return bci_seifert(self)

    def to_json_dict(self):
        """report_json of the fields, alphas, ghats, betas as alpha_i, ghat_i, beta_i."""
        return report_json(self, alphas="alpha_i", ghats="ghat_i", betas="beta_i")


def bci_data(exponents):
    """Derive BrieskornData from an exponent tuple (m >= 3, every a_i >= 2)."""
    raw = list(map(exact_int, exponents))
    if len(raw) < 3:
        raise InputError("need at least three exponents, got %d" % len(raw))
    if any(a < 2 for a in raw):
        raise InputError("exponents must be >= 2: %r" % (raw,))
    order = sorted(range(len(raw)), key=lambda k: raw[k])
    a = [raw[k] for k in order]
    m = len(a)

    ell = lcm(*a)
    e = [ell // ai for ai in a]
    alphas = [ell // lcm(*(a[:i] + a[i + 1:])) for i in range(m)]
    alpha = prod(alphas)
    prod_a = prod(a)
    if prod_a % ell:
        raise InternalInvariantError("prod(a_i) not divisible by lcm(a_i)")
    ghat = prod_a // ell
    ghats = []
    for i in range(m):
        num = ghat * alphas[i]
        if num % a[i]:
            raise InternalInvariantError("ghat_i is not an integer at slot %d" % i)
        ghats.append(num // a[i])

    betas = []
    for i in range(m):
        if alphas[i] == 1:
            betas.append(0)
        else:
            inv = pow(e[i], -1, alphas[i])
            betas.append((-inv) % alphas[i])

    two_g = (m - 2) * ghat - sum(ghats) + 2
    if two_g % 2 or two_g < 0:
        raise InternalInvariantError("central genus came out as %s/2" % two_g)
    g = two_g // 2

    # c0 = sum ghat_i*beta_i/alpha_i + ghat/ell, over the common denominator
    # ell; then deg D = c0 - sum ghat_i*beta_i/alpha_i = ghat/ell
    c0_num = ghat + sum(k * b * (ell // x) for k, b, x in zip(ghats, betas, alphas))
    c0, rest = divmod(c0_num, ell)
    if rest or c0 <= 0:
        raise InternalInvariantError(
            "central self-intersection came out as %d/%d" % (c0_num, ell))

    return BrieskornData(
        exponents=tuple(a),
        input_positions=tuple(order),
        ell=ell,
        e=tuple(e),
        alphas=tuple(alphas),
        alpha=alpha,
        ghat=ghat,
        ghats=tuple(ghats),
        betas=tuple(betas),
        g=g,
        c0=c0,
    )


def bci_seifert(data):
    """Seifert invariant: ghat_i arms of type (alpha_i, beta_i) per family
    with alpha_i >= 2 (trivial families emit no arms), set unchecked as at
    most m runs.  bci_data makes them valid: the alpha_i >= 2 are pairwise
    coprime, so no two runs share a type, each beta_i is a unit mod alpha_i,
    and deg D = ghat/ell > 0.  The least weight of a nonzero function is
    min(e_m, alpha), so that is z0, the first n >= 1 with deg D_n >= 0; it
    is handed in too, and the invariant's own degree walk is left to
    invariants that come from no exponent tuple."""
    runs = zip(zip(data.alphas, data.betas), data.ghats)
    seifert = SeifertInvariant.__new__(SeifertInvariant)
    seifert._set(data.g, data.c0, tuple(run for run in runs if run[0][0] >= 2))
    object.__setattr__(seifert, "_z0", min(data.e[-1], data.alpha))
    return seifert


def bci_graph(data):
    """Star-shaped resolution graph; arms appear family by family."""
    return star_graph(data.seifert)


@dataclass(frozen=True)
class CoordinateCycle:
    """Divisorial part of the coordinate function x_i on the resolution."""

    index: int
    cycle: QCycle
    central_coefficient: int


def coordinate_cycle(data, graph, i):
    """Cycle of the i-th coordinate (0-based, slots sorted ascending).

    x_i has weight e_i, so its cycle is the minimal cycle L_{e_i}, made by
    the arm recursion with no linear solve.  It is also the sum of the
    duals of the family's arm ends, or for alpha_i = 1 of ghat_i copies of
    the central dual: L_{e_i} must meet E_0 in -deg D_{e_i}, which is
    -ghat_i for alpha_i = 1 and 0 otherwise.
    """
    i = exact_int(i)
    if not 0 <= i < data.m:
        raise InputError("coordinate index %d out of range" % i)
    cycle = minimal_cycle(graph, data.e[i])
    deg = deg_on_central(graph, cycle)
    expected = data.ghats[i] if data.alphas[i] == 1 else 0
    if deg != expected:
        raise InternalInvariantError(
            "coordinate cycle %d has deg D_%d = %d, expected %d"
            % (i, data.e[i], deg, expected))
    return CoordinateCycle(index=i, cycle=cycle, central_coefficient=data.e[i])


def maximal_ideal_cycle(data, graph):
    """Cycle of a generic element of the maximal ideal: the coordinate cycle
    of the largest exponent (smallest weight), L_{e_m}."""
    return coordinate_cycle(data, graph, data.m - 1).cycle


@dataclass(frozen=True)
class MZWitness:
    """Whether the maximal ideal cycle equals the fundamental cycle, with the
    two numbers that decide it: equality holds iff e_m <= alpha."""

    equal: bool
    e_m: int
    alpha: int

    def __bool__(self):
        return self.equal


def m_equals_z(data):
    e_m = data.e[-1]
    return MZWitness(equal=e_m <= data.alpha, e_m=e_m, alpha=data.alpha)


def a_invariant(data):
    """a-invariant of the graded coordinate ring: (m-2)*ell - sum e_i."""
    return (data.m - 2) * data.ell - sum(data.e)


def weight_semigroup(data):
    """Semigroup generated by the coordinate weights e_1, ..., e_m."""
    return NumericalSemigroup(data.e)


def divisor_degree_semigroup(data):
    """Semigroup generated by ghat_1, ..., ghat_m; every positive deg D_n
    with n in the weight semigroup lands here."""
    return NumericalSemigroup(data.ghats)


class WeightSemigroup(NumericalSemigroup):
    """The weight semigroup <e_1, ..., e_m>, the n with h0(D_n) > 0, decided
    on the divisor degrees: R = sum_n H0(D_n) (Pinkham), and n is a weight
    exactly when deg D_n >= 0 and deg D_n lies in <ghat_1, ..., ghat_m>.

    Membership costs one deg (O(arm types)) and one read of the Apéry array
    of <ghat>, which has min ghat_i / gcd entries, each ghat_i at most ghat;
    no Apéry array of <e>, with its e_m entries, is built.
    minimal_generators is NumericalSemigroup's, through this contains.
    weight_semigroup, the Apéry route, is the oracle."""

    def __init__(self, data):
        super().__init__(data.e)
        self._seifert = data.seifert
        self._degrees = divisor_degree_semigroup(data)

    def contains(self, n):
        n = exact_int(n)
        # deg D_n is defined for n >= 0 alone, and <ghat> holds no negative
        # integer, so its membership test also asks deg D_n >= 0
        return n >= 0 and self._degrees.contains(self._seifert.deg(n))


def hilbert_series(data):
    """Series of the graded ring: (1 - t^ell)^(m-2) / prod_i (1 - t^{e_i}).

    The numerator is kept as its m - 1 binomial terms
    (-1)^j C(m-2, j) t^{j ell}, which sit at the multiples of ell; no dense
    coefficient list is built."""
    k = data.m - 2
    return HilbertSeries.from_terms(
        ((j * data.ell, (-1) ** j * comb(k, j)) for j in range(k + 1)), data.e)


def series_prefix(data, top):
    """sum_{k <= top} [t^k] hilbert_series(data), counted over a free basis
    without expanding the series.

    Since a_i e_i = ell, the series is prod_{i <= m-2} (sum_{k < a_i}
    t^{k e_i}) / ((1 - t^{e_{m-1}})(1 - t^{e_m})): R is free over
    C[x_{m-1}, x_m] (the two largest exponents) on the monomials in the
    other coordinates with k_i < a_i.  Those monomials are tallied by degree
    up to top, one coordinate at a time, and each degree s adds
    #{(u, v) >= 0 : u e_{m-1} + v e_m <= top - s}, one floor_sum.  At most
    min(top + 1, prod_{i <= m-2} a_i) degrees are kept and counted, so the
    work is polynomial in m even where the number of monomials is
    exponential.
    """
    top = exact_int(top)
    if top < 0:
        return 0
    degrees = {0: 1}  # degree s -> number of basis monomials of degree s
    for ei in data.e[:-2]:
        tally = defaultdict(int)
        for s, count in degrees.items():
            # k_i < a_i is k_i * e_i < ell
            for t in range(s, min(s + data.ell, top + 1), ei):
                tally[t] += count
        degrees = tally
    p, q = data.e[-2:]
    total = 0
    for s, count in degrees.items():
        # u runs over 0..u_top; with u' = u_top - u the room left for v,
        # top - s - u*p, becomes (top - s) % p + u'*p
        u_top, rest = divmod(top - s, p)
        total += count * (floor_sum(u_top + 1, q, p, rest) + u_top + 1)
    return total


def lattice_pg(data):
    """Geometric genus as a lattice-point count, without a degree sweep.

    The ring is Gorenstein with a-invariant a, so Pinkham's sum of the
    h1(D_n) is sum_{k <= a} dim R_k (Watanabe): the free-basis count
    series_prefix read at a.  For m = 3 this is
    #{i, j, k >= 1 : i/a_1 + j/a_2 + k/a_3 <= 1}.
    """
    return series_prefix(data, a_invariant(data))
