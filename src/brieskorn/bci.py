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
from math import comb, lcm

from .errors import InputError, InternalInvariantError
from .graph import QCycle, SeifertInvariant, dual_sum, star_graph
from .numerics import HilbertSeries, NumericalSemigroup, floor_sum


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
        return {
            "exponents": list(self.exponents),
            "input_positions": list(self.input_positions),
            "ell": self.ell,
            "e": list(self.e),
            "alpha_i": list(self.alphas),
            "alpha": self.alpha,
            "ghat": self.ghat,
            "ghat_i": list(self.ghats),
            "beta_i": list(self.betas),
            "g": self.g,
            "c0": self.c0,
        }


def bci_data(exponents):
    """Derive BrieskornData from an exponent tuple (m >= 3, every a_i >= 2)."""
    raw = [int(a) for a in exponents]
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
    alpha = 1
    for x in alphas:
        alpha *= x
    prod_a = 1
    for x in a:
        prod_a *= x
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
    with alpha_i >= 2 (trivial families emit no arms)."""
    arms = tuple((data.alphas[i], data.betas[i])
                 for i in range(data.m) if data.alphas[i] >= 2
                 for _ in range(data.ghats[i]))
    return SeifertInvariant(g=data.g, c0=data.c0, arms=arms)


def bci_graph(data):
    """Star-shaped resolution graph; arms appear family by family."""
    return star_graph(data.seifert)


def arm_families(data):
    """For each exponent slot, the ordinals of its arms in graph.arms() order
    (empty for alpha_i = 1 families)."""
    spans = []
    pos = 0
    for i in range(data.m):
        if data.alphas[i] >= 2:
            spans.append(list(range(pos, pos + data.ghats[i])))
            pos += data.ghats[i]
        else:
            spans.append([])
    return spans


@dataclass(frozen=True)
class CoordinateCycle:
    """Divisorial part of the coordinate function x_i on the resolution."""

    index: int
    cycle: QCycle
    central_coefficient: int


def coordinate_cycle(data, graph, i):
    """Cycle of the i-th coordinate (0-based, slots sorted ascending).

    This is the sum of the duals of the family's arm ends, or for
    alpha_i = 1 of ghat_i copies of the central dual, found by one solve.
    Coefficients are guaranteed integral and the central coefficient is e_i.
    """
    if not 0 <= i < data.m:
        raise InputError("coordinate index %d out of range" % i)
    if data.alphas[i] >= 2:
        ends = [graph.arms()[k][-1] for k in arm_families(data)[i]]
    else:
        ends = [graph.central] * data.ghats[i]
    total = dual_sum(graph, ends)
    if not total.is_integral:
        raise InternalInvariantError("coordinate cycle %d is not integral: %r" % (i, total))
    cf = total[graph.central]
    if cf != data.e[i]:
        raise InternalInvariantError(
            "coordinate cycle %d has central coefficient %s, expected %d"
            % (i, cf, data.e[i]))
    return CoordinateCycle(index=i, cycle=total, central_coefficient=cf)


def maximal_ideal_cycle(data, graph):
    """Cycle of a generic element of the maximal ideal: the coordinate cycle
    of the largest exponent (smallest weight)."""
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


def semigroup_equivalence_check(data, n):
    """(n in <e_1..e_m>, deg D_n in <ghat_1..ghat_m>) — the two sides of the
    section-existence criterion; they must agree for every n >= 0."""
    lhs = weight_semigroup(data).contains(n)
    d = data.seifert.deg(n)
    rhs = d >= 0 and divisor_degree_semigroup(data).contains(d)
    return lhs, rhs


def hilbert_series(data):
    """Series of the graded ring: (1 - t^ell)^(m-2) / prod_i (1 - t^{e_i}).

    The numerator is written down from its binomial coefficients, which sit
    at the multiples of ell."""
    k = data.m - 2
    num = [0] * (k * data.ell + 1)
    num[::data.ell] = [(-1) ** j * comb(k, j) for j in range(k + 1)]
    return HilbertSeries(num, data.e)


def lattice_pg(data):
    """Geometric genus as a lattice-point count, without a degree sweep.

    The ring is Gorenstein with a-invariant a, so Pinkham's sum of the
    h1(D_n) is sum_{k <= a} dim R_k (Watanabe).  R is free over
    C[x_{m-1}, x_m] (the two largest exponents) on the monomials in the
    other coordinates with k_i < a_i; each such monomial of degree s adds
    #{(u, v) >= 0 : u e_{m-1} + v e_m <= a - s}, one floor_sum.  For m = 3
    this is #{i, j, k >= 1 : i/a_1 + j/a_2 + k/a_3 <= 1}.

    The monomials are tallied by degree, one coordinate at a time, so at
    most a + 1 degrees are kept and counted: the work is polynomial in m
    even where the number of monomials is exponential.
    """
    a = a_invariant(data)
    if a < 0:
        return 0
    degrees = {0: 1}  # degree s -> number of basis monomials of degree s
    for ei in data.e[:-2]:
        tally = defaultdict(int)
        for s, count in degrees.items():
            # k_i < a_i is k_i * e_i < ell
            for t in range(s, min(s + data.ell, a + 1), ei):
                tally[t] += count
        degrees = tally
    p, q = data.e[-2:]
    total = 0
    for s, count in degrees.items():
        # u runs over 0..top; with u' = top - u the free room a - s - u*p
        # becomes (a - s) % p + u'*p
        top, rest = divmod(a - s, p)
        total += count * (floor_sum(top + 1, q, p, rest) + top + 1)
    return total
