"""Analytic models over the divisor degrees of a star-shaped graph.

The degree model is the Seifert invariant itself, kept by every model as
`pd`: SeifertInvariant.deg gives deg D_n = n*c0 - sum ceil(n*b/a) over the
arms, which knows only the topology, and SeifertInvariant.degrees streams
deg D_0, deg D_1, ...  An analytic model answers h0(D_n) given n and
deg D_n (its one hook, h0_at); Riemann-Roch and Clifford leave only finitely
many degrees open, and summing the h1 over one degree stream gives the
geometric genus.  Three models are provided: the exact one for Brieskorn
complete intersections (series coefficients), the hyperelliptic maximum
(Clifford bound met at every degree), and explicit overrides.

The module ends with the full classification of the analytic structures on
the (2,3,3,4) graph that share the fundamental cycle as maximal ideal cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import islice
from operator import mul
from typing import NamedTuple

from . import bci as _bci
from .cycles import _effective_cycle, cycle_report, fundamental_cycle
from .errors import InputError, InternalInvariantError, ModelInconsistencyError, exact_int
from .graph import QCycle, ResolutionGraph, SeifertInvariant, seifert_of_graph
from .numerics import (HilbertSeries, IntPolynomial, _validate_ring_series,
                       pg_difference, value_semigroup_from_series)
from .report import report_json


# ---------------------------------------------------------------------------
# degree bounds
# ---------------------------------------------------------------------------

def _clifford_range(n, deg, g):
    """Admissible range [lo, hi] for h0(D_n), with deg D_n = deg and central
    genus g, or the exact value when the degree determines it (returned as
    a one-point range)."""
    if n == 0:
        return 1, 1
    if deg < 0:
        return 0, 0
    if deg >= 2 * g - 1:
        v = deg + 1 - g
        return v, v
    return max(deg + 1 - g, 0), deg // 2 + 1


def _clifford_max_pg(pd):
    """pinkham_pg(HyperellipticMaxModel(pd)) over one period of degrees.

    At the top of the Clifford range h1(D_n) = max(0, g - ceil(d/2),
    g - 1 - d) with d = deg D_n, n = 0 included, so h1 depends on the degree
    alone.  With (P, S) = pd.degree_period, deg D_{r+qP} = deg D_r + q*S
    and S >= 1.  The degrees of one period are tallied, the residues below
    cutoff mod P recur once more than the others, and each distinct degree
    adds its h1 along its progression while it stays at most 2g - 2, where
    h1 is nonzero.  The cutoff guard is pinkham_pg's; its
    per-degree check (h1 >= 0) is not repeated here.
    """
    cutoff = _checked_cutoff(pd)
    g = pd.g
    period, shift = pd.degree_period
    whole, rest = divmod(cutoff, period)
    stream = pd.degrees(min(period, cutoff))
    total = 0
    for repeats, degs in ((whole + 1, islice(stream, rest)), (whole, stream)):
        for v, k in Counter(degs).items():
            top = min(2 * g - 2, v + (repeats - 1) * shift)
            total += k * sum(max(g - (d + 1) // 2, g - 1 - d)
                             for d in range(v, top + 1, shift))
    return total


def ambiguous_degrees(pd):
    """The n >= 1 whose h0 is not pinned down: 0 <= deg D_n <= 2g-2."""
    out = []
    for n, deg in enumerate(pd.degrees(pd.cutoff() + 1)):
        lo, hi = _clifford_range(n, deg, pd.g)
        if lo != hi:
            out.append(n)
    return out


# ---------------------------------------------------------------------------
# analytic models
# ---------------------------------------------------------------------------

class AnalyticModel:
    """Assignment of h0(D_n) compatible with Riemann-Roch and Clifford.

    A model defines h0_at(n, deg), the value of h0(D_n) given deg D_n = deg;
    h0, h1, first_section and pinkham_pg all read it, so a subclass that
    overrides h0_at alone is seen the same way by each of them.
    """

    def __init__(self, pd):
        self.pd = pd

    def h0_at(self, n, deg):
        """h0(D_n), given deg D_n = deg."""
        raise NotImplementedError

    def h0(self, n):
        return self.h0_at(n, self.pd.deg(n))

    def h1(self, n):
        """h1(D_n) = h0(D_n) - (deg D_n + 1 - g)."""
        deg = self.pd.deg(n)
        return self.h0_at(n, deg) - (deg + 1 - self.pd.g)

    def first_section(self, limit):
        """First n in 1..limit with h0(D_n) > 0, or None; the h0 values are
        read over one degree stream."""
        h0_at = self.h0_at
        return next((n for n, deg in enumerate(self.pd.degrees(exact_int(limit) + 1))
                     if n and h0_at(n, deg) > 0), None)

    def _checked(self, n, deg, value, error_cls=InternalInvariantError):
        """value, once it lies in the Clifford range of h0(D_n)."""
        lo, hi = _clifford_range(n, deg, self.pd.g)
        if not lo <= value <= hi:
            raise error_cls(
                "h0(D_%d) = %d outside the admissible range [%d, %d] "
                "(deg D_%d = %d, g = %d)" % (n, value, lo, hi, n, deg, self.pd.g))
        return value


class BciModel(AnalyticModel):
    """Exact model of a Brieskorn complete intersection: h0(D_n) is the
    coefficient of t^n in the Hilbert series of the graded ring.  Its
    weights, the n with h0(D_n) > 0, are bci.WeightSemigroup, decided on
    deg D_n and <ghat_1..ghat_m> with no Apéry array of <e_1..e_m>."""

    def __init__(self, data):
        super().__init__(data.seifert)
        self.data = data
        self.weights = _bci.WeightSemigroup(data)  # the n with h0(D_n) > 0

    @cached_property
    def series(self):
        return _bci.hilbert_series(self.data)

    @cached_property
    def coefficients(self):
        """The head that reports print: the coefficients through
        min(2*ell, 64), checked to start with 1 and to be nonnegative."""
        return _validate_ring_series(self.series, min(2 * self.data.ell, 64))

    @cached_property
    def _sweep(self):
        """The coefficients through max(cutoff, 64), checked, for the reads
        past the head and below Pinkham's cutoff (a pinkham_pg sweep): one
        expansion, kept apart from the printed head."""
        return _validate_ring_series(self.series, max(self.pd.cutoff(), 64))

    def h0_at(self, n, deg):
        coeffs = self.coefficients
        if len(coeffs) <= n < self.pd.cutoff():
            coeffs = self._sweep
        value = coeffs[n] if n < len(coeffs) else self.series.expand(n)[n]
        return self._checked(n, deg, value)


class HyperellipticMaxModel(AnalyticModel):
    """Clifford bound met at every degree: the largest pointwise-admissible
    model, realized by hyperelliptic-type structures."""

    def h0_at(self, n, deg):
        return _clifford_range(n, deg, self.pd.g)[1]


class OverrideModel(AnalyticModel):
    """Explicit h0 values at the ambiguous degrees; everything else is
    forced by the degree."""

    def __init__(self, pd, overrides):
        super().__init__(pd)
        table = {exact_int(int(k) if type(k) is str and k.isdecimal() else k): exact_int(v)
                 for k, v in dict(overrides).items()}  # a JSON key "2" is degree 2
        open_slots = ambiguous_degrees(pd)
        missing = [n for n in open_slots if n not in table]
        if missing:
            raise InputError("model underdetermined; h0 needed at degrees %r" % missing)
        extra = sorted(set(table) - set(open_slots))
        if extra:
            raise InputError(
                "degrees %r are determined by Riemann-Roch; remove the overrides" % extra)
        for n, v in table.items():
            self._checked(n, pd.deg(n), v, InputError)
        self.overrides = table

    def h0_at(self, n, deg):
        if n in self.overrides:
            return self.overrides[n]
        lo, hi = _clifford_range(n, deg, self.pd.g)
        if lo != hi:
            raise InternalInvariantError("degree %d escaped the override table" % n)
        return lo


# ---------------------------------------------------------------------------
# genus sums and the m0 = z0 test
# ---------------------------------------------------------------------------

def _checked_cutoff(pd):
    cutoff = pd.cutoff()
    if pd.deg(cutoff) <= 2 * pd.g - 2:
        raise InternalInvariantError("cutoff bound failed at n = %d" % cutoff)
    return cutoff


def pinkham_pg(model):
    """Geometric genus as sum over n of h1(D_n); the tail past the cutoff
    vanishes because deg D_n stays above 2g-2 there.  One sweep of the
    degrees feeds both the model's h0_at and Riemann-Roch."""
    pd = model.pd
    cutoff = _checked_cutoff(pd)
    g = pd.g
    h0_at = model.h0_at
    total = 0
    for n, deg in enumerate(pd.degrees(cutoff)):
        h1 = h0_at(n, deg) - (deg + 1 - g)
        if h1 < 0:
            raise ModelInconsistencyError("h1(D_%d) = %d is negative" % (n, h1))
        total += h1
    return total


def pinkham_pg_closed(model):
    """pinkham_pg of a BciModel without a pass over the degrees or an
    expansion of the series.  The sum of h1(D_n) = h0(D_n) -
    (deg D_n + 1 - g) over n < cutoff splits into bci.series_prefix read
    at cutoff - 1, the free-basis count of the series coefficients, and
    SeifertInvariant.deg_sum (Riemann-Roch); the cutoff guard is the same,
    the per-degree checks (h1 >= 0, the Clifford range) are pinkham_pg's
    alone.  It reads the exponent data, not model.series.  lattice_pg reads
    the same count at the a-invariant (Watanabe's duality); this route
    never reads a."""
    pd = model.pd
    cutoff = _checked_cutoff(pd)
    return (_bci.series_prefix(model.data, cutoff - 1) - pd.deg_sum(cutoff)
            - cutoff * (1 - pd.g))


def z0_m0(model):
    """(first n >= 1 with deg D_n >= 0, first n >= 1 with h0(D_n) > 0), m0
    by a walk of h0_at up to max(z0, cutoff), where Riemann-Roch puts it:
    past the cutoff h0 = deg + 1 - g >= g, and h0 = deg + 1 when g = 0.
    The oracle of the weights that mz_criterion_weighted reads for a BCI."""
    z0 = model.pd.z0()
    limit = max(z0, model.pd.cutoff())
    m0 = model.first_section(limit)
    if m0 is None:
        raise InternalInvariantError("no section found below n = %d" % limit)
    if z0 > m0:
        raise InternalInvariantError("z0 = %d exceeds m0 = %d" % (z0, m0))
    return z0, m0


def is_hyperelliptic_type(seifert):
    """Pairing condition under which the Clifford-maximal model is realized:
    at most one class of identical (alpha, beta) arms occurs an odd number
    of times."""
    return sum(1 for c in seifert.arm_types.values() if c % 2) <= 1


@dataclass(frozen=True)
class PgMaxResult:
    value: int
    exact: bool
    reason: str

    def to_json_dict(self):
        """value, exact and reason, as report_json writes them."""
        return report_json(self)


# the reason of an exact pg_max at central genus <= 1, where h1(D_n) on the
# central curve is fixed by deg D_n alone
_BY_DEGREES = "determined by degrees for central genus <= 1"


def pg_max(graph_or_seifert):
    """Largest geometric genus compatible with the graph.

    Exact when the central genus is <= 1 or the arm-pairing condition holds;
    otherwise the value is an upper bound over all admissible models.
    """
    if isinstance(graph_or_seifert, SeifertInvariant):
        seifert = graph_or_seifert
    elif isinstance(graph_or_seifert, ResolutionGraph):
        seifert = seifert_of_graph(graph_or_seifert)
    else:
        raise InputError("expected a ResolutionGraph or SeifertInvariant")
    value = _clifford_max_pg(seifert)
    if seifert.g <= 1:
        return PgMaxResult(value, True, _BY_DEGREES)
    if is_hyperelliptic_type(seifert):
        return PgMaxResult(value, True, "realized by a hyperelliptic-type structure")
    return PgMaxResult(value, False, "upper bound model only")


@dataclass(frozen=True)
class MZAssessment:
    """Verdict on 'maximal ideal cycle = fundamental cycle'.

    For a BCI model the verdict is exact (e_m <= alpha).  For any other
    model only the weight-level condition m0 = z0 is reported, with h0
    witnesses; m0 = z0 does not by itself force the cycles to be equal.
    """

    kind: str
    verdict: bool
    exact: bool
    z0: int
    m0: int
    e_m: int = None
    alpha: int = None
    h0_alpha_nonzero: bool = None
    h0_witness: int = None
    caveat: str = None

    def to_json_dict(self):
        """report_json less its None fields: a bci verdict keeps e_m, alpha and
        h0_alpha_nonzero, a model verdict h0_witness and the caveat."""
        return {k: v for k, v in report_json(self).items() if v is not None}


_MZ_CAVEAT = ("m0 = z0 compares only the central multiplicities; models with "
              "m0 = z0 and maximal ideal cycle different from the fundamental "
              "cycle exist on this very graph type")


def mz_criterion_weighted(model):
    """Assess M = Z for a weighted-homogeneous model.

    BCI models get the exact criterion e_m <= alpha together with the
    stronger sufficient condition h0(D_alpha) != 0 (alpha in <e_1..e_m>,
    asked of the model's weights: deg D_alpha in <ghat_1..ghat_m>); the
    two are reported separately, and the second must imply the first,
    with z0 = min(e_m, alpha) as bci_seifert hands it in and m0 = e_m, the
    least weight (h0(D_n) > 0 exactly on <e_1..e_m>).  Other models get
    the m0 = z0 report of z0_m0's walk, with its caveat.
    """
    if isinstance(model, BciModel):
        data = model.data
        witness = _bci.m_equals_z(data)
        h0_alpha = model.weights.contains(data.alpha)
        if h0_alpha and not witness.equal:
            raise InternalInvariantError(
                "h0(D_alpha) != 0 must force the cycles to agree")
        return MZAssessment(kind="bci", verdict=witness.equal, exact=True,
                            z0=model.pd.z0(), m0=witness.e_m, e_m=witness.e_m,
                            alpha=witness.alpha, h0_alpha_nonzero=h0_alpha)
    z0, m0 = z0_m0(model)
    return MZAssessment(kind="model", verdict=z0 == m0, exact=False,
                        z0=z0, m0=m0, h0_witness=model.h0(m0),
                        caveat=_MZ_CAVEAT)


@dataclass(frozen=True)
class MultiplicityBound:
    minus_square: int
    lower_bound: int


def multiplicity_bound(graph, cycle, z):
    """-cycle^2 for a candidate maximal ideal cycle, next to the universal
    lower bound -Z^2 + 1 with z the fundamental cycle of the graph."""
    cycle = _effective_cycle(cycle, "multiplicity bound")
    return MultiplicityBound(
        minus_square=-cycle_report(graph, cycle).self_intersection,
        lower_bound=1 - cycle_report(graph, QCycle(z)).self_intersection)


# ---------------------------------------------------------------------------
# the (2,3,3,4) case study
# ---------------------------------------------------------------------------

TABLE2_VECTORS = ((1, 1, 1, 1), (0, 2, 1, 1), (0, 2, 0, 1),
                  (0, 1, 1, 2), (0, 1, 1, 1), (0, 1, 0, 1))

_CASE_HYPOTHESES = (
    "maximal ideal cycle = fundamental cycle (h0(D_2) = 1 with the degree-2 "
    "section generic)",
    "multiplicity read off the second generator degree assumes the "
    "corresponding linear system is basepoint-free",
)


def _first_difference(a, b):
    """Index of the first differing entry of two coefficient lists."""
    return next((n for n, (x, y) in enumerate(zip(a, b)) if x != y), None)


def presentation_series(generators, relations):
    """prod_r (1 - t^r) / prod_g (1 - t^g) over the given degrees."""
    return HilbertSeries(reduce(mul, map(IntPolynomial.one_minus_power, relations),
                                IntPolynomial([1])), generators)


def peel_presentation(series):
    """(generator degrees, relation degrees) that the series forces, peeled
    off one first difference at a time: a generator wherever the ring has
    more sections than the presentation so far gives, a relation wherever
    it has fewer, read through the numerator's top degree plus the factor
    degrees.  The presentation must give the series exactly."""
    order = series.terms[-1][0] + sum(series.denominator_factors)
    target = series.expand(order)
    degrees = ([], [])  # generators, relations
    while True:
        candidate = presentation_series(*degrees)
        coeffs = candidate.expand(order)
        n = _first_difference(coeffs, target)
        if n is None:
            break
        degrees[target[n] < coeffs[n]].extend([n] * abs(target[n] - coeffs[n]))
    if (candidate.numerator * series.denominator_polynomial()
            != series.numerator * candidate.denominator_polynomial()):
        raise InternalInvariantError("presentation mismatch for %s" % series.format())
    return tuple(degrees[0]), tuple(degrees[1])


def is_gorenstein(series):
    """Stanley's test for a Cohen-Macaulay graded domain: Gorenstein iff the
    numerator is a palindrome up to sign, read off its nonzero terms."""
    terms = series.terms
    mirror = terms[0][0] + terms[-1][0]
    sign = 1 if terms[0][1] == terms[-1][1] else -1
    return all(n + k == mirror and d == sign * c
               for (n, c), (k, d) in zip(terms, reversed(terms)))


class _Study2334(NamedTuple):
    """The shared part of the (2,3,3,4) study."""

    data: _bci.BrieskornData
    graph: ResolutionGraph
    z: QCycle                      # the fundamental cycle
    bci_model: BciModel            # the Brieskorn complete intersection
    model: HyperellipticMaxModel   # the Clifford-maximal structure
    series: HilbertSeries          # the Clifford-maximal series
    pg: int                        # the Clifford-maximal p_g


@cache
def _maximal_2334():
    """The (2,3,3,4) data, graph, fundamental cycle and Brieskorn model,
    and the Clifford-maximal structure with its series and p_g, built and
    checked once per process."""
    data = _bci.bci_data((2, 3, 3, 4))
    graph = _bci.bci_graph(data)
    bci_model = BciModel(data)
    model = HyperellipticMaxModel(data.seifert)
    # it differs from the BCI structure by t^2 + t^5: sections in degrees 2, 5
    series = bci_model.series.plus_polynomial(IntPolynomial([0, 0, 1, 0, 0, 1]))
    n = _first_difference(series.expand(40), [model.h0(n) for n in range(41)])
    if n is not None:  # the closed form must reproduce the maximal model
        raise InternalInvariantError("maximal series wrong at degree %d" % n)
    return _Study2334(data, graph, fundamental_cycle(graph), bci_model, model,
                      series, pinkham_pg(model))


@dataclass(frozen=True)
class CaseReport:
    """One row of the M = Z classification on the (2,3,3,4) graph."""

    overrides: tuple              # (h3, h4, h5, h7)
    h0_head: tuple                # h0(D_0) .. h0(D_11)
    deficiencies: tuple           # (n, drop below the maximal model)
    series: HilbertSeries
    pg: int
    second_generator_degree: int
    multiplicity: int
    generator_degrees: tuple
    embedding_dimension: int
    gorenstein: bool
    value_semigroup_generators: tuple
    z0: int
    m0: int
    mz: MZAssessment
    abhyankar_bound: int
    sally_bound: object           # int or None
    hypotheses: tuple

    def to_json_dict(self):
        """report_json of the row, the overrides keyed h3, h4, h5, h7."""
        return {**report_json(self),
                "overrides": dict(zip(("h3", "h4", "h5", "h7"), self.overrides))}


def case_study_2334(h3, h4, h5, h7):
    """Classify the analytic structure on the (2,3,3,4) graph with M = Z and
    the given section counts at the four open degrees 3, 4, 5, 7.

    The overrides must satisfy the linear-equivalence consistency rules
    (h0(D_3) = 1 forces D_3 ~ 0, hence h0(D_5) = 1), and the quotient of the
    ring by the degree-2 and second-generator elements must have a genuine
    Hilbert series: a negative coefficient there rejects the case.  The
    further generators come from its value semigroup; gorenstein is
    Stanley's test on its series.
    """
    h3, h4, h5, h7 = map(exact_int, (h3, h4, h5, h7))
    for name, val, allowed in (("h3", h3, (0, 1)), ("h4", h4, (1, 2)),
                               ("h5", h5, (0, 1)), ("h7", h7, (1, 2))):
        if val not in allowed:
            raise InputError("%s = %d outside its admissible range %r"
                             % (name, val, list(allowed)))
    if h3 == 1 and h5 != 1:
        raise ModelInconsistencyError(
            "h0(D_3) = 1 makes D_3 trivial, so D_5 ~ D_2 forces h0(D_5) = 1")

    study = _maximal_2334()
    max_model, series_max = study.model, study.series
    model = OverrideModel(study.data.seifert, {2: 1, 3: h3, 4: h4, 5: h5, 7: h7})
    # the two models differ at the open degrees 3, 4, 5, 7 alone
    drops = [max_model.h0(n) - model.h0(n) for n in range(8)]
    deficiencies = tuple((n, drop) for n, drop in enumerate(drops) if drop)
    series_v = series_max.plus_polynomial(-IntPolynomial(drops))

    h0_head = tuple(model.h0(n) for n in range(12))

    # second generator degree: the first degree where the section counts
    # exceed what powers of the degree-2 section alone provide
    m = _first_difference(h0_head, HilbertSeries([1], (2,)).expand(11))

    # Hilbert series of the quotient by the regular sequence in degrees 2, m
    quot_num = series_v.numerator * IntPolynomial.one_minus_power(2) \
        * IntPolynomial.one_minus_power(m)
    artinian, rem = quot_num.divmod(series_max.denominator_polynomial())
    if not rem.is_zero:
        raise ModelInconsistencyError(
            "quotient by the degree-2 and degree-%d elements has no "
            "polynomial Hilbert series; overrides are inconsistent" % m)
    for n, c in enumerate(artinian.coeffs):
        if c < 0:
            raise ModelInconsistencyError(
                "quotient by the degree-2 and degree-%d elements has negative "
                "coefficient at degree %d: %s" % (m, n, artinian.format()))
    series = HilbertSeries(artinian, (2, m))

    gamma = value_semigroup_from_series(series, [2])
    gamma_gens = tuple(gamma.minimal_generators())
    if gamma_gens[0] != m:
        raise InternalInvariantError(
            "value semigroup starts at %d, expected the second generator "
            "degree %d" % (gamma_gens[0], m))
    generator_degrees = (2,) + gamma_gens
    emb = len(generator_degrees)
    gorenstein = is_gorenstein(series)

    pg = study.pg + pg_difference(series_v, series_max)
    if pg != pinkham_pg(model):
        raise InternalInvariantError("series and cohomology genus routes disagree")

    abhyankar = m + 1
    sally = m if gorenstein and m >= 3 else None
    if emb > abhyankar or (sally is not None and emb > sally):
        raise InternalInvariantError(
            "embedding dimension %d breaks its upper bounds" % emb)

    mz = mz_criterion_weighted(model)
    return CaseReport(
        overrides=(h3, h4, h5, h7),
        h0_head=h0_head,
        deficiencies=deficiencies,
        series=series,
        pg=pg,
        second_generator_degree=m,
        multiplicity=m,
        generator_degrees=generator_degrees,
        embedding_dimension=emb,
        gorenstein=gorenstein,
        value_semigroup_generators=gamma_gens,
        z0=mz.z0,
        m0=mz.m0,
        mz=mz,
        abhyankar_bound=abhyankar,
        sally_bound=sally,
        hypotheses=_CASE_HYPOTHESES,
    )


@dataclass(frozen=True)
class MaxTypeReport:
    """The Clifford-maximal structure on the (2,3,3,4) graph: the presentation
    and all it gives (embedding dimension, complete intersection, series)
    is peeled off its Hilbert series; gorenstein is Stanley's test."""

    pg: int
    m_cycle: QCycle
    minus_m_squared: int
    multiplicity_lower_bound: int
    multiplicity: int
    generator_degrees: tuple
    relation_degrees: tuple
    embedding_dimension: int
    gorenstein: bool
    complete_intersection: bool
    series: HilbertSeries
    z0: int
    m0: int
    caveat: str

    def to_json_dict(self):
        """report_json of the report; m_cycle is a pre-written vertex map."""
        return report_json(self)


@cache
def max_type_2334():
    """Invariants of the maximal-genus structure on the (2,3,3,4) graph.

    Here m0 = z0 = 2 yet the maximal ideal cycle is the fundamental cycle
    plus one arm curve.  peel_presentation reads generators in degrees
    2, 3, 4, 10 and relations in degrees 6, 20 off the Hilbert series, a
    complete intersection, and is_gorenstein reads its numerator.  The
    report is immutable and has no inputs, so it is built once per process.
    """
    study = _maximal_2334()
    graph, z, series = study.graph, study.z, study.series
    m_cycle = z + QCycle.unit(graph.num_vertices, graph.arms()[0][0])
    bound = multiplicity_bound(graph, m_cycle, z)

    generators, relations = peel_presentation(series)
    mz = mz_criterion_weighted(study.model)
    return MaxTypeReport(
        pg=study.pg,
        m_cycle=m_cycle,
        minus_m_squared=bound.minus_square,
        multiplicity_lower_bound=bound.lower_bound,
        multiplicity=bound.minus_square,
        generator_degrees=generators,
        relation_degrees=relations,
        embedding_dimension=len(generators),
        gorenstein=is_gorenstein(series),
        complete_intersection=len(generators) - len(relations) == 2,
        series=presentation_series(generators, relations),
        z0=mz.z0,
        m0=mz.m0,
        caveat=_MZ_CAVEAT,
    )


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def table1_rows():
    """Special structures on the (2,3,3,4) graph: the Brieskorn complete
    intersection itself and the maximal-genus structure."""
    study = _maximal_2334()
    data, graph = study.data, study.graph
    mx = _bci.maximal_ideal_cycle(data, graph)
    bound = multiplicity_bound(graph, mx, study.z)
    top = max_type_2334()
    return [{
        "type": "brieskorn complete intersection",
        "pg": pinkham_pg(study.bci_model),
        "mult": bound.minus_square,
        "emb": data.m,
    }, {
        "type": "maximal geometric genus",
        "pg": top.pg,
        "mult": top.multiplicity,
        "emb": top.embedding_dimension,
    }]


def table2_rows():
    """The six consistent override vectors with M = Z, in classification order."""
    return [case_study_2334(*v) for v in TABLE2_VECTORS]


class PDDegreeModel:
    """Compatibility name: the degree model is SeifertInvariant, and
    PDDegreeModel.from_bci(data) returns bci_seifert(data)."""

    from_bci = staticmethod(_bci.bci_seifert)
