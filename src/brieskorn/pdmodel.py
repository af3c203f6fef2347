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
from functools import cache, cached_property
from itertools import islice

from . import bci as _bci
from .cycles import fundamental_cycle
from .errors import InputError, InternalInvariantError, ModelInconsistencyError
from .graph import QCycle, ResolutionGraph, SeifertInvariant, seifert_of_graph
from .numerics import (HilbertSeries, IntPolynomial, _validate_ring_series,
                       pg_difference, value_semigroup_from_series)


# ---------------------------------------------------------------------------
# degree bounds
# ---------------------------------------------------------------------------

def clifford_bounds(pd, n):
    """Admissible range [lo, hi] for h0(D_n), or the exact value when the
    degree determines it (returned as a one-point range)."""
    return _clifford_range(n, pd.deg(n), pd.g)


def _clifford_range(n, deg, g):
    """clifford_bounds for deg D_n = deg and central genus g."""
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
        return next((n for n, deg in enumerate(self.pd.degrees(limit + 1))
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
    coefficient of t^n in the Hilbert series of the graded ring."""

    def __init__(self, data):
        super().__init__(data.seifert)
        self.data = data
        self.series = _bci.hilbert_series(data)
        self.weights = _bci.weight_semigroup(data)  # the n with h0(D_n) > 0

    @cached_property
    def coefficients(self):
        """The series coefficients through the larger of the order to which
        a ring series is checked (leading 1, none negative), Pinkham's
        cutoff and 64; one expansion serves every h0 read below that."""
        return _validate_ring_series(self.series, max(self.pd.cutoff(), 64))

    def h0_at(self, n, deg):
        coeffs = self.coefficients
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
        table = {int(k): int(v) for k, v in dict(overrides).items()}
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
    """pinkham_pg of a BciModel without a pass over the degrees.  The sum of
    h1(D_n) = h0(D_n) - (deg D_n + 1 - g) over n < cutoff splits into a
    prefix sum of the checked series coefficients and
    SeifertInvariant.deg_sum; the cutoff guard is the same, the per-degree
    checks (h1 >= 0, the Clifford range) are pinkham_pg's alone.  Neither
    part uses the a-invariant."""
    pd = model.pd
    cutoff = _checked_cutoff(pd)
    return (sum(model.coefficients[:cutoff]) - pd.deg_sum(cutoff)
            - cutoff * (1 - pd.g))


def z0_m0(model):
    """(first n >= 1 with deg D_n >= 0, first n >= 1 with h0(D_n) > 0)."""
    limit = 4 * (model.pd.cutoff() + model.pd.arm_count() + 4)
    z0 = model.pd.z0()
    m0 = model.first_section(limit)
    if m0 is None or z0 > limit:
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
        return {"value": self.value, "exact": self.exact, "reason": self.reason}


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
        return PgMaxResult(value, True, "determined by degrees for central genus <= 1")
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
        out = {"kind": self.kind, "verdict": self.verdict, "exact": self.exact,
               "z0": self.z0, "m0": self.m0}
        if self.kind == "bci":
            out["e_m"] = self.e_m
            out["alpha"] = self.alpha
            out["h0_alpha_nonzero"] = self.h0_alpha_nonzero
        else:
            out["h0_witness"] = self.h0_witness
        if self.caveat:
            out["caveat"] = self.caveat
        return out


_MZ_CAVEAT = ("m0 = z0 compares only the central multiplicities; models with "
              "m0 = z0 and maximal ideal cycle different from the fundamental "
              "cycle exist on this very graph type")


def mz_criterion_weighted(model):
    """Assess M = Z for a weighted-homogeneous model.

    BCI models get the exact criterion e_m <= alpha together with the
    stronger sufficient condition h0(D_alpha) != 0 (alpha in <e_1..e_m>);
    the two are reported separately.  Other models get the m0 = z0 report
    with its caveat.
    """
    z0, m0 = z0_m0(model)
    if isinstance(model, BciModel):
        data = model.data
        witness = _bci.m_equals_z(data)
        h0_alpha = model.weights.contains(data.alpha)
        if h0_alpha and not witness.equal:
            raise InternalInvariantError(
                "h0(D_alpha) != 0 must force the cycles to agree")
        return MZAssessment(kind="bci", verdict=witness.equal, exact=True,
                            z0=z0, m0=m0, e_m=witness.e_m, alpha=witness.alpha,
                            h0_alpha_nonzero=h0_alpha)
    return MZAssessment(kind="model", verdict=z0 == m0, exact=False,
                        z0=z0, m0=m0, h0_witness=model.h0(m0),
                        caveat=_MZ_CAVEAT)


@dataclass(frozen=True)
class MultiplicityBound:
    minus_square: int
    lower_bound: int

    def to_json_dict(self):
        return {"minus_square": self.minus_square, "lower_bound": self.lower_bound}


def multiplicity_bound(graph, cycle, z):
    """-cycle^2 for a candidate maximal ideal cycle, next to the universal
    lower bound -Z^2 + 1 with z the fundamental cycle of the graph."""
    coeffs = cycle.as_integers() if isinstance(cycle, QCycle) else tuple(cycle)
    if any(c < 0 for c in coeffs) or all(c == 0 for c in coeffs):
        raise InputError("multiplicity bound needs a nonzero effective cycle")
    return MultiplicityBound(minus_square=-graph.pairing(coeffs, coeffs),
                             lower_bound=-graph.pairing(z, z) + 1)


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
    for n in range(min(len(a), len(b))):
        if a[n] != b[n]:
            return n
    return None


def _max_series_2334(data):
    # the Clifford-maximal structure on this graph differs from the BCI one
    # by sections in degrees 2 and 5 exactly
    extra = IntPolynomial([0, 0, 1, 0, 0, 1])  # t^2 + t^5
    return _bci.hilbert_series(data).plus_polynomial(extra)


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
        h3, h4, h5, h7 = self.overrides
        return {
            "overrides": {"h3": h3, "h4": h4, "h5": h5, "h7": h7},
            "h0_head": list(self.h0_head),
            "deficiencies": [list(d) for d in self.deficiencies],
            "series_numerator": list(self.series.numerator.coeffs),
            "series_denominator_factors": list(self.series.denominator_factors),
            "series": self.series.format(),
            "pg": self.pg,
            "second_generator_degree": self.second_generator_degree,
            "multiplicity": self.multiplicity,
            "generator_degrees": list(self.generator_degrees),
            "embedding_dimension": self.embedding_dimension,
            "gorenstein": self.gorenstein,
            "value_semigroup_generators": list(self.value_semigroup_generators),
            "z0": self.z0,
            "m0": self.m0,
            "mz": self.mz.to_json_dict(),
            "abhyankar_bound": self.abhyankar_bound,
            "sally_bound": self.sally_bound,
            "hypotheses": list(self.hypotheses),
        }


def case_study_2334(h3, h4, h5, h7):
    """Classify the analytic structure on the (2,3,3,4) graph with M = Z and
    the given section counts at the four open degrees 3, 4, 5, 7.

    The overrides must satisfy the linear-equivalence consistency rules
    (h0(D_3) = 1 forces D_3 ~ 0, hence h0(D_5) = 1), and the quotient of the
    ring by the degree-2 and second-generator elements must have a genuine
    Hilbert series: a negative coefficient there rejects the case.
    """
    h3, h4, h5, h7 = int(h3), int(h4), int(h5), int(h7)
    for name, val, allowed in (("h3", h3, (0, 1)), ("h4", h4, (1, 2)),
                               ("h5", h5, (0, 1)), ("h7", h7, (1, 2))):
        if val not in allowed:
            raise InputError("%s = %d outside its admissible range %r"
                             % (name, val, list(allowed)))
    if h3 == 1 and h5 != 1:
        raise ModelInconsistencyError(
            "h0(D_3) = 1 makes D_3 trivial, so D_5 ~ D_2 forces h0(D_5) = 1")

    data = _bci.bci_data((2, 3, 3, 4))
    model = OverrideModel(data.seifert, {2: 1, 3: h3, 4: h4, 5: h5, 7: h7})
    max_model = HyperellipticMaxModel(data.seifert)
    series_max = _max_series_2334(data)

    head = series_max.expand(40)
    for n in range(41):  # the closed form must reproduce the maximal model
        if head[n] != max_model.h0(n):
            raise InternalInvariantError("maximal series wrong at degree %d" % n)

    deficiencies = tuple((n, max_model.h0(n) - model.h0(n)) for n in (3, 4, 5, 7)
                         if max_model.h0(n) != model.h0(n))
    defpoly = IntPolynomial()
    for n, drop in deficiencies:
        defpoly = defpoly + IntPolynomial.monomial(n, drop)
    den = series_max.denominator_polynomial()
    series_v = HilbertSeries(series_max.numerator - defpoly * den,
                             series_max.denominator_factors)

    h0_head = tuple(model.h0(n) for n in range(12))

    # second generator degree: first n >= 3 where the section count exceeds
    # what powers of the degree-2 section alone provide
    m = next(n for n in range(3, 9)
             if model.h0(n) > (1 if n % 2 == 0 else 0))

    # Hilbert series of the quotient by the regular sequence in degrees 2, m
    quot_num = series_v.numerator * IntPolynomial.one_minus_power(2) \
        * IntPolynomial.one_minus_power(m)
    artinian, rem = quot_num.divmod(den)
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
    gorenstein = h7 == 2

    pg = pinkham_pg(max_model) + pg_difference(series_v, series_max)
    if pg != pinkham_pg(model):
        raise InternalInvariantError("series and cohomology genus routes disagree")

    abhyankar = m + 1
    sally = m if gorenstein and m >= 3 else None
    if emb > abhyankar or (sally is not None and emb > sally):
        raise InternalInvariantError(
            "embedding dimension %d breaks its upper bounds" % emb)

    z0, m0 = z0_m0(model)
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
        z0=z0,
        m0=m0,
        mz=mz_criterion_weighted(model),
        abhyankar_bound=abhyankar,
        sally_bound=sally,
        hypotheses=_CASE_HYPOTHESES,
    )


@dataclass(frozen=True)
class MaxTypeReport:
    """The Clifford-maximal structure on the (2,3,3,4) graph."""

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
        return {
            "pg": self.pg,
            "m_cycle": self.m_cycle.coeff_map(),
            "minus_m_squared": self.minus_m_squared,
            "multiplicity_lower_bound": self.multiplicity_lower_bound,
            "multiplicity": self.multiplicity,
            "generator_degrees": list(self.generator_degrees),
            "relation_degrees": list(self.relation_degrees),
            "embedding_dimension": self.embedding_dimension,
            "gorenstein": self.gorenstein,
            "complete_intersection": self.complete_intersection,
            "series_numerator": list(self.series.numerator.coeffs),
            "series_denominator_factors": list(self.series.denominator_factors),
            "series": self.series.format(),
            "z0": self.z0,
            "m0": self.m0,
            "caveat": self.caveat,
        }


@cache
def max_type_2334():
    """Invariants of the maximal-genus structure on the (2,3,3,4) graph.

    Here m0 = z0 = 2 yet the maximal ideal cycle is the fundamental cycle
    plus one arm curve; the presentation is a complete intersection with
    generators in degrees 2, 3, 4, 10, found by peeling generators off the
    Hilbert series.  The report is immutable and has no inputs, so it is
    built once per process.
    """
    data = _bci.bci_data((2, 3, 3, 4))
    graph = _bci.bci_graph(data)
    model = HyperellipticMaxModel(data.seifert)
    series = _max_series_2334(data)

    z = fundamental_cycle(graph)
    first_arm_vertex = graph.arms()[0][0]
    m_cycle = z + QCycle.unit(graph.num_vertices, first_arm_vertex)
    bound = multiplicity_bound(graph, m_cycle, z)

    # generators at 2, 3, 4: each degree has more sections than the
    # subalgebra generated so far provides
    coeffs = series.expand(64)
    if not (coeffs[2] == 1 and coeffs[3] == 1 and coeffs[4] == 2):
        raise InternalInvariantError("unexpected section counts in low degrees")
    free_coeffs = HilbertSeries(IntPolynomial([1]), (2, 3, 4)).expand(64)
    first_excess = _first_difference(free_coeffs, coeffs)
    if first_excess is None or free_coeffs[first_excess] < coeffs[first_excess]:
        raise InternalInvariantError("three generators cannot exceed the ring")
    # one relation where the free algebra first overshoots, then a fourth
    # generator where the quotient by it first falls short
    ci_coeffs = HilbertSeries(IntPolynomial.one_minus_power(first_excess),
                              (2, 3, 4)).expand(64)
    fourth = _first_difference(ci_coeffs, coeffs)
    if fourth is None or ci_coeffs[fourth] > coeffs[fourth]:
        raise InternalInvariantError("generator search found a second relation first")
    # second relation: where the four-generator quotient overshoots again
    ci2_coeffs = HilbertSeries(IntPolynomial.one_minus_power(first_excess),
                               (2, 3, 4, fourth)).expand(64)
    last = _first_difference(ci2_coeffs, coeffs)
    if last is None or ci2_coeffs[last] < coeffs[last]:
        raise InternalInvariantError("relation search found a fifth generator first")
    candidate = HilbertSeries(
        IntPolynomial.one_minus_power(first_excess)
        * IntPolynomial.one_minus_power(last),
        (2, 3, 4, fourth))
    if (candidate.numerator * series.denominator_polynomial()
            != series.numerator * candidate.denominator_polynomial()):
        raise InternalInvariantError("complete-intersection presentation mismatch")

    mz = mz_criterion_weighted(model)
    return MaxTypeReport(
        pg=pinkham_pg(model),
        m_cycle=m_cycle,
        minus_m_squared=bound.minus_square,
        multiplicity_lower_bound=bound.lower_bound,
        multiplicity=bound.minus_square,
        generator_degrees=(2, 3, 4, fourth),
        relation_degrees=(first_excess, last),
        embedding_dimension=4,
        gorenstein=True,
        complete_intersection=True,
        series=candidate,
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
    data = _bci.bci_data((2, 3, 3, 4))
    graph = _bci.bci_graph(data)
    model = BciModel(data)
    mx = _bci.maximal_ideal_cycle(data, graph)
    bound = multiplicity_bound(graph, mx, fundamental_cycle(graph))
    rows = [{
        "type": "brieskorn complete intersection",
        "pg": pinkham_pg(model),
        "mult": bound.minus_square,
        "emb": data.m,
    }]
    top = max_type_2334()
    rows.append({
        "type": "maximal geometric genus",
        "pg": top.pg,
        "mult": top.multiplicity,
        "emb": top.embedding_dimension,
    })
    return rows


def table2_rows():
    """The six consistent override vectors with M = Z, in classification order."""
    return [case_study_2334(*v) for v in TABLE2_VECTORS]


class PDDegreeModel:
    """Compatibility name: the degree model is SeifertInvariant, and
    PDDegreeModel.from_bci(data) returns bci_seifert(data)."""

    from_bci = staticmethod(_bci.bci_seifert)
