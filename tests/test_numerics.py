"""Exact polynomial/series arithmetic and numerical semigroups vs oracles."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from brieskorn import (
    HilbertSeries,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    ModelInconsistencyError,
    NumericalSemigroup,
    bci_data,
    hilbert_series,
    minimal_generators,
    pg_difference,
    pg_from_series,
    value_semigroup_from_series,
)
from brieskorn import numerics
from brieskorn.numerics import floor_sum
from brieskorn.report import _Prewritten, json_list_text, series_fields
from conftest import EXPONENT_CORPUS, SEED
from oracles import (apery_relaxation, div_one_minus_power_per_element,
                     expand_per_element, semigroup_sieve)
from properties import (PROPERTY, example, exponent_tuples, generator_sets,
                        given, sparse_numerators, st)

P = IntPolynomial


def random_poly(rng, max_deg=12, max_abs=5):
    deg = rng.randint(0, max_deg)
    return P([rng.randint(-max_abs, max_abs) for _ in range(deg + 1)])


# -- integer polynomials --------------------------------------------------


def test_polynomial_basics():
    p = P([1, 0, 2, -1])
    assert p.degree == 3 and p.coeff(2) == 2 and p.coeff(99) == 0
    assert p(1) == 2 and p(2) == 1
    assert P.one_minus_power(3) == P([1, 0, 0, -1])
    assert (p + (-p)).is_zero
    assert p - p == P()
    assert P().degree == float("-inf")
    assert p.format() == "1 + 2t^2 - t^3"
    assert P().format() == "0"
    assert P([0, -1, 3]).format("s") == "-s + 3s^2"


def test_polynomial_product_matches_convolution():
    rng = random.Random(SEED)
    for _ in range(200):
        a, b = random_poly(rng), random_poly(rng)
        prod = a * b
        out = [0] * (len(a.coeffs) + len(b.coeffs))
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
        assert list(prod.coeffs) + [0] * (len(out) - len(prod.coeffs)) == out


def test_divmod_satisfies_division_identity():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        p = random_poly(rng, max_deg=14)
        d = random_poly(rng, max_deg=5)
        d = d + P([0] * 6 + [rng.choice((1, -1))])  # force a unit leading coeff
        q, r = p.divmod(d)
        assert q * d + r == p
        assert r.is_zero or r.degree < d.degree


def test_divmod_rejects_bad_divisors():
    with pytest.raises(InputError):
        P([1, 2]).divmod(P())
    with pytest.raises(InputError):
        P([1, 2]).divmod(P([1, 2]))  # leading coefficient 2


def test_exact_div():
    num = P.one_minus_power(6)
    assert num.exact_div(P.one_minus_power(2)) == P([1, 0, 1, 0, 1])
    with pytest.raises(InputError):
        num.exact_div(P([1, 0, 0, 0, -1]))  # (1 - t^4) does not divide


def test_exact_div_one_minus_power_matches_divmod():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        p = random_poly(rng)
        d = rng.randint(1, 6)
        assert (p * P.one_minus_power(d)).exact_div_one_minus_power(d) == p
        probe = random_poly(rng)
        got = probe.exact_div_one_minus_power(d)
        q, r = probe.divmod(P.one_minus_power(d))
        assert got == (q if r.is_zero else None)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13])
def test_exact_div_one_minus_power_matches_per_element_loop(d):
    # d = 1, 2d >= the quotient length (plain loop), d >= the degree (None
    # or a constant quotient), and exact and inexact tails
    rng = random.Random(SEED + 10 + d)
    for _ in range(60):
        p = random_poly(rng, max_deg=rng.choice((2, 10, 40)))
        for probe in (p, p * P.one_minus_power(d)):
            want = div_one_minus_power_per_element(probe, d)
            got = probe.exact_div_one_minus_power(d)
            assert got == (None if want is None else P(want))
    assert P.one_minus_power(1).exact_div_one_minus_power(1) == P([1])
    assert P([1, 2]).exact_div_one_minus_power(3) is None
    assert P().exact_div_one_minus_power(4) == P()


# -- Hilbert series --------------------------------------------------------


@pytest.fixture
def running_sums(monkeypatch):
    """The factor of every _running_sums call."""
    factors = []
    running = numerics._running_sums

    def counted(c, d):
        factors.append(d)
        return running(c, d)

    monkeypatch.setattr(numerics, "_running_sums", counted)
    return factors


def _expand_route(series, order, running_sums):
    """series.expand(order), checked against the per-element oracle, and
    the route it took: "dense" when every factor of degree <= order made a
    running sum; else "strided" when the largest two of them made none (one
    joined the sparse part, the next was laid down by strides), and
    "strided <k>" when the largest k made none.  The running sums, if any,
    are the smallest factors of degree <= order, in increasing order."""
    running_sums.clear()
    assert series.expand(order) == expand_per_element(series, order)
    factors = [d for d in series.denominator_factors if d <= order]
    assert running_sums == factors[:len(running_sums)]
    written = len(factors) - len(running_sums)
    assert written != 1  # a factor is laid down only after the sparse part grew
    return {0: "dense", 2: "strided"}.get(written, "strided %d" % written)


@pytest.mark.parametrize("order", [0, 1, 4, 9, 30, 200])
def test_series_expand_matches_per_element_loop(order, running_sums):
    # factors with d = 1, 2d >= order + 1 (one pass of c[i] += c[i - d]),
    # d > order (skipped), and numerators longer and shorter than the
    # expansion; the largest factors are written sparsely or summed like
    # the others, and both routes are reached past order 0, where every
    # factor is above the order
    rng = random.Random(SEED + 20 + order)
    routes = Counter()
    for _ in range(40):
        num = random_poly(rng, max_deg=rng.choice((0, 6, 60)))
        factors = [rng.choice((1, 2, 3, 7, order // 2 + 1, order + 5))
                   for _ in range(rng.randint(0, 4))]
        series = HilbertSeries(num, factors)
        routes[_expand_route(series, order, running_sums) != "dense"] += 1
    assert routes[True] > 0 or order == 0
    assert routes[False] > 0


# the look-ahead guard, over the factors of degree <= order: with k nonzero
# terms of degree <= order and the next two factors a >= b, a joins the
# sparse part while k * (order // a + 1) * (order // b + 1) <= 2 * (order + 1)
@pytest.mark.parametrize("terms, factors, order, route", [
    ([(0, 1), (2, -1)], [], 6, "dense"),                  # no factor
    ([(0, 1), (1, 3)], [4], 9, "dense"),                  # one factor
    ([(0, 1)], [2, 2], 7, "strided"),                     # a == b: 16 <= 16, the edge
    ([(0, 1)], [2, 2], 8, "dense"),                       # a == b: 25 > 18
    ([(0, 1), (3, 2)], [3, 3], 8, "strided"),             # 18 <= 18, the edge
    ([(0, 1), (3, 2)], [3, 3], 9, "dense"),               # 32 > 20
    ([(0, 1)], [1, 9], 9, "strided"),                     # a factor of 1: 20 <= 20
    ([(0, 1)], [1, 9], 18, "dense"),                      # a factor of 1: 57 > 38
    ([(0, 1), (5, -1)], [1, 2, 3], 5, "strided"),         # 12 <= 12, then 54 > 12; 1 summed
    ([(0, 1), (1, 1)], [1, 1], 3, "dense"),               # 32 > 8
    ([(1, 1)], [3, 4, 11], 10, "strided"),                # 11 above order, skipped: 12 <= 22
    ([(0, 2), (4, -1)], [5, 7, 50, 60], 20, "strided"),   # two above order: 30 <= 42
    ([(0, 1), (30, 5)], [7, 9], 20, "strided"),           # a term above order: 9 <= 42
    ([(0, 1), (25, 5), (40, 1)], [2, 3], 24, "dense"),    # terms above order: 117 > 50
    ([], [3, 5], 10, "strided"),                          # the zero numerator: 0 <= 22
    ([], [1], 10, "dense"),                               # the zero numerator, one factor
    ([(0, 2 ** 64), (3, -(2 ** 64))], [5, 6], 12, "strided"),   # 18 <= 26
    ([(0, 2 ** 64), (3, -(2 ** 64))], [1, 1, 2], 12, "dense"),  # 182 > 26
    ([(0, -(2 ** 64)), (1, 1), (2, 2 ** 64)], [2, 3, 4], 30, "dense"),  # 264 > 62
    ([(1, 1)], [11, 12], 10, "dense"),                    # every factor above order: none summed
    ([(0, 2), (4, -1)], [3, 50, 60], 20, "dense"),        # two above order, 3 summed
    ([(0, 1)], [5, 5, 5], 12, "strided"),                 # 9 <= 26, then 3 terms: 27 > 26
    ([(0, 1), (3, -1)], [1, 2, 3], 3, "strided 3"),       # 8 <= 8; t^3 drops: 8 <= 8
    ([(0, 1)], [5, 5, 5, 10], 12, "strided 3"),           # 6, 18 <= 26, then 27 > 26
    ([(0, 1)], [2, 2, 2, 2], 3, "strided 4"),             # 4, 8, 8 <= 8
    ([], [1, 1, 1], 5, "strided 3"),                      # the zero numerator: 0, 0 <= 12
    ([(0, 2 ** 64), (3, -(2 ** 64))], [1, 2, 3], 3, "strided 3"),  # the 2^64s cancel: 8, 8 <= 8
])
def test_series_expand_routes_match_the_oracle(terms, factors, order, route,
                                               running_sums):
    series = HilbertSeries.from_terms(terms, factors)
    assert _expand_route(series, order, running_sums) == route


def test_brieskorn_series_expand_matches_the_oracle_on_the_corpus(running_sums):
    # through ell, the period that `series --order ell` prints, and through
    # 2 * ell + 1, which reads the numerator's t^ell and t^(2 ell) terms;
    # at ell, (3, 3, 3, 4, 5) writes all five of its factors with no running
    # sum, and every route is reached at both orders
    routes = {"ell": Counter(), "2 ell + 1": Counter()}
    for exponents in EXPONENT_CORPUS:
        data = bci_data(exponents)
        series = hilbert_series(data)
        for name, order in (("ell", data.ell), ("2 ell + 1", 2 * data.ell + 1)):
            routes[name][_expand_route(series, order, running_sums)] += 1
    assert set(routes["ell"]) == {"dense", "strided", "strided 3", "strided 4",
                                  "strided 5"}
    assert set(routes["2 ell + 1"]) == {"dense", "strided", "strided 3"}


@PROPERTY
@given(exponent_tuples())
@example((2, 2, 2))       # e = (1, 1, 1): the dense route
@example((2, 3, 3, 4))    # the case study
def test_brieskorn_series_expand_matches_the_oracle(exponents):
    data = bci_data(exponents)
    series = hilbert_series(data)
    for order in (data.ell, 2 * data.ell + 1):
        assert series.expand(order) == expand_per_element(series, order)


def _dense(terms):
    """The dense coefficient list of (degree, coeff) terms, zeros between."""
    dense = [0] * (terms[-1][0] + 1 if terms else 0)
    for n, c in terms:
        dense[n] = c
    return dense


@PROPERTY
@given(sparse_numerators())
@example(((), [2, 3]))                           # the zero numerator
@example((((5, -1), (9, 2 ** 64 + 1)), [1]))     # first term above degree 0
@example((((0, 1), (7, -(2 ** 65))), []))        # no denominator
def test_sparse_series_matches_the_dense_one(case):
    terms, factors = case
    sparse = HilbertSeries.from_terms(terms, factors)
    dense = HilbertSeries(_dense(terms), factors)
    assert sparse.terms == dense.terms == terms
    assert sparse == dense and hash(sparse) == hash(dense)
    assert sparse.numerator == dense.numerator == IntPolynomial(_dense(terms))
    assert sparse.format() == dense.format()
    assert sparse.format("s").split(" / ")[0] == "(%s)" % dense.numerator.format("s")
    top = terms[-1][0] if terms else 0
    for order in {0, max(top - 1, 0), top, top + 1, top + 45}:
        assert sparse.expand(order) == expand_per_element(dense, order)


@PROPERTY
@given(sparse_numerators())
@example(((), []))                               # the empty numerator
@example((((3, -2), (4, 2 ** 63)), [5]))         # leading zeros, 2^63
@example((((0, -(2 ** 70)), (250, -1)), []))     # a run of 249 zeros
def test_numerator_json_is_the_dense_list(case):
    terms, factors = case
    series = HilbertSeries.from_terms(terms, factors)
    # series_fields holds the numerator's JSON text pre-written, equal to the
    # plain dense list
    numerator = series_fields(series, "p_")["p_numerator"]
    assert type(numerator) is _Prewritten
    assert numerator.text == json.dumps(_dense(terms), separators=(",", ":"))
    assert numerator == _dense(terms)


@pytest.mark.parametrize("values", [
    [], [0], [7], [0, 1, 2, 3, 4] * 50, list(range(256)),   # within a byte
    [3, -1, 4], [-(2 ** 64)],                              # negative
    [255, 256], [1000, 0, 12345678], [2 ** 64, 1],         # above it
    [9, 10], [99, 100], [10, 9, 100, 99, 0, 255],          # digit boundaries
    [255], [100], [10], [0, 255], [256], [256, 0],         # one and two items
])
def test_int_list_text_is_the_json_of_the_list(values):
    assert json_list_text(values) == json.dumps(values, separators=(",", ":"))
    assert json_list_text(tuple(values)) == json.dumps(values, separators=(",", ":"))


@PROPERTY
@given(st.lists(st.integers(-2, 300)))
@example([255, 0, 256])                          # one value above a byte
@example([-1, 9, 10])                            # one value below
def test_int_list_text_is_the_json_of_any_int_list(values):
    # about half the draws fit a byte; the rest miss it by a value or two
    # at either end, or are empty
    assert json_list_text(values) == json.dumps(values, separators=(",", ":"))


def test_series_from_terms_normalizes():
    # repeated degrees add up, zero sums drop, order does not matter
    series = HilbertSeries.from_terms([(4, 3), (0, 1), (4, -3), (2, -1), (2, 0)], [2])
    assert series.terms == ((0, 1), (2, -1))
    assert series == HilbertSeries([1, 0, -1], [2])
    assert HilbertSeries.from_terms([], [1]) == HilbertSeries([], [1])
    assert HilbertSeries.from_terms([], [1]).format() == "(0) / ((1 - t))"
    with pytest.raises(InputError):
        HilbertSeries.from_terms([(-1, 1)])
    with pytest.raises(InputError):
        HilbertSeries.from_terms([(0, 1)], [0])


def test_series_expand_golden():
    series = HilbertSeries([1], [1, 2])
    assert series.expand(9) == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]
    assert series.expand(0) == [1]
    with pytest.raises(InputError):
        series.expand(-1)
    with pytest.raises(InputError):
        HilbertSeries([1], [0])


def test_series_expand_matches_denominator_convolution():
    rng = random.Random(SEED + 3)
    for _ in range(100):
        num = random_poly(rng, max_deg=8)
        factors = [rng.randint(1, 6) for _ in range(rng.randint(0, 4))]
        series = HilbertSeries(num, factors)
        order = 40
        c = series.expand(order)
        den = series.denominator_polynomial()
        for n in range(order + 1):
            conv = sum(den.coeff(k) * c[n - k] for k in range(min(n, den.degree) + 1))
            assert conv == num.coeff(n)


def test_plus_polynomial_shifts_coefficients():
    series = HilbertSeries(P.one_minus_power(12) * P.one_minus_power(12),
                           [3, 4, 4, 6])
    bumped = series.plus_polynomial(P([0, 0, 1, 0, 0, 1]))
    base, more = series.expand(20), bumped.expand(20)
    delta = [m - b for m, b in zip(more, base)]
    assert delta == [0, 0, 1, 0, 0, 1] + [0] * 15


def test_pg_from_series_goldens():
    ring = HilbertSeries([1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -2] + [0] * 11 + [1],
                         [3, 4, 4, 6])
    assert pg_from_series(ring) == 8
    maxed = HilbertSeries(P.one_minus_power(6) * P.one_minus_power(20),
                          [2, 3, 4, 10])
    assert pg_from_series(maxed) == 10
    assert pg_from_series(HilbertSeries([1], [1])) == 0


def test_pg_from_series_is_representation_independent():
    ring = HilbertSeries(P.one_minus_power(12) * P.one_minus_power(12),
                         [3, 4, 4, 6])
    inflated = HilbertSeries(ring.numerator * P.one_minus_power(5),
                             list(ring.denominator_factors) + [5])
    assert ring.polynomial_part() == inflated.polynomial_part()
    assert pg_from_series(inflated) == 8


def test_pg_from_series_validates_ring_shape():
    with pytest.raises(ModelInconsistencyError):
        pg_from_series(HilbertSeries([0, 1], [1]))  # does not start with 1
    with pytest.raises(ModelInconsistencyError):
        pg_from_series(HilbertSeries([1, -2], []))  # negative coefficient
    # the first negative coefficient is the one named
    with pytest.raises(ModelInconsistencyError,
                       match=r"^negative coefficient -2 at degree 2 in "):
        pg_from_series(HilbertSeries([1, 0, -2, 0, -1], []))


def test_floor_sum_matches_brute_force():
    rng = random.Random(SEED)
    cases = [(0, 5, 3, 2),      # empty sum
             (9, 4, 0, 3),      # a = 0
             (9, 4, 0, 11),     # a = 0, b >= m
             (7, 3, 5, 17),     # a >= m and b >= m
             (1, 1, 0, 0), (12, 7, -5, -3), (30, 10**6, 999_999, 10**6 - 1)]
    cases += [(rng.randint(0, 40), rng.randint(1, 30), rng.randint(-60, 60),
               rng.randint(-60, 60)) for _ in range(500)]
    for n, m, a, b in cases:
        assert floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n)), \
            (n, m, a, b)
    for n, m in ((-1, 3), (3, 0)):
        with pytest.raises(InputError):
            floor_sum(n, m, 1, 1)


def test_pg_difference():
    ring = HilbertSeries(P.one_minus_power(12) * P.one_minus_power(12),
                         [3, 4, 4, 6])
    maxed = ring.plus_polynomial(P([0, 0, 1, 0, 0, 1]))
    assert pg_difference(maxed, ring) == 2
    assert pg_difference(ring, maxed) == -2
    assert pg_difference(ring, ring) == 0
    with pytest.raises(ModelInconsistencyError):
        pg_difference(ring, HilbertSeries([1], [1]))


# -- numerical semigroups --------------------------------------------------


def test_frobenius_matches_two_generator_formula():
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if gcd(a, b) != 1:
                continue
            sg = NumericalSemigroup([a, b])
            assert sg.frobenius() == a * b - a - b
            members = semigroup_sieve([a, b], a * b)
            assert all(sg.contains(n) == members[n] for n in range(a * b + 1))


def test_membership_matches_sieve_on_random_sets():
    rng = random.Random(SEED + 4)
    for _ in range(120):
        gens = sorted(rng.sample(range(2, 41), rng.randint(2, 5)))
        sg = NumericalSemigroup(gens)
        members = semigroup_sieve(gens, 400)
        assert all(sg.contains(n) == members[n] for n in range(401))
        assert not sg.contains(-3)


@PROPERTY
@given(generator_sets())
@example([1])               # a single generator, gcd 1
@example([7])               # a single generator, gcd 7
@example([4, 6, 10])        # gcd 2
@example([997, 1000, 1003]) # least generator near 1,000, one cycle of classes
def test_apery_round_robin_matches_relaxation(gens):
    sg = NumericalSemigroup(gens)
    reduced = sg._reduced
    assert reduced._apery == apery_relaxation(reduced.generators)
    if sg._gcd > 1:
        assert None in apery_relaxation(sg.generators)
        with pytest.raises(InternalInvariantError, match="Apery set incomplete"):
            sg._apery
    else:
        assert sg.frobenius() == max(apery_relaxation(gens)) - min(gens)


def test_minimal_generators_goldens():
    assert minimal_generators([4, 5, 11, 9, 16]) == [4, 5, 11]
    assert minimal_generators(range(6, 12)) == [6, 7, 8, 9, 10, 11]
    assert minimal_generators([2, 4, 6]) == [2]
    assert minimal_generators([0, 1]) == [1]
    assert NumericalSemigroup([1]).frobenius() == -1
    with pytest.raises(InputError):
        NumericalSemigroup([2, 4]).frobenius()
    with pytest.raises(InputError):
        NumericalSemigroup([])
    with pytest.raises(InputError):
        minimal_generators([0])
    with pytest.raises(InputError):
        NumericalSemigroup([3, -6])


def test_minimal_generators_are_canonical():
    rng = random.Random(SEED + 5)
    for _ in range(80):
        raw = sorted(rng.sample(range(2, 60), rng.randint(2, 6)))
        gens = minimal_generators(raw)
        assert minimal_generators(gens) == gens
        full = semigroup_sieve(raw, 300)
        redone = semigroup_sieve(gens, 300)
        assert full == redone
        # minimal: no generator is a sum of two nonzero members
        assert not any(full[s] and full[g - s] for g in gens for s in range(1, g))


# -- value semigroups from section series ----------------------------------


def test_value_semigroup_golden():
    series = HilbertSeries([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1], [2, 4])
    sg = value_semigroup_from_series(series, [2])
    assert sg.minimal_generators() == [4, 5, 11]


def test_value_semigroup_rejects_bad_inputs():
    series = HilbertSeries([1, 1], [])
    with pytest.raises(ModelInconsistencyError):
        value_semigroup_from_series(series, [2])  # product has a -1 coefficient
    with pytest.raises(InputError):
        value_semigroup_from_series(series, [])
    with pytest.raises(InputError):
        value_semigroup_from_series(series, [0])


def test_value_semigroup_polynomial_ring():
    series = HilbertSeries([1], [1, 1])
    assert value_semigroup_from_series(series, [1]).minimal_generators() == [1]


# -- arguments are exact integers ------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: NumericalSemigroup([3, 5]).contains(5.5), "^5.5 is not an integer$"),
    (lambda: NumericalSemigroup([3, 5]).contains("6"), "^'6' is not an integer$"),
    (lambda: minimal_generators([3, 5.7]), "^5.7 is not an integer$"),
    (lambda: HilbertSeries([1], (2, 3)).expand(2.5), "^2.5 is not an integer$"),
    (lambda: HilbertSeries([1], (2, 3)).expand("3"), "^'3' is not an integer$"),
    (lambda: IntPolynomial.one_minus_power(2.5), "^2.5 is not an integer$"),
    (lambda: value_semigroup_from_series(HilbertSeries([1], (2, 3)), [2.5]),
     "^2.5 is not an integer$"),
], ids=["contains-fractional", "contains-string", "minimal-generators",
        "expand-fractional", "expand-string", "one-minus-power", "section-degree"])
def test_fractional_arguments_are_refused_by_name(call, message):
    # int() truncated the first three, the next three fell through to a
    # bare TypeError, and the section degree 2.5, truncated to 2, ended in
    # a model error (exit 3) for what is bad input
    with pytest.raises(InputError, match=message):
        call()


def test_integral_arguments_of_any_type_are_their_integers():
    sg = NumericalSemigroup([3, 5])
    assert sg.contains(6.0) and sg.contains(Fraction(8)) and not sg.contains(True)
    assert minimal_generators([3.0, Fraction(5), 8]) == [3, 5]
    series = HilbertSeries([1], (2, 3))
    assert series.expand(Fraction(6)) == series.expand(6.0) == series.expand(6)
    assert P.one_minus_power(2.0) == P.one_minus_power(2)
