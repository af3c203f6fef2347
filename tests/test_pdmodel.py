"""Divisor-degree models, genus computations, and the (2,3,3,4) case study."""

import math
import random
import re
from fractions import Fraction
from math import gcd, lcm
from itertools import combinations_with_replacement, product

import pytest

from brieskorn import (
    AnalyticModel,
    BciModel,
    HilbertSeries,
    HyperellipticMaxModel,
    InputError,
    IntPolynomial,
    InternalInvariantError,
    ModelInconsistencyError,
    NumericalSemigroup,
    OverrideModel,
    SeifertInvariant,
    TABLE2_VECTORS,
    ambiguous_degrees,
    bci_data,
    bci_graph,
    bci_seifert,
    case_study_2334,
    fundamental_cycle,
    hilbert_series,
    is_hyperelliptic_type,
    max_type_2334,
    maximal_ideal_cycle,
    minimal_cycle,
    multiplicity_bound,
    mz_criterion_weighted,
    pg_from_series,
    pg_max,
    pinkham_pg,
    pinkham_pg_closed,
    table1_rows,
    table2_rows,
    z0_m0,
)
from brieskorn import pdmodel
from brieskorn.report import _dumps
from brieskorn.pdmodel import _clifford_range, is_gorenstein, peel_presentation
from conftest import EXPONENT_CORPUS, SEED
from oracles import (deg_per_n, fraction_cutoff, fraction_degree, per_arm_deg,
                     pinkham_per_degree)
from properties import (PROPERTY, example, exponent_tuples, given,
                        seifert_invariants, st)

DATA = bci_data((2, 3, 3, 4))
PD = bci_seifert(DATA)


def clifford_bounds(pd, n):
    """The Clifford range [lo, hi] of h0(D_n), read at deg D_n."""
    return _clifford_range(n, pd.deg(n), pd.g)


# -- degree model ----------------------------------------------------------


def test_degree_model_golden():
    assert PD.c0 == 2 and PD.g == 2 and PD.arms == ((2, 1),) * 3
    assert [PD.deg(n) for n in range(8)] == [0, -1, 1, 0, 2, 1, 3, 2]
    assert PD.deg_divisor() == Fraction(DATA.ghat, DATA.ell)
    assert PD.arm_count() == 3
    assert PD.cutoff() == 11
    assert ambiguous_degrees(PD) == [2, 3, 4, 5, 7]
    with pytest.raises(InputError):
        PD.deg(-1)


def test_degree_model_matches_bci_degrees():
    for exponents in ((2, 3, 3, 4), (6, 10, 45), (2, 3, 5), (6, 10, 14, 15)):
        seifert = bci_data(exponents).seifert
        for n in range(80):
            assert seifert.deg(n) == per_arm_deg(seifert, n)
    # random invariants with repeated and alpha = 1 arms
    rng = random.Random(SEED + 7)
    for _ in range(50):
        arms = [(1, 0)] * rng.randint(0, 2)
        for _ in range(rng.randint(0, 5)):
            a = rng.randint(2, 7)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            arms += [(a, b)] * rng.randint(1, 3)
        seifert = SeifertInvariant(g=rng.randint(0, 3), c0=len(arms) + 1,
                                   arms=tuple(arms))
        for n in range(40):
            assert seifert.deg(n) == per_arm_deg(seifert, n)


# N = 0; N = 5 below one period (alpha = 7); N = 37 a multiple of no alpha
@given(seifert_invariants(), st.integers(0, 150))
@example(SeifertInvariant(g=1, c0=4, arms=((7, 3), (7, 3), (1, 0), (5, 2))), 0)
@example(SeifertInvariant(g=1, c0=4, arms=((7, 3), (7, 3), (1, 0), (5, 2))), 5)
@example(SeifertInvariant(g=1, c0=4, arms=((7, 3), (7, 3), (1, 0), (5, 2))), 37)
@PROPERTY
def test_degree_sweep_matches_deg(seifert, stop):
    assert list(seifert.degrees(stop)) == deg_per_n(seifert, stop)


@given(seifert_invariants(), st.integers(0, 150))
@example(SeifertInvariant(g=1, c0=4, arms=((7, 3), (7, 3), (1, 0), (5, 2))), 0)
@example(SeifertInvariant(g=1, c0=4, arms=((7, 3), (7, 3), (1, 0), (5, 2))), 1)
@example(SeifertInvariant(g=2, c0=3, arms=((1, 0),)), 9)
@PROPERTY
def test_degree_sum_matches_deg(seifert, stop):
    assert seifert.deg_sum(stop) == sum(deg_per_n(seifert, stop))


@given(seifert_invariants())
@PROPERTY
def test_degree_period_matches_the_fraction_route(seifert):
    period, shift = seifert.degree_period
    assert seifert.deg_divisor() == Fraction(shift, period) == fraction_degree(seifert)
    assert seifert.cutoff() == fraction_cutoff(seifert)
    degrees = [per_arm_deg(seifert, n) for n in range(3 * period)]
    assert all(degrees[n + period] == degrees[n] + shift for n in range(2 * period))


@given(seifert_invariants())
@PROPERTY
def test_z0_lies_below_the_fraction_stop(seifert):
    stop = max(math.ceil(seifert.arm_count() / fraction_degree(seifert)), 1) + 1
    z0 = seifert.z0()
    assert z0 < stop
    assert z0 == next(n for n in range(1, stop) if per_arm_deg(seifert, n) >= 0)


def test_degree_sum_explicit_cases():
    assert PD.deg_sum(8) == 8  # 0 - 1 + 1 + 0 + 2 + 1 + 3 + 2
    assert PD.deg_sum(0) == 0
    with pytest.raises(InputError):
        PD.deg_sum(-1)


def test_degree_sweep_explicit_cases():
    assert list(PD.degrees(8)) == [0, -1, 1, 0, 2, 1, 3, 2]
    assert list(PD.degrees(0)) == []
    seifert = SeifertInvariant(g=0, c0=3, arms=((7, 3), (5, 2), (5, 2), (1, 0)))
    for stop in (1, 4, 6, 33, 71):  # inside one period, and no multiple of 5 or 7
        assert list(seifert.degrees(stop)) == [per_arm_deg(seifert, n)
                                                for n in range(stop)]
    # no arm types: deg D_n = n*c0
    assert list(SeifertInvariant(g=2, c0=3, arms=((1, 0),)).degrees(4)) == [0, 3, 6, 9]
    with pytest.raises(InputError):
        PD.degrees(-1)


@given(seifert_invariants())
@PROPERTY
def test_pinkham_stream_matches_per_degree_h1(seifert):
    model = HyperellipticMaxModel(seifert)
    assert pinkham_pg(model) == pinkham_per_degree(model)


def test_pinkham_stream_matches_per_degree_h1_on_bci_models():
    for exponents in ((2, 3, 3, 4), (6, 10, 45), (2, 3, 5), (6, 10, 14, 15),
                      (3, 4, 5, 7), (4, 6, 9)):
        model = BciModel(bci_data(exponents))
        assert pinkham_pg(model) == pinkham_per_degree(BciModel(model.data))


def test_clifford_bounds_golden():
    assert clifford_bounds(PD, 0) == (1, 1)
    assert clifford_bounds(PD, 1) == (0, 0)   # negative degree
    assert clifford_bounds(PD, 2) == (0, 1)
    assert clifford_bounds(PD, 4) == (1, 2)
    assert clifford_bounds(PD, 6) == (2, 2)   # degree past 2g-1
    assert clifford_bounds(PD, 8) == (3, 3)


# -- analytic models ---------------------------------------------------------


def test_bci_model_h0_is_the_hilbert_function():
    model = BciModel(DATA)
    assert [model.h0(n) for n in range(9)] == [1, 0, 0, 1, 2, 0, 2, 2, 3]
    assert model.h1(0) == 2
    assert model.h1(3) == 2
    with pytest.raises(InputError):
        model.h0(-1)


def test_hyperelliptic_max_model_meets_clifford():
    model = HyperellipticMaxModel(PD)
    assert [model.h0(n) for n in range(11)] == [1, 0, 1, 1, 2, 1, 2, 2, 3, 2, 4]
    for n in range(40):
        lo, hi = clifford_bounds(PD, n)
        assert model.h0(n) == hi


def test_override_model_validation():
    with pytest.raises(InputError, match=r"\[7\]"):
        OverrideModel(PD, {2: 1, 3: 1, 4: 1, 5: 1})
    with pytest.raises(InputError, match="Riemann-Roch"):
        OverrideModel(PD, {2: 1, 3: 1, 4: 1, 5: 1, 7: 1, 6: 2})
    with pytest.raises(InputError, match="admissible range"):
        OverrideModel(PD, {2: 2, 3: 1, 4: 1, 5: 1, 7: 1})
    model = OverrideModel(PD, {"2": 1, "3": 0, "4": 1, "5": 1, "7": 2})
    assert model.h0(2) == 1 and model.h0(6) == 2


@pytest.mark.parametrize("call, message", [
    (lambda: case_study_2334(0, 2.7, 1, 1), "^2.7 is not an integer$"),
    (lambda: OverrideModel(PD, {2: 1, 3: 0, 4: 1, 5: 1, 7: 2.9}), "^2.9 is not an integer$"),
    (lambda: OverrideModel(PD, {2: 1, 3: 0, 4: 1, 5: 1, 7.5: 2}), "^7.5 is not an integer$"),
    (lambda: OverrideModel(PD, {2: 1, 3: 0, 4: 1, 5: 1, "x": 2}), "^'x' is not an integer$"),
    (lambda: HyperellipticMaxModel(PD).first_section(2.5), "^2.5 is not an integer$"),
], ids=["case-study", "override-value", "override-degree", "override-degree-name",
        "first-section"])
def test_fractional_arguments_are_refused_by_name(call, message):
    # int() truncated the first three, so 2.7 printed the (0, 2, 1, 1) row;
    # int("x") ended the fourth in a bare ValueError; first_section named
    # limit + 1 = 3.5 instead of the 2.5 it was given
    with pytest.raises(InputError, match=message):
        call()


def test_integral_arguments_of_any_type_are_their_integers():
    assert case_study_2334(1.0, Fraction(1), True, 1) == case_study_2334(1, 1, 1, 1)
    model = OverrideModel(PD, {2.0: 1, 3: 0.0, 4: Fraction(1), 5: 1, 7: 2})
    assert model.overrides == {2: 1, 3: 0, 4: 1, 5: 1, 7: 2}
    assert HyperellipticMaxModel(PD).first_section(4.0) == 2


def test_pinkham_genus_goldens():
    assert pinkham_pg(BciModel(DATA)) == 8
    assert pinkham_pg(HyperellipticMaxModel(PD)) == 10
    bci_vector = OverrideModel(PD, {2: 0, 3: 1, 4: 2, 5: 0, 7: 2})
    assert pinkham_pg(bci_vector) == 8


def test_closed_pinkham_sum_matches_the_sweep():
    assert pinkham_pg_closed(BciModel(DATA)) == 8
    for exponents in ((6, 10, 45), (2, 3, 5), (6, 10, 14, 15), (2, 2, 3, 3, 5)):
        data = bci_data(exponents)
        assert pinkham_pg_closed(BciModel(data)) == pinkham_pg(BciModel(data))
    # the closed sum counts from the exponents, so a tampered series leaves
    # it alone; only the sweep reads the series, and checks each degree
    model = BciModel(DATA)
    model.series = model.series.plus_polynomial(IntPolynomial([0] * 5 + [2]))
    assert pinkham_pg_closed(model) == 8
    with pytest.raises(InternalInvariantError, match=r"^h0\(D_5\) = 2 outside"):
        pinkham_pg(model)


def test_pinkham_reports_the_first_tampered_series_coefficient():
    # h0 = [1, 0, 0, 1, 2, 0, 2, 2, 3, ...]; D_6 pins h0 to [2, 2], D_8 to [3, 3]
    model = BciModel(DATA)
    model.series = model.series.plus_polynomial(
        IntPolynomial([0, 0, 0, 0, 0, 0, -1, 0, 5]))
    with pytest.raises(InternalInvariantError) as err:
        pinkham_pg(model)
    assert str(err.value) == ("h0(D_6) = 1 outside the admissible range [2, 2] "
                              "(deg D_6 = 3, g = 2)")
    model = BciModel(DATA)
    model.series = model.series.plus_polynomial(IntPolynomial([0] * 5 + [2]))
    with pytest.raises(InternalInvariantError) as err:
        pinkham_pg(model)
    assert str(err.value) == ("h0(D_5) = 2 outside the admissible range [0, 1] "
                              "(deg D_5 = 1, g = 2)")


class _RiemannRochModel(AnalyticModel):
    """max(deg D_n + 1 - g, 0) sections, less `drop` at the listed degrees;
    no Clifford check, as for any user model."""

    def __init__(self, pd, drop):
        super().__init__(pd)
        self.drop = drop

    def h0_at(self, n, deg):
        return max(deg + 1 - self.pd.g, 0) - self.drop.get(n, 0)


def test_pinkham_rejects_a_user_model_below_riemann_roch():
    # h0(D_0) = 0 lies below the Clifford range [1, 1] but keeps h1 >= 0;
    # only Riemann-Roch binds a user model, first at n = 6
    model = _RiemannRochModel(PD, {6: 1, 8: 2})
    assert model.h0(0) == 0 and clifford_bounds(PD, 0) == (1, 1)
    with pytest.raises(ModelInconsistencyError, match=r"^h1\(D_6\) = -1 is negative$"):
        pinkham_pg(model)


class _AboveCliffordModel(HyperellipticMaxModel):
    def h0_at(self, n, deg):
        return super().h0_at(n, deg) + (1 if n == 4 else 0)


def test_pinkham_sums_a_user_model_above_clifford():
    model = _AboveCliffordModel(PD)
    assert model.h0(4) > clifford_bounds(PD, 4)[1]
    assert pinkham_pg(model) == pinkham_pg(HyperellipticMaxModel(PD)) + 1 == 11


@pytest.mark.parametrize("base, arg", [(BciModel, DATA),
                                       (HyperellipticMaxModel, PD)])
def test_a_model_overriding_h0_at_alone_is_read_by_every_route(base, arg):
    # one section more at n = 1, where deg D_1 < 0: h0, h1, first_section
    # and Pinkham's sum all see it
    class Raised(base):
        def h0_at(self, n, deg):
            return super().h0_at(n, deg) + (1 if n == 1 else 0)

    model, plain = Raised(arg), base(arg)
    assert [model.h0(n) - plain.h0(n) for n in range(12)] == [0, 1] + [0] * 10
    assert [model.h1(n) - plain.h1(n) for n in range(12)] == [0, 1] + [0] * 10
    assert plain.first_section(12) > 1 and model.first_section(12) == 1
    assert pinkham_pg(model) == pinkham_pg(plain) + 1 == pinkham_per_degree(model)


def test_bci_model_h0_past_the_checked_order_expands_on_demand():
    model = BciModel(DATA)
    end = len(model.coefficients)
    for n in (end, end + 7, 3 * end):
        assert model.h0(n) == model.series.expand(n)[n]
    # the value read past the order is range-checked as well; Riemann-Roch
    # pins it there
    forced = model.h0(end + 5)
    model.series = model.series.plus_polynomial(IntPolynomial([0] * (end + 5) + [1]))
    with pytest.raises(InternalInvariantError,
                       match=r"^h0\(D_%d\) = %d outside the admissible range "
                             r"\[%d, %d\]" % (end + 5, forced + 1, forced, forced)):
        model.h0(end + 5)


def test_pinkham_sweep_keeps_the_printed_head():
    # the sweep reads its own extension through the cutoff (47,028 here);
    # the head that reports print stays the one through min(2*ell, 64)
    model = BciModel(bci_data((31, 37, 41)))
    assert pinkham_pg(model) == 6894
    assert model.coefficients == model.series.expand(64)


def test_z0_m0():
    assert z0_m0(BciModel(DATA)) == (2, 3)
    assert z0_m0(HyperellipticMaxModel(PD)) == (2, 2)


def _assert_walk_finds_the_weights(exponents):
    # the h0 walk of z0_m0 is the oracle for the z0 = min(e_m, alpha) and
    # m0 = e_m that mz_criterion_weighted reads off the weights; the walk's
    # bound max(z0, cutoff) also holds for the Clifford-maximal model
    data = bci_data(exponents)
    expected = (data.seifert.z0(), data.e[-1])
    assert z0_m0(BciModel(data)) == expected, exponents
    mz = mz_criterion_weighted(BciModel(data))
    assert (mz.z0, mz.m0) == expected, exponents
    z0_m0(HyperellipticMaxModel(data.seifert))


def test_walk_finds_the_weights_on_the_corpus():
    assert len(EXPONENT_CORPUS) == 1136
    for exponents in EXPONENT_CORPUS:
        _assert_walk_finds_the_weights(exponents)


@PROPERTY
@given(exponent_tuples())
@example((2, 3, 3, 4))
@example((6, 10, 45))
def test_walk_finds_the_weights_property(exponents):
    _assert_walk_finds_the_weights(exponents)


# -- pg_max -----------------------------------------------------------------


def test_pg_max_exactness_flags():
    res = pg_max(bci_graph(DATA))
    assert res.value == 10 and res.exact
    assert pg_max(bci_seifert(DATA)).value == 10

    e8 = pg_max(bci_graph(bci_data((2, 3, 5))))
    assert e8.value == 0 and e8.exact  # rational graph, central genus 0

    mixed = SeifertInvariant(g=2, c0=2, arms=((2, 1), (3, 1), (3, 2)))
    assert not is_hyperelliptic_type(mixed)
    res = pg_max(mixed)
    assert not res.exact and "upper bound" in res.reason

    with pytest.raises(InputError):
        pg_max("not a graph")


@given(seifert_invariants())
@PROPERTY
def test_pg_max_matches_the_clifford_maximal_pinkham_sum(seifert):
    assert pg_max(seifert).value == pinkham_pg(HyperellipticMaxModel(seifert))


# (seifert, cutoff, P = lcm of the alphas): pg_max sums one period of
# degrees, with the residues below cutoff mod P taken once more
PG_MAX_EDGES = {
    "no arms": (SeifertInvariant(g=2, c0=1, arms=()), 3, 1),
    "cutoff 0": (SeifertInvariant(g=0, c0=1, arms=()), 0, 1),
    "cutoff 0, one arm": (SeifertInvariant(g=0, c0=1, arms=((2, 1),)), 0, 2),
    "P > cutoff, g = 0": (SeifertInvariant(g=0, c0=2, arms=((2, 1), (3, 1))), 1, 6),
    "P > cutoff, g = 3": (SeifertInvariant(g=3, c0=1, arms=((13, 7),)), 11, 13),
    "(2,3,5)": (bci_seifert(bci_data((2, 3, 5))), 31, 30),
    "(31,37,41)": (bci_seifert(bci_data((31, 37, 41))), 47028, 47027),
    "R = 0": (SeifertInvariant(g=3, c0=2, arms=((2, 1),)), 4, 2),
    "R = 0, (12,12,12)": (bci_seifert(bci_data((12, 12, 12))), 10, 1),
    "g = 3": (SeifertInvariant(g=3, c0=1, arms=((3, 1), (4, 1))), 15, 12),
    "g = 4": (SeifertInvariant(g=4, c0=2, arms=((2, 1), (4, 1), (4, 1), (1, 0))),
              10, 4),
    "g = 5": (SeifertInvariant(g=5, c0=2, arms=((3, 2), (3, 2), (4, 1))), 27, 12),
    "361 arms, g = 153": (bci_seifert(bci_data((18, 19, 19, 19))), 631, 18),
}


@pytest.mark.parametrize("case", PG_MAX_EDGES)
def test_pg_max_edge_cases_match_the_pinkham_sum(case):
    seifert, cutoff, period = PG_MAX_EDGES[case]
    assert seifert.cutoff() == cutoff
    assert lcm(*(a for a, _ in seifert.arm_types)) == period
    assert pg_max(seifert).value == pinkham_pg(HyperellipticMaxModel(seifert))


def test_is_hyperelliptic_type():
    assert is_hyperelliptic_type(bci_seifert(DATA))  # one class, odd count
    paired = SeifertInvariant(g=3, c0=3, arms=((2, 1), (2, 1), (3, 2), (3, 2)))
    assert is_hyperelliptic_type(paired)


def test_random_models_never_exceed_pg_max():
    rng = random.Random(SEED + 6)
    built = 0
    while built < 100:
        arms = []
        for _ in range(rng.randint(0, 4)):
            a = rng.randint(2, 6)
            b = rng.choice([x for x in range(1, a) if gcd(x, a) == 1])
            arms.append((a, b))
        arms = tuple(arms)
        seifert = SeifertInvariant(g=rng.randint(0, 3),
                                   c0=len(arms) + rng.randint(1, 3),
                                   arms=arms)
        pd = seifert
        table = {}
        for n in ambiguous_degrees(pd):
            lo, hi = clifford_bounds(pd, n)
            table[n] = rng.randint(lo, hi)
        model = OverrideModel(pd, table)
        assert pinkham_pg(model) <= pg_max(seifert).value
        built += 1


# -- M = Z assessments --------------------------------------------------------


def test_mz_criterion_bci():
    out = mz_criterion_weighted(BciModel(DATA))
    assert out.kind == "bci" and out.exact and not out.verdict
    assert (out.e_m, out.alpha) == (3, 2)
    assert out.h0_alpha_nonzero is False
    assert (out.z0, out.m0) == (2, 3)
    assert out.caveat is None
    assert out.to_json_dict()["verdict"] is False

    yes = mz_criterion_weighted(BciModel(bci_data((6, 10, 45))))
    assert yes.verdict and yes.h0_alpha_nonzero is False

    e8 = mz_criterion_weighted(BciModel(bci_data((2, 3, 5))))
    assert e8.verdict and e8.h0_alpha_nonzero


def test_mz_criterion_generic_model_carries_caveat():
    out = mz_criterion_weighted(HyperellipticMaxModel(PD))
    assert out.kind == "model" and not out.exact
    assert out.verdict  # m0 = z0 = 2 ...
    assert out.caveat and "m0 = z0" in out.caveat
    blob = out.to_json_dict()
    assert blob["h0_witness"] == 1 and "caveat" in blob


def test_multiplicity_bound():
    graph = bci_graph(DATA)
    mx = maximal_ideal_cycle(DATA, graph)
    z = fundamental_cycle(graph)
    bound = multiplicity_bound(graph, mx, z)
    assert bound.minus_square == 6
    assert bound.lower_bound == 3
    assert -graph.pairing(z, z) == 2
    with pytest.raises(InputError):
        multiplicity_bound(graph, [0, 0, 0, 0], z)
    with pytest.raises(InputError):
        multiplicity_bound(graph, [1, 1, -1, 1], z)


# -- the case study -----------------------------------------------------------

EXPECTED_ROWS = {
    (1, 1, 1, 1): dict(pg=8, m=3, emb=4, gor=False,
                       gens=(2, 3, 8, 10), gamma=(3, 8, 10),
                       defs=((4, 1), (7, 1)), sally=None),
    (0, 2, 1, 1): dict(pg=8, m=4, emb=4, gor=False,
                       gens=(2, 4, 5, 11), gamma=(4, 5, 11),
                       defs=((3, 1), (7, 1)), sally=None),
    (0, 2, 0, 1): dict(pg=7, m=4, emb=5, gor=False,
                       gens=(2, 4, 7, 9, 10), gamma=(4, 7, 9, 10),
                       defs=((3, 1), (5, 1), (7, 1)), sally=None),
    (0, 1, 1, 2): dict(pg=8, m=5, emb=5, gor=True,
                       gens=(2, 5, 6, 7, 8), gamma=(5, 6, 7, 8),
                       defs=((3, 1), (4, 1)), sally=5),
    (0, 1, 1, 1): dict(pg=7, m=5, emb=5, gor=False,
                       gens=(2, 5, 6, 8, 9), gamma=(5, 6, 8, 9),
                       defs=((3, 1), (4, 1), (7, 1)), sally=None),
    (0, 1, 0, 1): dict(pg=6, m=6, emb=7, gor=False,
                       gens=(2, 6, 7, 8, 9, 10, 11), gamma=(6, 7, 8, 9, 10, 11),
                       defs=((3, 1), (4, 1), (5, 1), (7, 1)), sally=None),
}


def test_case_study_rows_golden():
    for vector, want in EXPECTED_ROWS.items():
        row = case_study_2334(*vector)
        assert row.overrides == vector
        assert row.pg == want["pg"]
        assert row.second_generator_degree == want["m"]
        assert row.multiplicity == want["m"]
        assert row.embedding_dimension == want["emb"]
        assert row.gorenstein == want["gor"]
        assert row.generator_degrees == want["gens"]
        assert row.value_semigroup_generators == want["gamma"]
        assert row.deficiencies == want["defs"]
        assert row.sally_bound == want["sally"]
        assert row.abhyankar_bound == want["m"] + 1
        assert (row.z0, row.m0) == (2, 2)
        assert row.embedding_dimension <= row.abhyankar_bound
        _dumps(row.to_json_dict())


def test_case_study_classification_is_complete():
    accepted = set()
    for vector in product((0, 1), (1, 2), (0, 1), (1, 2)):
        try:
            case_study_2334(*vector)
        except ModelInconsistencyError:
            continue
        accepted.add(vector)
    assert accepted == set(TABLE2_VECTORS)


def test_case_study_deficiency_count_matches_genus_drop():
    top = pg_max(bci_graph(DATA)).value
    for vector in TABLE2_VECTORS:
        row = case_study_2334(*vector)
        assert top - row.pg == len(row.deficiencies)
        assert all(drop == 1 for _, drop in row.deficiencies)


def test_case_study_linear_equivalence_rule():
    with pytest.raises(ModelInconsistencyError, match="h0"):
        case_study_2334(1, 1, 0, 1)


def test_case_study_rejection_quotes_the_series():
    expected = "1 + 2t^7 + t^8 + t^10 + t^11 - t^13 + t^15"
    with pytest.raises(ModelInconsistencyError, match=re.escape(expected)):
        case_study_2334(0, 1, 0, 2)


def test_case_study_rejects_out_of_range_counts():
    for bad in ((2, 1, 1, 1), (0, 0, 1, 1), (0, 1, 2, 1), (0, 1, 1, 3)):
        with pytest.raises(InputError):
            case_study_2334(*bad)


def test_case_study_series_golden():
    row = case_study_2334(0, 2, 1, 1)
    assert row.series.denominator_factors == (2, 4)
    assert list(row.series.numerator.coeffs) == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1]
    assert row.h0_head == (1, 0, 1, 0, 2, 1, 2, 1, 3, 2, 4, 3)
    assert pg_from_series(row.series) == row.pg  # the series route agrees


def test_gorenstein_row_has_symmetric_data():
    row = case_study_2334(0, 1, 1, 2)
    coeffs = list(row.series.numerator.coeffs)
    assert coeffs == coeffs[::-1]
    gaps = [n for n in range(20)
            if n not in NumericalSemigroup(row.value_semigroup_generators)]
    frob = max(gaps)
    assert len(gaps) == (frob + 1) // 2  # symmetric value semigroup


# -- maximal-genus structure ---------------------------------------------------


def test_max_type_golden():
    top = max_type_2334()
    assert top.pg == 10
    assert top.m_cycle.as_integers() == (2, 2, 1, 1)
    assert top.minus_m_squared == 4
    assert top.multiplicity_lower_bound == 3
    assert top.generator_degrees == (2, 3, 4, 10)
    assert top.relation_degrees == (6, 20)
    assert top.embedding_dimension == 4
    assert top.gorenstein and top.complete_intersection
    assert (top.z0, top.m0) == (2, 2)
    assert top.caveat
    assert pg_from_series(top.series) == 10
    assert sum(top.generator_degrees) - sum(top.relation_degrees) == -7
    _dumps(top.to_json_dict())


# -- the presentation peel and the Gorenstein test ------------------------------


def _assert_bci_structure(exponents):
    # a Brieskorn ring is a complete intersection: generators at the
    # weights, m - 2 relations at ell, and Gorenstein
    data = bci_data(exponents)
    series = hilbert_series(data)
    assert peel_presentation(series) == (tuple(sorted(data.e)),
                                         (data.ell,) * (data.m - 2)), exponents
    assert is_gorenstein(series), exponents


@PROPERTY
@given(exponent_tuples().filter(lambda exponents: lcm(*exponents) <= 400))
@example((2, 2, 2, 2, 2))
@example((5, 7, 8))
def test_peel_reads_the_bci_presentation(exponents):
    _assert_bci_structure(exponents)


def test_peel_reads_every_small_bci_presentation():
    for m, cap in ((3, 8), (4, 8), (5, 5)):
        for exponents in combinations_with_replacement(range(2, cap + 1), m):
            if lcm(*exponents) <= 400:
                _assert_bci_structure(exponents)


def test_peel_reads_the_maximal_presentation():
    series = pdmodel._maximal_2334().series
    assert peel_presentation(series) == ((2, 3, 4, 10), (6, 20))
    assert is_gorenstein(series)


def test_peel_rejects_a_series_with_no_presentation():
    # (1 + t) is read through degree 1 only, where it agrees with one
    # generator in degree 1; the exact check refuses 1 / (1 - t)
    with pytest.raises(InternalInvariantError, match="presentation mismatch"):
        peel_presentation(HilbertSeries([1, 1]))


def test_gorenstein_test_reads_the_numerator_up_to_sign():
    assert is_gorenstein(HilbertSeries([1, 0, -2, 0, 1], (2, 3)))
    assert is_gorenstein(HilbertSeries([1, 0, 0, -1], (1,)))
    assert not is_gorenstein(HilbertSeries([1, 1, 2], (1, 1)))
    assert not is_gorenstein(HilbertSeries([1, 1, 0, -1], (1,)))


def test_gorenstein_flag_of_every_override_vector():
    # the rule the rows took before Stanley's test: Gorenstein iff h7 = 2
    for vector in product((0, 1), (1, 2), (0, 1), (1, 2)):
        if vector not in TABLE2_VECTORS:
            with pytest.raises(ModelInconsistencyError):
                case_study_2334(*vector)
            continue
        row = case_study_2334(*vector)
        assert row.gorenstein == (vector[3] == 2), vector
        assert row.gorenstein == is_gorenstein(row.series)


def test_max_type_exceeds_every_classified_row():
    top = max_type_2334()
    for vector in TABLE2_VECTORS:
        assert case_study_2334(*vector).pg < top.pg


def test_maximal_series_is_checked_against_the_model(monkeypatch):
    # the (2,3,3,4) study is built once per process; rebuilt here with the
    # Clifford-maximal model raised at degree 6, its series no longer matches
    h0_at = HyperellipticMaxModel.h0_at
    monkeypatch.setattr(HyperellipticMaxModel, "h0_at",
                        lambda self, n, deg: h0_at(self, n, deg) + (n == 6))
    pdmodel._maximal_2334.cache_clear()
    try:
        with pytest.raises(InternalInvariantError,
                           match="^maximal series wrong at degree 6$"):
            case_study_2334(1, 1, 1, 1)
    finally:
        pdmodel._maximal_2334.cache_clear()


# -- tables -------------------------------------------------------------------


def test_table1_golden():
    rows = table1_rows()
    assert [(r["pg"], r["mult"], r["emb"]) for r in rows] == [(8, 6, 4), (10, 4, 4)]


def test_table2_matches_direct_calls():
    rows = table2_rows()
    assert [r.overrides for r in rows] == list(TABLE2_VECTORS)
    for row in rows:
        want = EXPECTED_ROWS[row.overrides]
        assert (row.pg, row.multiplicity, row.embedding_dimension) \
            == (want["pg"], want["m"], want["emb"])
