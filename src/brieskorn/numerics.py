"""Integer polynomials, Hilbert series in product form, numerical semigroups.

Everything is exact.  A Hilbert series is stored as the nonzero terms of an
integer-polynomial numerator over a product of factors (1 - t^d); this is the
shape every graded ring in the package produces, and it keeps expansion and
division cheap.  A Brieskorn numerator (1 - t^ell)^(m-2) has m - 1 terms
against (m-2)*ell + 1 dense coefficients, and no dense numerator is
built to expand it or to write it into a report.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, compress, count
from math import gcd, inf

from .errors import (InputError, InternalInvariantError, ModelInconsistencyError,
                     exact_int)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _running_sums(c, d):
    """c[i] += c[i - d] for i = d, d + 1, ... in place, i.e. multiply the
    power series c by 1/(1 - t^d): a running sum along each residue class
    mod d."""
    if 2 * d >= len(c):
        for i in range(d, len(c)):
            c[i] += c[i - d]
    else:
        for r in range(d):
            c[r::d] = accumulate(c[r::d])


def floor_sum(n, m, a, b):
    """sum_{i=0}^{n-1} floor((a*i + b) / m) for n >= 0 and m >= 1, in
    O(log) steps: the Euclid-like reduction of the AtCoder Library's
    floor_sum, with Python's floor division taking care of negative a, b."""
    if n < 0 or m < 1:
        raise InputError("floor_sum needs n >= 0 and m >= 1, got n=%d, m=%d" % (n, m))
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        # the remaining sum counts lattice points under a line of slope
        # a/m < 1; swapping the axes gives the same count with slope m/a
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def _format_terms(terms, var):
    """'1 + 2t^2 - t^3' from the (degree, coeff) pairs of the nonzero
    coefficients in increasing degree; '0' when there are none."""
    parts = []
    for n, c in terms:
        if n == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            term = mag + (var if n == 1 else "%s^%d" % (var, n))
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts) if parts else "0"


class IntPolynomial:
    """Dense univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        if not set(map(type, c)) <= {int}:
            c = list(map(exact_int, c))
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def one_minus_power(cls, d):
        """1 - t^d."""
        d = exact_int(d)
        if d < 1:
            raise InputError("factor degree must be >= 1, got %d" % d)
        return cls([1] + [0] * (d - 1) + [-1])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; the zero polynomial reports -inf."""
        return len(self.coeffs) - 1 if self.coeffs else -inf

    def coeff(self, n):
        return self.coeffs[n] if 0 <= n < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self):
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __call__(self, x):
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def divmod(self, other):
        """Long division; the divisor must have leading coefficient +-1."""
        if other.is_zero:
            raise InputError("division by the zero polynomial")
        lead = other.coeffs[-1]
        if lead not in (1, -1):
            raise InputError("division requires a unit leading coefficient")
        d = len(other.coeffs) - 1
        rem = list(self.coeffs)
        if len(rem) - 1 < d:
            return IntPolynomial(), self
        q = [0] * (len(rem) - d)
        terms = [(k, c) for k, c in enumerate(other.coeffs) if c]
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c * lead  # c // lead for lead = +-1
            q[i - d] = f
            for k, oc in terms:
                rem[i - d + k] -= f * oc
        return IntPolynomial(q), IntPolynomial(rem[:d])

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero:
            raise InputError("polynomial division is not exact")
        return q

    def exact_div_one_minus_power(self, d):
        """Quotient by (1 - t^d) when the division is exact; None otherwise."""
        if self.is_zero:
            return IntPolynomial()
        n = len(self.coeffs) - 1
        if n < d:
            return None
        q = list(self.coeffs[:n - d + 1])
        _running_sums(q, d)
        for i in range(n - d + 1, n + 1):
            back = q[i - d] if i >= d else 0
            if self.coeffs[i] != -back:
                return None
        return IntPolynomial(q)

    @property
    def terms(self):
        """The (degree, coeff) pairs of the nonzero coefficients, by degree."""
        coeffs = self.coeffs
        return tuple((n, coeffs[n]) for n in compress(count(), coeffs))

    def format(self, var="t"):
        return _format_terms(self.terms, var)

    def __repr__(self):
        return "IntPolynomial(%s)" % self.format()


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------

class HilbertSeries:
    """numerator / prod_d (1 - t^d), with d ranging over denominator_factors.

    The numerator is kept as `terms`, the (degree, coeff) pairs of its
    nonzero coefficients in increasing degree; expansion, formatting,
    equality and hashing read the terms alone.  `numerator`, the dense
    IntPolynomial, is built on each read, for the polynomial algebra of the
    case study and the tests."""

    __slots__ = ("terms", "denominator_factors")

    def __init__(self, numerator, denominator_factors=()):
        if not isinstance(numerator, IntPolynomial):
            numerator = IntPolynomial(numerator)
        self._set(numerator.terms, denominator_factors)

    @classmethod
    def from_terms(cls, terms, denominator_factors=()):
        """The series sum_k c_k t^(n_k) / prod_d (1 - t^d) from (n_k, c_k)
        pairs; coefficients of a repeated degree add up, and zeros drop."""
        total = {}
        for n, c in terms:
            n, c = exact_int(n), exact_int(c)
            if n < 0:
                raise InputError("numerator degrees must be >= 0, got %d" % n)
            total[n] = total.get(n, 0) + c
        series = object.__new__(cls)
        series._set(tuple(sorted((n, c) for n, c in total.items() if c)),
                    denominator_factors)
        return series

    def _set(self, terms, denominator_factors):
        factors = tuple(sorted(map(exact_int, denominator_factors)))
        if any(d < 1 for d in factors):
            raise InputError("denominator factors must be positive degrees")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "denominator_factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("HilbertSeries is immutable")

    def __eq__(self, other):
        return (isinstance(other, HilbertSeries)
                and self.terms == other.terms
                and self.denominator_factors == other.denominator_factors)

    def __hash__(self):
        return hash((self.terms, self.denominator_factors))

    @property
    def numerator(self):
        return IntPolynomial(self._dense_numerator())

    def _dense_numerator(self):
        c = [0] * (self.terms[-1][0] + 1 if self.terms else 0)
        for n, v in self.terms:
            c[n] = v
        return c

    def denominator_polynomial(self):
        den = IntPolynomial([1])
        for d in self.denominator_factors:
            den = den * IntPolynomial.one_minus_power(d)
        return den

    def expand(self, order):
        """Taylor coefficients [c_0, ..., c_order], exact.

        The numerator's terms of degree <= order, a sparse {degree: coeff},
        are multiplied by the largest factors 1/(1 - t^d) one at a time, each
        term v t^n adding v at n, n + d, ... <= order, zeros dropped.  The
        next factor b lays them down on the dense list, v added to c[n::b],
        and each factor left is a running sum along the classes mod d.  With
        k terms and the next two factors a >= b, absorbing a and laying b
        cost about k * (order // a + 1) * (order // b + 1) element updates,
        and a joins only while that is at most the 2 * (order + 1) of two
        running sums.  Factors above the order change nothing: skipped."""
        order = exact_int(order)
        if order < 0:
            raise InputError("expansion order must be >= 0")
        terms = {n: v for n, v in self.terms if n <= order}
        factors = [d for d in self.denominator_factors if d <= order]
        top = len(factors)
        while (len(factors) >= 2 and len(terms) * (order // factors[-1] + 1)
               * (order // factors[-2] + 1) <= 2 * (order + 1)):
            d = factors.pop()
            grown = {}
            for n, v in terms.items():
                for p in range(n, order + 1, d):
                    grown[p] = grown.get(p, 0) + v
            terms = {n: v for n, v in grown.items() if v}
        c = [0] * (order + 1)
        if len(factors) < top:
            b = factors.pop()
            for n, v in terms.items():
                c[n::b] = [x + v for x in c[n::b]]
        else:
            for n, v in terms.items():
                c[n] = v
        for d in factors:
            _running_sums(c, d)
        return c

    def plus_polynomial(self, poly):
        """The series plus an integer polynomial, over the same denominator."""
        return HilbertSeries(self.numerator + poly * self.denominator_polynomial(),
                             self.denominator_factors)

    def polynomial_part(self):
        """Quotient r in numerator = q*r + p with deg p < deg q.

        The polynomial part of a rational function does not depend on the
        chosen representation, so exact (1 - t^d) factors of the numerator
        are cancelled first purely to keep the division small.
        """
        num = self.numerator
        remaining = []
        for d in self.denominator_factors:
            q = num.exact_div_one_minus_power(d)
            if q is None:
                remaining.append(d)
            else:
                num = q
        if not remaining:
            return num
        q, _ = num.divmod(HilbertSeries(num, remaining).denominator_polynomial())
        return q

    def format(self, var="t"):
        num = "(%s)" % _format_terms(self.terms, var)
        if not self.denominator_factors:
            return num
        den = "".join("(1 - %s^%d)" % (var, d) if d > 1 else "(1 - %s)" % var
                      for d in self.denominator_factors)
        return "%s / (%s)" % (num, den)

    def __repr__(self):
        return "HilbertSeries(%s)" % self.format()


def _validate_ring_series(series, order):
    """The coefficients [c_0, ..., c_order], checked to start with 1 and to
    be nonnegative."""
    coeffs = series.expand(order)
    if coeffs[0] != 1:
        raise ModelInconsistencyError(
            "coordinate-ring series must start with 1, got %d" % coeffs[0])
    if min(coeffs) < 0:
        n = next(n for n, c in enumerate(coeffs) if c < 0)
        raise ModelInconsistencyError(
            "negative coefficient %d at degree %d in %s"
            % (coeffs[n], n, series.format()))
    return coeffs


def pg_from_series(series):
    """Value at t=1 of the polynomial part of the series.

    For the series of a two-dimensional graded ring this is the geometric
    genus; the series of a polynomial ring gives 0.  The series is checked
    as a ring series through the numerator's top degree plus 1, plus the
    factor degrees plus 16.
    """
    top = series.terms[-1][0] if series.terms else -1
    _validate_ring_series(series, top + 1 + sum(series.denominator_factors) + 16)
    return series.polynomial_part()(1)


def pg_difference(series_a, series_b):
    """(series_a - series_b) evaluated at t=1; the difference must be polynomial."""
    pa, pb = series_a.numerator, series_b.numerator
    qa, qb = series_a.denominator_polynomial(), series_b.denominator_polynomial()
    num = pa * qb - pb * qa
    q, r = num.divmod(qa * qb)
    if not r.is_zero:
        raise ModelInconsistencyError(
            "series difference is not a polynomial; the two series do not "
            "share a topological type")
    return q(1)


# ---------------------------------------------------------------------------
# numerical semigroups
# ---------------------------------------------------------------------------

class NumericalSemigroup:
    """Additive submonoid of Z_{>=0} generated by the given positive integers."""

    __slots__ = ("generators", "__dict__")

    def __init__(self, generators):
        gens = sorted(set(map(exact_int, generators)))
        if not gens:
            raise InputError("empty generator set")
        if gens[0] <= 0:
            raise InputError("generators must be positive, got %d" % gens[0])
        self.generators = tuple(gens)

    @cached_property
    def _gcd(self):
        return gcd(*self.generators)

    @cached_property
    def _reduced(self):
        return NumericalSemigroup(g // self._gcd for g in self.generators)

    @cached_property
    def _apery(self):
        # smallest member of each residue class mod the least generator a,
        # by Böcker and Lipták's round robin: generator g links the classes
        # in gcd(a, g) cycles r -> r + g, and one pass around a cycle,
        # entered at its smallest entry, settles it.  Needs gcd 1 for every
        # class to be reached.
        a = self.generators[0]
        dist = [inf] * a
        dist[0] = 0
        for g in self.generators[1:]:
            d = gcd(a, g)
            for p in range(d):
                r = min(range(p, a, d), key=dist.__getitem__)
                v = dist[r]
                if v == inf:
                    continue
                for _ in range(a // d - 1):
                    r = (r + g) % a
                    v += g
                    if v < dist[r]:
                        dist[r] = v
                    else:
                        v = dist[r]
        if inf in dist:
            raise InternalInvariantError("Apery set incomplete; gcd != 1?")
        return tuple(dist)

    def contains(self, n):
        """Membership test; negative integers are never members."""
        n = exact_int(n)
        if n < 0:
            return False
        if n == 0:
            return True
        if self._gcd > 1:
            return n % self._gcd == 0 and self._reduced.contains(n // self._gcd)
        return self._apery[n % self.generators[0]] <= n

    def __contains__(self, n):
        return self.contains(n)

    def frobenius(self):
        """Largest integer not in the semigroup; -1 when everything is."""
        if self._gcd != 1:
            raise InputError("Frobenius number needs gcd 1, got gcd %d" % self._gcd)
        return max(self._apery) - self.generators[0]

    def minimal_generators(self):
        """The unique minimal generating set: members that are not sums of
        two nonzero members.

        A generator g is such a sum s + t iff g - h is a member for some
        generator h < g: some generator h <= s is a summand of s, and then
        g - h = (s - h) + t; conversely g = h + (g - h).
        """
        gens = self.generators
        return [g for k, g in enumerate(gens)
                if not any(self.contains(g - h) for h in gens[:k])]

    def __repr__(self):
        return "NumericalSemigroup<%s>" % (", ".join(str(g) for g in self.generators))


def minimal_generators(values):
    """Minimal generating set of the semigroup spanned by the values.

    Accepts either a generating set or a (partial) support set; 0 entries
    are ignored.
    """
    vals = sorted(set(map(exact_int, values)) - {0})
    if not vals:
        raise InputError("empty generator set")
    return NumericalSemigroup(vals).minimal_generators()


def value_semigroup_from_series(series, section_degrees):
    """Support semigroup of series * prod_d (1 - t^d) over the section degrees.

    The product must expand with coefficients in {0, 1} and an all-ones tail;
    its support is then a numerical semigroup, returned as a
    NumericalSemigroup built from the extracted minimal generators.
    """
    degrees = list(map(exact_int, section_degrees))
    if not degrees or any(d < 1 for d in degrees):
        raise InputError("section degrees must be positive integers")
    num = series.numerator
    factors = list(series.denominator_factors)
    for d in degrees:
        if d in factors:
            factors.remove(d)  # exact cancellation
        else:
            num = num * IntPolynomial.one_minus_power(d)
    reduced = HilbertSeries(num, factors)

    order = max(64, 4 * max(degrees) * max(len(num.coeffs), *factors, 1))
    coeffs = reduced.expand(order)

    for n, c in enumerate(coeffs):
        if c not in (0, 1):
            raise ModelInconsistencyError(
                "section series has coefficient %d at degree %d; "
                "not a value semigroup" % (c, n))
    last_zero = max((n for n, c in enumerate(coeffs) if c == 0), default=-1)
    tail = order - last_zero
    if tail < max(2 * max(factors, default=1), 16):
        raise ModelInconsistencyError(
            "expansion order %d too small to certify the all-ones tail" % order)

    # every minimal generator lies below the conductor plus the least member
    least = coeffs.index(1, 1)
    top = max(last_zero, 0) + least
    members = [n for n in range(least, min(top, order) + 1) if coeffs[n] == 1]
    gens = NumericalSemigroup(members).minimal_generators()
    sg = NumericalSemigroup(gens)
    for n in range(min(order, last_zero + gens[0] + 1) + 1):
        if sg.contains(n) != (coeffs[n] == 1):
            raise InternalInvariantError(
                "extracted generators do not regenerate the support at %d" % n)
    return sg
