"""Hypothesis settings and strategies for the property tests.

Only the property tests need hypothesis.  Without it installed, the names
below become inert stand-ins: every ``@given`` test is skipped, and the
example-based tests in the same modules still collect and run.  The
properties run derandomized with no example database, so the suite draws
the same examples on every run.
"""

from collections import Counter
from fractions import Fraction
from math import floor, gcd

import pytest

from brieskorn import SeifertInvariant, hj_expand

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:
    class _Inert:
        """Absorbs strategy construction at import time."""

        def __getattr__(self, name):
            return self

        def __call__(self, *args, **kwargs):
            return self

    st = _Inert()

    def given(*args, **kwargs):
        return pytest.mark.skip(reason="hypothesis is not installed")

    def example(*args, **kwargs):
        return lambda test: test

    def settings(**kwargs):
        return lambda test: test


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)


@st.composite
def seifert_arm_lists(draw):
    """(g, c0, arms) with genus up to 2 and the arms one pair each, as
    drawn: alpha <= 7, repeated arm types and alpha = 1 arms, in random
    order; the orbifold degree is positive by construction."""
    arms = []
    for _ in range(draw(st.integers(0, 4))):
        alpha = draw(st.integers(1, 7))
        beta = 0 if alpha == 1 else draw(st.sampled_from(
            [b for b in range(1, alpha) if gcd(alpha, b) == 1]))
        arms.extend([(alpha, beta)] * draw(st.integers(1, 3)))
    arms = draw(st.permutations(arms))
    slack = draw(st.integers(1, 2))
    c0 = slack + floor(sum(Fraction(b, a) for a, b in arms))
    return draw(st.integers(0, 2)), c0, tuple(arms)


def seifert_invariants():
    """The Seifert invariants of seifert_arm_lists()."""
    return seifert_arm_lists().map(lambda drawn: SeifertInvariant(*drawn))


@st.composite
def weighted_trees(draw, lowest=-4, highest=1):
    """(vertices, edges) of a random tree on up to 9 vertices, with shuffled
    labels, self-intersections in [lowest, highest] and genus up to 2."""
    n = draw(st.integers(1, 9))
    label = draw(st.permutations(range(n)))
    edges = [(label[draw(st.integers(0, v - 1))], label[v]) for v in range(1, n)]
    vertices = [(draw(st.integers(lowest, highest)), draw(st.integers(0, 2)))
                for _ in range(n)]
    return vertices, edges


@st.composite
def tree_systems(draw, lowest=-4, highest=1):
    """(vertices, edges, rhs): a weighted tree and a right-hand side with
    entries in [-3, 3]; with highest >= -1 many trees are indefinite or
    singular."""
    vertices, edges = draw(weighted_trees(lowest, highest))
    rhs = draw(st.lists(st.integers(-3, 3), min_size=len(vertices),
                        max_size=len(vertices)))
    return vertices, edges, rhs


@st.composite
def centred_trees(draw):
    """(vertices, edges, central): the shape of a weighted_trees tree with a
    random central vertex, star-shaped around it or not.  Every vertex is
    rational with self-intersection below minus its degree, so the matrix
    is strictly diagonally dominant and negative definite."""
    _, edges = draw(weighted_trees())
    n = len(edges) + 1
    degree = Counter(v for edge in edges for v in edge)
    vertices = [(-degree[v] - draw(st.integers(1, 2)), 0) for v in range(n)]
    return vertices, edges, draw(st.integers(0, n - 1))


@st.composite
def relabelled_stars(draw):
    """(seifert, label): a Seifert invariant with repeated arm types and a
    permutation of the vertex ids of its star graph."""
    seifert = draw(seifert_invariants())
    n = 1 + sum(len(hj_expand(a, b)) for a, b in seifert.arms)
    return seifert, draw(st.permutations(range(n)))


# largest exponent drawn for each m, so that ell stays in the low thousands
EXPONENT_CAPS = {3: 24, 4: 12, 5: 7}


@st.composite
def exponent_tuples(draw):
    """Sorted exponent tuples with m = 3, 4 or 5 and a_i up to
    EXPONENT_CAPS[m]."""
    m = draw(st.integers(3, 5))
    exps = draw(st.lists(st.integers(2, EXPONENT_CAPS[m]), min_size=m, max_size=m))
    return tuple(sorted(exps))


# coefficients near 0 and past the 64-bit range, of either sign
NUMERATOR_COEFFS = st.one_of(st.integers(-5, 5), st.integers(2 ** 63, 2 ** 70),
                             st.integers(-2 ** 70, -2 ** 63)).filter(bool)


@st.composite
def sparse_numerators(draw):
    """(terms, factors): up to five (degree, coeff) terms with distinct
    degrees below 300 in increasing order and nonzero coefficients, and up
    to three denominator factors."""
    degrees = sorted(draw(st.lists(st.integers(0, 299), unique=True, max_size=5)))
    terms = tuple((n, draw(NUMERATOR_COEFFS)) for n in degrees)
    return terms, draw(st.lists(st.integers(1, 40), max_size=3))


@st.composite
def generator_sets(draw):
    """Semigroup generators: a least one up to 1,000 and up to four more
    below three times it, all times a common factor up to 4 (so gcd > 1
    occurs), or a single generator."""
    least = draw(st.integers(1, 1000))
    more = draw(st.lists(st.integers(least, 3 * least + 40), max_size=4))
    scale = draw(st.integers(1, 4))
    return [scale * g for g in [least] + more]
