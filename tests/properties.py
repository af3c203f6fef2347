"""Hypothesis settings and strategies for the property tests.

Only the property tests need hypothesis.  Without it installed, the names
below become inert stand-ins: every ``@given`` test is skipped, and the
example-based tests in the same modules still collect and run.  The
properties run derandomized with no example database, so the suite draws
the same examples on every run.
"""

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
def seifert_invariants(draw):
    """Seifert invariants with genus up to 2, alpha <= 7, repeated arm types
    and alpha = 1 arms; the orbifold degree is positive by construction."""
    arms = []
    for _ in range(draw(st.integers(0, 4))):
        alpha = draw(st.integers(1, 7))
        beta = 0 if alpha == 1 else draw(st.sampled_from(
            [b for b in range(1, alpha) if gcd(alpha, b) == 1]))
        arms.extend([(alpha, beta)] * draw(st.integers(1, 3)))
    arms = draw(st.permutations(arms))
    slack = draw(st.integers(1, 2))
    c0 = slack + floor(sum(Fraction(b, a) for a, b in arms))
    return SeifertInvariant(g=draw(st.integers(0, 2)), c0=c0, arms=tuple(arms))


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
def relabelled_stars(draw):
    """(seifert, label): a Seifert invariant with repeated arm types and a
    permutation of the vertex ids of its star graph."""
    seifert = draw(seifert_invariants())
    n = 1 + sum(len(hj_expand(a, b)) for a, b in seifert.nontrivial_arms())
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
