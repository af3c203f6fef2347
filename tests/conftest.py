"""Shared corpora for the suite.

The corpora are frozen: the exhaustive ones by construction, the random one
by its seed.  Tests rely on that stability for golden values.
"""

import random
from itertools import combinations_with_replacement

import pytest

SEED = 20260818


def all_small_multisets():
    """Every exponent multiset with m in {3, 4} and 2 <= a_i <= 5 (55 total)."""
    out = []
    for m in (3, 4):
        out.extend(combinations_with_replacement(range(2, 6), m))
    return out


# every tuple with m = 3 and a_i <= 16, m = 4 and a_i <= 9, or m = 5 and
# a_i <= 6: 1,136 tuples
EXPONENT_CORPUS = [t for m, top in ((3, 16), (4, 9), (5, 6))
                   for t in combinations_with_replacement(range(2, top + 1), m)]


def random_corpus(count=200, max_exp=12, seed=SEED):
    """Seeded random exponent tuples, m in {3, 4}, 2 <= a_i <= max_exp."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = rng.choice((3, 4))
        out.append(tuple(sorted(rng.randint(2, max_exp) for _ in range(m))))
    return out


@pytest.fixture(scope="session")
def small_multisets():
    return all_small_multisets()


@pytest.fixture(scope="session")
def corpus200():
    return random_corpus()
