"""Distinguished cycles on a resolution graph.

The fundamental cycle is the smallest nonzero anti-nef cycle.  On a
star-shaped graph, the smallest cycle with prescribed central coefficient
that is anti-nef away from the center comes from an exact ceiling recursion
along each arm, and the fundamental cycle is one of these; other trees use
the classical generalized-Laufer iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, InternalInvariantError
from .graph import (QCycle, _arm_products, _continuants, _normalize, exact_json,
                    json_map)

# Laufer iterations on reasonable graphs stay far below this; the cap only
# guards against a non-terminating loop on corrupted input.
_LAUFER_STEP_CAP = 10_000_000


def is_antinef(graph, cycle):
    """True iff cycle . E_i <= 0 for every vertex i."""
    return max(graph.products(cycle)) <= 0


def fundamental_cycle(graph):
    """Smallest nonzero anti-nef cycle (all coefficients integral, >= 1).

    On a star-shaped graph this is the minimal cycle L_{z0}, z0 the first
    n >= 1 with deg D_n >= 0.  Z >= L_z for its own central coefficient z;
    the two agree at the center, so L_z.E_0 <= Z.E_0 <= 0 and Z = L_z.  And
    L_n is anti-nef exactly when -L_n.E_0 = deg D_n >= 0.

    Other trees use Laufer's iteration: start from the reduced cycle; while
    some E_i meets the current cycle positively, add that E_i (smallest id
    first).
    """
    if graph.central is not None:
        z = minimal_cycle(graph, graph._seifert.z0())
        if deg_on_central(graph, z) < 0:
            raise InternalInvariantError("L_z0 is not anti-nef at the center")
        return z
    n = graph.num_vertices
    z = [1] * n
    prod = [graph.product_with_vertex(z, i) for i in range(n)]
    for _ in range(_LAUFER_STEP_CAP):
        i = next((k for k in range(n) if prod[k] > 0), None)
        if i is None:
            return QCycle(z)
        z[i] += 1
        prod[i] += graph.selfint[i]
        for j in graph.neighbors(i):
            prod[j] += 1
    raise InternalInvariantError("Laufer iteration did not terminate")


def minimal_arm_cycle(chain, m0):
    """Minimal coefficients along one arm given the central coefficient m0.

    chain lists the arm's -self-intersections from the center outward; entry
    j of the result is the smallest coefficient making the cycle anti-nef at
    every arm vertex, namely ceil(previous / d_j) with d_j the value of the
    truncated continued fraction [[c_j, ..., c_s]].
    """
    if m0 < 0:
        raise InputError("central coefficient must be >= 0, got %r" % (m0,))
    if any(c < 2 for c in chain):
        raise InputError("arm chain entries must be >= 2: %r" % (list(chain),))
    coeffs = []
    m = m0
    for p, q in _continuants(tuple(chain)):
        m = (m * q + p - 1) // p  # ceil(m / (p/q)) for m >= 0, p/q > 1
        coeffs.append(m)
    return coeffs


def minimal_cycle(graph, n):
    """Smallest cycle with central coefficient n, anti-nef off the center.

    With n the least weight of a nonzero section this is the divisorial part
    of a generic such section; coefficients stay exact for n well past 10^6.
    Identical arms get identical coefficients and products, so the recursion
    and the anti-nef check run once per distinct chain.
    """
    if graph.central is None:
        raise InputError("minimal_cycle needs a star-shaped graph with a center")
    if n < 0:
        raise InputError("central coefficient must be >= 0, got %r" % (n,))
    layout = graph._arm_layout
    classes = layout.chain_classes
    arm_coeffs = []
    for k in classes.reps:
        chain = layout.chains[k]
        coeffs = minimal_arm_cycle(chain, n)
        for v, p in zip(layout.arms[k], _arm_products(chain, n, coeffs)):
            if p > 0:
                raise InternalInvariantError("arm recursion broke anti-nefness at %d" % v)
        arm_coeffs.append(coeffs)
    return QCycle(layout.spread(n, arm_coeffs, classes.of_arm))


def deg_on_central(graph, cycle):
    """-(cycle . E_central); for minimal_cycle(graph, n) this is the degree
    of the associated divisor."""
    if graph.central is None:
        raise InputError("graph has no central vertex")
    return -graph.product_with_vertex(cycle, graph.central)


def arithmetic_genus(graph, cycle):
    """p_a(cycle) = 1 + (cycle^2 + cycle.K)/2 for an effective integral cycle."""
    coeffs = cycle.as_integers() if isinstance(cycle, QCycle) else tuple(cycle)
    if any(c < 0 for c in coeffs) or all(c == 0 for c in coeffs):
        raise InputError("arithmetic genus needs a nonzero effective cycle")
    return _genus(graph.pairing(coeffs, coeffs), graph.canonical_product(coeffs))


def _genus(square, k):
    """1 + (square + k)/2 for square = C^2 and k = K.C of an integral cycle."""
    if (square + k) % 2:
        raise InternalInvariantError("cycle^2 + cycle.K is odd")
    return 1 + (square + k) // 2


@dataclass(frozen=True)
class CycleReport:
    """A cycle together with its intersection data."""

    cycle: QCycle
    products: dict
    self_intersection: object
    pa: object

    def to_json_dict(self):
        return {
            "coefficients": self.cycle.coeff_map(),
            "products": json_map(list(self.products.values())),
            "self_intersection": exact_json(self.self_intersection),
            "pa": self.pa,
        }


def cycle_report(graph, cycle):
    """Products C.E_i, the self-intersection sum_i c_i*(C.E_i), and p_a when
    defined."""
    products = graph.products(cycle)
    square = _normalize(sum(c * p for c, p in zip(cycle, products)))
    pa = None
    if cycle.is_integral and cycle.is_effective and not cycle.is_zero:
        pa = _genus(square, graph.canonical_product(cycle))
    return CycleReport(cycle=cycle, products=dict(enumerate(products)),
                       self_intersection=square, pa=pa)
