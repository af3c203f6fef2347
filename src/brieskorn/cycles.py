"""Distinguished cycles on a star-shaped resolution graph.

The fundamental cycle is the smallest nonzero anti-nef cycle.  The smallest
cycle with prescribed central coefficient that is anti-nef away from the
center comes from an exact ceiling recursion along each arm, and the
fundamental cycle is one of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import InputError, InternalInvariantError, exact_int
from .graph import QCycle, _continuants, _normalize, _spread
from .report import _Prewritten, json_map_text, report_json


def fundamental_cycle(graph):
    """Smallest nonzero anti-nef cycle (all coefficients integral, >= 1).

    This is the minimal cycle L_{z0}, z0 the first n >= 1 with
    deg D_n >= 0.  Z >= L_z for its own central coefficient z; the two agree
    at the center, so L_z.E_0 <= Z.E_0 <= 0 and Z = L_z.  And L_n is
    anti-nef exactly when -L_n.E_0 = deg D_n >= 0.
    """
    z = minimal_cycle(graph, graph._seifert.z0())
    if deg_on_central(graph, z) < 0:
        raise InternalInvariantError("L_z0 is not anti-nef at the center")
    return z


def minimal_arm_cycle(chain, m0):
    """Minimal coefficients along one arm given the central coefficient m0.

    chain lists the arm's -self-intersections from the center outward; entry
    j of the result is the smallest coefficient making the cycle anti-nef at
    every arm vertex, namely ceil(previous / d_j) with d_j the value of the
    truncated continued fraction [[c_j, ..., c_s]].
    """
    m0 = exact_int(m0)
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


def _arm_products(chain, center_value, values):
    """C.E_j along one arm, from the center outward, for a cycle C with the
    given central coefficient and coefficients on the arm; chain holds the
    arm's -self-intersections."""
    values = list(values)
    return [m * -c + prev + nxt for c, m, prev, nxt in
            zip(chain, values, [center_value] + values[:-1], values[1:] + [0])]


def minimal_cycle(graph, n):
    """Smallest cycle with central coefficient n, anti-nef off the center.

    With n the least weight of a nonzero section this is the divisorial part
    of a generic such section: L_{z0} is the fundamental cycle, and on a
    Brieskorn graph L_{e_i} is the cycle of the coordinate x_i.
    Coefficients stay exact for n well past 10^8.
    Identical arms get identical coefficients and products, so the recursion
    and the anti-nef check run once per distinct chain.
    """
    n = exact_int(n)
    if n < 0:
        raise InputError("central coefficient must be >= 0, got %r" % (n,))
    arm_coeffs = {}
    for arm, chain in graph._seifert.chains.items():
        coeffs = arm_coeffs[arm] = minimal_arm_cycle(chain, n)
        if max(_arm_products(chain, n, coeffs)) > 0:
            raise InternalInvariantError("arm recursion broke anti-nefness on %r" % (arm,))
    return QCycle(_spread(graph, n, arm_coeffs))


def deg_on_central(graph, cycle):
    """-(cycle . E_central); for minimal_cycle(graph, n) this is the degree
    of the associated divisor."""
    return -graph.product_with_vertex(cycle.coeffs, graph.central)


def _effective_cycle(cycle, what):
    """cycle as a QCycle, once it is nonzero, effective and integral; what
    names the computation that needs it."""
    cycle = QCycle(cycle)
    cycle.as_integers()
    if cycle.is_zero or not cycle.is_effective:
        raise InputError("%s needs a nonzero effective cycle" % what)
    return cycle


def arithmetic_genus(graph, cycle):
    """p_a(cycle) = 1 + (cycle^2 + cycle.K)/2 for an effective integral cycle."""
    return cycle_report(graph, _effective_cycle(cycle, "arithmetic genus")).pa


@dataclass(frozen=True)
class CycleReport:
    """A cycle together with its intersection data."""

    cycle: QCycle
    products: list
    self_intersection: object
    pa: object

    def to_json_dict(self):
        """report_json of the fields, the cycle as coefficients; the products
        are a pre-written vertex map too."""
        return {**report_json(self, cycle="coefficients"),
                "products": _Prewritten(json_map_text(self.products))}


def cycle_report(graph, cycle):
    """Products C.E_i, the self-intersection sum_i c_i*(C.E_i), and
    p_a = 1 + (C^2 + C.K)/2 when C is effective, integral and nonzero."""
    coeffs = cycle.coeffs
    products = graph.products(coeffs)
    square = _normalize(sum(map(mul, coeffs, products)))
    pa = None
    if cycle.is_integral and cycle.is_effective and not cycle.is_zero:
        twice = square + graph.canonical_product(coeffs)
        if twice % 2:
            raise InternalInvariantError("cycle^2 + cycle.K is odd")
        pa = 1 + twice // 2
    return CycleReport(cycle=cycle, products=products,
                       self_intersection=square, pa=pa)
