"""Exact invariants of weighted homogeneous surface singularities.

Resolution graphs, Seifert invariants, fundamental/minimal/canonical cycles,
and the full arithmetic of Brieskorn complete intersections: weights, divisor
degrees, Hilbert series, geometric genus, maximal ideal cycle tests, and the
classification of analytic structures on the (2,3,3,4) graph.  All arithmetic
is integer or Fraction exact; no floating point anywhere.
"""

from .errors import InputError, InternalInvariantError, ModelInconsistencyError
from .graph import (QCycle, ResolutionGraph, SeifertInvariant, canonical_cycle,
                    dual_cycle, dual_sum, hj_evaluate, hj_expand,
                    is_numerically_gorenstein, negative_definite,
                    seifert_of_graph, star_graph)
from .cycles import (CycleReport, arithmetic_genus, cycle_report, deg_on_central,
                     fundamental_cycle, minimal_arm_cycle, minimal_cycle)
from .numerics import (HilbertSeries, IntPolynomial, NumericalSemigroup,
                       minimal_generators, pg_difference, pg_from_series,
                       value_semigroup_from_series)
from .bci import (BrieskornData, CoordinateCycle, MZWitness, WeightSemigroup,
                  a_invariant, bci_data, bci_graph, bci_seifert,
                  coordinate_cycle, divisor_degree_semigroup, hilbert_series,
                  lattice_pg, m_equals_z, maximal_ideal_cycle, series_prefix,
                  weight_semigroup)
from .pdmodel import (AnalyticModel, BciModel, CaseReport, HyperellipticMaxModel,
                      MaxTypeReport, MultiplicityBound, MZAssessment,
                      OverrideModel, PgMaxResult, TABLE2_VECTORS,
                      ambiguous_degrees, case_study_2334, clifford_bounds,
                      is_hyperelliptic_type, max_type_2334, multiplicity_bound,
                      mz_criterion_weighted, pg_max, pinkham_pg,
                      pinkham_pg_closed, table1_rows, table2_rows, z0_m0)
from .pdmodel import PDDegreeModel  # old name, kept importable; not in __all__

__version__ = "0.1.0"

__all__ = [
    "InputError", "ModelInconsistencyError", "InternalInvariantError",
    "hj_expand", "hj_evaluate", "negative_definite",
    "QCycle", "ResolutionGraph", "SeifertInvariant", "star_graph",
    "seifert_of_graph", "dual_cycle", "dual_sum", "canonical_cycle",
    "is_numerically_gorenstein",
    "fundamental_cycle", "minimal_arm_cycle", "minimal_cycle",
    "deg_on_central", "arithmetic_genus", "CycleReport", "cycle_report",
    "IntPolynomial", "HilbertSeries", "pg_from_series",
    "pg_difference", "NumericalSemigroup", "minimal_generators",
    "value_semigroup_from_series",
    "BrieskornData", "bci_data", "bci_seifert", "bci_graph",
    "CoordinateCycle", "coordinate_cycle", "maximal_ideal_cycle",
    "MZWitness", "m_equals_z", "a_invariant", "weight_semigroup",
    "WeightSemigroup", "divisor_degree_semigroup", "hilbert_series",
    "lattice_pg", "series_prefix",
    "clifford_bounds", "ambiguous_degrees", "AnalyticModel",
    "BciModel", "HyperellipticMaxModel", "OverrideModel", "pinkham_pg",
    "pinkham_pg_closed",
    "z0_m0", "is_hyperelliptic_type", "PgMaxResult", "pg_max", "MZAssessment",
    "mz_criterion_weighted", "MultiplicityBound", "multiplicity_bound",
    "CaseReport", "case_study_2334", "MaxTypeReport", "max_type_2334",
    "TABLE2_VECTORS", "table1_rows", "table2_rows",
    "__version__",
]
