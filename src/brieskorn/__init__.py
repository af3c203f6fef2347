"""Exact invariants of weighted homogeneous surface singularities.

Resolution graphs, Seifert invariants, fundamental/minimal/canonical cycles,
and the full arithmetic of Brieskorn complete intersections: weights, divisor
degrees, Hilbert series, geometric genus, maximal ideal cycle tests, and the
classification of analytic structures on the (2,3,3,4) graph.  All arithmetic
is integer or Fraction exact; no floating point anywhere.

Each public name is imported from its module on first access (PEP 562), so
importing the package, as `python -m brieskorn.cli` does before anything
else, loads no module that the run does not use.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "errors": ("InputError", "ModelInconsistencyError", "InternalInvariantError"),
    "graph": ("hj_expand", "hj_evaluate", "negative_definite", "QCycle",
              "ResolutionGraph", "SeifertInvariant", "star_graph",
              "seifert_of_graph", "dual_cycle", "canonical_cycle",
              "is_numerically_gorenstein"),
    "cycles": ("fundamental_cycle", "minimal_arm_cycle", "minimal_cycle",
               "deg_on_central", "arithmetic_genus", "CycleReport", "cycle_report"),
    "numerics": ("IntPolynomial", "HilbertSeries", "pg_from_series",
                 "pg_difference", "NumericalSemigroup", "minimal_generators",
                 "value_semigroup_from_series"),
    "bci": ("BrieskornData", "bci_data", "bci_seifert", "bci_graph",
            "CoordinateCycle", "coordinate_cycle", "maximal_ideal_cycle",
            "MZWitness", "m_equals_z", "a_invariant", "weight_semigroup",
            "WeightSemigroup", "divisor_degree_semigroup", "hilbert_series",
            "lattice_pg", "laufer_pg", "series_prefix"),
    "pdmodel": ("ambiguous_degrees", "AnalyticModel", "BciModel",
                "HyperellipticMaxModel", "OverrideModel", "pinkham_pg",
                "pinkham_pg_closed", "z0_m0", "is_hyperelliptic_type",
                "PgMaxResult", "pg_max", "MZAssessment", "mz_criterion_weighted",
                "MultiplicityBound", "multiplicity_bound", "CaseReport",
                "case_study_2334", "MaxTypeReport", "max_type_2334",
                "TABLE2_VECTORS", "table1_rows", "table2_rows"),
}

_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = [*_HOME, "__version__"]
_HOME["PDDegreeModel"] = "pdmodel"  # old name, kept importable; not in __all__


def __getattr__(name):
    """A public name, imported from its module and kept on first access."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
