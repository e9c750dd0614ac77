"""shortint: empirical machinery for primes in short intervals.

Names load lazily (PEP 562): `import shortint` imports no submodule and not
numpy; the first lookup of a name imports the one module that defines it,
and each module named in _EXPORTS resolves as an attribute too.
"""

import importlib

_EXPORTS = {
    "bounds": "BoundParams BoundValue DEFAULT_PARAMS ParamCheck bounds_report "
    "check_uniform_range lambda_cap lower_bound mertens_product spacing_divisor tuple_size",
    "clusters": "Cluster Falsification Slides extract_m_runs find_clusters "
    "guaranteed_run_floor slide",
    "density": "DensityReport GrowthResult growth_check measure_density "
    "poisson_reference required_limit window_counts",
    "errors": "InadmissibleTupleError MemoryBudgetError ParameterRangeError ShortIntervalError",
    "primes": "ALL PrimeFilter PrimeTable build_table is_fundamental_discriminant "
    "kronecker_symbol",
    "tuples": "AdmissibleTuple SievedSet count_spaced_selections first_covered_prime "
    "format_offsets greedy_sieve is_admissible parse_offsets select_spaced singular_series",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
