"""shortint: empirical machinery for primes in short intervals."""

from .bounds import (
    BoundParams,
    BoundValue,
    DEFAULT_PARAMS,
    ParamCheck,
    bounds_report,
    check_uniform_range,
    lambda_cap,
    lower_bound,
    mertens_product,
    spacing_divisor,
    tuple_size,
)
from .clusters import (
    Cluster,
    Falsification,
    Slides,
    extract_m_runs,
    find_clusters,
    guaranteed_run_floor,
    slide,
)
from .density import (
    DensityReport,
    GrowthResult,
    growth_check,
    measure_density,
    poisson_reference,
    required_limit,
    window_counts,
)
from .errors import (
    InadmissibleTupleError,
    MemoryBudgetError,
    ParameterRangeError,
    ShortIntervalError,
)
from .primes import (
    ALL,
    PrimeFilter,
    PrimeTable,
    build_table,
    is_fundamental_discriminant,
    kronecker_symbol,
)
from .tuples import (
    AdmissibleTuple,
    SievedSet,
    count_spaced_selections,
    first_covered_prime,
    format_offsets,
    greedy_sieve,
    is_admissible,
    parse_offsets,
    select_spaced,
    singular_series,
)

__version__ = "0.1.0"
