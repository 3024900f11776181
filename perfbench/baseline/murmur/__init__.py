"""Murmuration averages for families of L-functions.

Empirical family averages (direct enumeration of quadratic characters,
ingested coefficient tables, and a weight-aspect trace-formula engine)
cross-checked against closed-form murmuration densities and
one-level-density kernels.
"""

from .arith import (
    ArithTables,
    kloosterman_direct,
    kloosterman_fast,
    kloosterman_many,
    kronecker,
    sieve,
)
from .densities import (
    DistributionValue,
    explicit_prime_sum,
    harmonic_murmuration_density,
    one_level_pairing,
    so_kernel,
    so_kernel_fourier,
    window_murmuration_density,
)
from .errors import (
    AccuracyError,
    CoverageError,
    DataError,
    DomainError,
    MurmurError,
    SizeError,
    WindowError,
)
from .families import (
    IngestedFamily,
    QuadraticCharacter,
    enumerate_quadratic,
    ingest,
    quadratic_murmuration,
    write_family,
)
from .frame import (
    FamilyRecord,
    MurmurationSeries,
    bin_series,
    expectation,
    murmuration_series,
    peak_location,
    prime_window_average,
    shape_residual,
    weighted_sum,
)
from .petersson import (
    PeterssonValue,
    harmonic_murmuration,
    harmonic_series,
    petersson_delta,
    symsq_murmuration,
    symsq_series,
    weight_conductor,
)
from .specfn import (
    TruncationPolicy,
    WeightFunction,
    bessel_j,
    bump,
    indicator,
    log_gamma,
    petersson_prefactor,
    petersson_prefactor_log,
    quadrature,
    shifted_bump,
)

__version__ = "0.1.0"
