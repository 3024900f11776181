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
    kronecker,
    sieve,
)
from .densities import (
    DistributionValue,
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
    fundamental_discriminants,
    ingest,
    quadratic_murmuration,
    quadratic_series,
    write_family,
)
from .frame import (
    FamilyRecord,
    MurmurationSeries,
    bin_series,
    expectation,
    murmuration_series,
    peak_location,
    shape_residual,
)
from .petersson import (
    PeterssonValue,
    harmonic_series,
    petersson_delta,
    symsq_series,
)
from .specfn import (
    WeightFunction,
    bessel_j,
    bump,
    indicator,
    quadrature,
    shifted_bump,
)

__version__ = "0.1.0"
