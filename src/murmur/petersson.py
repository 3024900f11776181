"""Delta-normalized trace-formula averages for level-1 holomorphic forms
in the weight aspect, with certified truncation.

``petersson_delta(k, m, n)`` evaluates

    delta_[m=n] + 2 pi i^k sum_{c >= 1} S(m, n; c)/c J_{k-1}(4 pi sqrt(mn)/c)

with i^k = +1 for k = 0 mod 4 and -1 for k = 2 mod 4 (k odd never
occurs), truncating the c-sum where a rigorous tail bound built from
|J_nu(x)| <= (x/2)^nu/nu! * exp(x^2/(4(nu+1))) and the Weil bound
certifies the remainder.

Weight-aspect murmuration averages aggregate these values over a
window of weights.  Inside this engine the conductor scale of a
weight-k form is (k-1)^2, which puts the empirical series on the same
y-axis as the closed-form density Phi(16 pi^2 y / c^2).  Each weight
enters the aggregation with an extra factor (k-1): the harmonic weight
of a single form is proportional to 1/((k-1) L(1, Sym^2 f)), so the
(k-1) restores the pure inverse-special-value weighting that the
closed-form density describes.  ``harmonic_series`` (n = p) and
``symsq_series`` (n = p^2) are the two front-ends of one window sum.

The raw window ratio r(p) is tied to the closed-form density by an
exact bookkeeping factor.  Since sum over nu = 3 mod 4 of
nu J_nu(x) = x (1 - J_0(x))/4, the window sum of (k-1) Phi J_{k-1}(x_c)
concentrates at the transition k - 1 ~ x_c with mass x_c / 4, while the
n = 1 normalization integrates to X mass(Phi)/8, leaving

    r(p) ~ (4 pi y / mass(Phi)) * [4 pi sum_c S(1,p;c)/(c^2 phi(c)) ...]

whose bracket is the density once primes equidistribute mod c.  Series
producers therefore rescale samples by mass(Phi)/(4 pi y) (the
``density_normalized`` flag, on by default and recorded in metadata);
without it a series holds the raw ratios.  Overall constants (2 pi^2 and
the special-value proportionality) cancel in ratios and are recorded in
series metadata, never folded in.
"""

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .arith import ArithTables, check_prime_grid, kloosterman_fast, sieve
from .errors import AccuracyError, DomainError, WindowError
from .frame import MurmurationSeries
from .specfn import WeightFunction, bessel_j

_CUTOFF_BUDGET = 200_000

_AGGREGATION_META = {
    "conductor_scale": "(k-1)^2",
    "per_weight_factor": "(k-1) * Phi((k-1)^2 / X)",
    "omitted_constants": "2*pi^2 and the norm-to-symmetric-square proportionality; both cancel in the ratio",
}


class PeterssonValue(NamedTuple):
    value: float
    tail_bound: float
    cutoff: int


def _phase(k: int) -> int:
    # i^k for even k
    return 1 if k % 4 == 0 else -1


def _log_tail_bound(k: int, A: float, g0: int, C: int) -> float:
    """log of the certified bound for the c > C tail of the Kloosterman sum.

    Each term obeys |S(m,n;c)|/c <= 2 sqrt(g0) (tau(c) <= 2 sqrt(c) and
    gcd(m,n,c) <= g0) and |J_{k-1}(A/c)| <= (A/2c)^{k-1}/(k-1)! *
    exp((A/2c)^2/k); summing c^{-(k-1)} over c > C costs
    C^{2-k}/(k-2).
    """
    nu = k - 1
    return (
        math.log(4.0 * math.pi * math.sqrt(g0))
        + (A / (2.0 * C)) ** 2 / k
        + nu * math.log(A / 2.0)
        - math.lgamma(k)
        - (nu - 1) * math.log(C)
        - math.log(k - 2)
    )


def _choose_cutoff(k: int, A: float, g0: int, tol: float) -> tuple[int, float]:
    log_tol = math.log(tol)
    C = max(1, int(A / (k - 1)))
    while _log_tail_bound(k, A, g0, C) > log_tol:
        C *= 2
        if C > _CUTOFF_BUDGET:
            raise AccuracyError(
                f"tail tolerance {tol:g} unreachable within cutoff budget "
                f"{_CUTOFF_BUDGET} for k={k}, 4*pi*sqrt(mn)={A:.3g}",
                estimate=math.exp(min(700.0, _log_tail_bound(k, A, g0, _CUTOFF_BUDGET))),
            )
    lo, hi = max(1, C // 2), C
    while lo < hi:
        mid = (lo + hi) // 2
        if _log_tail_bound(k, A, g0, mid) <= log_tol:
            hi = mid
        else:
            lo = mid + 1
    C = lo
    return C, math.exp(_log_tail_bound(k, A, g0, C))


def _check_tail_tol(tail_tol: float) -> None:
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail tolerance must be finite and > 0, got {tail_tol}")


def petersson_delta(
    k: int,
    m: int,
    n: int,
    tail_tol: float = 1e-12,
    tables: Optional[ArithTables] = None,
) -> PeterssonValue:
    """Kloosterman--Bessel side of the trace-formula average, truncated
    where the certified tail falls to ``tail_tol``.

    Returns (value, tail_bound, cutoff).  Increasing the cutoff can
    never move the value by more than the reported tail_bound.
    """
    return _delta_window([k], m, n, tail_tol, tables)[0]


def _delta_window(
    ks: Sequence[int],
    m: int,
    n: int,
    tail_tol: float,
    tables: Optional[ArithTables],
) -> list[PeterssonValue]:
    """``petersson_delta`` at every weight of ``ks`` in one batch.

    S(m,n;c)/c and the Bessel argument 4 pi sqrt(mn)/c do not depend on
    the weight, so they are computed once up to the largest cutoff; row
    k of the (weight x modulus) Bessel grid is summed up to its own
    certified cutoff C_k.
    """
    for k in ks:
        if k % 2 != 0 or k < 4:
            raise DomainError(f"weight k must be even and >= 4, got {k}")
    if m < 1 or n < 1:
        raise DomainError("m, n must be positive integers")
    _check_tail_tol(tail_tol)
    A = 4.0 * math.pi * math.sqrt(m * n)
    g0 = math.gcd(m, n)
    cuts = [_choose_cutoff(k, A, g0, tail_tol) for k in ks]
    c_max = max(C for C, _ in cuts)
    if tables is None or tables.limit < c_max:
        tables = _shared_tables(c_max)
    moduli = np.arange(1, c_max + 1)
    sums = np.fromiter((kloosterman_fast(m, n, c, tables) for c in range(1, c_max + 1)), dtype=np.float64)
    s_over_c = sums / moduli
    nus = np.asarray(ks, dtype=np.float64)[:, None] - 1.0
    grid = bessel_j(nus, A / moduli) * s_over_c
    diagonal = 1.0 if m == n else 0.0
    return [
        PeterssonValue(
            value=diagonal + 2.0 * math.pi * _phase(k) * math.fsum(row[:C]),
            tail_bound=tail,
            cutoff=C,
        )
        for k, row, (C, tail) in zip(ks, grid, cuts)
    ]


_TABLE_CACHE: dict = {}


def _shared_tables(at_least: int) -> ArithTables:
    limit = max(1024, 1 << (at_least - 1).bit_length())
    cached = _TABLE_CACHE.get("tables")
    if cached is None or cached.limit < limit:
        cached = sieve(limit)
        _TABLE_CACHE["tables"] = cached
    return cached


# ---------------------------------------------------------------------------
# weight-aspect aggregation


def weight_window(K: float, phi: WeightFunction, sign: Optional[int], span=None) -> list[int]:
    """Weights k with conductor scale (k-1)^2 inside the window of X = (K-1)^2.

    sign +1 keeps k = 0 mod 4, sign -1 keeps k = 2 mod 4, sign None
    keeps all even k.  ``span`` optionally clips to [k_min, k_max].
    """
    if sign not in (1, -1, None):
        raise DomainError(f"sign must be +1, -1 or None, got {sign}")
    if not math.isfinite(K):
        raise DomainError(f"central weight K must be finite, got {K}")
    X = (K - 1.0) ** 2
    a, b = phi.support
    k_lo = max(4, math.ceil(1.0 + math.sqrt(a * X)))
    k_hi = math.floor(1.0 + math.sqrt(b * X))
    if span is not None:
        k_lo = max(k_lo, int(span[0]))
        k_hi = min(k_hi, int(span[1]))
    ks = []
    for k in range(k_lo, k_hi + 1):
        if k % 2 != 0:
            continue
        if sign == 1 and k % 4 != 0:
            continue
        if sign == -1 and k % 4 != 2:
            continue
        ks.append(k)
    return ks


def _window_sums(
    K: float,
    ks: Sequence[int],
    ns: Sequence[int],
    phi: WeightFunction,
    tail_tol: float,
    tables: Optional[ArithTables],
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The window sums A(n) = sum_k Phi((k-1)^2/X) (k-1) Delta_k(1, n) over
    the weights ``ks`` and their certified truncation bounds
    sum_k |Phi((k-1)^2/X)| (k-1) tail_k: A(1) and its bound, then arrays
    of A(n) and its bound over ``ns``.

    The weights and A(1) are computed once per call; WindowError when
    A(1) vanishes.
    """
    X = (K - 1.0) ** 2
    weights = [float(phi((k - 1.0) ** 2 / X)) for k in ks]
    weighted = [(w, k) for w, k in zip(weights, ks) if w != 0.0]
    window = [k for _, k in weighted]

    def window_sum(n):
        deltas = _delta_window(window, 1, n, tail_tol, tables) if window else []
        value = sum(w * (k - 1.0) * delta.value for (w, k), delta in zip(weighted, deltas))
        bound = sum(abs(w) * (k - 1.0) * delta.tail_bound for (w, k), delta in zip(weighted, deltas))
        return value, bound

    den, den_bound = window_sum(1)
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")
    num, num_bound = np.array([window_sum(n) for n in ns], dtype=np.float64).reshape(-1, 2).T
    return den, den_bound, num, num_bound


def _ratio_bound(num: np.ndarray, num_bound: np.ndarray, den: float, den_bound: float) -> np.ndarray:
    """Certified bound on |num/den - N/D| given |num - N| <= num_bound and
    |den - D| <= den_bound; infinite unless den_bound < |den|."""
    if not den_bound < abs(den):
        return np.full_like(num, math.inf)
    return (num_bound + np.abs(num / den) * den_bound) / (abs(den) - den_bound)


def harmonic_series(
    K: float,
    primes: Sequence[int],
    phi: WeightFunction,
    sign: int,
    span=None,
    tail_tol: float = 1e-12,
    tables: Optional[ArithTables] = None,
    density_normalized: bool = True,
) -> MurmurationSeries:
    """Harmonic murmuration sampled over a prime grid, y = p / (K-1)^2.

    Each sample aggregates (k-1)-weighted trace-formula averages of
    lambda(p) sqrt(p) over one root-number class of weights (sign +1 or
    -1) and divides by the matching aggregation at n = 1.  With
    ``density_normalized`` each sample carries the exact bridge factor
    mass(Phi)/(4 pi y), putting the series on the closed-form density's
    normalization; without it samples are the raw window ratios.
    ``meta["tail_bound"]`` holds each sample's certified truncation bound,
    scaled like the sample.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign}")
    primes = check_prime_grid(primes).tolist()
    ks = weight_window(K, phi, sign, span=span)
    if not ks:
        raise WindowError(f"no weights of sign class {sign:+d} in window at K={K}")
    den, den_bound, num, num_bound = _window_sums(K, ks, primes, phi, tail_tol, tables)
    root = np.sqrt(primes)
    value = num * root / den
    bound = _ratio_bound(num, num_bound, den, den_bound) * root
    X = (K - 1.0) ** 2
    meta = dict(_AGGREGATION_META, weights=tuple(ks), sign=sign)
    if density_normalized:
        scale = 4.0 * math.pi * np.array(primes, dtype=np.float64) / X
        value, bound = value * phi.mass / scale, bound * phi.mass / scale
        meta.update(bridge="mass(Phi)/(4*pi*y)", phi_mass=phi.mass)
    meta["tail_bound"] = bound
    return MurmurationSeries(
        y=np.array(primes, dtype=np.float64) / X,
        value=value,
        count=np.full(len(primes), len(ks), dtype=np.int64),
        window_scale=X,
        normalization="raw_sqrtp",
        meta=meta,
    )


def symsq_series(
    K: float,
    primes: Sequence[int],
    phi: WeightFunction,
    span=None,
    tail_tol: float = 1e-12,
    tables: Optional[ArithTables] = None,
) -> MurmurationSeries:
    """Symmetric-square murmuration sampled over a prime grid.

    The harmonic pipeline with n = p^2 and no root-number split (the
    lifted family is all root number +1), and no sqrt(p) boost, matching
    the plain coefficient ratio at a single weight.  Raw window ratios:
    no reference density is defined for this mode, so no normalization
    bridge is applied.  ``meta["tail_bound"]`` holds each sample's
    certified truncation bound.
    """
    primes = check_prime_grid(primes).tolist()
    ks = weight_window(K, phi, None, span=span)
    if not ks:
        raise WindowError(f"no weights in window at K={K}")
    den, den_bound, num, num_bound = _window_sums(K, ks, [p * p for p in primes], phi, tail_tol, tables)
    bound = _ratio_bound(num, num_bound, den, den_bound)
    X = (K - 1.0) ** 2
    return MurmurationSeries(
        y=np.array(primes, dtype=np.float64) / X,
        value=num / den,
        count=np.full(len(primes), len(ks), dtype=np.int64),
        window_scale=X,
        normalization="analytic",
        meta=dict(_AGGREGATION_META, weights=tuple(ks), sign=None, tail_bound=bound),
    )
