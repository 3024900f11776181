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
y-axis as the closed-form density Phi(16 pi^2 y / c^2); the alternate
scale ((k-1)/4 pi)^2 used by the prime-window machinery differs from it
by the constant 16 pi^2 only.  Each weight enters the aggregation with
an extra factor (k-1): the harmonic weight of a single form is
proportional to 1/((k-1) L(1, Sym^2 f)), so the (k-1) restores the pure
inverse-special-value weighting that the closed-form density describes.

The raw window ratio r(p) is tied to the closed-form density by an
exact bookkeeping factor.  Since sum over nu = 3 mod 4 of
nu J_nu(x) = x (1 - J_0(x))/4, the window sum of (k-1) Phi J_{k-1}(x_c)
concentrates at the transition k - 1 ~ x_c with mass x_c / 4, while the
n = 1 normalization integrates to X mass(Phi)/8, leaving

    r(p) ~ (4 pi y / mass(Phi)) * [4 pi sum_c S(1,p;c)/(c^2 phi(c)) ...]

whose bracket is the density once primes equidistribute mod c.  Series
producers therefore rescale samples by mass(Phi)/(4 pi y) (the
``density_normalized`` flag, on by default and recorded in metadata);
point evaluators return the raw ratio.  Overall constants (2 pi^2 and
the special-value proportionality) cancel in ratios and are recorded in
series metadata, never folded in.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .arith import ArithTables, kloosterman_many, sieve
from .errors import AccuracyError, DomainError, WindowError
from .frame import MurmurationSeries
from .specfn import TruncationPolicy, WeightFunction, bessel_j, quadrature

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


def weight_conductor(k: int) -> float:
    """Conductor scale ((k-1)/(4 pi))^2 of a weight-k level-1 form."""
    return ((k - 1) / (4.0 * math.pi)) ** 2


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


def default_cutoff(k: int, m: int, n: int) -> int:
    """Fixed-cutoff default: Bessel argument at c = C below (k-1)/10, floor 1000."""
    return max(math.ceil(40.0 * math.pi * math.sqrt(m * n) / (k - 1)), 1000)


def petersson_delta(
    k: int,
    m: int,
    n: int,
    policy: Optional[TruncationPolicy] = None,
    tables: Optional[ArithTables] = None,
    map_fn=None,
) -> PeterssonValue:
    """Kloosterman--Bessel side of the trace-formula average, truncated
    with a certified tail bound.

    Returns (value, tail_bound, cutoff).  Increasing the cutoff can
    never move the value by more than the reported tail_bound.
    """
    if k % 2 != 0 or k < 4:
        raise DomainError(f"weight k must be even and >= 4, got {k}")
    if m < 1 or n < 1:
        raise DomainError("m, n must be positive integers")
    policy = policy or TruncationPolicy()
    A = 4.0 * math.pi * math.sqrt(m * n)
    g0 = math.gcd(m, n)
    if policy.mode == "fixed_cutoff":
        C = policy.cutoff
        tail = math.exp(min(700.0, _log_tail_bound(k, A, g0, C)))
    else:
        C, tail = _choose_cutoff(k, A, g0, policy.tail_bound)
    if tables is None or tables.limit < C:
        tables = _shared_tables(C)
    moduli = range(1, C + 1)
    s_values = kloosterman_many(m, n, moduli, tables, map_fn=map_fn)
    nu = k - 1
    terms = [s_values[c - 1] / c * bessel_j(nu, A / c) for c in moduli]
    value = (1.0 if m == n else 0.0) + 2.0 * math.pi * _phase(k) * math.fsum(terms)
    return PeterssonValue(value=value, tail_bound=tail, cutoff=C)


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


def _aggregate(
    K: float,
    ks: Sequence[int],
    n: int,
    phi: WeightFunction,
    policy: Optional[TruncationPolicy],
    tables: Optional[ArithTables],
    map_fn=None,
) -> float:
    X = (K - 1.0) ** 2
    total = 0.0
    for k in ks:
        w = float(phi((k - 1.0) ** 2 / X))
        if w == 0.0:
            continue
        delta = petersson_delta(k, 1, n, policy=policy, tables=tables, map_fn=map_fn)
        total += w * (k - 1.0) * delta.value
    return total


def harmonic_murmuration(
    K: float,
    p: int,
    phi: WeightFunction,
    sign: int,
    span=None,
    policy: Optional[TruncationPolicy] = None,
    tables: Optional[ArithTables] = None,
    map_fn=None,
) -> float:
    """Harmonically weighted murmuration average at prime p.

    Aggregates (k-1)-weighted trace-formula averages of lambda(p)
    sqrt(p) over one root-number class of weights and divides by the
    matching aggregation at n = 1.
    """
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign}")
    ks = weight_window(K, phi, sign, span=span)
    if not ks:
        raise WindowError(f"no weights of sign class {sign:+d} in window at K={K}")
    num = _aggregate(K, ks, p, phi, policy, tables, map_fn=map_fn) * math.sqrt(p)
    den = _aggregate(K, ks, 1, phi, policy, tables, map_fn=map_fn)
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")
    return num / den


def symsq_murmuration(
    K: float,
    p: int,
    phi: WeightFunction,
    span=None,
    policy: Optional[TruncationPolicy] = None,
    tables: Optional[ArithTables] = None,
    map_fn=None,
) -> float:
    """Symmetric-square murmuration average at prime p.

    Identical pipeline with n = p^2 and no root-number split (the
    lifted family is all root number +1); no sqrt(p) boost, matching
    the plain coefficient ratio at a single weight.
    """
    ks = weight_window(K, phi, None, span=span)
    if not ks:
        raise WindowError(f"no weights in window at K={K}")
    num = _aggregate(K, ks, p * p, phi, policy, tables, map_fn=map_fn)
    den = _aggregate(K, ks, 1, phi, policy, tables, map_fn=map_fn)
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")
    return num / den


def weight_mass(phi: WeightFunction) -> float:
    """integral of Phi over its support, used by the normalization bridge."""
    return quadrature(lambda u: float(phi(u)), phi.support, tol=1e-12).value


def _series(values_fn, K: float, primes: Sequence[int], normalization: str, meta: dict) -> MurmurationSeries:
    X = (K - 1.0) ** 2
    primes = list(primes)
    values = np.fromiter((values_fn(p) for p in primes), dtype=np.float64, count=len(primes))
    return MurmurationSeries(
        y=np.asarray(primes, dtype=np.float64) / X,
        value=values,
        count=np.full(len(primes), meta.pop("_count"), dtype=np.int64),
        window_scale=X,
        normalization=normalization,
        meta=meta,
    )


def harmonic_series(
    K: float,
    primes: Sequence[int],
    phi: WeightFunction,
    sign: int,
    span=None,
    policy: Optional[TruncationPolicy] = None,
    tables: Optional[ArithTables] = None,
    density_normalized: bool = True,
    map_fn=None,
) -> MurmurationSeries:
    """Harmonic murmuration sampled over a prime grid, y = p / (K-1)^2.

    With ``density_normalized`` each sample carries the exact bridge
    factor mass(Phi)/(4 pi y), putting the series on the closed-form
    density's normalization; without it samples are the raw window
    ratios of ``harmonic_murmuration``.
    """
    ks = weight_window(K, phi, sign, span=span)
    if not ks:
        raise WindowError(f"no weights of sign class {sign:+d} in window at K={K}")
    den = _aggregate(K, ks, 1, phi, policy, tables, map_fn=map_fn)
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")
    X = (K - 1.0) ** 2
    mass = weight_mass(phi) if density_normalized else None

    def value_at(p):
        raw = _aggregate(K, ks, p, phi, policy, tables, map_fn=map_fn) * math.sqrt(p) / den
        if mass is None:
            return raw
        return raw * mass / (4.0 * math.pi * p / X)

    meta = dict(_AGGREGATION_META, weights=tuple(ks), sign=sign, _count=len(ks))
    if density_normalized:
        meta["bridge"] = "mass(Phi)/(4*pi*y)"
        meta["phi_mass"] = mass
    return _series(value_at, K, primes, "raw_sqrtp", meta)


def symsq_series(
    K: float,
    primes: Sequence[int],
    phi: WeightFunction,
    span=None,
    policy: Optional[TruncationPolicy] = None,
    tables: Optional[ArithTables] = None,
    map_fn=None,
) -> MurmurationSeries:
    """Symmetric-square murmuration sampled over a prime grid.

    Raw window ratios; no reference density is defined for this mode,
    so no normalization bridge is applied.
    """
    ks = weight_window(K, phi, None, span=span)
    if not ks:
        raise WindowError(f"no weights in window at K={K}")
    den = _aggregate(K, ks, 1, phi, policy, tables, map_fn=map_fn)
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")

    def value_at(p):
        return _aggregate(K, ks, p * p, phi, policy, tables, map_fn=map_fn) / den

    meta = dict(_AGGREGATION_META, weights=tuple(ks), sign=None, _count=len(ks))
    return _series(value_at, K, primes, "analytic", meta)
