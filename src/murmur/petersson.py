"""Delta-normalized trace-formula averages for level-1 holomorphic forms
in the weight aspect, with certified truncation.

``petersson_delta(k, m, n)`` evaluates

    delta_[m=n] + 2 pi i^k sum_{c >= 1} S(m, n; c)/c J_{k-1}(4 pi sqrt(mn)/c)

with i^k = +1 for k = 0 mod 4 and -1 for k = 2 mod 4 (k odd never
occurs), truncating the c-sum where a rigorous tail bound built from
|J_nu(x)| <= (x/2)^nu/nu! * exp(x^2/(4(nu+1))) and the Weil bound
certifies the remainder.  One kernel evaluates it over a whole
(weight x n) grid.  ``arith._blocks`` cuts the (modulus c, cell) pairs
of the grid, in ascending c, into blocks of at most 2^16 consecutive
pairs.  Each block takes its Bessel factors from one ``bessel_j`` call
and its Kloosterman sums from one ``kloosterman_many`` call, over the
block's distinct (c, n mod c); neither depends on the weight k or on the
root-number class, so both classes of ``harmonic_series`` come from one
kernel call over the union of their weights.  Memory is O(weights x n)
plus one block.

Weight-aspect murmuration averages aggregate these values over a
window of weights.  Inside this engine the conductor scale of a
weight-k form is (k-1)^2, which puts the empirical series on the same
y-axis as the closed-form density Phi(16 pi^2 y / c^2); ``frame.window``,
the window rule of every engine, weighs each k by Phi((k-1)^2 / X).
The weights of a window are the even k >= 4 of its root-number class
(k = 0 mod 4 for +1, 2 mod 4 for -1, all for the symmetric square) with
Phi((k-1)^2 / X) != 0, and a series' ``count`` counts exactly them.
Each weight enters the aggregation with an extra factor (k-1): the
harmonic weight of a single form is proportional to
1/((k-1) L(1, Sym^2 f)), so the (k-1) restores the pure
inverse-special-value weighting that the closed-form density describes.
``harmonic_series`` (n = p) and ``symsq_series`` (n = p^2) are thin
front-ends of one window sum.

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

from .arith import ArithTables, _blocks, check_prime_grid, covering, kloosterman_many
from .errors import AccuracyError, DomainError, WindowError
from .frame import MurmurationSeries, window
from .specfn import _BESSEL_MAX_ORDER, WeightFunction, bessel_j

_CUTOFF_BUDGET = 200_000
_BESSEL_BLOCK = 1 << 16  # (modulus, cell) arguments per Bessel evaluation

_AGGREGATION_META = {
    "conductor_scale": "(k-1)^2",
    "per_weight_factor": "(k-1) * Phi((k-1)^2 / X)",
    "omitted_constants": "2*pi^2 and the norm-to-symmetric-square proportionality; both cancel in the ratio",
}


class PeterssonValue(NamedTuple):
    value: float
    tail_bound: float
    cutoff: int


def _phase(k):
    # i^k for even k, elementwise
    return np.where(np.asarray(k) % 4 == 0, 1.0, -1.0)


def _log_tail_bound(k, lgamma_k, A, g0, C):
    """log of the certified bound for the c > C tail of the Kloosterman sum,
    elementwise over broadcast arrays (``lgamma_k`` is lgamma(k)).

    Each term obeys |S(m,n;c)|/c <= 2 sqrt(g0) (tau(c) <= 2 sqrt(c) and
    gcd(m,n,c) <= g0) and |J_{k-1}(A/c)| <= (A/2c)^{k-1}/(k-1)! *
    exp((A/2c)^2/k); summing c^{-(k-1)} over c > C costs
    C^{2-k}/(k-2).
    """
    nu = k - 1
    return (
        np.log(4.0 * math.pi * np.sqrt(g0))
        + (A / (2.0 * C)) ** 2 / k
        + nu * np.log(A / 2.0)
        - lgamma_k
        - (nu - 1) * np.log(C)
        - np.log(k - 2)
    )


def petersson_delta(
    k: int, m: int, n: int, tail_tol: float = 1e-12, tables: Optional[ArithTables] = None
) -> PeterssonValue:
    """Kloosterman--Bessel side of the trace-formula average, truncated
    where the certified tail falls to ``tail_tol``.

    Returns (value, tail_bound, cutoff).  Increasing the cutoff can
    never move the value by more than the reported tail_bound.
    """
    value, tail, cutoff = _deltas([k], m, [n], tail_tol, tables)
    return PeterssonValue(float(value[0, 0]), float(tail[0, 0]), int(cutoff[0, 0]))


def _deltas(ks: Sequence[int], m: int, ns: Sequence[int], tail_tol: float, tables: Optional[ArithTables]):
    """(value, tail_bound, cutoff) of ``petersson_delta(k, m, n)`` over the
    grid ``ks`` x ``ns``, as arrays of shape (len(ks), len(ns)).

    Cutoffs come from ``_cutoffs``.  Sorted by descending cutoff, the
    cells with a term at modulus c are a prefix; ``arith._blocks`` cuts the
    (modulus, cell) pairs into blocks of at most ``_BESSEL_BLOCK``, in
    ascending c.  Each block is one ``bessel_j`` call and one
    ``kloosterman_many`` call over its distinct (c, n mod c) pairs, whose
    sums are the terms of direct calls, since a Kloosterman sum reduces n
    modulo every prime power of c.  Each cell adds its terms in ascending
    c.  A value depends on its own cell only, never on the other rows or
    columns of the grid.  Tables that do not reach the largest cutoff are
    replaced (``covering``).
    """
    for k in ks:
        if k % 2 != 0 or k < 4:
            raise DomainError(f"weight k must be even and >= 4, got {k}")
    ns = np.asarray(ns, dtype=np.int64)
    if m < 1 or np.any(ns < 1):
        raise DomainError("m, n must be positive integers")
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail tolerance must be finite and > 0, got {tail_tol}")
    k = np.asarray(ks, dtype=np.float64).reshape(-1, 1)
    lgamma_k = np.array([math.lgamma(kk) for kk in ks]).reshape(-1, 1)
    A = 4.0 * math.pi * np.sqrt(m * ns)
    g0 = np.gcd(m, ns)
    lo = _cutoffs(ks, k, lgamma_k, A, g0, tail_tol)
    c_max = int(lo.max(initial=0))
    tables = covering(tables, c_max)
    # cells by descending cutoff, so the cells with a term at modulus c are a prefix;
    # int32 indices keep the per-cell bookkeeping small beside the Bessel kernel's
    rows, cols = (i.astype(np.int32) for i in np.unravel_index(np.argsort(-lo, axis=None, kind="stable"), lo.shape))
    alive = np.searchsorted(-lo[rows, cols], -np.arange(1, c_max + 1), side="right")
    total = np.zeros(len(rows))
    for group, cell in _blocks(alive, _BESSEL_BLOCK):
        c = group + 1
        terms = bessel_j(k[rows[cell], 0] - 1.0, A[cols[cell]] / c)
        terms *= _kloosterman_terms(m, ns[cols[cell]], c, tables)
        np.add.at(total, cell, terms)
    grid = np.empty(lo.shape)
    grid[rows, cols] = total
    value = (ns == m) + 2.0 * math.pi * _phase(k) * grid
    return value, np.exp(_log_tail_bound(k, lgamma_k, A, g0, lo)), lo


def _cutoffs(ks, k, lgamma_k, A, g0, tail_tol):
    """The certified cutoff of every cell of the ``ks`` x n grid: one masked
    search that starts at floor(A/(k-1)) with A = 4 pi sqrt(mn), clipped to
    [1, _CUTOFF_BUDGET], doubles (at most to the budget) until the tail
    bound holds, and bisects in [C/2, C].  A cell whose bound at the budget
    still exceeds ``tail_tol`` raises AccuracyError."""
    log_tol = math.log(tail_tol)
    C = np.clip((A / (k - 1)).astype(np.int64), 1, _CUTOFF_BUDGET)
    while True:
        over = _log_tail_bound(k, lgamma_k, A, g0, C) > log_tol
        if not over.any():
            break
        blown = np.argwhere(over & (C == _CUTOFF_BUDGET))
        if len(blown):
            i, j = blown[0]
            raise AccuracyError(
                f"tail tolerance {tail_tol:g} unreachable within cutoff budget "
                f"{_CUTOFF_BUDGET} for k={ks[i]}, 4*pi*sqrt(mn)={A[j]:.3g}",
                estimate=math.exp(min(700.0, _log_tail_bound(k, lgamma_k, A, g0, _CUTOFF_BUDGET)[i, j])),
            )
        C = np.where(over, np.minimum(2 * C, _CUTOFF_BUDGET), C)
    # every hi certifies the tolerance, so settled cells (lo == hi) stay put
    lo, hi = np.maximum(1, C // 2), C
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        ok = _log_tail_bound(k, lgamma_k, A, g0, mid) <= log_tol
        hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1)
    return lo


def _kloosterman_terms(m, n, c, tables):
    """S(m, n_i; c_i) / c_i over the (modulus, cell) pairs of a block: one
    ``kloosterman_many`` call over its distinct (c, n mod c)."""
    span = np.int64(c.max())  # an int64 scalar: the keys c * span + n mod c are formed in int64
    key, which = np.unique(c * span + n % c, return_inverse=True)
    moduli, residues = np.divmod(key, span)
    return (kloosterman_many(m, residues, moduli, tables) / moduli)[which]


# ---------------------------------------------------------------------------
# weight-aspect aggregation


def window_scale(K: float) -> float:
    """The conductor scale X = (K-1)^2 of the weight window centred at K;
    DomainError unless K is finite and X is representable."""
    if not math.isfinite(K):
        raise DomainError(f"central weight K must be finite, got {K}")
    try:
        return (K - 1.0) ** 2
    except OverflowError:
        raise DomainError(f"central weight K={K:g} puts the window scale (K-1)^2 beyond float range") from None


def _window_series(
    K: float, primes: Sequence[int], phi: WeightFunction, signs: tuple, tail_tol: float,
    tables: Optional[ArithTables], density_normalized: bool = False,
) -> list[MurmurationSeries]:
    """The series of ``harmonic_series`` (signs +-1, n = p) or ``symsq_series``
    (sign None, n = p^2), one per class of ``signs``: the ratios A(n)/A(1)
    of the window sums A(n) = sum_k Phi((k-1)^2/X) (k-1) Delta_k(1, n), rows
    added in ascending k, with certified bounds.  One ``_deltas`` call
    covers the union of the classes' weights, and each class reads its own
    rows (k mod 4) of it.  DomainError when a window reaches past the
    supported Bessel order; WindowError when one is empty or its A(1)
    vanishes; both are raised class by class, in the order of ``signs``."""
    primes = check_prime_grid(primes).tolist()
    X = window_scale(K)
    # 1 + sqrt(b)|K-1| bounds every k with (k-1)^2/X <= b without forming b*X
    top = 1.0 + math.sqrt(phi.support[1]) * abs(K - 1.0)
    windows = []
    for sign in signs:
        step, first = (2, 4) if sign is None else (4, 4 if sign == 1 else 6)
        last = first + (top - first) // step * step  # the last k of the class up to top; nan if top is inf
        if not last - 1.0 <= _BESSEL_MAX_ORDER:
            raise DomainError(f"weight window at K={K:g} reaches order {top - 1.0:.6g}, "
                              f"past the supported maximum {_BESSEL_MAX_ORDER}")
        ks = np.arange(first, int(last) + 1, step)
        members, weights = window((ks - 1.0) ** 2, X, phi)
        windows.append((sign, ks[members], weights))
    union = np.array(sorted({k for _, ks, _ in windows for k in ks.tolist()}))
    ns = [p * p for p in primes] if signs == (None,) else primes
    value, tail, _ = _deltas(union.tolist(), 1, [1, *ns], tail_tol, tables)
    series = []
    for sign, ks, weights in windows:
        rows = np.searchsorted(union, ks)  # the class's own rows, its k mod 4
        coef = weights * (ks - 1.0)
        total = sum(c * row for c, row in zip(coef, value[rows]))
        bound = sum(abs(c) * row for c, row in zip(coef, tail[rows]))
        den, den_bound, num, num_bound = float(total[0]), float(bound[0]), total[1:], bound[1:]
        if den == 0.0:
            raise WindowError(f"window normalization vanished at K={K}")
        if den_bound < abs(den):
            bound = (num_bound + np.abs(num / den) * den_bound) / (abs(den) - den_bound)
        else:
            bound = np.full_like(num, math.inf)
        meta = dict(_AGGREGATION_META, weights=tuple(ks.tolist()), sign=sign)
        boost = 1.0 if sign is None else np.sqrt(primes)  # sqrt(p) in the harmonic series
        num, bound = num * boost / den, bound * boost
        if density_normalized:
            scale = 4.0 * math.pi * np.array(primes, dtype=np.float64) / X
            num, bound = num * phi.mass / scale, bound * phi.mass / scale
            meta.update(bridge="mass(Phi)/(4*pi*y)", phi_mass=phi.mass)
        meta["tail_bound"] = bound
        series.append(MurmurationSeries(
            y=np.array(primes, dtype=np.float64) / X,
            value=num,
            count=np.full(len(primes), len(ks), dtype=np.int64),
            window_scale=X,
            normalization="analytic" if sign is None else "raw_sqrtp",
            meta=meta,
        ))
    return series


def harmonic_series(
    K: float, primes: Sequence[int], phi: WeightFunction, sign, tail_tol: float = 1e-12,
    tables: Optional[ArithTables] = None, density_normalized: bool = True,
):
    """Harmonic murmuration sampled over a prime grid, y = p / (K-1)^2.

    Each sample aggregates (k-1)-weighted trace-formula averages of
    lambda(p) sqrt(p) over one root-number class of weights (sign +1 or
    -1) and divides by the matching aggregation at n = 1.  ``sign`` is +1
    or -1 for one series, or a tuple of classes for a list of series, one
    per class, from one kernel pass over all their weights; a class's
    series has the same bits either way.  With ``density_normalized`` each
    sample carries the exact bridge factor mass(Phi)/(4 pi y), putting the
    series on the closed-form density's normalization; without it samples
    are the raw window ratios.  ``meta["tail_bound"]`` holds each sample's
    certified truncation bound, scaled like the sample.
    """
    classes = sign if isinstance(sign, tuple) else (sign,)
    if not classes or any(s not in (1, -1) for s in classes):
        raise DomainError(f"sign must be +-1 or a tuple of them, got {sign}")
    series = _window_series(K, primes, phi, classes, tail_tol, tables, density_normalized)
    return series if isinstance(sign, tuple) else series[0]


def symsq_series(
    K: float, primes: Sequence[int], phi: WeightFunction, tail_tol: float = 1e-12,
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
    return _window_series(K, primes, phi, (None,), tail_tol, tables)[0]
