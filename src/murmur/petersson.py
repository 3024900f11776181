"""Delta-normalized trace-formula averages for level-1 holomorphic forms
in the weight aspect, with certified truncation.

``petersson_delta(k, m, n)`` evaluates

    delta_[m=n] + 2 pi i^k sum_{c >= 1} S(m, n; c)/c J_{k-1}(4 pi sqrt(mn)/c)

with i^k = +1 for k = 0 mod 4 and -1 for k = 2 mod 4 (k odd never
occurs), truncating the c-sum where a rigorous tail bound built from
|J_nu(x)| <= (x/2)^nu/nu! * exp(x^2/(4(nu+1))) and the Weil bound
certifies the remainder.  One kernel evaluates it over a whole
(weight x n) grid: ``bessel_j`` evaluates the Bessel factors of every
(modulus c, cell) pair of the grid in blocks of consecutive c of at most
2^16 pairs, and a loop over c then reads them and takes one Kloosterman
sum per residue class n mod c.  Memory is O(weights x n) plus one block.

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

from .arith import ArithTables, check_prime_grid, covering, kloosterman_fast
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

    Cutoffs come from one masked search (start at floor(A/(k-1)) with
    A = 4 pi sqrt(mn), clipped to [1, _CUTOFF_BUDGET]; double, at most to
    the budget, until the tail bound holds; bisect in [C/2, C]).  A cell
    whose bound at the budget still exceeds ``tail_tol`` raises
    AccuracyError.  Sorted by descending cutoff, the cells with a term at
    modulus c are a prefix; ``_blocks`` cuts the (c, cell) pairs into
    blocks of at most ``_BESSEL_BLOCK``, each one ``bessel_j`` call.  The
    loop over c adds the terms in ascending c, from one
    ``kloosterman_fast`` call over the residues n mod c of each modulus
    (or piece of one); it reduces n modulo every prime power of c, so the
    sum taken at the residue is the term of a direct call.  Tables that do
    not reach the largest cutoff are replaced (``covering``).
    """
    for k in ks:
        if k % 2 != 0 or k < 4:
            raise DomainError(f"weight k must be even and >= 4, got {k}")
    ns = np.asarray(ns, dtype=np.int64)
    if m < 1 or np.any(ns < 1):
        raise DomainError("m, n must be positive integers")
    if not (math.isfinite(tail_tol) and tail_tol > 0):
        raise DomainError(f"tail tolerance must be finite and > 0, got {tail_tol}")
    log_tol = math.log(tail_tol)
    k = np.asarray(ks, dtype=np.float64).reshape(-1, 1)
    lgamma_k = np.array([math.lgamma(kk) for kk in ks]).reshape(-1, 1)
    A = 4.0 * math.pi * np.sqrt(m * ns)
    g0 = np.gcd(m, ns)
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
    c_max = int(lo.max(initial=0))
    tables = covering(tables, c_max)
    # cells by descending cutoff, so the cells with a term at modulus c are a prefix
    cells = np.argsort(-lo, axis=None, kind="stable")
    rows, cols = np.unravel_index(cells, lo.shape)
    alive = np.searchsorted(-lo.ravel()[cells], -np.arange(1, c_max + 1), side="right")
    order, A_cell, n_cell = k[rows, 0] - 1.0, A[cols], ns[cols]
    total = np.zeros(len(cells))
    for block in _blocks(alive.tolist(), _BESSEL_BLOCK):
        bessel = bessel_j(np.concatenate([order[start:end] for _, start, end in block]),
                          np.concatenate([A_cell[start:end] / c for c, start, end in block]))
        at = 0
        for c, start, end in block:
            residues, residue_of = np.unique(n_cell[start:end] % c, return_inverse=True)
            sums = kloosterman_fast(m, residues, c, tables)
            total[start:end] += bessel[at:at + end - start] * (sums / c)[residue_of]
            at += end - start
    grid = np.empty(lo.shape)
    grid.flat[cells] = total
    value = (ns == m) + 2.0 * math.pi * _phase(k) * grid
    return value, np.exp(_log_tail_bound(k, lgamma_k, A, g0, lo)), lo


def _blocks(alive, cap):
    """The (c, start, end) pieces of the (modulus, cell) pairs, cells
    start..end-1 of the ``alive[c-1]`` alive at modulus c, in ascending c,
    grouped into blocks of at most ``cap`` pairs; a modulus with more
    pairs than fit is split across blocks."""
    block, room = [], cap
    for c, count in enumerate(alive, 1):
        start = 0
        while start < count:
            end = min(count, start + room)
            block.append((c, start, end))
            room -= end - start
            start = end
            if not room:
                yield block
                block, room = [], cap
    if block:
        yield block


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
    K: float, primes: Sequence[int], phi: WeightFunction, sign: Optional[int], tail_tol: float,
    tables: Optional[ArithTables], density_normalized: bool = False,
) -> MurmurationSeries:
    """The series of ``harmonic_series`` (sign +-1, n = p) or ``symsq_series``
    (sign None, n = p^2): the ratios A(n)/A(1) of the window sums
    A(n) = sum_k Phi((k-1)^2/X) (k-1) Delta_k(1, n), rows added in ascending
    k, with certified bounds.  DomainError when the window reaches past the
    supported Bessel order; WindowError when A(1) vanishes."""
    primes = check_prime_grid(primes).tolist()
    X = window_scale(K)
    # 1 + sqrt(b)|K-1| bounds every k with (k-1)^2/X <= b without forming b*X
    top = 1.0 + math.sqrt(phi.support[1]) * abs(K - 1.0)
    step, first = (2, 4) if sign is None else (4, 4 if sign == 1 else 6)
    last = first + (top - first) // step * step  # the last k of the class up to top; nan if top is inf
    if not last - 1.0 <= _BESSEL_MAX_ORDER:
        raise DomainError(f"weight window at K={K:g} reaches order {top - 1.0:.6g}, "
                          f"past the supported maximum {_BESSEL_MAX_ORDER}")
    ks = np.arange(first, int(last) + 1, step)
    members, weights = window((ks - 1.0) ** 2, X, phi)
    ks = ks[members]
    coef = weights * (ks - 1.0)
    ns = [p * p for p in primes] if sign is None else primes
    value, tail, _ = _deltas(ks.tolist(), 1, [1, *ns], tail_tol, tables)
    total = sum(c * row for c, row in zip(coef, value))
    bound = sum(abs(c) * row for c, row in zip(coef, tail))
    den, den_bound, num, num_bound = float(total[0]), float(bound[0]), total[1:], bound[1:]
    if den == 0.0:
        raise WindowError(f"window normalization vanished at K={K}")
    if den_bound < abs(den):
        bound = (num_bound + np.abs(num / den) * den_bound) / (abs(den) - den_bound)
    else:
        bound = np.full_like(num, math.inf)
    meta = dict(_AGGREGATION_META, weights=tuple(ks.tolist()), sign=sign)
    boost = 1.0 if sign is None else np.sqrt(primes)  # sqrt(p) in the harmonic series
    value, bound = num * boost / den, bound * boost
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
        normalization="analytic" if sign is None else "raw_sqrtp",
        meta=meta,
    )


def harmonic_series(
    K: float, primes: Sequence[int], phi: WeightFunction, sign: int, tail_tol: float = 1e-12,
    tables: Optional[ArithTables] = None, density_normalized: bool = True,
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
    return _window_series(K, primes, phi, sign, tail_tol, tables, density_normalized)


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
    return _window_series(K, primes, phi, None, tail_tol, tables)
