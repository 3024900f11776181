"""Family averaging: the conductor window, expectations, and murmuration
series on prime grids.

A family is any sequence of FamilyRecord.  The expectation of f over the
window is

    E[f; X] = sum_r Phi(N_r / X) f(r) / sum_r Phi(N_r / X),

so records whose conductor ratio falls outside supp(Phi) contribute
exactly nothing and constants pass through unchanged.  ``window`` owns
this rule for all three engines.  A murmuration series samples
E[lambda(p); X] (or E[lambda(p) sqrt(p); X] in raw normalization) at
each prime of a grid, keyed by y = p / X.
"""

from dataclasses import dataclass, field
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .arith import check_prime_grid
from .errors import DataError, DomainError, WindowError
from .specfn import WeightFunction

NORMALIZATIONS = ("analytic", "raw_sqrtp")  # lambda(p), and a(p) = lambda(p) sqrt(p)
_PEAK_TOP_FRACTION = 0.5  # peak_location fits the samples above this share of the maximum


@dataclass(frozen=True)
class FamilyRecord:
    """One L-function's bookkeeping.

    ``lam`` returns the analytically normalized coefficient at a prime;
    ``ap`` optionally returns the raw coefficient a(p) = lam(p)*sqrt(p).
    """

    label: str
    conductor: float
    root_number: int
    lam: Callable[[int], float]
    ap: Optional[Callable[[int], float]] = None

    def __post_init__(self):
        if self.root_number not in (1, -1):
            raise DataError(f"record {self.label!r}: root number must be +-1, got {self.root_number}")
        if not self.conductor > 0:
            raise DataError(f"record {self.label!r}: conductor must be positive, got {self.conductor}")

    def coefficient(self, p: int, normalization: str) -> float:
        if normalization == "analytic":
            return self.lam(p)
        if normalization == "raw_sqrtp":
            if self.ap is not None:
                return self.ap(p)
            return self.lam(p) * math.sqrt(p)
        raise DomainError(f"unknown normalization {normalization!r}")


@dataclass
class MurmurationSeries:
    """Sampled murmuration curve: value(y) at y = p / window_scale.

    ``count`` holds the number of family members contributing to each
    sample (for error bars); ``stderr`` is filled by binning.
    """

    y: np.ndarray
    value: np.ndarray
    count: np.ndarray
    window_scale: float
    normalization: str = "analytic"
    stderr: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        self.count = np.asarray(self.count, dtype=np.int64)
        if not (len(self.y) == len(self.value) == len(self.count)):
            raise DataError("series arrays must have equal length")
        if len(self.y) > 1 and not np.all(np.diff(self.y) > 0):
            raise DataError("series y values must be strictly increasing")
        if len(self.count) and not np.all(self.count >= 1):
            raise DataError("series counts must all be >= 1")

    def __len__(self):
        return len(self.y)


def check_normalization(normalization: str) -> None:
    if normalization not in NORMALIZATIONS:
        raise DomainError(f"unknown normalization {normalization!r}")


def window(conductors, X: float, phi: WeightFunction) -> tuple[np.ndarray, np.ndarray]:
    """The members of the conductor window and their weights: the ascending
    indices i with Phi(N_i / X) != 0 into ``conductors``, and those weights
    as float64.  DomainError unless 0 < X < inf; WindowError when no
    member has a nonzero weight."""
    if not 0 < X < math.inf:
        raise DomainError(f"window scale X must be positive and finite, got {X}")
    weights = np.asarray(phi(np.asarray(conductors, dtype=np.float64) / X), dtype=np.float64)
    members = np.flatnonzero(weights)
    if len(members) == 0:
        raise WindowError(f"no family members in window at X={X}")
    return members, weights[members]


def window_series(
    X: float, grid: np.ndarray, weights: np.ndarray, block: np.ndarray, normalization: str
) -> MurmurationSeries:
    """Weighted means of a (member x prime) block of coefficients, one per
    prime of the int64 ``grid``, each numerator and the denominator a
    ``math.fsum``."""
    den = math.fsum(weights.tolist())
    block = weights[:, None] * block
    return MurmurationSeries(
        y=grid / X,
        value=np.array([math.fsum(column.tolist()) / den for column in block.T], dtype=np.float64),
        count=np.full(len(grid), len(weights), dtype=np.int64),
        window_scale=X,
        normalization=normalization,
    )


def expectation(family: Sequence[FamilyRecord], f, X: float, phi: WeightFunction) -> float:
    """Weighted average of f over the conductor window.

    Numerator and denominator are ``math.fsum``s of the same weights, so
    f == 1 yields exactly 1.0.
    """
    members, weights = window([rec.conductor for rec in family], X, phi)
    num = math.fsum(w * f(family[i]) for i, w in zip(members.tolist(), weights.tolist()))
    return num / math.fsum(weights.tolist())


def murmuration_series(
    family: Sequence[FamilyRecord],
    X: float,
    phi: WeightFunction,
    primes: Sequence[int],
    normalization: str = "analytic",
) -> MurmurationSeries:
    """Expectation of the prime coefficient at every prime of the grid.

    The block is read prime by prime, so a missing coefficient raises at
    the first (prime, record) pair that lacks one.
    """
    grid = check_prime_grid(primes)
    check_normalization(normalization)
    members, weights = window([rec.conductor for rec in family], X, phi)
    columns = [[family[i].coefficient(p, normalization) for i in members.tolist()] for p in grid.tolist()]
    return window_series(X, grid, weights, np.array(columns, dtype=np.float64).T, normalization)


def bin_series(series: MurmurationSeries, bins: int, y_range=None) -> MurmurationSeries:
    """Equal-width y-bins with count-weighted means.

    Per-prime murmuration values are noisy; binning trades resolution
    for variance.  ``stderr`` in the result is the sample standard
    deviation of the per-prime values in the bin over sqrt(#samples)
    (NaN for single-sample bins).  Empty bins are dropped.  A per-sample
    certified ``meta["tail_bound"]`` is binned like the values.
    DomainError when two occupied bins share a midpoint, as bins narrower
    than the float spacing of y do.
    """
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if y_range is None:
        lo, hi = float(series.y[0]), float(series.y[-1])
    else:
        lo, hi = map(float, y_range)
    if not lo < hi:
        raise DomainError(f"empty bin range [{lo}, {hi}]")
    step = (hi - lo) / bins

    def edge(b):  # np.linspace(lo, hi, bins + 1)[b], without the array
        return np.where(b < bins, b * step + lo, hi)

    in_range = np.flatnonzero((series.y >= lo) & (series.y <= hi))
    y = series.y[in_range]
    # the last bin b <= bins - 1 with edge(b) <= y: a floor, then corrections
    idx = np.clip(np.floor((y - lo) / step), 0, bins - 1).astype(np.int64)
    while np.any(over := edge(idx) > y):
        idx[over] -= 1
    while np.any(under := (idx < bins - 1) & (edge(idx + 1) <= y)):
        idx[under] += 1
    # a stable sort keeps each bin's samples in series order, so every bin
    # sums the same elements in the same order as a per-bin mask would
    order = np.argsort(idx, kind="stable")
    occupied, starts = np.unique(idx[order], return_index=True)
    if not len(occupied):
        raise WindowError("binning left no occupied bins")
    sizes = np.diff(starts, append=len(order))
    samples = in_range[order]
    bound = series.meta.get("tail_bound")
    ys = 0.5 * (edge(occupied) + edge(occupied + 1))
    vals, errs, bounds = np.empty(len(ys)), np.full(len(ys), math.nan), np.empty(len(ys))
    cnts = np.add.reduceat(series.count[samples], starts)
    # one (bins x n) block per distinct bin size n: its row sums have the bits of per-bin sums
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        group = np.flatnonzero(sizes == n)
        sel = samples[starts[group][:, None] + np.arange(n)]
        v = series.value[sel]
        c = series.count[sel].astype(np.float64)
        vals[group] = np.sum(v * c, axis=1) / cnts[group]  # the float sum of the counts is exact
        if n > 1:
            errs[group] = np.std(v, axis=1, ddof=1) / math.sqrt(n)
        if bound is not None:
            bounds[group] = np.sum(bound[sel] * c, axis=1) / cnts[group]
    tied = np.flatnonzero(ys[1:] <= ys[:-1])
    if len(tied):
        # occupied bins narrower than the float spacing of y get the same midpoint
        raise DomainError(
            f"bin width {step:g} is below the float resolution of y near {ys[tied[0]]:g}: "
            "two occupied bins share a midpoint; use fewer bins"
        )
    meta = dict(series.meta, bins=bins, bin_range=(lo, hi))
    if bound is not None:
        meta["tail_bound"] = bounds
    return MurmurationSeries(
        y=ys,
        value=vals,
        count=cnts,
        window_scale=series.window_scale,
        normalization=series.normalization,
        stderr=errs,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# series comparison helpers


def peak_location(y: np.ndarray, value: np.ndarray) -> float:
    """Peak abscissa of a sampled curve by |value|.

    Fits a least-squares parabola through the contiguous samples around
    the discrete maximum that stay above half of it
    (``_PEAK_TOP_FRACTION``).  Applied identically to an empirical series
    and a reference curve on the same grid, discretization bias largely
    cancels.
    """
    y = np.asarray(y, dtype=np.float64)
    v = np.abs(np.asarray(value, dtype=np.float64))
    if len(y) == 0:
        raise DomainError("cannot locate the peak of an empty series")
    i = int(np.argmax(v))
    threshold = _PEAK_TOP_FRACTION * v[i]
    lo = i
    while lo > 0 and v[lo - 1] >= threshold:
        lo -= 1
    hi = i
    while hi < len(v) - 1 and v[hi + 1] >= threshold:
        hi += 1
    if hi - lo + 1 < 3:
        lo, hi = max(0, i - 1), min(len(v) - 1, i + 1)
    if hi - lo + 1 < 3:
        return float(y[i])
    yy, vv = y[lo : hi + 1], v[lo : hi + 1]
    design = np.vstack([yy**2, yy, np.ones_like(yy)]).T
    a, b, _ = np.linalg.lstsq(design, vv, rcond=None)[0]
    if a >= 0.0:
        return float(y[i])
    return float(-b / (2.0 * a))


def shape_residual(value_a: np.ndarray, value_b: np.ndarray) -> float:
    """L2 distance between two curves after normalizing each to unit L2 norm."""
    a = np.asarray(value_a, dtype=np.float64)
    b = np.asarray(value_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DomainError("curves must share a grid")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DomainError("cannot normalize an identically zero curve")
    return float(np.linalg.norm(a / na - b / nb))
