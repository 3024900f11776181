"""Family averaging: weighted sums over conductor windows, expectations,
and murmuration series on prime grids.

A family is any sequence of FamilyRecord.  The expectation of f over the
window is

    E[f; X] = sum_r Phi(N_r / X) f(r) / sum_r Phi(N_r / X),

so records whose conductor ratio falls outside supp(Phi) contribute
exactly nothing and constants pass through unchanged.  A murmuration
series samples E[lambda(p); X] (or E[lambda(p) sqrt(p); X] in raw
normalization) at each prime of a grid, keyed by y = p / X.
"""

from dataclasses import dataclass, field
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .arith import check_prime_grid
from .errors import DataError, DomainError, WindowError
from .specfn import WeightFunction

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


def expectation(family: Sequence[FamilyRecord], f, X: float, phi: WeightFunction) -> float:
    """Weighted average of f over the conductor window.

    Computed as one pass accumulating numerator and denominator with the
    same weights in the same order, so f == 1 yields exactly 1.0.
    """
    if not X > 0:
        raise DomainError(f"window scale X must be positive, got {X}")
    num = 0.0
    den = 0.0
    for rec in family:
        w = phi(rec.conductor / X)
        if w != 0.0:
            den += w
            num += w * f(rec)
    if den == 0.0:
        raise WindowError(f"no family members in window at X={X}")
    return num / den


def murmuration_series(
    family: Sequence[FamilyRecord],
    X: float,
    phi: WeightFunction,
    primes: Sequence[int],
    normalization: str = "analytic",
) -> MurmurationSeries:
    """Expectation of the prime coefficient at every prime of the grid."""
    primes = check_prime_grid(primes).tolist()
    if not 0 < X < math.inf:
        raise DomainError(f"window scale X must be positive and finite, got {X}")
    in_window = []
    weights = []
    for rec in family:
        w = phi(rec.conductor / X)
        if w != 0.0:
            in_window.append(rec)
            weights.append(w)
    if not in_window:
        raise WindowError(f"no family members in window at X={X}")
    den = math.fsum(weights)
    count = len(in_window)

    def value_at(p: int) -> float:
        num = math.fsum(
            w * rec.coefficient(p, normalization) for w, rec in zip(weights, in_window)
        )
        return num / den

    values = np.fromiter(map(value_at, primes), dtype=np.float64, count=len(primes))
    ys = np.asarray(primes, dtype=np.float64) / X
    counts = np.full(len(primes), count, dtype=np.int64)
    return MurmurationSeries(
        y=ys, value=values, count=counts, window_scale=X, normalization=normalization
    )


def bin_series(series: MurmurationSeries, bins: int, y_range=None) -> MurmurationSeries:
    """Equal-width y-bins with count-weighted means.

    Per-prime murmuration values are noisy; binning trades resolution
    for variance.  ``stderr`` in the result is the sample standard
    deviation of the per-prime values in the bin over sqrt(#samples)
    (NaN for single-sample bins).  Empty bins are dropped.  A per-sample
    certified ``meta["tail_bound"]`` is binned like the values.
    """
    if bins < 1:
        raise DomainError("bins must be >= 1")
    if y_range is None:
        lo, hi = float(series.y[0]), float(series.y[-1])
    else:
        lo, hi = map(float, y_range)
    if not lo < hi:
        raise DomainError(f"empty bin range [{lo}, {hi}]")
    edges = np.linspace(lo, hi, bins + 1)
    in_range = np.flatnonzero((series.y >= lo) & (series.y <= hi))
    idx = np.clip(np.searchsorted(edges, series.y[in_range], side="right") - 1, 0, bins - 1)
    # a stable sort keeps each bin's samples in series order, so every bin
    # sums the same elements in the same order as a per-bin mask would
    order = np.argsort(idx, kind="stable")
    occupied, starts = np.unique(idx[order], return_index=True)
    bound = series.meta.get("tail_bound")
    ys, vals, cnts, errs, bounds = [], [], [], [], []
    for b, sel in zip(occupied.tolist(), np.split(in_range[order], starts[1:])):
        v = series.value[sel]
        c = series.count[sel].astype(np.float64)
        ys.append(0.5 * (edges[b] + edges[b + 1]))
        vals.append(float(np.sum(v * c) / np.sum(c)))
        cnts.append(int(np.sum(series.count[sel])))
        errs.append(float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else math.nan)
        if bound is not None:
            bounds.append(float(np.sum(bound[sel] * c) / np.sum(c)))
    if not ys:
        raise WindowError("binning left no occupied bins")
    meta = dict(series.meta, bins=bins, bin_range=(lo, hi))
    if bound is not None:
        meta["tail_bound"] = np.array(bounds)
    return MurmurationSeries(
        y=np.array(ys),
        value=np.array(vals),
        count=np.array(cnts),
        window_scale=series.window_scale,
        normalization=series.normalization,
        stderr=np.array(errs),
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
