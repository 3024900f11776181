"""Floating-point special functions: integer-order Bessel J over arrays,
compactly supported cutoff weights that carry their exact mass, and
adaptive quadrature.

``bessel_j`` guards the supported range (order <= 500, argument
<= 1e5) and gathers its values from one numpy kernel, Miller's backward
recurrence J_{n-1} = (2n/x) J_n - J_{n+1} normalised by
J_0 + 2 sum_k J_{2k} = 1, run over every argument of a call at once, so
the trace-formula engine gets a whole weight window from one call.  The
same kernel serves a scalar call, as an array of one pair.
Weight masses are closed forms, so no engine integrates at run time;
``quadrature`` imports ``scipy.integrate`` on its first call, and it is
the only code that loads scipy.
"""

from dataclasses import dataclass
import math
import warnings

import numpy as np

from .errors import AccuracyError, DomainError

_BESSEL_MAX_ORDER = 500
_BESSEL_MAX_X = 1e5
_RESCALE = 600  # a recurrence column passing 2^600 is scaled by 2^-600
_HUGE, _UNHUGE = 2.0**_RESCALE, 2.0**-_RESCALE
# at or above it the recurrence's (2m/x) 2^600 stays finite for every order
# below 2^12; below it J_0 = 1, J_1 = x/2, J_2 = x^2/8 and J_n = 0 to rounding
_TINY_X = 2.0**-400
# K_1(1/2) - K_0(1/2), the float of scipy.special.k1(0.5) - scipy.special.k0(0.5)
_K1_MINUS_K0_HALF = 0.732022048775635


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A nonnegative cutoff weight with exactly known compact support and mass.

    ``evaluator`` accepts a float or ndarray and returns exact zeros
    outside [a, b]; ``mass`` is its integral over [a, b].
    Conductor-window weights (``bump``, ``indicator``) require 0 < a;
    transform-side test functions (``shifted_bump``) may straddle the
    origin.
    """

    a: float
    b: float
    evaluator: object
    mass: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise DomainError(f"support requires finite a < b, got [{self.a}, {self.b}]")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)

    def __call__(self, x):
        return self.evaluator(x)


def _bump_evaluator(a: float, b: float):
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def evaluate(x):
        x = np.asarray(x, dtype=np.float64)
        t = (x - center) / half
        out = np.zeros_like(x)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
        return out if out.ndim else float(out)

    return evaluate


def _bump_mass(a: float, b: float) -> float:
    # integral of exp(1 - 1/(1-t^2)) over [-1, 1] is e^(1/2) (K_1(1/2) - K_0(1/2))
    return (b - a) / 2 * math.exp(0.5) * _K1_MINUS_K0_HALF


def bump(a: float, b: float) -> WeightFunction:
    """Standard mollifier exp(1 - 1/(1-t^2)) mapped onto [a, b], peak 1.

    Peak normalization (rather than unit mass) is deliberate: every
    consumer divides by a matching weighted count, so scale cancels.
    """
    if not 0 < a < b:
        raise DomainError(f"bump requires 0 < a < b, got ({a}, {b})")
    return WeightFunction(a=a, b=b, evaluator=_bump_evaluator(a, b), mass=_bump_mass(a, b))


def indicator(a: float, b: float) -> WeightFunction:
    """Sharp window 1_[a,b].  Sums against it carry no smooth-tail decay."""
    if not 0 < a < b:
        raise DomainError(f"indicator requires 0 < a < b, got ({a}, {b})")

    def evaluate(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.where((x >= a) & (x <= b), 1.0, 0.0)
        return out if out.ndim else float(out)

    return WeightFunction(a=a, b=b, evaluator=evaluate, mass=b - a)


def shifted_bump(a: float, b: float) -> WeightFunction:
    """Mollifier on [a, b] without the positivity-of-a restriction.

    Used for transform-side test functions supported around the origin.
    """
    return WeightFunction(a=a, b=b, evaluator=_bump_evaluator(a, b), mass=_bump_mass(a, b))


# ---------------------------------------------------------------------------
# Bessel J of integer order


def bessel_j(order, x):
    """J_order(x) for integer order >= 0 and real x >= 0, broadcast over arrays.

    Supported range: order <= 500, x <= 1e5.  The values are gathered
    from one evaluation of ``_bessel_pairs`` over every (order, x) pair of
    the broadcast, a scalar call's one pair included; scalar arguments
    return a float, array arguments an ndarray of the broadcast shape.  A
    value depends on its own order and argument only, never on the other
    pairs of the call.
    """
    order_arr = np.asarray(order)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(order_arr != np.floor(order_arr)) or np.any(order_arr < 0):
        raise DomainError(f"order must be a nonnegative integer, got {order}")
    if np.any(order_arr > _BESSEL_MAX_ORDER):
        raise DomainError(f"order {np.max(order_arr)} exceeds supported maximum {_BESSEL_MAX_ORDER}")
    if not np.all((x_arr >= 0.0) & (x_arr <= _BESSEL_MAX_X)):
        raise DomainError(f"argument {x} outside supported range [0, {_BESSEL_MAX_X:g}]")
    order_b, x_b = np.broadcast_arrays(order_arr.astype(np.int64), x_arr)
    value = _bessel_pairs(order_b.ravel(), x_b.ravel()).reshape(order_b.shape)
    return value if value.ndim else float(value)


def _start_order(order, x):
    """The start order m of the recurrence column that gives J_order(x):
    the even integer at or above t + 30 + 8 * 2^ceil(e/3), with
    t = max(T, x), 2^(e-1) <= t < 2^e, and T = 2^ceil(log2(order + 1))
    the order's bucket.  The margin exceeds 30 + 8 t^(1/3), past the
    turning point t of every order in the bucket by enough that the start
    error stays below double precision (see the mpmath oracle tests).
    Every step is exact, and m moves with the order only at powers of
    two, so a value never depends on the other pairs of a call."""
    top = np.maximum(np.ldexp(1.0, np.frexp(order)[1]), x)
    start = np.ceil(top).astype(np.int64) + 30 + np.left_shift(8, -(-np.frexp(top)[1] // 3))
    return start + start % 2


def _bessel_pairs(order, x):
    """J_order[i](x[i]) over 1-D arrays of supported orders and arguments.

    Each distinct (x, start order) pair is one recurrence column, started
    at J_m = 1, J_{m+1} = 0 and normalised by J_0 + 2 sum_k J_{2k} = 1.
    Columns are sorted by descending start order, so step n works on the
    prefix of the columns that have started.  A column that passes 2^600
    is scaled by 2^-600, and each value is recorded with the count of
    scalings it then misses.
    """
    value = np.select([order == 0, order == 1, order == 2], [1.0, x / 2.0, x * x / 8.0], 0.0)
    big = np.flatnonzero(x >= _TINY_X)
    if not len(big):
        return value
    order, x = order[big], x[big]
    start = _start_order(order, x)
    by_start = np.lexsort((x, -start))
    first = np.ones(len(big), dtype=bool)
    first[1:] = (np.diff(start[by_start]) != 0) | (np.diff(x[by_start]) != 0)
    xc, mc = x[by_start][first], start[by_start][first]
    column = np.empty(len(big), dtype=np.int64)
    column[by_start] = np.cumsum(first) - 1
    record, missed = np.empty(len(big)), np.empty(len(big), dtype=np.int64)
    ncol, top = len(xc), int(mc[0])
    started = np.searchsorted(-mc, -np.arange(top + 1), side="right").tolist()
    by_order = np.argsort(order, kind="stable")
    # the pairs of order n are by_order[bounds[n]:bounds[n + 1]]
    bounds = np.searchsorted(order[by_order], np.arange(top + 2)).tolist()
    col_of = column[by_order]
    a, b, s, w = np.zeros(ncol), np.zeros(ncol), np.zeros(ncol), np.empty(ncol)
    e = np.zeros(ncol, dtype=np.int64)
    live = 0
    for n in range(top, -1, -1):
        p = started[n]
        if p > live:
            b[live:p], live = 1.0, p
        if bounds[n] < bounds[n + 1]:
            cells, cols = by_order[bounds[n]:bounds[n + 1]], col_of[bounds[n]:bounds[n + 1]]
            record[cells], missed[cells] = b[cols], e[cols]
        if n == 0:
            break
        if n % 2 == 0:
            s[:p] += b[:p]
        np.divide(2.0 * n, xc[:p], out=w[:p])
        np.multiply(w[:p], b[:p], out=w[:p])
        np.subtract(w[:p], a[:p], out=a[:p])
        a, b = b, a
        if np.abs(b[:p]).max() > _HUGE:
            grown = np.flatnonzero(np.abs(b[:p]) > _HUGE)
            a[grown] *= _UNHUGE
            b[grown] *= _UNHUGE
            s[grown] *= _UNHUGE
            e[grown] += 1
    value[big] = np.ldexp(record / (2.0 * s + b)[column], _RESCALE * (missed - e[column]))
    return value


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float


def quadrature(f, interval, tol: float = 1e-9, breakpoints=None) -> QuadResult:
    """Adaptive integral of f over [a, b] to absolute tolerance ``tol``.

    ``breakpoints`` lists interior points (discontinuities, support
    edges) where the integrand is allowed to be rough.  Raises
    AccuracyError carrying the best estimate when the requested
    tolerance is not achieved.
    """
    import scipy.integrate  # deferred: only the one-level pairing integrates at run time

    a, b = interval
    if not a < b:
        raise DomainError(f"empty interval [{a}, {b}]")
    pts = None
    if breakpoints:
        pts = sorted(p for p in breakpoints if a < p < b)
        pts = pts or None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", scipy.integrate.IntegrationWarning)
        value, err = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=0.0, limit=400, points=pts)
    if err > tol:
        warned = [w.message for w in caught if issubclass(w.category, scipy.integrate.IntegrationWarning)]
        raise AccuracyError(
            f"quadrature did not reach tolerance {tol:g}: {warned[0]}" if warned
            else f"quadrature error estimate {err:g} exceeds {tol:g}",
            best=value, estimate=err,
        )
    return QuadResult(value=value, error=err)
