"""Floating-point special functions: integer-order Bessel J over arrays,
log-Gamma prefactors, smooth cutoff weights, and adaptive quadrature.

``bessel_j`` guards the supported range (order <= 500, argument
<= 1e5) and evaluates ``scipy.special.jv`` on whole (order x argument)
grids, so the trace-formula engine gets every weight of a window from
one call.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np
import scipy.integrate
import scipy.special

from .errors import AccuracyError, DomainError

_BESSEL_MAX_ORDER = 500
_BESSEL_MAX_X = 1e5


# ---------------------------------------------------------------------------
# weight functions


@dataclass(frozen=True)
class WeightFunction:
    """A nonnegative cutoff weight with exactly known compact support.

    ``evaluator`` accepts a float or ndarray and returns exact zeros
    outside [a, b].  ``smoothness_class`` is one of 'bump', 'indicator',
    'custom'.  Conductor-window weights ('bump', 'indicator') require
    0 < a; 'custom' weights may straddle the origin, as transform-side
    test functions do.
    """

    a: float
    b: float
    evaluator: object
    smoothness_class: str = "custom"
    max_value: float = 1.0

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"support requires a < b, got [{self.a}, {self.b}]")
        if self.smoothness_class in ("bump", "indicator") and not self.a > 0:
            raise DomainError(f"{self.smoothness_class} support must satisfy 0 < a, got a={self.a}")

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


def bump(a: float, b: float) -> WeightFunction:
    """Standard mollifier exp(-1/(1-t^2)) mapped onto [a, b], peak 1.

    Peak normalization (rather than unit mass) is deliberate: every
    consumer divides by a matching weighted count, so scale cancels.
    """
    if not 0 < a < b:
        raise DomainError(f"bump requires 0 < a < b, got ({a}, {b})")
    return WeightFunction(a=a, b=b, evaluator=_bump_evaluator(a, b), smoothness_class="bump")


def indicator(a: float, b: float) -> WeightFunction:
    """Sharp window 1_[a,b].  Sums against it carry no smooth-tail decay."""
    if not 0 < a < b:
        raise DomainError(f"indicator requires 0 < a < b, got ({a}, {b})")

    def evaluate(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.where((x >= a) & (x <= b), 1.0, 0.0)
        return out if out.ndim else float(out)

    return WeightFunction(a=a, b=b, evaluator=evaluate, smoothness_class="indicator")


def custom_weight(a: float, b: float, fn, max_value: float = 1.0) -> WeightFunction:
    """Wrap an arbitrary evaluator, clipping it to exact zero outside [a, b]."""

    def evaluate(x):
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        inside = (x >= a) & (x <= b)
        if np.any(inside):
            out[inside] = fn(x[inside])
        return out if out.ndim else float(out)

    return WeightFunction(a=a, b=b, evaluator=evaluate, smoothness_class="custom", max_value=max_value)


def shifted_bump(a: float, b: float) -> WeightFunction:
    """Mollifier on [a, b] without the positivity-of-a restriction.

    Used for transform-side test functions supported around the origin.
    """
    return WeightFunction(
        a=a, b=b, evaluator=_bump_evaluator(a, b), smoothness_class="custom"
    )


# ---------------------------------------------------------------------------
# Bessel J of integer order


def bessel_j(order, x):
    """J_order(x) for integer order >= 0 and real x >= 0, broadcast over arrays.

    Supported range: order <= 500, x <= 1e5.  Values come from
    ``scipy.special.jv``; scalar arguments return a float, array
    arguments an ndarray of the broadcast shape.
    """
    order_arr = np.asarray(order)
    x_arr = np.asarray(x, dtype=np.float64)
    if np.any(order_arr != np.floor(order_arr)) or np.any(order_arr < 0):
        raise DomainError(f"order must be a nonnegative integer, got {order}")
    if np.any(order_arr > _BESSEL_MAX_ORDER):
        raise DomainError(f"order {np.max(order_arr)} exceeds supported maximum {_BESSEL_MAX_ORDER}")
    if not np.all((x_arr >= 0.0) & (x_arr <= _BESSEL_MAX_X)):
        raise DomainError(f"argument {x} outside supported range [0, {_BESSEL_MAX_X:g}]")
    value = scipy.special.jv(order_arr.astype(np.float64), x_arr)
    return value if value.ndim else float(value)


# ---------------------------------------------------------------------------
# Gamma bookkeeping


def petersson_prefactor_log(k: int, m: int, n: int) -> float:
    """log of Gamma(k-1) / (4*pi*sqrt(m*n))^(k-1); finite for all k <= 500."""
    if k % 2 != 0 or k < 4:
        raise DomainError(f"weight k must be even and >= 4, got {k}")
    if m < 1 or n < 1:
        raise DomainError("m, n must be positive integers")
    return math.lgamma(k - 1) - (k - 1) * math.log(4.0 * math.pi * math.sqrt(m * n))


def petersson_prefactor(k: int, m: int, n: int) -> float:
    """Gamma(k-1) / (4*pi*sqrt(m*n))^(k-1), evaluated in log space.

    This is the weight that turns raw coefficient sums into the
    delta-normalized trace-formula average.  Intermediate quantities
    never overflow for k up to 500; when the value itself exceeds the
    double range (small mn with very large k), a domain error points at
    ``petersson_prefactor_log``.
    """
    log_value = petersson_prefactor_log(k, m, n)
    if log_value > 709.0:
        raise DomainError(
            f"prefactor exp({log_value:.1f}) exceeds double range; use petersson_prefactor_log"
        )
    return math.exp(log_value)


# ---------------------------------------------------------------------------
# quadrature


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    breakpoints: tuple = field(default=())

    def __float__(self):
        return self.value


def quadrature(f, interval, tol: float = 1e-9, breakpoints=None) -> QuadResult:
    """Adaptive integral of f over [a, b] to absolute tolerance ``tol``.

    ``breakpoints`` lists interior points (discontinuities, support
    edges) where the integrand is allowed to be rough.  Raises
    AccuracyError carrying the best estimate when the requested
    tolerance is not achieved.
    """
    a, b = interval
    if not a < b:
        raise DomainError(f"empty interval [{a}, {b}]")
    pts = None
    if breakpoints:
        pts = sorted(p for p in breakpoints if a < p < b)
        pts = pts or None
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
        try:
            value, err = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=0.0, limit=400, points=pts)
        except scipy.integrate.IntegrationWarning as exc:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                value, err = scipy.integrate.quad(f, a, b, epsabs=tol, epsrel=0.0, limit=400, points=pts)
            if err > tol:
                raise AccuracyError(
                    f"quadrature did not reach tolerance {tol:g}: {exc}", best=value, estimate=err
                ) from exc
    if err > tol:
        raise AccuracyError(f"quadrature error estimate {err:g} exceeds {tol:g}", best=value, estimate=err)
    return QuadResult(value=value, error=err, breakpoints=tuple(pts or ()))
