"""Floating-point special functions: integer-order Bessel J, log-Gamma
prefactors, smooth cutoff weights, and adaptive quadrature.

Bessel evaluation picks a regime per call:

* ascending power series for x < max(8, nu/4), with the leading factor
  (x/2)^nu / nu! taken in log space;
* Hankel's large-argument expansion for x > max(30, 2*nu), but only
  when its terms certifiably decrease below tolerance before diverging
  (near x ~ 2*nu with large nu the expansion is useless and the call
  falls through);
* Miller's normalized backward recurrence everywhere else, which is
  stable through the transition region x ~ nu where the Petersson
  kernel lives.
"""

from dataclasses import dataclass, field
import math
import warnings

import numpy as np
import scipy.integrate

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


@dataclass(frozen=True)
class TruncationPolicy:
    """How an infinite sum is cut off.

    mode 'fixed_cutoff' sums the first ``cutoff`` terms and reports the
    certified bound for what was dropped; mode 'tail_bound' grows the
    cutoff until the certified tail is <= ``tail_bound``.
    """

    mode: str = "tail_bound"
    cutoff: int = 1000
    tail_bound: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("fixed_cutoff", "tail_bound"):
            raise DomainError(f"unknown truncation mode {self.mode!r}")
        if self.cutoff < 1:
            raise DomainError("cutoff must be >= 1")
        if self.tail_bound < 0:
            raise DomainError("tail_bound must be >= 0")


# ---------------------------------------------------------------------------
# Bessel J of integer order


def _bessel_series(nu: int, x: float) -> float:
    # leading coefficient in log space; nu up to 500 would overflow naively
    log_lead = nu * math.log(x / 2.0) - math.lgamma(nu + 1)
    if log_lead < -745.0:  # below smallest subnormal exponent
        return 0.0
    lead = math.exp(log_lead)
    u = 0.25 * x * x
    term = 1.0
    total = 1.0
    for j in range(1, 400):
        term *= -u / (j * (nu + j))
        total += term
        if abs(term) <= 1e-18 * abs(total) + 1e-300:
            break
    return lead * total


def _bessel_asymptotic(nu: int, x: float):
    """Hankel expansion; returns None when it cannot certify convergence."""
    mu = 4.0 * nu * nu
    p_sum, q_sum = 1.0, 0.0
    term = 1.0
    prev = abs(term)
    converged = False
    for k in range(1, 40):
        term *= (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag >= prev and mag > 1e-17:
            return None  # diverging before reaching tolerance
        if k % 2 == 0:
            p_sum += term if k % 4 == 0 else -term
        else:
            q_sum += term if k % 4 == 1 else -term
        if mag < 1e-17:
            converged = True
            break
        prev = mag
    if not converged:
        return None
    omega = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (p_sum * math.cos(omega) - q_sum * math.sin(omega))


def _bessel_miller(nu: int, x: float) -> float:
    # start far enough above both the order and the turning point that
    # the seed value is negligible relative to J_nu
    top = max(nu, int(math.ceil(x)))
    start = top + int(15.0 * max(1.0, x) ** (1.0 / 3.0)) + 25
    if start % 2 == 1:
        start += 1
    f_hi = 0.0  # J_{start+1} surrogate
    f_lo = 1e-280  # J_{start} seed
    norm = 0.0  # accumulates J_0 + 2*sum J_{2j}
    result = 0.0
    two_over_x = 2.0 / x
    for k in range(start, 0, -1):
        f_prev = k * two_over_x * f_lo - f_hi
        f_hi = f_lo
        f_lo = f_prev
        if k % 2 == 1:
            norm += 2.0 * f_lo  # f_lo is now J_{k-1}, k-1 even
        if k - 1 == nu:
            result = f_lo
        if abs(f_lo) > 1e250:
            f_lo *= 1e-250
            f_hi *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    norm -= f_lo  # J_0 was added twice by the loop
    return result / norm


def bessel_j(order: int, x: float) -> float:
    """J_order(x) for integer order >= 0 and real x >= 0.

    Supported range: order <= 500, x <= 1e5.  Regime switching is
    internal; values are continuous across the switch points.
    """
    if order != int(order) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order}")
    order = int(order)
    if order > _BESSEL_MAX_ORDER:
        raise DomainError(f"order {order} exceeds supported maximum {_BESSEL_MAX_ORDER}")
    if not 0.0 <= x <= _BESSEL_MAX_X:
        raise DomainError(f"argument {x} outside supported range [0, {_BESSEL_MAX_X:g}]")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x < max(8.0, order / 4.0):
        return _bessel_series(order, x)
    if x > max(30.0, 2.0 * order):
        value = _bessel_asymptotic(order, x)
        if value is not None:
            return value
    return _bessel_miller(order, x)


# ---------------------------------------------------------------------------
# Gamma bookkeeping


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


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
