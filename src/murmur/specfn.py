"""Floating-point special functions: integer-order Bessel J over arrays,
compactly supported cutoff weights that carry their exact mass, and
adaptive quadrature.

``bessel_j`` guards the supported range (order <= 500, argument
<= 1e5) and evaluates ``scipy.special.jv`` on whole (order x argument)
grids, so the trace-formula engine gets every weight of a window from
one call.  Weight masses are closed forms, so no engine integrates at
run time; ``quadrature`` imports ``scipy.integrate`` on its first call.
"""

from dataclasses import dataclass
import math
import warnings

import numpy as np
import scipy.special

from .errors import AccuracyError, DomainError

_BESSEL_MAX_ORDER = 500
_BESSEL_MAX_X = 1e5


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
        if not self.a < self.b:
            raise DomainError(f"support requires a < b, got [{self.a}, {self.b}]")

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
    return (b - a) / 2 * math.exp(0.5) * float(scipy.special.k1(0.5) - scipy.special.k0(0.5))


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
