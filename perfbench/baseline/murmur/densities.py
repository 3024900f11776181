"""Closed-form reference densities and one-level-density kernels.

Two murmuration densities are provided:

* ``harmonic_murmuration_density``: the weight-aspect density for
  harmonically weighted level-1 forms,

      +- 4*pi * sum_{c >= 1} mu(c)^2 / (c^2 phi(c)) * Phi(16 pi^2 y / c^2),

  an exact finite sum since only c with 16 pi^2 y / c^2 inside
  supp(Phi) contribute.

* ``window_murmuration_density``: the purely atomic density obtained
  after a small prime-window average, with point masses

      prefactor * mu(q)^2 / (phi(q)^2 sigma(q)) * (q/a)^3

  at (q/a)^2 for coprime a, q, masses halved at interval endpoints.
  The zeta-type prefactor is a free parameter (default 1); all
  structural statements about the atoms are prefactor-free.

Orthogonal-symmetry kernels carry their delta atoms as explicit
bookkeeping entries, never as narrow approximations.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import math
from typing import Callable, Sequence

import numpy as np

from .arith import ArithTables, divisor_sigma, euler_phi, is_squarefree, mobius
from .errors import AccuracyError, DataError, DomainError
from .specfn import WeightFunction, quadrature

_ENDPOINT_SNAP = 1e-12


@dataclass(frozen=True)
class DistributionValue:
    """A density with an explicit atomic part plus a continuous part.

    ``atoms`` is a sorted tuple of (location, mass); the continuous
    part must stay finite at atom locations (atoms are never folded
    into the function).
    """

    atoms: tuple
    continuous: Callable[[float], float]

    def __post_init__(self):
        locs = [a for a, _ in self.atoms]
        if sorted(locs) != locs or len(set(locs)) != len(locs):
            raise DataError("atom locations must be distinct and sorted")
        if any(not math.isfinite(m) for _, m in self.atoms):
            raise DataError("atom masses must be finite")

    def total_atom_mass(self) -> float:
        return math.fsum(m for _, m in self.atoms)

    def atom_at(self, location: float, tol: float = 0.0):
        for loc, mass in self.atoms:
            if abs(loc - location) <= tol:
                return (loc, mass)
        return None


# ---------------------------------------------------------------------------
# weight-aspect murmuration density


def admissible_moduli(y: float, phi: WeightFunction) -> range:
    """Integers c with 16 pi^2 y / c^2 inside [a, b], computed analytically."""
    a, b = phi.support
    if y <= 0:
        return range(1, 1)
    c_lo = max(1, math.ceil(4.0 * math.pi * math.sqrt(y / b) - 1e-12))
    c_hi = math.floor(4.0 * math.pi * math.sqrt(y / a) + 1e-12)
    return range(c_lo, c_hi + 1)


def harmonic_murmuration_density(
    y: float, phi: WeightFunction, sign: int, tables: ArithTables
) -> float:
    """Closed-form weight-aspect density at y = p / X; exact finite sum."""
    if sign not in (1, -1):
        raise DomainError(f"sign must be +-1, got {sign}")
    total = 0.0
    for c in admissible_moduli(y, phi):
        if mobius(c, tables) == 0:
            continue
        w = phi(16.0 * math.pi**2 * y / c**2)
        if w != 0.0:
            total += w / (c * c * euler_phi(c, tables))
    return sign * 4.0 * math.pi * total


def harmonic_density_support(phi: WeightFunction, c_max: int) -> tuple[float, float]:
    """y-interval covered by the c = 1 .. c_max terms of the density."""
    a, b = phi.support
    scale = 16.0 * math.pi**2
    return (a / scale, b * c_max**2 / scale)


# ---------------------------------------------------------------------------
# atomic prime-window density


def _endpoint_kind(q: int, a: int, endpoint: float) -> bool:
    """True when (q/a)^2 equals the endpoint, exactly for rational endpoints."""
    ratio = Fraction(q * q, a * a)
    exact = Fraction(endpoint).limit_denominator(10**12)
    if float(exact) == endpoint and exact == ratio:
        return True
    return abs(float(ratio) - endpoint) <= _ENDPOINT_SNAP * max(1.0, abs(endpoint))


def window_murmuration_density(
    E, q_max: int, prefactor: float, tables: ArithTables, tail_tol: float = None
) -> tuple[DistributionValue, float]:
    """Atomic murmuration density on the window E, plus a certified tail bound.

    Enumerates coprime pairs (a, q) with q <= q_max squarefree and
    (q/a)^2 in E; masses at exact endpoints of E are halved.  The tail
    bound covers all omitted q > q_max using
    phi(q) >= sqrt(q/2) and phi(q)*sigma(q) >= q^2 * 6/pi^2 (valid for
    squarefree q), so each omitted term is at most
    (max E)^(3/2) * (q * L + 1) * (pi^2 sqrt(2) / 6) / q^(5/2)
    with L the length of the sqrt-reciprocal window.
    """
    lo, hi = float(E[0]), float(E[1])
    if not (0 < lo < hi):
        raise DomainError(f"E must be a compact subinterval of (0, inf), got [{lo}, {hi}]")
    if q_max < 1:
        raise DomainError("q_max must be >= 1")
    atoms = {}
    sqrt_lo, sqrt_hi = math.sqrt(lo), math.sqrt(hi)
    for q in range(1, q_max + 1):
        if not is_squarefree(q, tables):
            continue
        base = prefactor * 1.0 / (euler_phi(q, tables) ** 2 * divisor_sigma(q, tables))
        a_lo = max(1, math.floor(q / sqrt_hi))
        a_hi = math.ceil(q / sqrt_lo) + 1
        for a in range(a_lo, a_hi + 1):
            if math.gcd(a, q) != 1:
                continue
            loc = (q / a) ** 2
            if loc < lo - _ENDPOINT_SNAP or loc > hi + _ENDPOINT_SNAP:
                continue
            at_end = _endpoint_kind(q, a, lo) or _endpoint_kind(q, a, hi)
            if not at_end and not (lo < loc < hi):
                continue
            mass = base * (q / a) ** 3
            if at_end:
                mass *= 0.5
            key = Fraction(q, a)
            atoms[key] = (loc, mass)
    # tail over q > q_max
    length = 1.0 / sqrt_lo - 1.0 / sqrt_hi
    const = hi**1.5 * abs(prefactor) * math.pi**2 * math.sqrt(2.0) / 6.0
    tail = const * (length * 2.0 / math.sqrt(q_max) + (2.0 / 3.0) * q_max**-1.5)
    if tail_tol is not None and tail > tail_tol:
        raise AccuracyError(
            f"q_max={q_max} certifies tail {tail:.3e}, above requested {tail_tol:g}",
            best=None,
            estimate=tail,
        )
    ordered = tuple(sorted(atoms.values(), key=lambda lm: lm[0]))
    dist = DistributionValue(atoms=ordered, continuous=lambda x: 0.0)
    return dist, tail


# ---------------------------------------------------------------------------
# orthogonal-symmetry one-level-density kernels


def _sinc2(x):
    # sin(2 pi x) / (2 pi x) with the removable singularity filled
    return np.sinc(2.0 * np.asarray(x, dtype=np.float64))


def so_kernel(parity: str) -> DistributionValue:
    """W_SO kernel: 1 +- sin(2 pi x)/(2 pi x), odd parity carries atom (0, 1)."""
    if parity == "even":
        return DistributionValue(atoms=(), continuous=lambda x: float(1.0 + _sinc2(x)))
    if parity == "odd":
        return DistributionValue(atoms=((0.0, 1.0),), continuous=lambda x: float(1.0 - _sinc2(x)))
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def so_kernel_fourier(parity: str) -> DistributionValue:
    """Fourier side of the W_SO kernels; both parities carry atom (0, 1).

    Continuous parts: 1_[-1,1](y)/2 for odd, (2 - 1_[-1,1](y))/2 for
    even.  At any y the two continuous parts sum to exactly 1 (the
    indicators cancel), while the un-hatted kernels sum to exactly 2.
    """
    def box(y):
        return 1.0 if -1.0 <= y <= 1.0 else 0.0

    if parity == "odd":
        return DistributionValue(atoms=((0.0, 1.0),), continuous=lambda y: 0.5 * box(y))
    if parity == "even":
        return DistributionValue(atoms=((0.0, 1.0),), continuous=lambda y: 0.5 * (2.0 - box(y)))
    raise DomainError(f"parity must be 'even' or 'odd', got {parity!r}")


def one_level_pairing(phi_hat: WeightFunction, parity: str, tol: float = 1e-9) -> float:
    """Pair a transform-side test function against the Fourier SO kernel.

    Computes the atom contributions plus the quadrature of the
    continuous part; the test function's support must lie inside
    (-2, 2).
    """
    a, b = phi_hat.support
    if not (-2.0 < a and b < 2.0):
        raise DomainError(f"test-function support [{a}, {b}] must lie inside (-2, 2)")
    kernel = so_kernel_fourier(parity)
    atom_part = math.fsum(mass * float(phi_hat(loc)) for loc, mass in kernel.atoms)
    breaks = [-1.0, 1.0]
    result = quadrature(
        lambda x: float(phi_hat(x)) * kernel.continuous(x), (a, b), tol=tol, breakpoints=breaks
    )
    return atom_part + result.value


# ---------------------------------------------------------------------------
# explicit-formula prime sum


def explicit_prime_sum(
    coefficients, N: float, phi_hat: WeightFunction, tables: ArithTables
) -> float:
    """sum_p lam(p) log(p)/sqrt(p) * phi_hat(log p / log N).

    Only primes p <= N^theta contribute, where [-theta, theta] covers
    supp(phi_hat); the sum is exact and finite.  ``coefficients`` is a
    callable p -> lam(p); a lookup failure is reported as a data error
    naming the prime.
    """
    if not N > 1:
        raise DomainError(f"scale N must exceed 1, got {N}")
    a, b = phi_hat.support
    theta = max(abs(a), abs(b))
    cutoff = N**theta
    if cutoff > tables.limit:
        raise DomainError(
            f"prime sum needs primes up to {cutoff:.0f}, beyond table limit {tables.limit}"
        )
    log_n = math.log(N)
    total = 0.0
    for p in tables.primes:
        p = int(p)
        if p > cutoff:
            break
        w = float(phi_hat(math.log(p) / log_n))
        if w == 0.0:
            continue
        try:
            lam = coefficients(p)
        except Exception as exc:
            raise DataError(f"coefficient source failed at prime {p}: {exc}") from exc
        total += lam * math.log(p) / math.sqrt(p) * w
    return total
