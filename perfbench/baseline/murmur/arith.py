"""Exact integer kernels: sieve tables, multiplicative functions, Kronecker
symbols, and Kloosterman sums.

Kloosterman sums S(m, n; c) are evaluated two independent ways:

* ``kloosterman_direct`` sums cos(2*pi*(m*d + n*d^{-1})/c) over the units
  d of Z/cZ, asserting that the companion sine sum vanishes.
* ``kloosterman_fast`` factors c into prime powers, evaluates each local
  sum directly, and combines them with the twisted multiplicativity
  S(m, n; q*r) = S(m*rbar, n*rbar; q) * S(m*qbar, n*qbar; r) for
  coprime q, r.

The two paths must agree to 1e-9 absolute; the test suite enforces this
on dense grids rather than trusting the combination rule.
"""

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .errors import AccuracyError, DomainError, SizeError

# int64 products d*m with d, m < c stay exact only while c*c < 2**63
_MAX_MODULUS = 2**31
_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class ArithTables:
    """Immutable sieve tables up to ``limit``.

    ``smallest_prime_factor[n]`` is defined for 0 <= n <= limit (entries
    below 2 are 0) and ``primes`` is the ascending array of primes
    <= limit.  Arrays are marked read-only so tables can be shared
    freely across threads.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    primes: np.ndarray


def sieve(limit: int) -> ArithTables:
    """Build smallest-prime-factor tables and the prime list up to limit."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit >= _MAX_MODULUS:
        raise SizeError(f"sieve limit {limit} exceeds supported size {_MAX_MODULUS - 1}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            block = spf[i * i :: i]
            block[block == 0] = i
    n = np.arange(limit + 1, dtype=np.int32)
    unmarked = (spf == 0) & (n >= 2)
    spf[unmarked] = n[unmarked]
    primes = np.flatnonzero(spf == n)
    primes = primes[primes >= 2].astype(np.int64)
    spf.flags.writeable = False
    primes.flags.writeable = False
    return ArithTables(limit=limit, smallest_prime_factor=spf, primes=primes)


def _check_range(n: int, tables: ArithTables) -> None:
    if n < 1 or n > tables.limit:
        raise DomainError(f"n={n} outside table range [1, {tables.limit}]")


def factorize(n: int, tables: ArithTables) -> list[tuple[int, int]]:
    """Prime factorization [(p, e), ...] of n via the spf table."""
    _check_range(n, tables)
    spf = tables.smallest_prime_factor
    out = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def mobius(n: int, tables: ArithTables) -> int:
    """Moebius mu(n): 0 unless n is squarefree, else (-1)^(#prime factors)."""
    fac = factorize(n, tables)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def euler_phi(n: int, tables: ArithTables) -> int:
    """Euler totient via the factorization of n."""
    phi = 1
    for p, e in factorize(n, tables):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def divisor_sigma(n: int, tables: ArithTables) -> int:
    """Sum of divisors sigma(n) = prod (p^(e+1) - 1)/(p - 1)."""
    sig = 1
    for p, e in factorize(n, tables):
        sig *= (p ** (e + 1) - 1) // (p - 1)
    return sig


def divisor_count(n: int, tables: ArithTables) -> int:
    """Number of divisors tau(n)."""
    tau = 1
    for _, e in factorize(n, tables):
        tau *= e + 1
    return tau


def is_squarefree(n: int, tables: ArithTables) -> bool:
    return all(e == 1 for _, e in factorize(n, tables))


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d|n), extended to all integer pairs.

    Fully multiplicative in n; for odd prime n it is the Legendre
    symbol, (d|2) is 0 for even d and +-1 by d mod 8, (d|-1) is the
    sign of d, and (d|0) is 1 only for d = +-1.
    """
    if n == 0:
        return 1 if d in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if d < 0:
            result = -result
    while n % 2 == 0:
        if d % 2 == 0:
            return 0
        n //= 2
        if d % 8 in (3, 5):
            result = -result
    # n odd and positive from here; standard Jacobi reduction
    d %= n
    while d != 0:
        while d % 2 == 0:
            d //= 2
            if n % 8 in (3, 5):
                result = -result
        d, n = n, d
        if d % 4 == 3 and n % 4 == 3:
            result = -result
        d %= n
    return result if n == 1 else 0


# ---------------------------------------------------------------------------
# Kloosterman sums


def _powmod_vec(base: np.ndarray, exponent: int, modulus: int) -> np.ndarray:
    """Elementwise base**exponent mod modulus on int64 arrays."""
    result = np.ones_like(base)
    b = base % modulus
    e = exponent
    while e > 0:
        if e & 1:
            result = (result * b) % modulus
        b = (b * b) % modulus
        e >>= 1
    return result


def _phi_of(modulus: int) -> int:
    """Totient by trial division; independent of any sieve table."""
    phi = 1
    n = modulus
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            phi *= (p - 1) * p ** (e - 1)
        p += 1 if p == 2 else 2
    if n > 1:
        phi *= n - 1
    return phi


def _build_unit_tables(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    d = np.arange(1, modulus, dtype=np.int64)
    units = d[np.gcd(d, modulus) == 1]
    inv = _powmod_vec(units, _phi_of(modulus) - 1, modulus)
    units.flags.writeable = False
    inv.flags.writeable = False
    return units, inv


@lru_cache(maxsize=4096)
def _cached_unit_tables(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    return _build_unit_tables(modulus)


def _unit_tables(modulus: int) -> tuple[np.ndarray, np.ndarray]:
    # caching unbounded moduli would hold ~16*c bytes each; cap the cache
    if modulus <= 4096:
        return _cached_unit_tables(modulus)
    return _build_unit_tables(modulus)


def _unit_cosine_sum(m: int, n: int, modulus: int) -> float:
    """Sum of exp(2*pi*i*(m*d + n*dbar)/modulus) over units d, as a real.

    Raises AccuracyError if the imaginary part fails to cancel below
    1e-9, which would indicate a broken inverse table.
    """
    if modulus == 1:
        return 1.0
    units, inv = _unit_tables(modulus)
    num = (m % modulus) * units + (n % modulus) * inv
    ang = (num % modulus) * (2.0 * math.pi / modulus)
    real = float(np.cos(ang).sum())
    imag = float(np.sin(ang).sum())
    if abs(imag) > _IMAG_TOL:
        raise AccuracyError(
            f"Kloosterman imaginary part {imag:.3e} exceeds {_IMAG_TOL} for c={modulus}",
            best=real,
            estimate=abs(imag),
        )
    return real


def kloosterman_direct(m: int, n: int, c: int) -> float:
    """S(m, n; c) by direct summation over the units of Z/cZ.

    S(m, n; 1) = 1 by convention (the empty exponent contributes the
    single residue class).
    """
    if c < 1:
        raise DomainError(f"modulus c must be >= 1, got {c}")
    if c >= _MAX_MODULUS:
        raise SizeError(f"modulus {c} exceeds supported size {_MAX_MODULUS - 1}")
    return _unit_cosine_sum(m, n, c)


def kloosterman_fast(m: int, n: int, c: int, tables: ArithTables) -> float:
    """S(m, n; c) via prime-power factorization of c.

    Each local factor is a direct unit sum mod p^e; factors combine by
    twisted multiplicativity, twisting (m, n) by the inverse of the
    cofactor c/p^e modulo p^e.
    """
    if c < 1:
        raise DomainError(f"modulus c must be >= 1, got {c}")
    _check_range(c, tables)
    if c == 1:
        return 1.0
    value = 1.0
    for p, e in factorize(c, tables):
        q = p**e
        r = c // q
        if r == 1:
            value *= _unit_cosine_sum(m, n, q)
        else:
            rbar = pow(r, -1, q)
            value *= _unit_cosine_sum(m * rbar, n * rbar, q)
    return value


def kloosterman_many(m: int, n: int, moduli, tables: ArithTables, map_fn=None) -> np.ndarray:
    """Fast-path S(m, n; c) over an iterable of moduli.

    ``map_fn`` is the caller-provided parallel map (defaults to the
    builtin); evaluations are independent and results keep input order.
    """
    mapper = map if map_fn is None else map_fn
    values = mapper(lambda c: kloosterman_fast(m, n, c, tables), moduli)
    return np.fromiter(values, dtype=np.float64)


def weil_bound(m: int, n: int, c: int, tables: ArithTables) -> float:
    """tau(c) * sqrt(gcd(m, n, c)) * sqrt(c), the Weil bound for |S(m,n;c)|."""
    g = math.gcd(math.gcd(m, n), c)
    return divisor_count(c, tables) * math.sqrt(g) * math.sqrt(c)
