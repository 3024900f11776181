"""Exact integer kernels: sieve tables and prime grids, multiplicative
functions, and Kloosterman sums.  ``covering`` is the one rule that sizes
the sieve tables a reader needs, and ``is_prime`` the one prime test.

``ArithTables`` owns the multiplicative facts over [0, limit]: the
squarefree mask (mu(n)^2), phi, sigma, tau, and the power of each n's
smallest prime that divides it exactly.  Each is a read-only array built
from the sieve the first time it is read, so a sieve that serves only a
prime grid builds none of them.  ``_blocks`` cuts every ragged batch (the
trace-formula kernel's (modulus, cell) pairs and the atomic density's
(q, a) candidates) into blocks of bounded size.

Kloosterman sums S(m, n; c) have one CRT implementation and one direct
sum.  Both read the unit sum ``_unit_cosine_sum``, which sums the cosines
of (m*d + n*dbar) * 2*pi/c over the tables of ``_unit_tables`` (the units
d of Z/cZ, their inverses from ``_powmod_vec``, and cosine and sine
tables), one row per (m, n):

* ``kloosterman_many`` takes arrays of (n, c) pairs with any moduli, the
  batch form the trace-formula kernel calls.  ``_prime_powers`` factors
  each c into prime powers q; one unit sum per q runs over every pair
  whose modulus q divides exactly, each row twisted by the inverse of its
  own cofactor, and the local sums combine by the twisted
  multiplicativity S(m, n; q*r) = S(m*rbar, n*rbar; q) * S(m*qbar, n*qbar; r)
  for coprime q, r.  ``kloosterman_fast`` is its call over one modulus.
* ``kloosterman_direct`` is one unit sum mod c, asserting that the
  companion sine sum vanishes.

Their agreement to 1e-9 absolute on dense grids checks the CRT
combination only.  The independent check of the unit sum is the test
suite's complex-exponential oracle, ``oracles.kloosterman_complex``.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
import math
from typing import Optional

import numpy as np

from .errors import AccuracyError, DomainError, SizeError, WindowError

# int64 products d*m with d, m < c stay exact only while c*c < 2**63
_MAX_MODULUS = 2**31
_IMAG_TOL = 1e-9
_UNIT_BLOCK = 1 << 20  # unit-sum terms per vectorised block: bounds the temporaries
_CACHED_MODULI = 2048  # unit and angle tables are cached for moduli up to this


@dataclass(frozen=True)
class ArithTables:
    """Immutable sieve tables up to ``limit``.

    ``smallest_prime_factor[n]`` is defined for 0 <= n <= limit (entries
    below 2 are 0) and ``primes`` is the ascending array of primes
    <= limit.  The multiplicative tables below are indexed by n in
    [0, limit] and built on first access.  Arrays are marked read-only
    so tables can be shared freely.
    """

    limit: int
    smallest_prime_factor: np.ndarray
    primes: np.ndarray

    @cached_property
    def squarefree(self) -> np.ndarray:
        """Boolean mask of the squarefree n, i.e. mu(n)^2 (False at 0):
        p^2 crossed out for every prime p <= sqrt(limit)."""
        mask = np.ones(self.limit + 1, dtype=bool)
        mask[0] = False
        for p in self.primes[: np.searchsorted(self.primes, math.isqrt(self.limit), "right")].tolist():
            mask[p * p :: p * p] = False
        mask.flags.writeable = False
        return mask

    @cached_property
    def euler_phi(self) -> np.ndarray:
        """Euler's totient phi(n), int64."""
        return self._by_smallest_factor(lambda f, p, m: f[m] * np.where(m % p == 0, p, p - 1))

    @cached_property
    def divisor_sigma(self) -> np.ndarray:
        """Sum of divisors sigma(n), int64."""
        return self._by_smallest_factor(lambda f, p, m: f[m] * (p + 1) - np.where(m % p == 0, p * f[m // p], 0))

    @cached_property
    def divisor_count(self) -> np.ndarray:
        """Number of divisors tau(n), int64."""
        return self._by_smallest_factor(lambda f, p, m: 2 * f[m] - np.where(m % p == 0, f[m // p], 0))

    @cached_property
    def smallest_prime_power(self) -> np.ndarray:
        """The power of the smallest prime p of n that divides n exactly,
        int64: n's p-part, 1 at n = 1 and 0 at n = 0."""
        spf = self.smallest_prime_factor
        return self._by_smallest_factor(lambda f, p, m: np.where(spf[m] == p, p * f[m], p))

    def _by_smallest_factor(self, rule) -> np.ndarray:
        """The int64 table f with f(0) = 0, f(1) = 1 and, for n >= 2,
        f(n) = rule(f, p, m) where p = spf(n) and m = n / p.

        For multiplicative f the rule needs only f(m) and, when p | m,
        f(m / p).  As m <= n / 2, each block [lo, 2 lo) of n is one numpy
        pass that reads finished entries only.
        """
        f = np.zeros(self.limit + 1, dtype=np.int64)
        f[1] = 1
        lo = 2
        while lo <= self.limit:
            hi = min(2 * lo, self.limit + 1)
            p = self.smallest_prime_factor[lo:hi].astype(np.int64)
            f[lo:hi] = rule(f, p, np.arange(lo, hi) // p)
            lo = hi
        f.flags.writeable = False
        return f


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
    primes = np.flatnonzero(spf == 0)[2:]  # the unmarked n >= 2
    spf[primes] = primes
    spf.flags.writeable = False
    primes.flags.writeable = False
    return ArithTables(limit=limit, smallest_prime_factor=spf, primes=primes)


def covering(tables: Optional[ArithTables], n: int) -> ArithTables:
    """``tables`` when they reach n, else a sieve up to max(2, n): the one
    rule that sizes a sieve, used by every reader of the tables."""
    if tables is not None and tables.limit >= n:
        return tables
    return sieve(max(2, n))


def prime_grid(X: float, y_min: float, y_max: float) -> list[int]:
    """Primes p with y_min <= p / X <= y_max, ascending.

    Raises DomainError unless X > 0 and the window are finite, and
    WindowError when no prime falls in the range.
    """
    if not (0 < X < math.inf and math.isfinite(y_min) and math.isfinite(y_max)):
        raise DomainError(f"prime window needs finite X > 0, y_min and y_max, got {X}, {y_min}, {y_max}")
    sieved = covering(None, math.floor(y_max * X)).primes
    primes = sieved[(y_min * X <= sieved) & (sieved <= y_max * X)].tolist()
    if not primes:
        raise WindowError(f"no primes with p/X in [{y_min}, {y_max}] at X={X:g}")
    return primes


def is_prime(values) -> np.ndarray:
    """Elementwise primality of an integer array, by trial division by the
    primes up to the square root of its largest entry."""
    n = np.asarray(values, dtype=np.int64)
    prime = n >= 2
    for q in covering(None, math.isqrt(max(4, int(n.max(initial=0))))).primes.tolist():
        prime &= (n % q != 0) | (n == q)
    return prime


def check_prime_grid(primes) -> np.ndarray:
    """The grid as int64, after checking that it is nonempty, strictly
    ascending and prime (``is_prime``)."""
    grid = np.asarray(primes)
    if grid.ndim != 1 or len(grid) == 0:
        raise DomainError("prime grid must be a nonempty sequence")
    if grid.dtype.kind not in "iu":
        raise DomainError("prime grid entries must be integers")
    grid = grid.astype(np.int64)
    if np.any(grid[1:] <= grid[:-1]):
        raise DomainError("prime grid must be strictly ascending")
    composite = ~is_prime(grid)
    if np.any(composite):
        raise DomainError(f"prime grid entry {int(grid[composite][0])} is not prime")
    return grid


def _check_range(n: int, tables: ArithTables) -> None:
    if n < 1 or n > tables.limit:
        raise DomainError(f"n={n} outside table range [1, {tables.limit}]")


def is_squarefree(n: int, tables: ArithTables) -> bool:
    _check_range(n, tables)
    return bool(tables.squarefree[n])


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


def _build_unit_tables(modulus: int) -> tuple[np.ndarray, ...]:
    """The units d of Z/cZ, their inverses, and the cosine and sine of every
    angle j * (2 pi / c), j < c: the float expression the unit sums gather."""
    d = np.arange(1, modulus, dtype=np.int64)
    units = d[np.gcd(d, modulus) == 1]
    inv = _powmod_vec(units, len(units) - 1, modulus)  # d^(phi(c) - 1) = 1/d
    angle = np.arange(modulus) * (2.0 * math.pi / modulus)
    tables = units, inv, np.cos(angle), np.sin(angle)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=_CACHED_MODULI)
def _cached_unit_tables(modulus: int) -> tuple[np.ndarray, ...]:
    return _build_unit_tables(modulus)


def _unit_tables(modulus: int) -> tuple[np.ndarray, ...]:
    # tables hold up to 32*c bytes per modulus c: caching every c <= 2048
    # holds at most about 55 MB
    if modulus <= _CACHED_MODULI:
        return _cached_unit_tables(modulus)
    return _build_unit_tables(modulus)


def _blocks(counts, cap: int):
    """The blocks of at most ``cap`` consecutive elements of a group-major
    layout, where group g holds ``counts[g]`` elements: per block, the
    int64 arrays (group, rank) of its elements, rank counting from 0 within
    each group.  A group with more elements than fit is split across
    blocks."""
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    starts, total = ends - counts, int(counts.sum())
    for lo in range(0, total, cap):
        hi = min(lo + cap, total)
        g0, g1 = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
        span = np.arange(g0, g1 + 1)
        group = np.repeat(span, np.minimum(ends[span], hi) - np.maximum(starts[span], lo))
        yield group, np.arange(lo, hi) - starts[group]


def _unit_cosine_sum(m, n: np.ndarray, unit_tables: tuple[np.ndarray, ...]) -> np.ndarray:
    """Sums of exp(2*pi*i*(m*d + n*dbar)/c) over the units d of Z/cZ, as
    reals, one per entry of the int64 array n, where ``unit_tables`` are the
    tables of ``_unit_tables(c)``.  ``m`` is an int shared by every entry,
    or an int64 array of n's shape, one m per entry; either way each row
    is m*d + n*dbar mod c, formed by broadcasting.  Rows are taken in
    blocks of at most _UNIT_BLOCK terms.

    Raises AccuracyError if an imaginary part fails to cancel below 1e-9,
    which would indicate a broken inverse table.
    """
    units, inv, cos, sin = unit_tables
    modulus = len(cos)
    if modulus == 1:
        return np.ones(n.shape)
    rows = n.reshape(-1, 1) % modulus
    twist = np.full(n.shape, m % modulus).reshape(-1, 1)
    real, imag = np.empty(len(rows)), np.empty(len(rows))
    step = max(1, _UNIT_BLOCK // len(units))
    for lo in range(0, len(rows), step):
        num = twist[lo : lo + step] * units
        num += rows[lo : lo + step] * inv
        num %= modulus
        real[lo : lo + len(num)] = cos[num].sum(axis=1)
        imag[lo : lo + len(num)] = sin[num].sum(axis=1)
    worst = float(np.abs(imag).max(initial=0.0))
    if worst > _IMAG_TOL:
        raise AccuracyError(
            f"Kloosterman imaginary part {worst:.3e} exceeds {_IMAG_TOL} for c={modulus}",
            best=real.reshape(n.shape),
            estimate=worst,
        )
    return real.reshape(n.shape)


def kloosterman_direct(m: int, n, c: int):
    """S(m, n; c) by direct summation over the units of Z/cZ, for an int n
    (a float) or an int array n (an array of the same shape).

    S(m, n; 1) = 1 by convention (the empty exponent contributes the
    single residue class).
    """
    if c < 1:
        raise DomainError(f"modulus c must be >= 1, got {c}")
    if c >= _MAX_MODULUS:
        raise SizeError(f"modulus {c} exceeds supported size {_MAX_MODULUS - 1}")
    value = _unit_cosine_sum(m, np.asarray(n, dtype=np.int64), _unit_tables(c))
    return value if value.ndim else float(value)


def kloosterman_fast(m: int, n, c: int, tables: ArithTables):
    """S(m, n; c) for an int n (a float) or an int array n (an array of the
    same shape): one ``kloosterman_many`` call over the one modulus c.

    Raises DomainError for c outside [1, tables.limit].
    """
    _check_range(c, tables)
    n = np.asarray(n, dtype=np.int64)
    value = kloosterman_many(m, n, np.full(n.shape, c), tables)
    return value if value.ndim else float(value)


def _prime_powers(c: np.ndarray, tables: ArithTables) -> tuple[np.ndarray, np.ndarray]:
    """(pair, power): the prime-power factors q = p^e of the moduli c, each
    with the index of its modulus, sorted by (p, q); a modulus 1 has none.
    Each pass divides every modulus still above 1 by its factor at its
    smallest prime, read from ``tables.smallest_prime_power``."""
    pair, power = [], []
    live = np.flatnonzero(c > 1)
    rest = c[live]
    while len(live):
        q = tables.smallest_prime_power[rest]
        pair.append(live)
        power.append(q)
        rest //= q
        more = rest > 1
        live, rest = live[more], rest[more]
    # live is empty here: it keeps the concatenation valid when every modulus is 1
    pair, power = np.concatenate([*pair, live]), np.concatenate([*power, live])
    order = np.lexsort((power, tables.smallest_prime_factor[power]))
    return pair[order], power[order]


def kloosterman_many(m: int, n, c, tables: ArithTables) -> np.ndarray:
    """S(m, n_i; c_i) over int arrays n and c of one shape, an array of that
    shape; the bits of each entry depend on its own pair only, never on the
    other pairs of the call.  DomainError for a c outside [1, tables.limit].

    ``_prime_powers`` factors the moduli.  The local factors of each prime
    power q, over every pair whose modulus q divides exactly, are one
    ``_unit_cosine_sum`` mod q, with (m, n) twisted by the inverse of the
    cofactor c/q, read from q's unit tables.  The prime powers come in
    ascending p, so each pair multiplies its factors in ascending p.
    """
    n, c = np.asarray(n, dtype=np.int64), np.asarray(c, dtype=np.int64)
    if n.shape != c.shape:
        raise DomainError(f"n and c must have one shape, got {n.shape} and {c.shape}")
    if c.size and (c.min() < 1 or c.max() > tables.limit):
        bad = int(c[(c < 1) | (c > tables.limit)][0])
        raise DomainError(f"modulus c={bad} outside table range [1, {tables.limit}]")
    shape, n, c = c.shape, n.reshape(-1), c.reshape(-1)
    pair, power = _prime_powers(c, tables)
    # a group starts where q changes: np.diff(power, prepend=0) without its set-up cost
    starts = np.flatnonzero(power != np.concatenate(([0], power[:-1]))).tolist()
    value = np.ones(len(c))
    for start, stop in zip(starts, [*starts[1:], len(power)]):
        q = int(power[start])
        unit_tables = _unit_tables(q)
        units, inv = unit_tables[:2]
        at = pair[start:stop]
        rbar = inv[np.searchsorted(units, c[at] // q % q)]
        value[at] *= _unit_cosine_sum(m % q * rbar % q, n[at] % q * rbar % q, unit_tables)
    return value.reshape(shape)


def weil_bound(m: int, n: int, c: int, tables: ArithTables) -> float:
    """tau(c) * sqrt(gcd(m, n, c)) * sqrt(c), the Weil bound for |S(m,n;c)|."""
    _check_range(c, tables)
    g = math.gcd(math.gcd(m, n), c)
    return int(tables.divisor_count[c]) * math.sqrt(g) * math.sqrt(c)
