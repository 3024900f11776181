import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmur import arith
from murmur.errors import AccuracyError, DomainError, SizeError

import oracles


# ---------------------------------------------------------------------------
# sieve and multiplicative functions


def test_is_prime_matches_trial_division():
    assert np.flatnonzero(arith.is_prime(np.arange(5001))).tolist() == oracles.naive_primes(5000)
    near = [2**31 - 1, 2**31 - 19, 2**31 - 2, 2**31 - 3, 2**31 + 1, 46337**2, 46337 * 46349, 2**31 + 11]
    expect = [all(v % d for d in range(2, math.isqrt(v) + 1)) for v in near]
    assert arith.is_prime(near).tolist() == expect == [True, True, False, False, False, False, False, True]
    assert arith.is_prime([-7, 0, 1]).tolist() == [False, False, False]
    assert arith.is_prime([]).tolist() == []


def test_covering_reuses_tables_that_reach():
    small = arith.sieve(100)
    assert arith.covering(small, 100) is small
    assert arith.covering(small, 101).limit == 101
    assert arith.covering(None, 0).limit == 2
    assert arith.covering(None, 37).primes.tolist() == oracles.naive_primes(37)


def test_sieve_small_prime_lists():
    assert list(arith.sieve(10).primes) == [2, 3, 5, 7]
    assert list(arith.sieve(2).primes) == [2]


def test_sieve_prime_count_against_naive_oracle(tables):
    assert len(tables.primes) == len(oracles.naive_primes(10_000))
    assert len(tables.primes) == 1229


def test_sieve_spf_divides(tables):
    n = np.arange(2, tables.limit + 1)
    spf = tables.smallest_prime_factor[2:]
    assert np.all(n % spf == 0)


def test_sieve_temporaries_are_small():
    # an int32 arange and two boolean masks beside the table once peaked at 10.6 bytes per entry
    limit = 10**7
    tracemalloc.start()
    try:
        tables = arith.sieve(limit)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables.primes) == 664_579
    assert peak <= 7 * limit


def test_sieve_rejects_bad_limits():
    with pytest.raises(DomainError):
        arith.sieve(1)
    with pytest.raises(SizeError):
        arith.sieve(2**40)


def test_sieve_tables_immutable(tables):
    with pytest.raises(ValueError):
        tables.primes[0] = 4


@pytest.fixture(scope="module")
def small_tables():
    return arith.sieve(1000)


def test_mobius_values(small_tables):
    # mu enters the densities only squared: its owner is the squarefree mask
    mask = small_tables.squarefree
    assert mask.dtype == bool and len(mask) == small_tables.limit + 1
    assert not mask[0] and not mask.flags.writeable
    assert [n for n in range(1, small_tables.limit + 1) if mask[n] != (oracles.mobius_naive(n) != 0)] == []


def test_phi_sigma_against_divisor_enumeration(small_tables):
    phi, sigma, tau = small_tables.euler_phi, small_tables.divisor_sigma, small_tables.divisor_count
    for table in (phi, sigma, tau):
        assert table.dtype == np.int64 and len(table) == small_tables.limit + 1
        assert not table.flags.writeable
    assert (phi[1], sigma[1], tau[1]) == (1, 1, 1)
    assert (phi[12], sigma[12], tau[12]) == (4, 28, 6)
    for n in range(1, small_tables.limit + 1):
        divisors = oracles.divisors(n)
        assert (phi[n], sigma[n], tau[n]) == (oracles.phi_naive(n), sum(divisors), len(divisors)), n


def test_is_squarefree(small_tables):
    assert not arith.is_squarefree(18, small_tables)
    assert arith.is_squarefree(30, small_tables)
    for n in range(1, small_tables.limit + 1):
        trial = all(n % (k * k) for k in range(2, math.isqrt(n) + 1))
        assert arith.is_squarefree(n, small_tables) == trial, n


def test_table_range_errors(small_tables):
    for n in (0, -1, small_tables.limit + 1):
        with pytest.raises(DomainError):
            arith.is_squarefree(n, small_tables)
        with pytest.raises(DomainError):
            arith.weil_bound(1, 1, n, small_tables)


# ---------------------------------------------------------------------------
# Kloosterman sums


def test_kloosterman_examples(tables):
    assert arith.kloosterman_direct(1, 1, 1) == 1.0
    assert abs(arith.kloosterman_direct(1, 1, 2) - 1.0) < 1e-12
    assert abs(arith.kloosterman_direct(1, 2, 3) - 2.0) < 1e-12
    assert abs(arith.kloosterman_fast(1, 1, 6, tables) - arith.kloosterman_direct(1, 1, 6)) < 1e-12
    assert abs(arith.kloosterman_fast(3, 5, 35, tables) - arith.kloosterman_direct(3, 5, 35)) < 1e-12


def test_kloosterman_ramanujan_case(tables):
    # S(0, 0; c) counts the units
    for c in [1, 2, 6, 12, 30, 100]:
        assert abs(arith.kloosterman_fast(0, 0, c, tables) - oracles.phi_naive(c)) < 1e-9


def test_kloosterman_against_complex_oracle(tables):
    for (m, n, c) in [(1, 1, 5), (2, 3, 7), (1, 4, 8), (5, 7, 36), (1, 1, 97), (11, 13, 360)]:
        re, im = oracles.kloosterman_complex(m, n, c)
        assert abs(im) < 1e-9
        assert abs(arith.kloosterman_direct(m, n, c) - re) < 1e-9
        assert abs(arith.kloosterman_fast(m, n, c, tables) - re) < 1e-9


def test_unit_inverse_tables_exact():
    for c in [2, 3, 8, 36, 97, 3600, 4099]:
        units, inv = arith._unit_tables(c)[:2]
        assert np.all((units * inv) % c == 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 400))
def test_kloosterman_fast_equals_direct(tables, m, n, c):
    assert abs(arith.kloosterman_fast(m, n, c, tables) - arith.kloosterman_direct(m, n, c)) < 1e-9


@pytest.mark.parametrize("c", [1, 2, 6, 8, 9, 97, 243, 360, 1024, 3125, 4099])
def test_kloosterman_array_call_equals_scalar_calls(tables, c):
    # one call per modulus over many n: each entry is the scalar call, bit for bit,
    # also across the blocks that split a long unit sum (300 rows at c = 4099)
    rng = np.random.default_rng(c)
    ns = np.concatenate([[0, 1, -1, c, c + 1, 2**31 - 1, -(2**31)], rng.integers(-10**9, 10**9, 293)])
    for m in (1, 5, -12):
        fast = arith.kloosterman_fast(m, ns, c, tables)
        direct = arith.kloosterman_direct(m, ns, c)
        assert fast.shape == direct.shape == ns.shape
        assert np.array_equal(fast, [arith.kloosterman_fast(m, n, c, tables) for n in ns.tolist()])
        assert np.array_equal(direct, [arith.kloosterman_direct(m, n, c) for n in ns.tolist()])
    grid = ns[:6].reshape(2, 3)
    assert np.array_equal(arith.kloosterman_fast(1, grid, c, tables), arith.kloosterman_fast(1, ns[:6], c, tables).reshape(2, 3))
    assert type(arith.kloosterman_fast(1, 3, c, tables)) is float
    assert type(arith.kloosterman_direct(1, 3, c)) is float


def _kloosterman_pairs(rng):
    """(n, c) pairs over c = 1, powers of 2 and 3, composites, and primes and
    composites past the cached moduli, with n = 0 mod a prime power of c."""
    c = np.concatenate([
        [1, 1, 2, 4, 8, 1024, 4096, 3, 9, 27, 3**7, 2048 * 3, 2310, 2 * 3 * 5 * 17 * 19,
         2039, 4099, 9973, 4999 * 2, 97 * 89],
        rng.integers(1, 10_001, 400),
    ])
    n = rng.integers(-10**9, 10**9, len(c))
    n[:19] = [5, 0, 6, 8, 16, 3, 0, 9, 27, 0, 5, 2310, 17, 4, 2039, 1, 0, 4999, 89 * 5]
    return n, c


def _kloosterman_crt_loop(m, n, c, tables):
    """S(m, n; c) by the scalar CRT loop: factor c with the smallest-prime-factor
    table and multiply, in ascending p, the unit sums mod each prime power q with
    (m, n) twisted by the inverse of c/q mod q.  A bitwise reference for the
    batched combination.  It reads the library's unit sum by design, so it
    lives here and not in ``oracles``, whose helpers share no library code;
    the unit sum's independent check is ``oracles.kloosterman_complex``."""
    n = np.asarray(n, dtype=np.int64)
    value, rest = np.ones(n.shape), c
    while rest > 1:
        p, q = int(tables.smallest_prime_factor[rest]), 1
        while rest % p == 0:
            rest, q = rest // p, q * p
        rbar = pow(c // q, -1, q)
        value *= arith._unit_cosine_sum(m * rbar, n % q * rbar, arith._unit_tables(q))
    return value if value.ndim else float(value)


@pytest.mark.parametrize("m", [1, 2, -12, 91, 10**20 + 3])
def test_kloosterman_many_equals_kloosterman_fast(tables, m):
    # every pair keeps the bits of the scalar CRT loop, whatever the other pairs of the call
    n, c = _kloosterman_pairs(np.random.default_rng(abs(m) % 2**32))
    many = arith.kloosterman_many(m, n, c, tables)
    assert many.shape == n.shape
    pairs = list(zip(n.tolist(), c.tolist()))
    assert np.array_equal(many, [_kloosterman_crt_loop(m, a, b, tables) for a, b in pairs])
    assert np.array_equal(many, [arith.kloosterman_fast(m, a, b, tables) for a, b in pairs])
    assert np.array_equal(arith.kloosterman_many(m, n[::-1], c[::-1], tables), many[::-1])
    assert np.array_equal(arith.kloosterman_many(m, n.reshape(-1, 1), c.reshape(-1, 1), tables), many.reshape(-1, 1))
    assert arith.kloosterman_many(m, [], [], tables).shape == (0,)


def test_kloosterman_many_checks_its_moduli(tables):
    for c in ([0], [3, tables.limit + 1]):
        with pytest.raises(DomainError, match="modulus"):
            arith.kloosterman_many(1, [1] * len(c), c, tables)
    with pytest.raises(DomainError, match="one shape"):
        arith.kloosterman_many(1, [1, 2], [3], tables)


@pytest.mark.parametrize("counts, cap", [
    ([], 4), ([0, 0], 3), ([10], 3), ([3, 0, 5, 1, 0, 0, 7], 1), ([3, 0, 5, 1, 0, 0, 7], 4), ([3, 0, 5, 1, 0, 0, 7], 16),
])
def test_blocks_cut_the_group_major_layout(counts, cap):
    # joined, the blocks are the layout element by element, and every block but the last holds cap elements
    blocks = list(arith._blocks(counts, cap))
    layout = [(g, r) for g, count in enumerate(counts) for r in range(count)]
    assert [len(group) for group, _ in blocks] == [min(cap, len(layout) - lo) for lo in range(0, len(layout), cap)]
    assert [(g, r) for group, rank in blocks for g, r in zip(group.tolist(), rank.tolist())] == layout
    assert all(group.dtype == rank.dtype == np.int64 for group, rank in blocks)


def test_kloosterman_many_names_the_prime_power_whose_sum_fails(tables, monkeypatch):
    # a broken inverse table mod 7 leaves an imaginary part: one pair and a batch both name q = 7, not c = 21
    broken = arith._build_unit_tables(7)
    broken = (broken[0], np.roll(broken[1], 1), *broken[2:])
    real = arith._unit_tables
    monkeypatch.setattr(arith, "_unit_tables", lambda q: broken if q == 7 else real(q))
    with pytest.raises(AccuracyError, match="for c=7$"):
        arith.kloosterman_fast(1, 5, 21, tables)
    with pytest.raises(AccuracyError, match="for c=7$"):
        arith.kloosterman_many(1, [5, 2], [4, 21], tables)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 100), st.integers(1, 100), st.integers(1, 300))
def test_kloosterman_symmetry_and_reduction(tables, m, n, c):
    s = arith.kloosterman_fast(m, n, c, tables)
    assert abs(s - arith.kloosterman_fast(n, m, c, tables)) < 1e-9
    assert abs(s - arith.kloosterman_fast(m + c, n, c, tables)) < 1e-9
    assert abs(s - arith.kloosterman_fast(m, n - c, c, tables)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 200), st.integers(1, 40))
def test_kloosterman_unit_twist(tables, m, n, c, a):
    if math.gcd(a, c) != 1:
        a = 1
    lhs = arith.kloosterman_fast(a * m, n, c, tables)
    rhs = arith.kloosterman_fast(m, a * n, c, tables)
    assert abs(lhs - rhs) < 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 2000))
def test_weil_bound_random(tables, m, n, c):
    s = arith.kloosterman_fast(m, n, c, tables)
    assert abs(s) <= arith.weil_bound(m, n, c, tables) + 1e-9


def test_reality_sweep_sample():
    # the full c <= 5000 sweep runs in the acceptance suite
    rng = np.random.default_rng(11)
    for c in rng.integers(1, 5001, size=60):
        arith.kloosterman_direct(3, 7, int(c))  # raises if Im exceeds 1e-9


def test_kloosterman_domain_errors(tables):
    with pytest.raises(DomainError):
        arith.kloosterman_direct(1, 1, 0)
    for c in (0, -1, tables.limit + 1, 2**64):
        with pytest.raises(DomainError):
            arith.kloosterman_fast(1, 1, c, tables)
