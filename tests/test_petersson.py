import math

import numpy as np
import pytest

from murmur import arith, densities, frame, petersson, specfn
from murmur.errors import AccuracyError, DomainError, WindowError

import oracles

TAU = oracles.tau_qexp(50)
BUMP = specfn.bump(1.0, 2.0)


def test_tau_oracle_known_values():
    assert TAU[1] == 1
    assert TAU[2] == -24
    assert TAU[3] == 252
    assert TAU[4] == -1472
    assert TAU[5] == 4830
    assert TAU[7] == -16744


def test_diagonal_dominates_at_large_weight():
    v = petersson.petersson_delta(100, 1, 1)
    assert abs(v.value - 1.0) <= 1e-30
    assert v.tail_bound <= 1e-30


def test_offdiagonal_vanishes_at_large_weight():
    v = petersson.petersson_delta(100, 1, 2)
    assert abs(v.value) <= 1e-30


def test_diagonal_dominance_range():
    for k in [40, 60, 100, 200, 500]:
        v = petersson.petersson_delta(k, 1, 1)
        assert abs(v.value - 1.0) <= 1e-10


def test_hecke_ratio_dimension_one(tables):
    base = petersson.petersson_delta(12, 1, 1, tables=tables)
    for p in [2, 3, 5, 7, 11, 13]:
        ratio = petersson.petersson_delta(12, 1, p, tables=tables).value / base.value
        assert abs(ratio - TAU[p] / p**5.5) < 1e-6, p


def test_hecke_ratio_symmetric_square(tables):
    base = petersson.petersson_delta(12, 1, 1, tables=tables)
    for p in [2, 3, 5, 7]:
        ratio = petersson.petersson_delta(12, 1, p * p, tables=tables).value / base.value
        assert abs(ratio - TAU[p * p] / p**11.0) < 1e-6, p


def test_phase_is_real_sign():
    assert petersson._phase(12) == 1
    assert petersson._phase(14) == -1
    assert petersson._phase(100) == 1


def test_monotone_truncation(tables):
    loose = petersson.petersson_delta(12, 1, 7, tail_tol=1e-6, tables=tables)
    tight = petersson.petersson_delta(12, 1, 7, tail_tol=1e-14, tables=tables)
    assert tight.cutoff >= loose.cutoff
    assert abs(tight.value - loose.value) <= loose.tail_bound


def test_small_weight_accuracy_error():
    with pytest.raises(AccuracyError):
        petersson.petersson_delta(4, 1, 1)


def test_cutoff_search_stops_at_its_budget(monkeypatch):
    # the search once doubled 16 -> 32 past the budget and raised, although 18 certifies the first tolerance
    monkeypatch.setattr(petersson, "_CUTOFF_BUDGET", 20)

    def bound(C):
        return math.exp(petersson._log_tail_bound(4.0, math.lgamma(4.0), 4.0 * math.pi, 1, C))

    assert petersson.petersson_delta(4, 1, 1, tail_tol=bound(18)).cutoff == 18
    tail_tol = 0.99 * bound(20)
    with pytest.raises(AccuracyError, match="cutoff budget 20") as failure:
        petersson.petersson_delta(4, 1, 1, tail_tol=tail_tol)
    assert failure.value.estimate > tail_tol


def test_delta_validation():
    with pytest.raises(DomainError):
        petersson.petersson_delta(11, 1, 1)
    with pytest.raises(DomainError):
        petersson.petersson_delta(12, 0, 1)


def test_deltas_match_scalar_terms(tables):
    # every cell keeps its own certified cutoff; the reference sums the
    # same terms one modulus at a time for one weight and one n
    ks = [12, 14, 16, 20, 30]
    ns = [1, 2, 7, 97, 4, 9409]
    value, tail, cutoff = petersson._deltas(ks, 1, ns, 1e-12, tables)
    assert value.shape == tail.shape == cutoff.shape == (len(ks), len(ns))
    assert len(np.unique(cutoff)) > 1
    for i, k in enumerate(ks):
        for j, n in enumerate(ns):
            cell = petersson.PeterssonValue(float(value[i, j]), float(tail[i, j]), int(cutoff[i, j]))
            assert cell == petersson.petersson_delta(k, 1, n, tables=tables)
            A = 4.0 * math.pi * math.sqrt(n)
            moduli = np.arange(1, cell.cutoff + 1)
            bessel = specfn.bessel_j(k - 1, A / moduli).tolist()
            terms = [
                arith.kloosterman_fast(1, n, c, tables) / c * j
                for c, j in zip(moduli.tolist(), bessel)
            ]
            expect = (n == 1) + 2.0 * math.pi * petersson._phase(k) * math.fsum(terms)
            eps = np.finfo(np.float64).eps
            assert abs(cell.value - expect) <= cell.cutoff * eps * 2.0 * math.pi * math.fsum(map(abs, terms))


def test_deltas_evaluate_bessel_in_bounded_blocks(tables, monkeypatch):
    # every (modulus, cell) argument of a _deltas call is evaluated exactly
    # once: in one Bessel call while they fit the block cap, else in blocks
    # of at most the cap, with the same values
    K = 40.0
    phi = specfn.indicator(1.0, 2.0)
    primes = arith.prime_grid(petersson.window_scale(K), 0.004, 0.055)
    sizes = []

    def spy(order, x):
        sizes.append(max(np.size(order), np.size(x)))
        return specfn.bessel_j(order, x)

    monkeypatch.setattr(petersson, "bessel_j", spy)
    ks = list(petersson.harmonic_series(K, primes, phi, 1, tables=tables).meta["weights"])
    value, _, cutoff = petersson._deltas(ks, 1, [1, *primes], 1e-12, tables)
    pairs = int(cutoff.sum())
    assert cutoff.max() > 1
    assert sizes == [pairs, pairs] and pairs <= petersson._BESSEL_BLOCK
    sizes.clear()
    monkeypatch.setattr(petersson, "_BESSEL_BLOCK", 50)
    blocked, _, _ = petersson._deltas(ks, 1, [1, *primes], 1e-12, tables)
    assert sizes == [50] * (pairs // 50) + [pairs % 50] * (pairs % 50 > 0)
    assert np.array_equal(blocked, value)


# ---------------------------------------------------------------------------
# weight-aspect aggregation


def test_weight_window_sign_classes(tables):
    ks_plus = list(petersson.harmonic_series(60.0, [2], BUMP, 1, tables=tables).meta["weights"])
    ks_minus = list(petersson.harmonic_series(60.0, [2], BUMP, -1, tables=tables).meta["weights"])
    assert all(k % 4 == 0 for k in ks_plus)
    assert all(k % 4 == 2 for k in ks_minus)
    assert ks_plus and ks_minus
    both = list(petersson.symsq_series(60.0, [2], BUMP, tables=tables).meta["weights"])
    assert sorted(ks_plus + ks_minus) == both
    X = 59.0**2
    for k in both:
        assert BUMP.support[0] < (k - 1) ** 2 / X < BUMP.support[1]


@pytest.mark.parametrize("K", [math.inf, -math.inf, math.nan, 1e200])
def test_weight_window_rejects_non_finite_k(K):
    # K = inf once escaped as OverflowError from math.ceil, K = 1e200 from (K-1)^2
    for sign in (1, -1):
        with pytest.raises(DomainError):
            petersson.harmonic_series(K, [2], BUMP, sign)
    with pytest.raises(DomainError):
        petersson.symsq_series(K, [2], BUMP)
    with pytest.raises(DomainError):
        petersson.window_scale(K)


def test_series_count_only_the_weights_they_sum(tables):
    # k = 100 (k = 24 for the symmetric square) puts (k-1)^2/X at the bump's
    # endpoint, where Phi = 0: count once said 11 (5) over 10 (4) summed weights
    def nonzero(K, residues):
        X = (K - 1.0) ** 2
        return tuple(k for k in range(4, 1000, 2) if k % 4 in residues and BUMP((k - 1) ** 2 / X) != 0.0)

    plus = petersson.harmonic_series(100.0, [2, 3], BUMP, 1, tables=tables)
    minus = petersson.harmonic_series(100.0, [2, 3], BUMP, -1, tables=tables)
    both = petersson.symsq_series(100.0, [2, 3], BUMP, tables=tables)
    sym = petersson.symsq_series(24.0, [2, 3], BUMP, tables=tables)
    for series, expect, n in [
        (plus, nonzero(100.0, (0,)), 10),
        (minus, nonzero(100.0, (2,)), 10),
        (both, nonzero(100.0, (0, 2)), 20),
        (sym, nonzero(24.0, (0, 2)), 4),
    ]:
        assert series.meta["weights"] == expect
        assert len(expect) == n
        assert series.count.tolist() == [n, n]
    assert plus.meta["weights"][0] == 104 and sym.meta["weights"][0] == 26
    # the two sign classes of one K partition the weights of the symmetric square
    assert not set(plus.meta["weights"]) & set(minus.meta["weights"])
    assert sorted(plus.meta["weights"] + minus.meta["weights"]) == list(both.meta["weights"])


def test_bessel_order_guard_reads_the_last_weight_of_the_class(tables):
    # at K = 356 the indicator window reaches k - 1 = 502.05: k = 502 (order 501) is
    # in the -1 class only, so the +1 class, whose last weight is 500, still runs
    phi = specfn.indicator(1.0, 2.0)
    past = f"reaches order 502.046, past the supported maximum {specfn._BESSEL_MAX_ORDER}"
    assert petersson.harmonic_series(356.0, [2], phi, 1, tables=tables).meta["weights"][-1] == 500
    with pytest.raises(DomainError, match=past):
        petersson.harmonic_series(356.0, [2], phi, -1, tables=tables)
    with pytest.raises(DomainError, match=past):
        petersson.symsq_series(356.0, [2], phi, tables=tables)


def test_harmonic_single_weight_reduces_to_hecke(tables):
    # indicator window catching exactly k = 12 (X = 121 puts (k-1)^2/X at 1)
    phi = specfn.indicator(0.9, 1.1)
    base = petersson.petersson_delta(12, 1, 1, tables=tables)
    for p in [2, 3]:
        series = petersson.harmonic_series(12.0, [p], phi, 1, tables=tables, density_normalized=False)
        assert series.meta["weights"] == (12,)
        got = series.value[0]
        expect = petersson.petersson_delta(12, 1, p, tables=tables).value / base.value * math.sqrt(p)
        assert abs(got - expect) < 1e-12


def test_symsq_single_weight_reduces_to_hecke(tables):
    phi = specfn.indicator(0.9, 1.1)
    base = petersson.petersson_delta(12, 1, 1, tables=tables)
    got = petersson.symsq_series(12.0, [2], phi, tables=tables).value[0]
    expect = petersson.petersson_delta(12, 1, 4, tables=tables).value / base.value
    assert abs(got - expect) < 1e-12
    assert abs(got - TAU[4] / 2**11.0) < 1e-6


def test_harmonic_gap_prime_is_negligible(tables_big):
    # p / X in the dead zone between the c = 1 and c = 2 lobes: every
    # kernel argument sits off the window, leaving only transition tails
    K = 60.0
    X = (K - 1.0) ** 2
    p = int(3.0 / (16 * math.pi**2) * X)
    while not all(p % q for q in range(2, math.isqrt(p) + 1)):
        p += 1
    assert densities.harmonic_murmuration_density(p / X, BUMP, 1, tables_big) == 0.0
    gap = petersson.harmonic_series(K, [p], BUMP, 1, tables=tables_big, density_normalized=False).value[0]
    p_star = int(round(1.5 / (16 * math.pi**2) * X))
    while not all(p_star % q for q in range(2, math.isqrt(p_star) + 1)):
        p_star += 1
    peak = petersson.harmonic_series(K, [p_star], BUMP, 1, tables=tables_big, density_normalized=False).value[0]
    assert abs(gap) < 0.1 * abs(peak)


def test_symsq_small_prime_negligible_at_high_weight(tables_big):
    phi = specfn.indicator(0.98, 1.02)
    series = petersson.symsq_series(101.0, [2], phi, tables=tables_big)
    assert series.meta["weights"] == (100,)
    got = series.value[0]
    # delta term absent, every kernel argument deep below the order
    assert abs(got) < 1e-30


def test_harmonic_sign_antisymmetry(tables_big):
    K = 52.0
    X = (K - 1.0) ** 2
    p_star = max(2, int(round(1.5 / (16 * math.pi**2) * X)))
    tabs = tables_big
    primes = [int(q) for q in tabs.primes if 0.8 * p_star <= q <= 1.3 * p_star]
    plus = petersson.harmonic_series(K, primes, BUMP, 1, tables=tabs)
    minus = petersson.harmonic_series(K, primes, BUMP, -1, tables=tabs)
    i = int(np.argmax(np.abs(plus.value)))
    assert plus.value[i] * minus.value[i] < 0.0


def test_harmonic_series_bridge_and_meta(tables_big):
    K = 52.0
    X = (K - 1.0) ** 2
    primes = [int(q) for q in tables_big.primes if 0.006 * X <= q <= 0.012 * X]
    raw = petersson.harmonic_series(K, primes, BUMP, 1, tables=tables_big, density_normalized=False)
    bridged = petersson.harmonic_series(K, primes, BUMP, 1, tables=tables_big)
    mass = BUMP.mass
    for i, p in enumerate(primes):
        expect = raw.value[i] * mass / (4.0 * math.pi * p / X)
        assert abs(bridged.value[i] - expect) < 1e-12 * max(1.0, abs(expect))
        alone = petersson.harmonic_series(K, [p], BUMP, 1, tables=tables_big, density_normalized=False)
        assert abs(raw.value[i] - alone.value[0]) < 1e-12
    assert bridged.meta["bridge"] == "mass(Phi)/(4*pi*y)"
    assert bridged.meta["phi_mass"] == mass
    assert "omitted_constants" in bridged.meta


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("mode", ["harmonic", "symsq"])
def test_series_carry_certified_tail_bound(tables, mode, tol):
    K = 40.0
    X = (K - 1.0) ** 2
    primes = [int(q) for q in tables.primes if 0.004 * X <= q <= 0.055 * X]

    def series(tail_tol):
        if mode == "harmonic":
            return petersson.harmonic_series(K, primes, BUMP, 1, tail_tol=tail_tol, tables=tables)
        return petersson.symsq_series(24.0, primes[:6], BUMP, tail_tol=tail_tol, tables=tables)

    default = series(tol)
    tighter = series(tol / 100)
    bound = default.meta["tail_bound"]
    assert bound.shape == default.value.shape
    assert np.all(np.isfinite(bound)) and np.all(bound > 0.0)
    assert np.all(np.abs(default.value - tighter.value) <= bound)
    binned = frame.bin_series(default, 3)
    assert len(binned.meta["tail_bound"]) == len(binned)
    assert np.all(np.abs(binned.value - frame.bin_series(tighter, 3).value) <= binned.meta["tail_bound"])


def test_series_bound_is_inf_when_the_normalization_is_not_certified():
    # at tail_tol 10 the bound on the n = 1 window sum exceeds the sum itself, so no ratio is bounded
    primes = arith.prime_grid(121.0, 0.004, 0.2)
    series = petersson.harmonic_series(12.0, primes, BUMP, 1, tail_tol=10)
    assert len(series) == len(primes) > 0
    assert np.all(np.isinf(series.meta["tail_bound"]))


def test_harmonic_series_requires_a_sign_class(tables):
    with pytest.raises(DomainError):
        petersson.harmonic_series(60.0, [2, 3], BUMP, None, tables=tables)
    with pytest.raises(DomainError):
        petersson.harmonic_series(6.0, [2], specfn.indicator(50.0, 60.0), None)


@pytest.mark.parametrize("grid", [[9, 15], [2, 3, 25], [7, 5], [5, 5], []], ids=str)
@pytest.mark.parametrize("mode", ["harmonic", "symsq"])
def test_series_reject_bad_prime_grids(mode, grid):
    # [9, 15] once returned values, and a descending grid failed with a
    # DataError only after the whole Kloosterman/Bessel pass
    with pytest.raises(DomainError, match="prime grid"):
        if mode == "harmonic":
            petersson.harmonic_series(40.0, grid, BUMP, 1)
        else:
            petersson.symsq_series(40.0, grid, BUMP)


def test_prime_grid_bounds(tables):
    X = 319.0**2
    primes = arith.prime_grid(X, 0.004, 0.055)
    assert len(primes) == 659
    assert primes == [int(q) for q in tables.primes if 0.004 * X <= q <= 0.055 * X]
    assert type(primes) is list and all(type(q) is int for q in primes)
    assert arith.prime_grid(99.0**2, 0.004, 0.055) == [int(q) for q in tables.primes if 0.004 * 99.0**2 <= q <= 0.055 * 99.0**2]
    # any window scale: a dirichlet grid at X = 5000 and the p <= 97 grid at X = 1
    assert arith.prime_grid(5000.0, 0.05, 1.0) == [int(q) for q in tables.primes if 250 <= q <= 5000]
    assert arith.prime_grid(1.0, 0.0, 97) == [int(q) for q in tables.primes if q <= 97]
    with pytest.raises(WindowError):
        arith.prime_grid(39.0**2, 0.0001, 0.0002)
    # a non-finite window once escaped as OverflowError/ValueError from math.floor
    for window in ((math.inf, 0.05, 1.0), (math.nan, 0.05, 1.0), (0.0, 0.05, 1.0), (1000.0, 0.05, math.nan)):
        with pytest.raises(DomainError):
            arith.prime_grid(*window)


def test_window_errors():
    phi = specfn.indicator(0.9, 1.1)
    with pytest.raises(WindowError):
        petersson.harmonic_series(13.0, [2], phi, -1)  # k=12 is in the +1 class
    with pytest.raises(WindowError):
        petersson.harmonic_series(6.0, [2], specfn.indicator(50.0, 60.0), 1)


@pytest.mark.parametrize("tail_tol", [0.0, -1e-12, math.nan, math.inf])
def test_series_tail_tol_must_be_finite_and_positive(tables, tail_tol):
    # tail_tol = 0 once reached math.log(0) and escaped as a bare ValueError
    phi = specfn.indicator(0.9, 1.1)
    with pytest.raises(DomainError, match="tail tolerance"):
        petersson.harmonic_series(12.0, [2], phi, 1, tail_tol=tail_tol, tables=tables)
    with pytest.raises(DomainError, match="tail tolerance"):
        petersson.symsq_series(12.0, [2], phi, tail_tol=tail_tol, tables=tables)
