import math

import numpy as np
import pytest
import scipy.integrate

from murmur import arith, densities, specfn
from murmur.errors import DataError, DomainError

import oracles

PI = math.pi
BUMP = specfn.bump(1.0, 2.0)


# ---------------------------------------------------------------------------
# weight-aspect density


def test_density_zero_below_support(tables):
    a = BUMP.support[0]
    y = 0.9 * a / (16 * PI**2)
    assert densities.harmonic_murmuration_density(y, BUMP, 1, tables) == 0.0


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf, [0.01, math.nan]], ids=str)
def test_density_needs_finite_y(y):
    # nan once failed with a bare ValueError and inf with an OverflowError
    with pytest.raises(DomainError, match="finite y"):
        densities.harmonic_murmuration_density(y, BUMP, 1)


def test_density_single_term_window(tables):
    # y placed so only c = 1 contributes
    y = 1.5 / (16 * PI**2)
    assert 4 * PI * math.sqrt(y / 1.0) < 2.0
    expect = 4 * PI * BUMP(16 * PI**2 * y)
    got = densities.harmonic_murmuration_density(y, BUMP, 1, tables)
    assert abs(got - expect) < 1e-12
    assert abs(densities.harmonic_murmuration_density(y, BUMP, -1, tables) + expect) < 1e-12


def test_density_skips_non_squarefree(tables):
    # a y where c = 4 would sit inside the window contributes nothing from it
    y = 1.5 * 16 / (16 * PI**2)  # c = 4 maps the argument onto the bump peak
    got = densities.harmonic_murmuration_density(y, BUMP, 1, tables)
    manual = 0.0
    for c in range(1, 60):
        if oracles.mobius_naive(c) == 0:
            continue
        manual += BUMP(16 * PI**2 * y / c**2) / (c * c * oracles.phi_naive(c))
    assert abs(got - 4 * PI * manual) < 1e-12
    # c = 4 term would have been the peak; make sure it is genuinely absent
    assert BUMP(16 * PI**2 * y / 16) == 1.0


def test_admissible_moduli_match_bruteforce_scan(tables):
    # the density's analytic modulus range misses no c < 10 000 where the weight is nonzero
    for y in [0.001, 0.009, 0.05, 0.3, 2.0, 17.0]:
        total = 0.0
        for c in range(1, 10_000):
            weight = BUMP(16.0 * PI**2 * y / c**2)
            if weight != 0.0 and oracles.mobius_naive(c) != 0:
                total += weight / (c * c * oracles.phi_naive(c))
        assert densities.harmonic_murmuration_density(y, BUMP, 1, tables) == 4.0 * PI * total, y


@pytest.mark.parametrize("phi", [BUMP, specfn.indicator(1.0, 2.0), specfn.indicator(0.5, 3.0)], ids=["bump", "ind-1-2", "ind-0.5-3"])
@pytest.mark.parametrize("sign", [1, -1])
def test_harmonic_density_array_equals_scalar_calls(tables, phi, sign):
    # y from below the support to c <= 31, including every support edge a c^2/(16 pi^2), b c^2/(16 pi^2)
    edges = [e * c**2 / (16 * PI**2) for e in phi.support for c in range(1, 13)]
    ys = np.concatenate([[-1.0, 0.0], np.linspace(0.0, 3.0, 241), edges])
    array = densities.harmonic_murmuration_density(ys, phi, sign)
    scalar = [densities.harmonic_murmuration_density(y, phi, sign, tables) for y in ys.tolist()]
    assert np.array_equal(array, scalar)

    # every y here has its moduli below 32
    squarefree_phi = {c: oracles.phi_naive(c) for c in range(1, 100) if oracles.mobius_naive(c) != 0}

    def term_by_term(y):
        total = 0.0
        for c, totient in squarefree_phi.items():
            total += phi(16.0 * PI**2 * y / c**2) / (c * c * totient)
        return sign * 4.0 * PI * total

    assert scalar == [term_by_term(y) for y in ys.tolist()]
    assert all(type(v) is float for v in scalar)
    assert np.array_equal(densities.harmonic_murmuration_density(ys[:6].reshape(2, 3), phi, sign), array[:6].reshape(2, 3))


def test_densities_size_their_own_tables(tables):
    # no tables, or tables too short for the moduli: each density covers what it reads
    dist, tail = densities.window_murmuration_density((0.5, 9.0), 10, 1.0)
    ref, ref_tail = densities.window_murmuration_density((0.5, 9.0), 10, 1.0, tables)
    assert dist.atoms == ref.atoms and len(dist.atoms) > 10 and tail == ref_tail
    assert densities.window_murmuration_density((0.5, 9.0), 10, 1.0, arith.sieve(5))[0].atoms == ref.atoms
    short = densities.harmonic_murmuration_density(0.1, BUMP, 1, arith.sieve(2))
    assert short == densities.harmonic_murmuration_density(0.1, BUMP, 1, tables) == 0.4919490255240065
    assert densities.harmonic_murmuration_density(0.1, BUMP, 1) == short


# ---------------------------------------------------------------------------
# atomic density


def test_nu_atom_examples(tables):
    dist, _ = densities.window_murmuration_density((3.9, 4.1), 20, 1.0, tables)
    atom = dist.atom_at(4.0)
    assert atom is not None
    assert abs(atom[1] - 8.0 / 3.0) < 1e-12

    dist, _ = densities.window_murmuration_density((0.5, 1.5), 20, 1.0, tables)
    atom = dist.atom_at(1.0)
    assert atom is not None
    assert abs(atom[1] - 1.0) < 1e-12


def test_nu_prefactor_scales_masses(tables):
    base, _ = densities.window_murmuration_density((0.5, 9.5), 30, 1.0, tables)
    doubled, _ = densities.window_murmuration_density((0.5, 9.5), 30, 2.0, tables)
    assert abs(doubled.total_atom_mass() - 2.0 * base.total_atom_mass()) < 1e-12


def test_nu_endpoint_halving(tables):
    interior, _ = densities.window_murmuration_density((3.9, 5.0), 50, 1.0, tables)
    at_edge, _ = densities.window_murmuration_density((4.0, 5.0), 50, 1.0, tables)
    assert abs(at_edge.atom_at(4.0)[1] - 0.5 * interior.atom_at(4.0)[1]) < 1e-12


def test_nu_squarefree_square_structure(tables):
    dist, _ = densities.window_murmuration_density((0.5, 50.0), 500, 1.0, tables)
    a1_locs = set()
    for loc, _ in dist.atoms:
        r = math.sqrt(loc)
        if abs(r - round(r)) < 1e-9:
            q = round(r)
            if arith.is_squarefree(q, tables):
                a1_locs.add(q * q)
    brute = {q * q for q in range(1, 8) if arith.is_squarefree(q, tables) and 0.5 <= q * q <= 50.0}
    assert brute <= a1_locs


@pytest.mark.parametrize(
    "E, q_max",
    [((0.5, 50.0), 400), ((4.0, 5.0), 200), ((2.25, 9.0), 200), ((0.5625, 4.0), 200), ((4 / 9, 4.0), 200)],
)
def test_nu_atoms_equal_fraction_oracle(tables, E, q_max):
    dist, _ = densities.window_murmuration_density(E, q_max, 1.0, tables)
    assert dist.atoms == oracles.window_density_oracle(E, q_max, 1.0)


def test_nu_non_dyadic_endpoint_halved(tables):
    # 4/9 has no exact binary form; the atom at (2/3)^2 still counts as an endpoint
    dist, _ = densities.window_murmuration_density((4 / 9, 4.0), 20, 1.0, tables)
    loc, mass = dist.atoms[0]
    assert loc == 4 / 9
    assert mass == 0.5 * (1.0 / 3.0) * (2 / 3) ** 3


def test_nu_tail_certified_by_doubling(tables):
    d1, tail1 = densities.window_murmuration_density((0.5, 9.0), 100, 1.0, tables)
    d2, _ = densities.window_murmuration_density((0.5, 9.0), 200, 1.0, tables)
    assert abs(d2.total_atom_mass() - d1.total_atom_mass()) <= tail1


def test_nu_validation(tables):
    with pytest.raises(DomainError):
        densities.window_murmuration_density((-1.0, 2.0), 10, 1.0, tables)
    with pytest.raises(DomainError):
        densities.window_murmuration_density((2.0, 2.0), 10, 1.0, tables)
    # E = [0.5, inf] once produced atoms with an infinite tail bound
    for E in ((0.5, math.inf), (math.nan, 2.0), (0.5, math.nan)):
        with pytest.raises(DomainError):
            densities.window_murmuration_density(E, 10, 1.0, tables)


def test_distribution_value_invariants():
    zero = lambda x: 0.0
    with pytest.raises(DataError):
        densities.DistributionValue([1.0, 0.5], [1.0, 1.0], zero)
    with pytest.raises(DataError, match="distinct"):
        densities.DistributionValue([0.5, 1.0, 1.0], [1.0, 1.0, 2.0], zero)
    with pytest.raises(DataError):
        densities.DistributionValue([1.0], [math.inf], zero)
    with pytest.raises(DataError):
        densities.DistributionValue([0.5, 1.0], [1.0], zero)
    with pytest.raises(DataError):
        densities.DistributionValue([[0.5, 1.0]], [[1.0, 2.0]], zero)
    mine = np.array([0.5, 1.0])
    dist = densities.DistributionValue(mine, (1.0, 2.0), zero)
    assert dist.atoms == ((0.5, 1.0), (1.0, 2.0))
    assert dist.atom_at(1.0) == (1.0, 2.0) and dist.atom_at(0.75) is None and dist.atom_at(2.0) is None
    assert dist.total_atom_mass() == 3.0
    # read-only views: no copy, and the caller's array stays writable
    assert np.shares_memory(dist.locations, mine) and mine.flags.writeable
    for column in (dist.locations, dist.masses):
        assert column.dtype == np.float64 and not column.flags.writeable


def test_nu_blocks_keep_every_bit(tables, monkeypatch):
    # blocks of 7 candidates and of 5 atoms give the columns, sum and lookups of one block per q
    ref, ref_tail = densities.window_murmuration_density((4 / 9, 9.0), 120, 1.0, tables)
    monkeypatch.setattr(densities, "_CANDIDATE_BLOCK", 7)
    monkeypatch.setattr(densities, "_ATOM_BLOCK", 5)
    dist, tail = densities.window_murmuration_density((4 / 9, 9.0), 120, 1.0, tables)
    assert tail == ref_tail
    assert dist.locations.tobytes() == ref.locations.tobytes()
    assert dist.masses.tobytes() == ref.masses.tobytes()
    assert dist.total_atom_mass() == ref.total_atom_mass() == math.fsum(ref.masses.tolist())
    assert [len(m) for _, m in dist.atom_blocks()][:2] == [5, 5]
    for loc, mass in ref.atoms[::97]:
        assert dist.atom_at(loc) == (loc, mass)


def test_nu_memory_per_atom(tables):
    # the (location, mass) tuples this replaced held 152 bytes per atom; the columns hold 16
    import tracemalloc

    densities.window_murmuration_density((0.5, 50.0), 800, 1.0, tables)  # builds the sieve tables read
    tracemalloc.start()
    try:
        dist, _ = densities.window_murmuration_density((0.5, 50.0), 800, 1.0, tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    atoms = len(dist.locations)
    assert atoms == 175_789
    assert dist.locations.nbytes + dist.masses.nbytes == 16 * atoms
    assert peak <= 64 * atoms, peak / atoms


# ---------------------------------------------------------------------------
# SO kernels


def test_so_kernel_values():
    even = densities.so_kernel("even")
    odd = densities.so_kernel("odd")
    assert even.continuous(0.0) == 2.0
    assert abs(even.continuous(0.5) - 1.0) < 1e-15
    assert abs(odd.continuous(0.25) - (1.0 - 2.0 / PI)) < 1e-15
    assert even.atoms == ()
    assert odd.atoms == ((0.0, 1.0),)


def test_so_kernel_fourier_values():
    odd = densities.so_kernel_fourier("odd")
    even = densities.so_kernel_fourier("even")
    assert odd.continuous(0.5) == 0.5
    assert even.continuous(2.0) == 1.0
    assert even.continuous(0.5) == 0.5
    assert odd.atoms == ((0.0, 1.0),)
    assert even.atoms == ((0.0, 1.0),)


def test_parity_sum_identities_exact():
    even = densities.so_kernel("even")
    odd = densities.so_kernel("odd")
    even_hat = densities.so_kernel_fourier("even")
    odd_hat = densities.so_kernel_fourier("odd")
    for x in np.linspace(-5.0, 5.0, 101):
        assert even.continuous(float(x)) + odd.continuous(float(x)) == 2.0
        assert even_hat.continuous(float(x)) + odd_hat.continuous(float(x)) == 1.0


def test_fourier_transform_numeric():
    # windowed transform of sin(2 pi x)/(2 pi x) approaches the half box
    import warnings

    f = lambda x: np.sinc(2.0 * x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        for T, tol in [(50.0, 2e-2), (200.0, 2e-2)]:
            for y in [0.0, 0.3, 0.6, 0.89, 1.11, 1.5, 2.0]:
                val, _ = scipy.integrate.quad(f, -T, T, weight="cos", wvar=2 * PI * y, limit=400)
                expect = 0.5 if abs(y) < 1.0 else 0.0
                assert abs(val - expect) < tol, (T, y, val)


def test_one_level_pairing_closed_form():
    zero = specfn.shifted_bump(-0.5, 0.5)
    phi_hat = specfn.shifted_bump(-0.9, 0.9)
    zero_weight = specfn.WeightFunction(0.1, 0.2, lambda x: 0.0 * x, mass=0.0)
    assert densities.one_level_pairing(zero_weight, "odd") == 0.0
    integral = specfn.quadrature(lambda x: float(phi_hat(x)), (-0.9, 0.9), tol=1e-12).value
    odd = densities.one_level_pairing(phi_hat, "odd")
    assert abs(odd - (phi_hat(0.0) + 0.5 * integral)) < 1e-9
    even = densities.one_level_pairing(phi_hat, "even")
    # difference is the integral of phi_hat against (1 - box), zero inside [-1, 1]
    assert abs(even - odd) < 1e-9
    del zero


def test_one_level_pairing_difference_outside_box():
    wide = specfn.shifted_bump(-1.8, 1.8)
    even = densities.one_level_pairing(wide, "even")
    odd = densities.one_level_pairing(wide, "odd")
    outside = specfn.quadrature(
        lambda x: float(wide(x)) if abs(x) > 1.0 else 0.0, (-1.8, 1.8), tol=1e-9,
        breakpoints=[-1.0, 1.0],
    ).value
    assert abs((even - odd) - outside) < 1e-7


def test_one_level_pairing_support_check():
    too_wide = specfn.shifted_bump(-2.5, 2.5)
    with pytest.raises(DomainError):
        densities.one_level_pairing(too_wide, "odd")
