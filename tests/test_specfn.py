import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmur import petersson, specfn
from murmur.errors import AccuracyError, DomainError

import oracles


# ---------------------------------------------------------------------------
# Bessel J


def test_bessel_trivia():
    assert specfn.bessel_j(0, 0.0) == 1.0
    assert specfn.bessel_j(11, 0.0) == 0.0
    # power-series oracle value, frozen
    assert abs(specfn.bessel_j(1, 2.0) - 0.5767248077568734) < 1e-12


def test_bessel_against_series_oracle_sample():
    rng = np.random.default_rng(5)
    for _ in range(60):
        nu = int(rng.integers(0, 51))
        x = float(rng.uniform(0.01, 100.0))
        ref = float(oracles.bessel_series_mp(nu, x))
        mine = specfn.bessel_j(nu, x)
        assert abs(mine - ref) <= 1e-10 * max(abs(ref), 1e-300), (nu, x)


def test_bessel_large_range_absolute():
    for nu, x in [(0, 99999.0), (3, 90000.0), (120, 80.0), (500, 125.0), (500, 1001.0), (400, 800.0)]:
        ref = float(oracles.bessel_series_mp(nu, x, dps=60)) if x <= 150 else None
        if ref is None:
            import mpmath
            ref = float(mpmath.besselj(nu, x))
        assert abs(specfn.bessel_j(nu, x) - ref) <= 1e-12, (nu, x)


def test_bessel_recurrence_residual():
    x = np.linspace(0.5, 200.0, 40)
    for nu in range(1, 61, 7):
        jm, j0, jp = specfn.bessel_j([[nu - 1], [nu], [nu + 1]], x)
        resid = np.abs(jm + jp - (2.0 * nu / x) * j0)
        assert np.all(resid <= 1e-8 * np.maximum(1.0, np.abs(j0))), nu


def test_bessel_small_argument_log_bound():
    for nu in range(2, 200, 13):
        for x in [nu / 8.0, nu / 4.0, nu / 2.0]:
            if x == 0.0:
                continue
            v = specfn.bessel_j(nu, x)
            if v == 0.0:
                continue
            log_bound = nu * math.log(x / 2.0) - math.lgamma(nu + 1)
            assert math.log(abs(v)) <= log_bound + 1e-9


def test_bessel_regime_continuity():
    # straddle both switch lines closely enough that the function's own
    # slope contributes < 1e-10; any jump visible is a regime mismatch
    for nu in [0, 3, 10, 40, 120, 500]:
        for boundary in [max(8.0, nu / 4.0), max(30.0, 2.0 * nu)]:
            below = specfn.bessel_j(nu, boundary * (1 - 1e-12))
            above = specfn.bessel_j(nu, boundary * (1 + 1e-12))
            assert abs(below - above) <= 1e-9 * max(1.0, abs(below))


def test_bessel_window_grid_against_mpmath():
    # the engine's ranges: window orders up to 500, symsq arguments 4 pi p / c up to about 1300
    import mpmath

    rng = np.random.default_rng(17)
    order = np.concatenate([rng.integers(0, 501, 150), np.arange(99, 140, 4)])
    x = np.concatenate([rng.uniform(0.0, 1300.0, 150), 4.0 * math.pi * math.sqrt(97.0) / np.arange(1, 12)])
    mine = specfn.bessel_j(order, x)
    ref = [float(mpmath.besselj(int(n), mpmath.mpf(float(v)))) for n, v in zip(order, x)]
    assert np.max(np.abs(mine - ref)) <= 1e-13


def test_bessel_tiny_arguments_against_mpmath():
    import mpmath

    for x in (1e-300, 2.0**-401, 2.0**-399, 1e-50, 1e-5):
        order = np.arange(0, 501)
        mine = specfn.bessel_j(order, x)
        ref = np.array([float(mpmath.besselj(int(n), mpmath.mpf(x))) for n in order])
        assert np.all(np.abs(mine - ref) <= 4 * np.finfo(float).eps * np.abs(ref) + 1e-300), x


def test_bessel_grid_equals_scalar_calls_across_a_bucket_boundary():
    # orders 127 and 128 start their recurrences at different orders while
    # x < 128; each value of a grid (numpy columns) must still be the bits
    # of its own scalar call (Python floats), whatever else the call holds
    x = np.concatenate([np.linspace(0.05, 300.0, 97), [1e-3, 127.5, 128.0, 1e4]])
    assert np.any(specfn._start_order(127, x) != specfn._start_order(128, x))
    order = np.array([[127], [128], [0], [500]])
    grid = specfn.bessel_j(order, x)
    assert np.array_equal(grid, [[specfn.bessel_j(int(n), float(v)) for v in x] for n in order[:, 0]])
    assert np.array_equal(specfn.bessel_j(order[:2], x[:3]), grid[:2, :3])


def test_bump_mass_constant_is_k1_minus_k0_at_one_half():
    import mpmath
    import scipy.special

    exact = mpmath.besselk(1, 0.5) - mpmath.besselk(0, 0.5)
    assert abs(specfn._K1_MINUS_K0_HALF - exact) <= math.ulp(specfn._K1_MINUS_K0_HALF)
    assert specfn._K1_MINUS_K0_HALF == float(scipy.special.k1(0.5) - scipy.special.k0(0.5))
    assert specfn.bump(1.0, 2.0).mass == 0.6034501612189381


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        specfn.bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        specfn.bessel_j(501, 1.0)
    with pytest.raises(DomainError):
        specfn.bessel_j(2, -0.5)
    with pytest.raises(DomainError):
        specfn.bessel_j(2, 2e5)


# ---------------------------------------------------------------------------
# weight functions


def test_bump_closed_form():
    phi = specfn.bump(1.0, 2.0)
    assert phi(1.5) == 1.0
    assert phi(0.999) == 0.0
    assert phi(2.0000001) == 0.0
    expect = math.exp(-1.0 / (1.0 - 0.25)) * math.e
    assert abs(phi(1.25) - expect) < 1e-15


def test_weight_support_exactness():
    for phi in [specfn.bump(1.0, 2.0), specfn.indicator(1.0, 2.0)]:
        assert phi(1.0 - 1e-12) == 0.0
        assert phi(2.0 + 1e-12) == 0.0


@given(st.floats(0.1, 5.0), st.floats(0.01, 4.0))
def test_bump_range_and_support(a, width):
    b = a + width
    phi = specfn.bump(a, b)
    xs = np.linspace(a - 1.0, b + 1.0, 41)
    vals = phi(xs)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)  # peak-normalised
    outside = (xs < a) | (xs > b)
    assert np.all(vals[outside] == 0.0)


def test_bump_smooth_at_edges():
    # finite-difference derivative tends to zero approaching the support edge
    phi = specfn.bump(1.0, 2.0)
    steps = [1e-2, 1e-3, 1e-4]
    deriv = [abs(phi(1.0 + h) - phi(1.0)) / h for h in steps]
    assert deriv[0] > deriv[1] > deriv[2]
    assert deriv[2] < 1e-30


def test_bump_domain_error():
    with pytest.raises(DomainError):
        specfn.bump(2.0, 1.0)
    with pytest.raises(DomainError):
        specfn.bump(-1.0, 1.0)


@pytest.mark.parametrize(
    "make",
    [lambda: specfn.indicator(1.0, math.inf), lambda: specfn.bump(1.0, math.inf),
     lambda: specfn.WeightFunction(-math.inf, 1.0, lambda x: 0.0 * x, mass=1.0)],
    ids=["indicator", "bump", "WeightFunction"],
)
def test_weight_support_must_be_finite(make):
    # indicator(1, inf) was once accepted, and the quadratic series then failed with a bare OverflowError
    with pytest.raises(DomainError, match="finite"):
        make()


def test_indicator_includes_endpoints():
    phi = specfn.indicator(1.0, 2.0)
    assert phi(1.0) == 1.0
    assert phi(2.0) == 1.0
    assert phi(1.5) == 1.0
    assert phi(0.5) == 0.0


@pytest.mark.parametrize(
    "phi",
    [
        pytest.param(make(a, b), id=f"{make.__name__}-{a}-{b}")
        for make in (specfn.bump, specfn.indicator)
        for a, b in ((1.0, 2.0), (0.5, 3.0), (1.0, 1.0001))
    ]
    + [pytest.param(specfn.shifted_bump(-0.9, 0.9), id="custom--0.9-0.9")],
)
def test_weight_mass_matches_quadrature(phi):
    a, b = phi.support
    reference = specfn.quadrature(lambda x: float(phi(x)), (a, b), tol=1e-13 * (b - a)).value
    # the bump evaluator rounds t = (x - center)/half to about eps*|x|/(b - a),
    # which caps how well any x-space quadrature of it can resolve the mass
    rel_tol = 1e-14 + 4 * np.finfo(float).eps * max(abs(a), abs(b)) / (b - a)
    assert abs(phi.mass - reference) <= rel_tol * reference


def test_shifted_bump_allows_origin():
    phi = specfn.shifted_bump(-0.5, 0.5)
    assert phi(0.0) == 1.0
    assert phi(0.75) == 0.0


def test_truncation_policy_validation():
    # the truncation policy is the trace-formula tail tolerance: finite and > 0
    for tail_tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            petersson.petersson_delta(12, 1, 1, tail_tol=tail_tol)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_trivia():
    assert abs(specfn.quadrature(lambda x: 1.0, (0.0, 1.0)).value - 1.0) < 1e-12
    assert abs(specfn.quadrature(lambda x: x * x, (0.0, 1.0)).value - 1.0 / 3.0) < 1e-12


def test_quadrature_sinc_against_simpson_oracle():
    f = lambda x: np.sinc(2.0 * x)
    mine = specfn.quadrature(f, (-3.0, 3.0), tol=1e-10)
    ref = oracles.simpson(f, -3.0, 3.0, 40001)
    assert abs(mine.value - ref) < 1e-8
    assert mine.error <= 1e-10


def test_quadrature_integrates_once_when_it_warns(monkeypatch):
    # an IntegrationWarning once made quadrature run scipy.integrate.quad a second time on the same integrand
    import scipy.integrate

    quad, calls = scipy.integrate.quad, []
    monkeypatch.setattr(scipy.integrate, "quad", lambda *args, **kw: calls.append(args) or quad(*args, **kw))
    with pytest.raises(AccuracyError, match=r"did not reach tolerance 1e-09: The maximum number of subdivisions \(400\)") as err:
        specfn.quadrature(lambda x: math.sin(1.0 / x), (0.0, 1.0), tol=1e-9)
    assert len(calls) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, error = quad(lambda x: math.sin(1.0 / x), 0.0, 1.0, epsabs=1e-9, epsrel=0.0, limit=400)
    assert (err.value.best, err.value.estimate) == (value, error)


def test_quadrature_error_estimate_and_failure():
    res = specfn.quadrature(lambda x: math.exp(-x * x), (0.0, 5.0), tol=1e-9)
    assert res.error <= 1e-9
    rough = lambda x: math.sin(1.0 / (abs(x) + 1e-12))
    with pytest.raises(AccuracyError) as err:
        specfn.quadrature(rough, (0.0, 1.0), tol=1e-14)
    assert err.value.best is not None
