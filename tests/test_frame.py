import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from murmur import frame, specfn
from murmur.errors import DataError, DomainError, WindowError

import oracles


def make_family(conductors, lam_values):
    """Synthetic family: lam(p) = lam_values[label][p]."""
    records = []
    for i, cond in enumerate(conductors):
        table = lam_values[i]
        records.append(
            frame.FamilyRecord(
                label=f"r{i}",
                conductor=float(cond),
                root_number=1 if i % 2 == 0 else -1,
                lam=lambda p, t=table: t[p],
            )
        )
    return records


PHI = specfn.indicator(1.0, 2.0)


def test_record_validation():
    with pytest.raises(DataError):
        frame.FamilyRecord("x", 10.0, 0, lam=lambda p: 0.0)
    with pytest.raises(DataError):
        frame.FamilyRecord("x", -1.0, 1, lam=lambda p: 0.0)


def test_record_raw_accessor_consistency():
    rec = frame.FamilyRecord("x", 10.0, 1, lam=lambda p: 2.0, ap=lambda p: 2.0 * math.sqrt(p))
    for p in [2, 3, 5, 7]:
        assert abs(rec.coefficient(p, "raw_sqrtp") - rec.coefficient(p, "analytic") * math.sqrt(p)) \
            <= 1e-9 * abs(rec.coefficient(p, "raw_sqrtp"))


def test_expectation_exact_one_and_constants():
    fam = make_family([10.0, 12.0, 19.0], [{2: 1.0}] * 3)
    assert frame.expectation(fam, lambda r: 1.0, 10.0, PHI) == 1.0
    assert frame.expectation(fam, lambda r: 5.5, 10.0, PHI) == 5.5


def test_expectation_window_error():
    fam = make_family([100.0], [{2: 1.0}])
    with pytest.raises(WindowError):
        frame.expectation(fam, lambda r: 1.0, 10.0, PHI)


@settings(max_examples=60)
@given(st.floats(-10, 10, allow_nan=False), st.floats(0.25, 4.0))
def test_expectation_linearity_and_phi_scale_invariance(scale, phi_scale):
    conds = [10.0, 13.0, 17.0, 19.5]
    vals = [0.5, -1.5, 2.0, 0.25]
    fam = make_family(conds, [{2: v} for v in vals])
    base = frame.expectation(fam, lambda r: r.lam(2), 10.0, PHI)
    scaled = frame.expectation(fam, lambda r: scale * r.lam(2), 10.0, PHI)
    assert math.isclose(scaled, scale * base, rel_tol=1e-12, abs_tol=1e-12)
    phi2 = specfn.WeightFunction(1.0, 2.0, lambda x: phi_scale * PHI(x), mass=phi_scale)
    rescaled = frame.expectation(fam, lambda r: r.lam(2), 10.0, phi2)
    assert math.isclose(rescaled, base, rel_tol=1e-12, abs_tol=1e-12)


def test_support_locality():
    inside = make_family([10.0, 18.0], [{2: 1.25}, {2: -0.5}])
    outside = make_family([5.0, 99.0], [{2: 7.0}, {2: -7.0}])
    with_junk = inside + outside
    a = frame.expectation(inside, lambda r: r.lam(2), 10.0, PHI)
    b = frame.expectation(with_junk, lambda r: r.lam(2), 10.0, PHI)
    assert a == b  # bit-identical


def test_murmuration_series_trivia():
    fam = make_family([10.0, 15.0], [{2: 0.0, 3: 0.0}] * 2)
    ser = frame.murmuration_series(fam, 10.0, PHI, [2, 3])
    assert np.all(ser.value == 0.0)
    single = make_family([12.0], [{2: 0.5, 3: -0.25}])
    ser = frame.murmuration_series(single, 10.0, PHI, [2, 3])
    assert list(ser.value) == [0.5, -0.25]
    assert list(ser.count) == [1, 1]


def test_series_normalization_bridge():
    fam = make_family([10.0, 14.0, 19.0], [{2: 0.3, 5: -1.0}, {2: 1.0, 5: 0.5}, {2: -2.0, 5: 0.25}])
    analytic = frame.murmuration_series(fam, 10.0, PHI, [2, 5], normalization="analytic")
    raw = frame.murmuration_series(fam, 10.0, PHI, [2, 5], normalization="raw_sqrtp")
    for i, p in enumerate([2, 5]):
        assert abs(raw.value[i] - analytic.value[i] * math.sqrt(p)) <= 1e-9 * max(1e-12, abs(raw.value[i]))


def test_series_validation():
    fam = make_family([10.0], [{2: 1.0, 3: 1.0}])
    with pytest.raises(DomainError):
        frame.murmuration_series(fam, 10.0, PHI, [])
    with pytest.raises(DomainError):
        frame.murmuration_series(fam, 10.0, PHI, [3, 2])
    # X = 0 once raised ZeroDivisionError
    for X in (0.0, -10.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            frame.murmuration_series(fam, X, PHI, [2, 3])
    with pytest.raises(DataError):
        frame.MurmurationSeries(y=np.array([1.0, 0.5]), value=np.zeros(2), count=np.ones(2), window_scale=1.0)
    with pytest.raises(DataError):
        frame.MurmurationSeries(y=np.array([1.0]), value=np.zeros(1), count=np.zeros(1), window_scale=1.0)


def test_bin_series_weighted_means():
    ser = frame.MurmurationSeries(
        y=np.array([0.1, 0.2, 0.6, 0.7]),
        value=np.array([1.0, 3.0, 5.0, 7.0]),
        count=np.array([1, 3, 2, 2]),
        window_scale=1.0,
    )
    binned = frame.bin_series(ser, 2, y_range=(0.0, 1.0))
    assert len(binned) == 2
    assert abs(binned.value[0] - (1.0 + 9.0) / 4.0) < 1e-12
    assert abs(binned.value[1] - 6.0) < 1e-12
    assert list(binned.count) == [4, 4]
    assert binned.stderr is not None


def test_bin_series_cost_follows_occupied_bins():
    # one mask over the whole series per bin once made this take seconds
    ser = frame.MurmurationSeries(
        y=np.array([0.1, 0.5, 0.9]),
        value=np.array([1.0, 2.0, 3.0]),
        count=np.array([1, 1, 1]),
        window_scale=1.0,
        meta={"tail_bound": np.array([0.1, 0.2, 0.3])},
    )
    start = time.perf_counter()
    binned = frame.bin_series(ser, 10**6, y_range=(0.0, 1.0))
    assert time.perf_counter() - start < 1.0
    assert list(binned.value) == [1.0, 2.0, 3.0]
    assert list(binned.meta["tail_bound"]) == [0.1, 0.2, 0.3]
    assert np.allclose(binned.y, [0.1, 0.5, 0.9], atol=1e-6)


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0, allow_subnormal=False), min_size=1, max_size=80, unique=True),
    st.integers(0, 2**32 - 1),
    st.integers(1, 60),
    st.one_of(st.none(), st.tuples(st.floats(-1.0, 9.0), st.floats(0.01, 12.0))),
    st.booleans(),
)
def test_bin_series_matches_per_bin_oracle(ys, seed, bins, y_range, with_bound):
    # bins grouped by occupancy keep the bits of a per-bin loop: single-sample bins
    # (stderr NaN), empty bins and the binned tail bound included
    rng = np.random.default_rng(seed)
    n = len(ys)
    meta = {"tail_bound": rng.random(n) * 1e-9} if with_bound else {}
    ser = frame.MurmurationSeries(
        y=np.sort(ys), value=rng.normal(size=n) * 10.0 ** rng.integers(-3, 4), count=rng.integers(1, 500, n),
        window_scale=1.0, meta=meta,
    )
    if y_range is not None:
        y_range = (y_range[0], y_range[0] + y_range[1])
    lo_hi = y_range if y_range is not None else (ser.y[0], ser.y[-1])
    if not lo_hi[0] < lo_hi[1]:
        return
    y, value, count, stderr, bound = oracles.bin_series_oracle(
        ser.y, ser.value, ser.count, bins, lo_hi, meta.get("tail_bound"))
    if len(y) == 0:
        with pytest.raises(WindowError):
            frame.bin_series(ser, bins, y_range)
        return
    binned = frame.bin_series(ser, bins, y_range)
    assert np.array_equal(bits(binned.y), bits(y))
    assert np.array_equal(bits(binned.value), bits(value))
    assert np.array_equal(binned.count, count)
    assert np.array_equal(bits(binned.stderr), bits(stderr))  # NaN where a bin holds one sample
    if with_bound:
        assert np.array_equal(bits(binned.meta["tail_bound"]), bits(bound))
    else:
        assert "tail_bound" not in binned.meta


def test_bin_series_unresolvable_width_is_domain_error():
    # bins of width 8e-6 at y near 1e16 (float spacing 2) once tied their midpoints
    # and failed with the misleading DataError "series y values must be strictly increasing"
    ser = frame.MurmurationSeries(
        y=1e16 + np.array([0.0, 2.0, 4.0, 6.0]), value=np.ones(4), count=np.ones(4), window_scale=1.0
    )
    with pytest.raises(DomainError, match="bin width 8e-06 is below the float resolution of y near 1e[+]16"):
        frame.bin_series(ser, 10**6, y_range=(1e16, 1e16 + 8))
    assert list(frame.bin_series(ser, 2, y_range=(1e16, 1e16 + 8)).count) == [2, 2]

def test_peak_location_quadratic_exact():
    ys = np.linspace(0.0, 2.0, 21)
    vals = -((ys - 0.77) ** 2) + 4.0
    assert abs(frame.peak_location(ys, vals) - 0.77) < 1e-9


def test_shape_residual_scale_free():
    a = np.array([1.0, 2.0, 1.0])
    assert frame.shape_residual(a, 5.0 * a) < 1e-15
    b = np.array([1.0, -2.0, 1.0])
    assert frame.shape_residual(a, b) > 0.5
