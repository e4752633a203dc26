import numpy as np
import pytest

import jcas.metrics
from jcas.metrics import BoundParams, cs_bound, mse, operating_point, ser_union_bound
from jcas.mpa import ml_decode, ser
from jcas.scma import build_codebook
from jcas.transceiver import noise_sigma, random_frame, transmit


def test_mse_plugin_examples():
    assert mse([1, 2, 3], [1, 2, 3]) == 0.0
    assert mse([1, 0, 0, 0], [0, 0, 0, 0]) == 0.25
    base = mse([1, 0], [0, 0])
    assert mse([2, 0], [0, 0]) == 4 * base


def test_mse_symmetry_and_validation():
    a, b = [0.2, 0.7], [0.9, 0.1]
    assert mse(a, b) == mse(b, a)
    with pytest.raises(ValueError):
        mse([1, 2], [1])
    with pytest.raises(ValueError):
        mse([], [])


def test_cs_bound_spot_values():
    # p = 1 gives exponent -1/2: bound = c * r_p / sqrt(budget / log N_s)
    bp = BoundParams(1.0, 1.0, 1.0, 4, 4, 4, 512)
    assert cs_bound(bp) == pytest.approx((64 / np.log(512)) ** -0.5)
    # when the measurement budget equals e * log(N_s), the bound is e^(-1/2)
    bp2 = BoundParams(1.0, 1.0, 1.0, 17, 1, 1, 512)
    assert np.isclose(cs_bound(bp2), np.e**-0.5, rtol=0.01)  # 17 ~ e*log(512)


def test_cs_bound_monotonicity():
    base = BoundParams(1.0, 1.0, 1.0, 4, 4, 4, 512)
    b0 = cs_bound(base)
    assert cs_bound(BoundParams(1.0, 1.0, 1.0, 8, 4, 4, 512)) < b0
    assert cs_bound(BoundParams(1.0, 1.0, 1.0, 4, 8, 4, 512)) < b0
    assert cs_bound(BoundParams(1.0, 1.0, 1.0, 4, 4, 8, 512)) < b0
    assert np.isclose(cs_bound(BoundParams(1.0, 2.0, 1.0, 4, 4, 4, 512)), 2 * b0)


def test_cs_bound_validation():
    with pytest.raises(ValueError):
        BoundParams(1.0, 1.0, 2.0, 1, 1, 1, 512)
    with pytest.raises(ValueError):
        BoundParams(0.0, 1.0, 1.0, 1, 1, 1, 512)
    with pytest.raises(ValueError):
        BoundParams(1.0, 1.0, 1.0, 0, 1, 1, 512)


def _toy():
    cb = build_codebook(2, 2, m=2, d_v=2)
    h = np.ones((2, 2, 1), dtype=complex)
    h[:, 1, 0] = [1j, -1j]
    return cb, h


def test_union_bound_upper_bounds_measured_ser():
    cb, h = _toy()
    sigma2 = noise_sigma(6.0, cb)
    bound = ser_union_bound(cb, lambda rng: h, sigma2, samples=100)
    frame = random_frame(100_000, cb, 0, 1)
    rx = transmit(frame, h, cb, sigma2, seed=2)
    measured = ser(ml_decode(rx, h, cb).indices, frame)
    assert bound >= measured


def test_union_bound_limits_and_monotonicity():
    cb, h = _toy()
    assert ser_union_bound(cb, lambda rng: h, 1e-30, samples=100) < 1e-12
    lo = ser_union_bound(cb, lambda rng: h, 0.1, samples=100)
    hi = ser_union_bound(cb, lambda rng: h, 0.1, samples=100, d_interference=0.5)
    assert hi > lo


def test_union_bound_subsampling_close_to_full(monkeypatch):
    cb, h = _toy()
    full = ser_union_bound(cb, lambda rng: h, 0.2, samples=100)
    monkeypatch.setattr(jcas.metrics, "_MAX_PAIR_TERMS", 8)
    sub = ser_union_bound(cb, lambda rng: h, 0.2, samples=100)
    assert np.isclose(sub, full, rtol=0.5)


def test_union_bound_conventions_and_validation():
    cb, h = _toy()
    with pytest.raises(ValueError):
        ser_union_bound(cb, lambda rng: h, 0.2, samples=10)


def test_operating_point_selection():
    sweep = [(8, 0.5, 0.1), (12, 0.2, 0.05), (16, 0.3, 0.02)]
    assert operating_point(sweep, 1.0, 1.0) == 12
    assert operating_point(sweep, 1.0, 0.0) == 12
    assert operating_point(sweep, 0.0, 1.0) == 16
    # ties break to the smallest user count
    assert operating_point([(4, 1.0, 0.0), (6, 1.0, 0.0)], 1.0, 1.0) == 4
    assert operating_point([(10, 0.1, 0.1)], 1.0, 1.0) == 10
    with pytest.raises(ValueError):
        operating_point([], 1.0, 1.0)
    with pytest.raises(ValueError):
        operating_point(sweep, -1.0, 1.0)
