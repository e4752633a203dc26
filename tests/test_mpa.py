import itertools
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jcas import mpa
from jcas.mpa import ml_decode, mpa_decode, ser
from jcas.scma import build_codebook, default_codebook
from jcas.transceiver import noise_sigma, random_frame, transmit

from oracles import mpa_reference


def _rand_channel(cb, n_ant, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((cb.n_ores, cb.n_users, n_ant)) + 1j * rng.standard_normal(
        (cb.n_ores, cb.n_users, n_ant)
    )
    return scale * h / np.sqrt(2)


def _ml_bruteforce(y, h, cb):
    """Reference ML: explicit loop over every joint combination."""
    n_t = y.shape[0]
    out = np.zeros((n_t, cb.n_users), dtype=int)
    for t in range(n_t):
        best, best_d = None, np.inf
        for combo in itertools.product(range(cb.m), repeat=cb.n_users):
            mean = np.zeros((cb.n_ores, h.shape[2]), dtype=complex)
            for u, m in enumerate(combo):
                mean += h[:, u, :] * cb.matrices[u][:, m][:, None]
            d = np.sum(np.abs(y[t] - mean) ** 2)
            if d < best_d:
                best_d, best = d, combo
        out[t] = best
    return out


def test_ml_matches_bruteforce_oracle():
    cb = build_codebook(3, 3, m=2, d_v=2)
    h = _rand_channel(cb, 2, 0)
    frame = random_frame(20, cb, 0, 1)
    rx = transmit(frame, h, cb, noise_sigma(6.0, cb), seed=2)
    fast = ml_decode(rx, h, cb).indices
    slow = _ml_bruteforce(rx, h, cb)
    assert np.array_equal(fast, slow)


def test_ml_noiseless_is_exact():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 3)
    frame = random_frame(50, cb, 0, 4)
    rx = transmit(frame, h, cb, 0.0)
    assert np.array_equal(ml_decode(rx, h, cb).indices, frame)


def test_ml_guard_rejects_huge_books():
    cb = build_codebook(13, 6, m=4, d_v=2)  # 26 bits > guard
    h = _rand_channel(cb, 1, 0)
    with pytest.raises(ValueError, match="too large"):
        ml_decode(np.zeros((1, 6, 1), dtype=complex), h, cb)


def test_mpa_collision_free_posterior_oracle():
    """With d_v=1 each user occupies one ORE alone; the MPA posterior must
    equal the normalized single-user likelihood combined across antennas."""
    cb = build_codebook(2, 2, m=4, d_v=1)
    h = _rand_channel(cb, 3, 5)
    frame = random_frame(10, cb, 0, 6)
    sigma2 = noise_sigma(8.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=7)
    res = mpa_decode(rx, h, cb, sigma2)
    for u in range(2):
        r = cb.graph.omega_u[u][0]
        for t in range(10):
            logp = np.zeros(cb.m)
            for m in range(cb.m):
                mean = h[r, u, :] * cb.matrices[u][r, m]
                logp[m] = -np.sum(np.abs(rx[t, r, :] - mean) ** 2) / sigma2
            p = np.exp(logp - logp.max())
            p /= p.sum()
            assert np.allclose(res.posteriors[t, u], p, atol=1e-8)


def test_mpa_posteriors_normalized():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 8)
    frame = random_frame(16, cb, 0, 9)
    sigma2 = noise_sigma(10.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=10)
    res = mpa_decode(rx, h, cb, sigma2)
    assert np.allclose(res.posteriors.sum(axis=2), 1.0)
    assert np.array_equal(res.indices, np.argmax(res.posteriors, axis=2))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(6, 4, 2), (3, 3, 2), (8, 4, 2), (2, 2, 1), (4, 4, 3)]),
    m=st.sampled_from([2, 4]),
    n_ant=st.integers(1, 4),
    n_slots=st.integers(1, 8),
    ebn0_db=st.floats(-10.0, 30.0),
    scale=st.floats(0.0, 10.0),
    k_it=st.integers(1, 6),
)
def test_mpa_posteriors_sum_to_one(seed, shape, m, n_ant, n_slots, ebn0_db, scale, k_it):
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=m, d_v=d_v)
    h = _rand_channel(cb, n_ant, seed, scale)
    sigma2 = noise_sigma(ebn0_db, cb)
    rx = transmit(random_frame(n_slots, cb, 0, seed), h, cb, sigma2, seed=seed)
    post = mpa_decode(rx, h, cb, sigma2, k_it=k_it).posteriors
    assert post.shape == (n_slots, n_users, m)
    assert np.all(post >= 0)
    assert np.allclose(post.sum(axis=2), 1.0, rtol=0, atol=1e-12)


def test_mpa_agrees_with_ml_at_high_snr():
    cb = default_codebook()
    h = _rand_channel(cb, 4, 11)
    frame = random_frame(400, cb, 0, 12)
    sigma2 = noise_sigma(10.0, cb)
    rx = transmit(frame, h, cb, sigma2, seed=13)
    a = mpa_decode(rx, h, cb, sigma2).indices
    b = ml_decode(rx, h, cb).indices
    assert np.mean(a == b) >= 0.99


def test_mpa_noiseless_exact():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 14)
    frame = random_frame(100, cb, 0, 15)
    rx = transmit(frame, h, cb, 0.0)
    res = mpa_decode(rx, h, cb, sigma2=0.0)
    assert np.array_equal(res.indices, frame)


def test_mpa_ser_improves_with_snr():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 16)
    frame = random_frame(600, cb, 0, 17)
    sers = []
    for db in (0.0, 6.0, 12.0):
        sigma2 = noise_sigma(db, cb)
        rx = transmit(frame, h, cb, sigma2, seed=18)
        sers.append(ser(mpa_decode(rx, h, cb, sigma2).indices, frame))
    assert sers[0] > sers[2]
    assert sers[1] >= sers[2]


def test_mpa_input_validation():
    cb = default_codebook()
    h = _rand_channel(cb, 2, 0)
    with pytest.raises(ValueError):
        mpa_decode(np.zeros((2, 3, 2), dtype=complex), h, cb, 0.1)
    with pytest.raises(ValueError, match="received tensor shape"):
        mpa_decode(np.zeros((4, 2), dtype=complex), h, cb, 0.1)  # no slot axis
    with pytest.raises(ValueError):
        mpa_decode(np.zeros((2, 4, 2), dtype=complex), h, cb, 0.1, k_it=0)


@pytest.mark.parametrize("sigma2", [-0.1, float("nan"), float("inf"), -float("inf")])
def test_mpa_rejects_bad_sigma2(sigma2):
    cb = default_codebook()
    h = _rand_channel(cb, 2, 0)
    with pytest.raises(ValueError, match="sigma2"):
        mpa_decode(np.zeros((2, 4, 2), dtype=complex), h, cb, sigma2)


@pytest.mark.parametrize("n_ant", [1, 4, 16])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("shape", [(6, 4, 2), (20, 7, 2), (14, 4, 2), (2, 2, 1), (4, 4, 3)])
def test_mpa_matches_reference(shape, m, n_ant):
    """Same decisions as the einsum reference and posteriors equal to rounding,
    on regular (6 users, 4 OREs, d_f=3) and irregular (20 on 7, d_f 5-6)
    books, a book whose 7 users per ORE split unevenly (3 + 4), one whose
    FNs each hold a single user, and one whose users each sit on 3 FNs, so
    each VN->FN message is a product of two FN->VN messages.

    Cases: noiseless with sigma2 = 0, noisy at 4 dB with its sigma2, the
    noisy frame decoded with sigma2 = 0, where only the per-slot rescale of
    the likelihood keeps every slot's table from underflowing, and 40 dB with
    its sigma2, where the expanded squared distances cancel most."""
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=m, d_v=d_v)
    h = _rand_channel(cb, n_ant, 19)
    frame = random_frame(12, cb, 0, 20)
    noisy_sigma2 = noise_sigma(4.0, cb)
    noisy = transmit(frame, h, cb, noisy_sigma2, seed=21)
    high_sigma2 = noise_sigma(40.0, cb)
    cases = [
        (transmit(frame, h, cb, 0.0), 0.0),
        (noisy, noisy_sigma2),
        (noisy, 0.0),
        (transmit(frame, h, cb, high_sigma2, seed=22), high_sigma2),
    ]
    for y, sigma2 in cases:
        for k_it in (1, 10):
            fast = mpa_decode(y, h, cb, sigma2, k_it)
            ref = mpa_reference(y, h, cb, sigma2, k_it)
            assert np.array_equal(fast.indices, ref.indices)
            assert np.allclose(fast.posteriors, ref.posteriors, rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", [(20, 7, 2), (4, 4, 3)])
def test_pickled_codebook_decodes_bit_identically(shape):
    """A book sent to a pool worker is rebuilt there with its own edge tables
    and decodes to the same bits as the original."""
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=4, d_v=d_v)
    h = _rand_channel(cb, 4, 23)
    sigma2 = noise_sigma(6.0, cb)
    rx = transmit(random_frame(16, cb, 0, 24), h, cb, sigma2, seed=25)
    a = mpa_decode(rx, h, cb, sigma2)
    back = pickle.loads(pickle.dumps(cb))
    b = mpa_decode(rx, h, back, sigma2)
    assert np.array_equal(a.indices, b.indices)
    assert a.posteriors.tobytes() == b.posteriors.tobytes()


def _spy_pools(monkeypatch):
    """Record, per pass started through mpa._start, whether a helper ran it
    (the recursion below a pass never uses one)."""
    seen = []
    start = mpa._start

    def spy(pool, fn, *args):
        seen.append(pool is not None)
        return start(pool, fn, *args)

    monkeypatch.setattr(mpa, "_start", spy)
    return seen


@pytest.mark.parametrize("k_it", [1, 10])
@pytest.mark.parametrize("n_ant", [1, 4])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("shape", [(20, 7, 2), (4, 4, 3), (14, 4, 2), (6, 4, 2)])
def test_helper_thread_decodes_bit_identically(monkeypatch, shape, m, n_ant, k_it):
    """Every decode threaded (threshold 0) and none threaded give the same bytes."""
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=m, d_v=d_v)
    h = _rand_channel(cb, n_ant, 26)
    sigma2 = noise_sigma(6.0, cb)
    rx = transmit(random_frame(12, cb, 0, 27), h, cb, sigma2, seed=28)
    seen = _spy_pools(monkeypatch)
    out = {}
    for threshold in (0, 1 << 62):
        monkeypatch.setattr(mpa, "_THREAD_ENTRIES", threshold)
        seen.clear()
        out[threshold] = mpa_decode(rx, h, cb, sigma2, k_it)
        assert any(seen) == (threshold == 0)
    a, b = out.values()
    assert a.posteriors.tobytes() == b.posteriors.tobytes()
    assert np.array_equal(a.indices, b.indices)


@pytest.mark.parametrize(
    "shape, n_ant, n_slots, threaded",
    [((20, 7, 2), 4, 32, True), ((6, 4, 2), 16, 64, False)],
    ids=["crowded", "sweep"],
)
def test_helper_thread_engages_on_large_tables(monkeypatch, shape, n_ant, n_slots, threaded):
    """At the real threshold the criterion-4 shape (20 users on 7 OREs, M = 4,
    4 antennas x 32 slots: 2,621,440 entries in its largest group) uses the
    helper and the 16-antenna default book (262,144 entries) does not."""
    n_users, n_ores, d_v = shape
    cb = build_codebook(n_users, n_ores, m=4, d_v=d_v)
    h = _rand_channel(cb, n_ant, 29)
    sigma2 = noise_sigma(8.0, cb)
    rx = transmit(random_frame(n_slots, cb, 0, 30), h, cb, sigma2, seed=31)
    seen = _spy_pools(monkeypatch)
    mpa_decode(rx, h, cb, sigma2, k_it=1)
    assert any(seen) == threaded


class _Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_helper_thread_is_joined_on_every_exit(monkeypatch, where):
    """No thread outlives a threaded decode, also when a pass raises on the
    calling thread (after the helper has started) or on the helper itself;
    the error propagates with its own type."""
    cb = build_codebook(6, 4, m=4, d_v=2)
    h = _rand_channel(cb, 2, 32)
    sigma2 = noise_sigma(6.0, cb)
    rx = transmit(random_frame(8, cb, 0, 33), h, cb, sigma2, seed=34)
    monkeypatch.setattr(mpa, "_THREAD_ENTRIES", 0)
    before = threading.active_count()
    mpa_decode(rx, h, cb, sigma2)
    assert threading.active_count() == before

    if where == "caller":
        calls = []
        joint = mpa._joint

        def failing_joint(msgs):
            calls.append(None)
            if len(calls) == 2:  # the first is the operand of the helper's pass
                raise _Boom("caller")
            return joint(msgs)

        monkeypatch.setattr(mpa, "_joint", failing_joint)
    else:
        likelihood = mpa._likelihood

        def failing_likelihood(*args):
            if threading.current_thread() is not threading.main_thread():
                raise _Boom("helper")
            return likelihood(*args)

        monkeypatch.setattr(mpa, "_likelihood", failing_likelihood)
    with pytest.raises(_Boom, match=where):
        mpa_decode(rx, h, cb, sigma2)
    assert threading.active_count() == before
