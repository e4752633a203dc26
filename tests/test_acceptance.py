"""End-to-end acceptance suite. Each test prints one CRITERION line.

Run with `pytest tests/test_acceptance.py -v -s`. The suite is Monte-Carlo
heavy (several minutes total); every run is fully seeded and deterministic.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from jcas.channel import (
    OreGrid,
    PacketChannel,
    calibrate_links,
    composite_channel,
    los_links,
    measurement_matrix,
    random_binary_pattern,
)
from jcas.gamp import PriorParams, g_in, gamp_solve
from jcas.harness import ExperimentConfig, build_system, default_geometry, run_points
from jcas.joint import JointConfig, JointRunner
from jcas.metrics import BoundParams, cs_bound, mse, operating_point, ser_union_bound
from jcas.mpa import ml_decode, mpa_decode, ser
from jcas.scene import RoomSpec, random_scene
from jcas.scma import build_codebook, default_codebook
from jcas.transceiver import noise_sigma, random_frame, transmit

from oracles import g_in_grid_search, map_support_enumeration

pytestmark = pytest.mark.slow


def _report(n, ok, detail):
    print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {n}: {detail}"


def _run_point(cfg, value, trial):
    truth, links, cb, prior, jc = build_system(cfg, value, trial)
    return JointRunner(truth, links, cb, prior, jc).run()


def _runs(cfg, value):
    """The runs of every trial of one sweep value, on the sweep's process pool."""
    results = run_points(cfg, [(value, trial) for trial in range(cfg.trials)])
    failed = [r.error for r in results if r.error is not None]
    assert not failed, f"sweep points failed: {failed}"
    return [r.run for r in results]


# -- 1: closed-loop convergence with feedback ------------------------------

def test_criterion_1_convergence():
    cfg = ExperimentConfig(
        sweep="packets", values=(30,), trials=20, seed=11,
        n_users=6, n_ores=4, d_v=2, m=4, n_antennas=4, sparsity=0.015,
        joint=JointConfig(
            n_packets=30, n_slots=64, n_pilot=0, n_f=10, n_b=1, k_s=5,
            ebn0_db=10.0,
        ),
    )
    t0 = time.perf_counter()
    mses, sers, posts = [], [], []
    for run in _runs(cfg, 30):
        mses.append([p.mse for p in run.packets])
        sers.append([p.ser for p in run.packets])
        # a skipped feedback (image settled) leaves the decode unchanged
        posts.append(
            [
                p.ser if p.ser_post_feedback is None else p.ser_post_feedback
                for p in run.packets
            ]
        )
    elapsed = time.perf_counter() - t0
    m = np.median(mses, axis=0)
    s = np.median(sers, axis=0)
    dpost = np.median(np.array(posts) - np.array(sers), axis=0)
    mse_ok = m[-1] <= 0.2 * m[0]
    ser_ok = s[-1] <= 0.5 * s[0]
    fb_ok = bool(np.all(dpost[1:] <= 0))
    time_ok = elapsed <= 600
    _report(
        1,
        mse_ok and ser_ok and fb_ok and time_ok,
        f"median MSE {m[0]:.2e}->{m[-1]:.2e} (ratio {m[-1] / m[0]:.3f} <= 0.2: "
        f"{mse_ok}), median SER {s[0]:.4f}->{s[-1]:.4f} (<= 0.5x: {ser_ok}), "
        f"post-feedback SER <= pre at every k>=2: {fb_ok}, "
        f"runtime {elapsed:.0f}s <= 600s: {time_ok}",
    )


# -- 2: SNR ordering of the final image ------------------------------------

def test_criterion_2_snr_ordering():
    cfg = ExperimentConfig(
        sweep="ebn0_db", values=(0, 5, 10), trials=20, seed=11,
        n_users=6, n_ores=4, d_v=2, m=4, n_antennas=4, sparsity=0.015,
        joint=JointConfig(
            n_packets=15, n_slots=64, n_pilot=0, n_f=10, n_b=1, k_s=5,
        ),
    )
    med = {}
    for db in cfg.values:
        finals = [run.packets[-1].mse for run in _runs(cfg, db)]
        med[db] = float(np.median(finals))
    r05 = med[0] / med[5]
    r510 = med[5] / med[10]
    ok = med[10] < med[5] < med[0] and r05 >= 1.5 and r510 >= 1.5
    _report(
        2,
        ok,
        f"median final MSE 0dB {med[0]:.2e} / 5dB {med[5]:.2e} / 10dB "
        f"{med[10]:.2e}; separations {r05:.2f}x, {r510:.2f}x (need >= 1.5x)",
    )


# -- 3 and 4 share the crowded-uplink sweep configuration ------------------

def _tradeoff_cfg(n_users, mu=0.0, eps_k=None, n_packets=10, n_f=8, ebn0_db=10.0):
    return ExperimentConfig(
        sweep="n_users", values=(n_users,), trials=8, seed=5,
        n_ores=7, d_v=2, n_antennas=4, sparsity=0.03,
        joint=JointConfig(
            n_packets=n_packets, n_slots=32, n_pilot=2, n_b=0, k_s=1,
            n_f=n_f, ebn0_db=ebn0_db, mu=mu, eps_k=eps_k,
        ),
    )


def test_criterion_3_user_count_tradeoff():
    sweep = []
    for nu in range(4, 21):
        cfg = _tradeoff_cfg(nu)
        fm, sm = [], []
        for run in _runs(cfg, nu):
            fm.append(run.packets[-1].mse)
            sm.append(float(np.mean([p.ser for p in run.packets if not p.pilot])))
        sweep.append((nu, float(np.median(fm)), float(np.median(sm))))
    m = np.array([r[1] for r in sweep])
    s = np.array([r[2] for r in sweep])
    norm = [(nu, mm / m.max(), ss / s.max()) for (nu, mm, ss) in sweep]
    best = operating_point(norm, 1.0, 1.0)
    interior = sweep[0][0] < best < sweep[-1][0]
    ok = interior and 8 <= best <= 16
    _report(
        3,
        ok,
        f"normalized equal-weight objective minimized at {best} users "
        f"(interior: {interior}, need 12 +/- 4)",
    )


def test_criterion_4_momentum():
    # above the optimum user count and with a short window, the image
    # jitters packet to packet, so smoothing has something to average out;
    # the gate threshold engages momentum once the coarse initial transient
    # (movement ~2) has passed
    results = {}
    for mu in (0.0, 0.1, 0.9):
        cfg = replace(
            _tradeoff_cfg(20, mu=mu, eps_k=1.5, n_packets=15, n_f=4, ebn0_db=8.0),
            trials=12,
        )
        mm, sm = [], []
        for run in _runs(cfg, 20):
            late = run.packets[4:]  # steady state, past the gate transient
            mm.append(run.packets[-1].mse)
            sm.append(float(np.mean([p.ser for p in late])))
        results[mu] = (float(np.median(mm)), float(np.median(sm)))
    m0, s0 = results[0.0]
    dm9 = 1 - results[0.9][0] / m0
    ds9 = 1 - results[0.9][1] / s0
    dm1 = abs(1 - results[0.1][0] / m0)
    ds1 = abs(1 - results[0.1][1] / s0)
    heavy_ok = dm9 >= 0.10 and ds9 >= 0.10
    light_ok = dm1 <= 0.05 and ds1 <= 0.05
    _report(
        4,
        heavy_ok and light_ok,
        f"mu=0.9 improves MSE {dm9:+.1%}, SER {ds9:+.1%} (need >= +10%); "
        f"mu=0.1 shifts MSE {dm1:.1%}, SER {ds1:.1%} (need <= 5%)",
    )


# -- 5: message passing agrees with exhaustive maximum likelihood ----------

def _genie_channel(cb, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(cb.n_ores, cb.n_users, 1, 2)) / np.sqrt(2)
    return h.view(complex).reshape(cb.n_ores, cb.n_users, 1)

def test_criterion_5_mpa_vs_ml():
    details = []
    ok = True
    for cb, tag in (
        (build_codebook(3, 3, m=2, d_v=2), "3-user M=2"),
        (default_codebook(), "6-user M=4"),
    ):
        h = _genie_channel(cb, 9)
        frame = random_frame(10_000, cb, 0, 9)
        sigma2 = noise_sigma(10.0, cb)
        rx = transmit(frame, h, cb, sigma2, seed=10)
        mp = mpa_decode(rx, h, cb, sigma2, k_it=10)
        ml = ml_decode(rx, h, cb)
        agree = float(np.mean(mp.indices == ml.indices))
        # noiseless: exact agreement
        rx0 = transmit(frame, h, cb, 0.0)
        mp0 = mpa_decode(rx0, h, cb, 1e-3, k_it=10)
        ml0 = ml_decode(rx0, h, cb)
        exact = bool(np.array_equal(mp0.indices, ml0.indices))
        ok = ok and agree >= 0.99 and exact
        details.append(f"{tag}: 10dB agreement {agree:.4f}, noiseless exact {exact}")
    _report(5, ok, "; ".join(details))


# -- 6: sparse solver against exhaustive support enumeration ---------------

def test_criterion_6_gamp_oracle():
    rng = np.random.default_rng(77)
    q_tmpl = dict(theta=0.5, sigma_x=0.1, sigma_w=1e-6)
    support_hits = 0
    value_ok = True
    for _ in range(200):
        n = int(rng.integers(8, 13))
        phi = rng.normal(size=(8, n))
        sup = rng.choice(n, size=2, replace=False)
        vals = np.clip(rng.normal(0.5, np.sqrt(0.1), size=2), 0.05, 1.0)
        x = np.zeros(n)
        x[sup] = vals
        y = phi @ x
        q = PriorParams(lam=2 / n, **q_tmpl)
        got = gamp_solve(phi, y, q, restarts=8, seed=3).x
        ref, _ = map_support_enumeration(phi, y, q, max_support=2)
        sup_got = frozenset(np.flatnonzero(got > 1e-2))
        sup_ref = frozenset(np.flatnonzero(ref > 1e-2))
        if sup_got == sup_ref:
            support_hits += 1
            if sup_ref and np.max(np.abs(got - ref)) > 1e-2:
                value_ok = False
    rate = support_hits / 200

    # input denoiser against a dense grid search
    worst = 0.0
    for _ in range(10_000):
        v = rng.uniform(-0.5, 1.5)
        sv = 10.0 ** rng.uniform(-4, 0)
        q = PriorParams(lam=rng.uniform(0.02, 0.5), theta=0.5, sigma_x=0.1)
        xh, _ = g_in(v, sv, q)
        xg = g_in_grid_search(v, sv, q, grid_points=20_001)
        worst = max(worst, abs(float(xh) - xg))
    gin_ok = worst <= 1e-4
    ok = rate >= 0.95 and value_ok and gin_ok
    _report(
        6,
        ok,
        f"support match {rate:.1%} of 200 instances (need >= 95%), values to "
        f"1e-2 on matches: {value_ok}; denoiser vs grid worst |dx| = "
        f"{worst:.2e} (need <= 1e-4)",
    )


# -- 7: noiseless pipeline consistency and linearity identities ------------

def test_criterion_7_noiseless_consistency():
    cfg = ExperimentConfig(
        sweep="packets", values=(8,), trials=1, seed=21,
        n_users=6, n_ores=4, d_v=2, m=4, n_antennas=8, sparsity=0.015,
        joint=JointConfig(
            n_packets=8, n_slots=64, n_pilot=3, n_f=6, n_b=0, k_s=2,
            ebn0_db=200.0,
        ),
    )
    run = _run_point(cfg, 8, 0)
    ser_zero = bool(np.all([p.ser == 0 for p in run.packets]))
    mse_small = run.packets[-1].mse <= 1e-6

    # randomized linearity identities on the scattered channel part
    spec = RoomSpec((4.0, 4.0, 4.0), (0.5, 0.5, 0.5))
    geom = default_geometry(6, 8, spec.room_dims, seed=4)
    links = calibrate_links(
        los_links(geom, spec, OreGrid.uniform_band(4)),
        random_binary_pattern(geom.irs.shape[0], 0, 4),
        expected_scatterers=8,
    )
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(20):
        irs = random_binary_pattern(geom.irs.shape[0], k, 6)
        x1 = rng.uniform(0, 1, spec.n_voxels)
        x2 = rng.uniform(0, 1, spec.n_voxels)
        a = rng.uniform(0.1, 3.0)
        r = int(rng.integers(0, 4))
        ch = PacketChannel(links, irs)
        s1 = ch.scatter(x1)[r]
        s2 = ch.scatter(x2)[r]
        s_lin = ch.scatter(a * x1 + x2)[r]
        scale = max(np.max(np.abs(s_lin)), 1e-30)
        worst = max(worst, np.max(np.abs(s_lin - a * s1 - s2)) / scale)
        # measurement matrix realizes the same linear map, row by row
        nu = int(rng.integers(0, 6))
        phi = measurement_matrix(links, irs, nu, r)
        worst = max(
            worst,
            np.max(np.abs(phi @ x1 - s1[nu])) / max(np.max(np.abs(s1[nu])), 1e-30),
        )
        # composite = static part + scattered part
        h = composite_channel(links, irs, x1, r)
        h0 = composite_channel(links, irs, np.zeros(spec.n_voxels), r)
        worst = max(
            worst, np.max(np.abs(h - h0 - s1)) / max(np.max(np.abs(h)), 1e-30)
        )
    lin_ok = worst <= 1e-10
    _report(
        7,
        ser_zero and mse_small and lin_ok,
        f"noiseless run: SER==0 all packets {ser_zero}, final MSE "
        f"{run.packets[-1].mse:.1e} <= 1e-6 {mse_small}; linearity worst "
        f"relative residual {worst:.1e} <= 1e-10: {lin_ok}",
    )


# -- 8: per-packet cost grows with the user count --------------------------

def test_criterion_8_complexity_trend():
    def system(nu):
        cfg = ExperimentConfig(
            sweep="n_users", values=(nu,), trials=1, seed=5,
            n_ores=7, d_v=2, n_antennas=4, sparsity=0.03,
            joint=JointConfig(
                n_packets=7, n_slots=32, n_pilot=2, n_b=0, k_s=1, n_f=4,
                ebn0_db=10.0,
            ),
        )
        return build_system(cfg, nu, 0)

    def step_time(system):
        runner = JointRunner(*system)
        for p in range(1, 4):
            runner.forward_step(p)  # warm the window and caches
        times = []
        for p in range(4, 7):
            t0 = time.perf_counter()
            runner.forward_step(p)
            times.append(time.perf_counter() - t0)
        return min(times)

    counts = (5, 10, 15, 20)
    systems = [system(nu) for nu in counts]
    # the counts take turns over rounds, so a slow spell of the machine
    # lands on all of them, and each count's median round is compared
    rounds = [[step_time(s) for s in systems] for _ in range(5)]
    times = np.median(rounds, axis=0)
    ok = bool(np.all(np.diff(times) >= 0))
    _report(
        8,
        ok,
        "one-packet decode+sense wall time, median of 5 rounds "
        + ", ".join(f"{nu}u {t * 1e3:.0f}ms" for nu, t in zip(counts, times))
        + f"; monotone non-decreasing: {ok}",
    )


# -- 9: metric plug-ins and bound validity ---------------------------------

def test_criterion_9_metric_bounds():
    plug_ok = (
        mse([1, 2, 3], [1, 2, 3]) == 0.0
        and mse([1, 0, 0, 0], [0, 0, 0, 0]) == 0.25
    )
    bp = BoundParams(1.0, 1.0, 1.0, 4, 4, 4, 512)
    bound_ok = np.isclose(cs_bound(bp), (64 / np.log(512)) ** -0.5, rtol=1e-12)

    cb = build_codebook(2, 2, m=2, d_v=2)
    h = np.ones((2, 2, 1), dtype=complex)
    h[:, 1, 0] = [1j, -1j]
    sigma2 = noise_sigma(6.0, cb)
    bound = ser_union_bound(cb, lambda rng: h, sigma2, samples=200)
    n_slots = 100_000
    frame = random_frame(n_slots, cb, 0, 1)
    rx = transmit(frame, h, cb, sigma2, seed=2)
    measured = ser(ml_decode(rx, h, cb).indices, frame)
    stderr = np.sqrt(measured * (1 - measured) / (n_slots * cb.n_users))
    union_ok = bound >= measured - 1.96 * stderr
    _report(
        9,
        plug_ok and bound_ok and union_ok,
        f"mse/cs_bound plug-ins exact: {plug_ok and bound_ok}; union bound "
        f"{bound:.5f} >= measured {measured:.5f} - 1.96se ({stderr:.5f}): "
        f"{union_ok}",
    )
