from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import jcas.gamp as gamp_module
from jcas.gamp import (
    GampDivergence,
    PriorParams,
    g_in,
    g_out,
    gamp_solve,
)
from oracles import g_in_grid_search, lift_complex, map_support_enumeration

_props = settings(derandomize=True, deadline=None, max_examples=25)


def test_prior_params_validation():
    with pytest.raises(ValueError):
        PriorParams(lam=0.0)
    with pytest.raises(ValueError):
        PriorParams(theta=1.5)
    with pytest.raises(ValueError):
        PriorParams(sigma_x=0.0)
    with pytest.raises(ValueError):
        PriorParams(sigma_w=-1.0)


def test_alpha_is_outside_mass():
    q = PriorParams(lam=0.2, theta=0.5, sigma_x=0.04)
    # N(0.5, 0.04): (0,1) is +-2.5 sigma, so about 1.24% falls outside
    assert np.isclose(q.alpha, 0.2 * 2 * 0.00621, rtol=0.01)
    assert np.isclose(q.spike_mass, 1 - q.lam + q.alpha)


def _scipy_alpha(lam, theta, sigma_x):
    """alpha as computed with scipy.special.ndtr."""
    from scipy.special import ndtr

    s = np.sqrt(sigma_x)
    return float(lam * (1.0 - (ndtr((1 - theta) / s) - ndtr((0 - theta) / s))))


def test_ndtr_matches_scipy():
    from scipy.special import ndtr

    grid = np.linspace(-40.0, 40.0, 160_001)
    ours = np.array([gamp_module._ndtr(float(a)) for a in grid])
    assert np.max(np.abs(ours - ndtr(grid))) <= 4.5e-16


@pytest.mark.parametrize("lam", [0.015, 0.03])  # build_system's priors on the workloads
def test_alpha_bit_equal_to_scipy_on_workload_priors(lam):
    q = PriorParams(lam, 0.5, 0.1)
    alpha = _scipy_alpha(lam, 0.5, 0.1)
    assert q.alpha == alpha
    assert q.spike_mass == 1.0 - lam + alpha


def test_alpha_matches_scipy_on_grid():
    for lam in (0.005, 0.015, 0.03, 0.05, 0.1):
        for theta in np.linspace(0.0, 1.0, 21):
            for sigma_x in np.geomspace(1e-4, 1e2, 31):
                q = PriorParams(lam, theta, sigma_x)
                assert abs(q.alpha - _scipy_alpha(lam, theta, sigma_x)) <= 1e-16


def test_replace_recomputes_derived_masses():
    q = PriorParams(lam=0.2, theta=0.5, sigma_x=0.04)
    q2 = replace(q, lam=0.1)
    fresh = PriorParams(lam=0.1, theta=0.5, sigma_x=0.04)
    assert q2.alpha == fresh.alpha and q2.spike_mass == fresh.spike_mass
    assert q2.alpha != q.alpha
    assert q2.spike_mass == 1 - 0.1 + q2.alpha
    with pytest.raises(ValueError):
        replace(q, alpha=0.0)  # derived, not a parameter


def test_g_in_matches_grid_search():
    """Closed-form denoiser vs dense grid search of the MAP objective."""
    rng = np.random.default_rng(0)
    qs = [
        PriorParams(lam=0.05, theta=0.5, sigma_x=0.1),
        PriorParams(lam=0.3, theta=0.2, sigma_x=0.01),
    ]
    for q in qs:
        v = rng.uniform(-1.5, 2.5, 300)
        sv = 10.0 ** rng.uniform(-4, 0, 300)
        x_hat, _ = g_in(v, sv, q)
        for vi, svi, xi in zip(v, sv, x_hat):
            ref = g_in_grid_search(vi, svi, q)
            assert abs(xi - ref) <= 1e-4, (vi, svi, xi, ref)


def test_g_in_limits():
    q = PriorParams(lam=0.05, theta=0.5, sigma_x=0.1)
    # far negative v: spike wins outright
    x, d = g_in(np.array([-5.0]), np.array([0.1]), q)
    assert x[0] == 0.0 and d[0] == 0.0
    # v far above 1: Gaussian branch clips to 1, derivative 0 at the clip
    x, d = g_in(np.array([5.0]), np.array([0.01]), q)
    assert x[0] == 1.0 and d[0] == 0.0
    # interior (with a dense prior so the Gaussian branch wins):
    # derivative is sigma_x / (sigma_x + sigma_v)
    q_dense = PriorParams(lam=0.5, theta=0.5, sigma_x=0.1)
    x, d = g_in(np.array([0.5]), np.array([0.05]), q_dense)
    assert 0 < x[0] < 1
    assert np.isclose(d[0], 0.1 / 0.15)


def test_g_in_rejects_nonpositive_variance():
    q = PriorParams()
    with pytest.raises(ValueError):
        g_in(np.array([0.0]), np.array([0.0]), q)


def test_g_out_formula():
    s, d = g_out(np.array([1.0]), np.array([0.25]), np.array([0.5]), 0.25)
    assert np.isclose(s[0], 0.75 / 0.75)
    assert np.isclose(d[0], -1 / 0.75)
    with pytest.raises(ValueError):
        g_out(np.array([1.0]), np.array([0.0]), np.array([0.0]), 0.0)


def test_gamp_one_iteration_hand_stepped():
    """gamp_solve(max_iter=1) must match the update schedule written out."""
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((6, 4))
    q = PriorParams(lam=0.3, theta=0.5, sigma_x=0.1, sigma_w=0.01)
    x_true = np.array([0.8, 0.0, 0.0, 0.4])
    y = phi @ x_true
    damping = 0.7

    res = gamp_solve(phi, y, q, max_iter=1, damping=damping)

    x = np.full(4, q.theta * q.lam)
    sx = np.full(4, q.sigma_x)
    s = np.zeros(6)
    phi2 = phi**2
    sz = phi2 @ sx
    p = phi @ x - sz * s
    s_new, gp = g_out(y, p, sz, q.sigma_w)
    s = damping * s_new
    sv = 1.0 / (phi2.T @ (-gp))
    v = x + sv * (phi.T @ s)
    x_new, gin = g_in(v, sv, q)
    x = damping * x_new + (1 - damping) * x
    assert np.allclose(res.x, x, atol=1e-12)
    assert np.allclose(res.sigma_x, np.maximum(sv * gin, 1e-15 * q.sigma_x), atol=1e-12)


def test_gamp_recovers_sparse_vector():
    rng = np.random.default_rng(2)
    phi = rng.standard_normal((24, 12)) / np.sqrt(24)
    x_true = np.zeros(12)
    x_true[[3, 7]] = [0.6, 0.35]
    y = phi @ x_true
    q = PriorParams(lam=2 / 12, theta=0.5, sigma_x=0.1, sigma_w=1e-10)
    res = gamp_solve(phi, y, q)
    assert res.converged
    assert np.allclose(res.x, x_true, atol=1e-4)


def test_gamp_matches_support_enumeration_oracle():
    """MAP oracle agreement on small underdetermined instances using the
    restart mode (spot check; the acceptance suite runs the full
    200-instance version)."""
    rng = np.random.default_rng(3)
    hits = 0
    trials = 25
    for i in range(trials):
        phi = rng.standard_normal((8, 12)) / np.sqrt(8)
        x_true = np.zeros(12)
        sup = rng.choice(12, 2, replace=False)
        x_true[sup] = rng.uniform(0.2, 1.0, 2)
        y = phi @ x_true + np.sqrt(1e-6) * rng.standard_normal(8)
        q = PriorParams(lam=2 / 12, theta=0.5, sigma_x=0.1, sigma_w=1e-6)
        x_ref, sup_ref = map_support_enumeration(phi, y, q)
        res = gamp_solve(phi, y, q, restarts=8, seed=i)
        got = tuple(int(j) for j in np.flatnonzero(res.x > 1e-2))
        if got == sup_ref:
            hits += 1
            assert np.allclose(res.x, x_ref, atol=1e-2)
    assert hits / trials >= 0.9


def test_gamp_stops_at_eps_t():
    rng = np.random.default_rng(4)
    phi = rng.standard_normal((20, 10)) / np.sqrt(20)
    x_true = np.zeros(10)
    x_true[2] = 0.5
    y = phi @ x_true
    q = PriorParams(lam=0.1, theta=0.5, sigma_x=0.1)
    loose = gamp_solve(phi, y, q, eps_t=1e-2)
    assert loose.converged
    assert loose.residual <= 1e-2
    tight = gamp_solve(phi, y, q, eps_t=1e-6)
    assert loose.iterations <= tight.iterations


def _noisy_system(seed):
    """Noisy measurements: the residual cannot fall far below the noise energy."""
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((40, 20)) / np.sqrt(40)
    x_true = np.zeros(20)
    x_true[[3, 11, 17]] = [0.7, 0.4, 0.9]
    noise = 0.1 * rng.standard_normal(40)
    q = PriorParams(lam=0.15, theta=0.5, sigma_x=0.1, sigma_w=0.01)
    return phi, phi @ x_true + noise, q, 1e-3 * float(np.sum(noise**2))


# Which rule stopped a run: the residual rule returns a residual <= eps_t;
# the x-change rule returns converged with the residual of its last update,
# which was above eps_t; the cap returns not converged.


def test_gamp_stops_when_image_stops_moving(monkeypatch):
    """Below the noise floor only the x-change rule can stop the run early,
    and it stops close to where running on to the cap would end."""
    for seed in range(3):
        phi, y, q, eps_t = _noisy_system(seed)
        res = gamp_solve(phi, y, q, eps_t=eps_t)
        assert res.converged and res.residual > eps_t
        assert 1 < res.iterations < 200
        with monkeypatch.context() as m:
            m.setattr(gamp_module, "_X_TOL", 0.0)
            capped = gamp_solve(phi, y, q, eps_t=eps_t)
        assert not capped.converged and capped.iterations == 200
        rel = np.linalg.norm(res.x - capped.x) / np.linalg.norm(capped.x)
        assert rel <= 10 * gamp_module._X_TOL


def _stalling_system():
    """Noisy and underdetermined: the image change never falls to _X_TOL."""
    rng = np.random.default_rng(1)
    phi = rng.standard_normal((20, 40)) / np.sqrt(20)
    x_true = np.zeros(40)
    x_true[rng.choice(40, 5, replace=False)] = rng.uniform(0.2, 1, 5)
    y = phi @ x_true + 0.1 * rng.standard_normal(20)
    return phi, y, PriorParams(lam=5 / 40, theta=0.5, sigma_x=0.1, sigma_w=0.01)


def test_gamp_stalled_run_returns_what_the_cap_would(monkeypatch):
    """A run whose image change goes _STALL updates without a new low stops,
    not converged, with exactly what a cap at that update returns."""
    phi, y, q = _stalling_system()
    res = gamp_solve(phi, y, q, eps_t=1e-6)
    assert not res.converged and gamp_module._STALL < res.iterations < 200
    capped = gamp_solve(phi, y, q, eps_t=1e-6, max_iter=res.iterations)
    assert not capped.converged and capped.iterations == res.iterations
    assert np.array_equal(res.x, capped.x)
    assert np.array_equal(res.sigma_x, capped.sigma_x)
    assert res.residual == capped.residual
    # the stall rule is what ended it: without it the run goes to the cap
    monkeypatch.setattr(gamp_module, "_STALL", 10**6)
    assert gamp_solve(phi, y, q, eps_t=1e-6).iterations == 200


def _diverging_loop_system():
    """The GAMP system of packet 2 of trial 1 of a criterion-1 closed loop,
    whose residual runs away while its image change stops making new lows."""
    from jcas import harness, joint, sensing

    cfg = harness.ExperimentConfig(
        sweep="packets", values=(30,), trials=4, seed=11,
        n_users=6, n_ores=4, d_v=2, m=4, n_antennas=4, sparsity=0.015,
        joint=joint.JointConfig(
            n_packets=30, n_slots=64, n_pilot=0, n_f=10, n_b=1, k_s=5, ebn0_db=10.0,
        ),
    )
    runner = joint.JointRunner(*harness.build_system(cfg, 30, 1))
    runner.forward_step(1)
    runner.feedback(1)
    systems = []
    solve = sensing.gamp_solve

    def capture(phi, y, q, **kwargs):
        systems.append((phi, y, q, kwargs))
        return solve(phi, y, q, **kwargs)

    sensing.gamp_solve = capture
    try:
        trace = runner.forward_step(2)
    finally:
        sensing.gamp_solve = solve
    assert trace.diverged and len(systems) == 1
    return systems[0]


def test_gamp_stall_rule_leaves_divergence_to_its_rule():
    """The stall count pauses while the residual is above 10x its initial
    value, so a run that diverges still raises GampDivergence where it did
    (counting through the streak would stop this one at update 33)."""
    phi, y, q, kwargs = _diverging_loop_system()
    with pytest.raises(GampDivergence) as exc:
        gamp_solve(phi, y, q, **kwargs)
    assert exc.value.iteration == 33


def test_gamp_stop_rule_at_one_iteration(monkeypatch):
    phi, y, q, eps_t = _noisy_system(0)
    one = gamp_solve(phi, y, q, eps_t=eps_t, max_iter=1)
    assert not one.converged and one.iterations == 1
    # a rule that fires first wins: the residual before any update, or the
    # x change after the first one
    at_start = gamp_solve(phi, y, q, eps_t=1e6, max_iter=1)
    assert at_start.converged and at_start.iterations == 0
    monkeypatch.setattr(gamp_module, "_X_TOL", 1e6)
    moved = gamp_solve(phi, y, q, eps_t=eps_t, max_iter=1)
    assert moved.converged and moved.residual > eps_t and moved.iterations == 1
    assert np.array_equal(moved.x, one.x)
    # the change is relative to the new image: from x0 = 1 toward y = 0 the
    # first update moves about 0.55 of ||x0|| but 0.98 of ||x1||
    zero, x0 = np.zeros(40), np.ones(20)
    monkeypatch.setattr(gamp_module, "_X_TOL", 0.75)
    assert not gamp_solve(phi, zero, q, x0=x0, max_iter=1).converged
    monkeypatch.setattr(gamp_module, "_X_TOL", 1.0)
    assert gamp_solve(phi, zero, q, x0=x0, max_iter=1).converged


@_props
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    lam=st.floats(0.01, 0.9),
    theta=st.floats(0.0, 1.0),
    sigma_x=st.floats(1e-3, 1.0),
    sigma_w=st.floats(0.0, 1.0),
    scale=st.floats(0.0, 10.0),
)
def test_gamp_plain_output_in_unit_box(seed, shape, lam, theta, sigma_x, sigma_w, scale):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(shape)
    y = scale * rng.standard_normal(shape[0])
    q = PriorParams(lam=lam, theta=theta, sigma_x=sigma_x, sigma_w=sigma_w)
    try:
        x = gamp_solve(phi, y, q, max_iter=50).x
    except GampDivergence as exc:
        x = exc.x
    assert np.all((x >= 0.0) & (x <= 1.0))


def test_gamp_input_validation():
    q = PriorParams()
    with pytest.raises(ValueError):
        gamp_solve(np.zeros((3, 2)), np.zeros(4), q)
    with pytest.raises(ValueError):
        gamp_solve(np.zeros((3, 2)), np.zeros(3), q, damping=0.0)


def test_divergence_carries_state():
    err = GampDivergence("boom", np.ones(2), np.ones(2), 7, 42.0)
    assert err.iteration == 7 and err.residual == 42.0
    assert np.array_equal(err.x, np.ones(2))


def test_lift_complex_identity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    x = rng.uniform(0, 1, 4)
    h = a @ x
    phi, y = lift_complex(a, h)
    assert phi.shape == (12, 4)
    assert np.allclose(phi @ x, y)
    assert np.allclose(y[:6], h.real) and np.allclose(y[6:], h.imag)
    with pytest.raises(ValueError):
        lift_complex(a, h[:3])
