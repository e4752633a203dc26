"""Independent reference implementations used to check the fast code paths.

Everything here trades speed for obviousness: grid searches, exhaustive
enumeration, scipy's generic solvers and the straightforward einsum MPA.
"""

import itertools

import numpy as np
from scipy.optimize import lsq_linear

from jcas.mpa import DecodeResult
from jcas.scma import factor_graph

_LOG_SQRT_2PI = 0.5 * np.log(2 * np.pi)


def g_in_grid_search(v, sigma_v, q, grid_points=200_001):
    """Maximize the spike-or-Gaussian MAP objective on a dense grid over [0, 1].

    Candidates are x = 0 (spike, prior mass 1 - lam + alpha) and a dense grid
    of Gaussian-branch values (mass lam, N(theta, sigma_x) density). Ties go
    to the spike like the closed form.
    """
    xs = np.linspace(0.0, 1.0, grid_points)
    f_gauss = (
        np.log(q.lam)
        - _LOG_SQRT_2PI
        - 0.5 * np.log(q.sigma_x)
        - (xs - q.theta) ** 2 / (2 * q.sigma_x)
        - (v - xs) ** 2 / (2 * sigma_v)
    )
    f_spike = np.log(q.spike_mass) - v**2 / (2 * sigma_v)
    j = int(np.argmax(f_gauss))
    if f_gauss[j] > f_spike:
        return xs[j]
    return 0.0


def map_support_enumeration(phi, y, q, max_support=2):
    """Exact MAP of the spike-plus-truncated-Gaussian prior by support search.

    For every support of size <= max_support, solves the box-constrained
    ridge problem min ||y - phi_S x_S||^2/(2 sw) + ||x_S - theta||^2/(2 sx)
    with lsq_linear, adds the per-coordinate prior log-masses, and keeps the
    best. Returns (x, support_tuple).
    """
    n = phi.shape[1]
    sw = max(q.sigma_w, 1e-12)
    log_spike = np.log(q.spike_mass)
    log_gauss = np.log(q.lam) - _LOG_SQRT_2PI - 0.5 * np.log(q.sigma_x)

    best_obj, best_x, best_sup = -np.inf, np.zeros(n), ()
    supports = [()]
    for k in range(1, max_support + 1):
        supports.extend(itertools.combinations(range(n), k))
    for sup in supports:
        sup = tuple(sup)
        if sup:
            a = np.vstack(
                [
                    phi[:, sup] / np.sqrt(2 * sw),
                    np.eye(len(sup)) / np.sqrt(2 * q.sigma_x),
                ]
            )
            b = np.concatenate(
                [
                    y / np.sqrt(2 * sw),
                    np.full(len(sup), q.theta) / np.sqrt(2 * q.sigma_x),
                ]
            )
            sol = lsq_linear(a, b, bounds=(0.0, 1.0))
            x = np.zeros(n)
            x[list(sup)] = sol.x
        else:
            x = np.zeros(n)
        resid = y - phi @ x
        obj = (
            -np.sum(resid**2) / (2 * sw)
            - sum((x[i] - q.theta) ** 2 for i in sup) / (2 * q.sigma_x)
            + len(sup) * log_gauss
            + (n - len(sup)) * log_spike
        )
        if obj > best_obj:
            best_obj, best_x, best_sup = obj, x, sup
    return best_x, best_sup


def mpa_reference(y, h, cb, sigma2, k_it=10):
    """Per-antenna SCMA message passing with slot-major tables, one einsum per
    contraction and every extrinsic built from the prefix chain.

    Same schedule, floors and normalizations as jcas.mpa.mpa_decode, whose
    posteriors it must match to rounding and whose decisions it must match
    exactly. y is (N_T, R, N_R), h (R, N_u, N_R).
    """
    y = np.asarray(y, dtype=complex)
    h = np.asarray(h, dtype=complex)
    graph = factor_graph(cb)
    n_t, _, n_r = y.shape
    b = n_t * n_r
    m = cb.m
    sigma_eff = max(float(sigma2), 1e-300)
    tiny = 1e-300

    lik = []
    for r, users in enumerate(graph.lambda_r):
        n_l = len(users)
        idx = np.arange(m**n_l)
        digits = (idx[None, :] // (m ** np.arange(n_l - 1, -1, -1))[:, None]) % m
        cw = np.stack([cb.matrices[u][r, digits[i]] for i, u in enumerate(users)])
        mean = np.einsum("ic,in->nc", cw, h[r][list(users), :])  # (N_R, C)
        d2 = np.abs(y[:, r, :, None] - mean[None, :, :]) ** 2  # (N_T, N_R, C)
        d2 -= d2.min(axis=2, keepdims=True)
        with np.errstate(over="ignore", under="ignore"):
            t = np.exp(-d2 / sigma_eff)
        lik.append(t.reshape((b,) + (m,) * n_l))

    mu_vf = {
        (u, r): np.full((b, m), 1.0 / m)
        for u in range(cb.n_users)
        for r in graph.omega_u[u]
    }
    mu_fv = {}
    for _ in range(k_it):
        for r, users in enumerate(graph.lambda_r):
            n_l = len(users)
            msgs = [mu_vf[(u, r)] for u in users]
            prefix = [lik[r]]
            for i in range(n_l - 1):
                prefix.append(np.einsum("bm...,bm->b...", prefix[i], msgs[i]))
            for i in range(n_l - 1, -1, -1):
                out = prefix[i]
                for j in range(n_l - 1, i, -1):
                    out = np.einsum("b...m,bm->b...", out, msgs[j])
                out = out + tiny
                mu_fv[(r, users[i])] = out / out.sum(axis=1, keepdims=True)
        for u in range(cb.n_users):
            ores = graph.omega_u[u]
            for r in ores:
                prod = np.ones((b, m))
                for j in ores:
                    if j != r:
                        prod = prod * mu_fv[(j, u)]
                prod = prod + tiny
                mu_vf[(u, r)] = prod / prod.sum(axis=1, keepdims=True)

    indices = np.zeros((n_t, cb.n_users), dtype=int)
    posts = np.zeros((n_t, cb.n_users, m))
    for u in range(cb.n_users):
        logb = np.zeros((b, m))
        for j in graph.omega_u[u]:
            logb += np.log(mu_fv[(j, u)] + tiny)
        logb = logb.reshape(n_t, n_r, m).sum(axis=1)
        logb -= logb.max(axis=1, keepdims=True)
        p = np.exp(logb)
        p /= p.sum(axis=1, keepdims=True)
        posts[:, u, :] = p
        indices[:, u] = np.argmax(p, axis=1)
    return DecodeResult(indices, posts)
