"""Generalized approximate message passing with an interval-truncated
Bernoulli-Gaussian MAP denoiser.

The prior on each coordinate is a spike at zero with mass (1 - lam + alpha)
plus a Gaussian N(theta, sigma_x) carrying mass lam, truncated to [0, 1];
alpha is the Gaussian mass falling outside (0, 1), folded back onto the
spike. All sigmas are variances. PriorParams holds the prior alone; the
measurement noise variance sigma_w is an argument of the solve, since it
comes from each system's measurements. The solver works on real systems; a
complex measurement stack A x = h enters as [Re A; Im A] x = [Re h; Im h]
(x is real), as sensing.sense builds it. A run stops when it settles (the
residual or the image change falls below its tolerance), when its image
change has stopped making new lows, at its iteration cap, or, when the
residual runs away, by raising GampDivergence.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PriorParams",
    "GampResult",
    "GampDivergence",
    "g_in",
    "g_out",
    "gamp_solve",
]

_LOG_SQRT_2PI = 0.5 * np.log(2 * np.pi)
# relative image change at which a run has settled: ||x_t - x_{t-1}|| <= _X_TOL ||x_t||
_X_TOL = 1e-4
# updates a run may go without a new low of its relative image change before
# it stops, not converged: the runs that never settle reach their lowest
# change within about 60 updates and do not beat it again
_STALL = 30


def _ndtr(a: float) -> float:
    """Standard normal CDF of a scalar, by cephes' ndtr branches on math.erf.

    scipy.special.ndtr would do, but importing it doubles jcas's import time.
    """
    x = a * math.sqrt(0.5)
    if abs(x) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


@dataclass(frozen=True)
class PriorParams:
    """Truncated Bernoulli-Gaussian prior parameters (variances, not stds).

    alpha (the Gaussian mass outside (0, 1)), spike_mass (1 - lam + alpha)
    and the MAP log-densities of the two branches, log_gauss and log_spike,
    are derived from (lam, theta, sigma_x) once, at construction; the
    instance is frozen, and dataclasses.replace constructs anew, so they
    cannot go stale.
    """

    lam: float = 0.05
    theta: float = 0.5
    sigma_x: float = 0.1
    alpha: float = field(init=False, repr=False, compare=False)
    spike_mass: float = field(init=False, repr=False, compare=False)
    log_gauss: float = field(init=False, repr=False, compare=False)
    log_spike: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise ValueError(f"sparsity coefficient must lie in (0, 1), got {self.lam}")
        if not 0 <= self.theta <= 1:
            raise ValueError(f"prior mean must lie in [0, 1], got {self.theta}")
        if not 0 < self.sigma_x < np.inf:
            raise ValueError(f"prior variance must be positive and finite, got {self.sigma_x}")
        s = np.sqrt(self.sigma_x)
        inside = _ndtr((1 - self.theta) / s) - _ndtr((0 - self.theta) / s)
        alpha = float(self.lam * (1.0 - inside))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "spike_mass", 1.0 - self.lam + alpha)
        if not 0 < self.spike_mass <= 1:
            raise ValueError("1 - lam + alpha must lie in (0, 1]")
        log_gauss = np.log(self.lam) - _LOG_SQRT_2PI - 0.5 * np.log(self.sigma_x)
        object.__setattr__(self, "log_gauss", log_gauss)
        object.__setattr__(self, "log_spike", np.log(self.spike_mass))


class GampDivergence(RuntimeError):
    """Residual kept growing; carries the last iterate for inspection."""

    def __init__(self, message, x, sigma_x, iteration, residual):
        super().__init__(message)
        self.x = x
        self.sigma_x = sigma_x
        self.iteration = iteration
        self.residual = residual


def g_in(v_hat, sigma_v, q: PriorParams):
    """MAP input denoiser: argmax_x of the prior-penalized quadratic.

    Evaluated in closed form as the better of the spike branch (x = 0) and
    the Gaussian branch's quadratic maximizer clipped to [0, 1]. Returns
    (x_hat, derivative); the derivative is sigma_x / (sigma_x + sigma_v) on
    the interior of the Gaussian branch and 0 at the spike and at clipped
    boundaries. Ties go to the spike.
    """
    v = np.asarray(v_hat, dtype=float)
    sv = np.asarray(sigma_v, dtype=float)
    if np.any(sv <= 0):
        raise ValueError("sigma_v must be strictly positive")

    x_g = (q.sigma_x * v + sv * q.theta) / (q.sigma_x + sv)
    x_c = np.clip(x_g, 0.0, 1.0)
    f_gauss = q.log_gauss - (x_c - q.theta) ** 2 / (2 * q.sigma_x) - (v - x_c) ** 2 / (2 * sv)
    f_spike = q.log_spike - v**2 / (2 * sv)

    gauss_wins = f_gauss > f_spike
    x_hat = np.where(gauss_wins, x_c, 0.0)
    interior = gauss_wins & (x_g > 0.0) & (x_g < 1.0)
    deriv = np.where(interior, q.sigma_x / (q.sigma_x + sv), 0.0)
    return x_hat, deriv


def g_out(y, p_hat, sigma_z, sigma_w):
    """Output function: s_hat = (y - p_hat)/(sigma_w + sigma_z), derivative its negative reciprocal."""
    denom = np.asarray(sigma_w) + np.asarray(sigma_z)
    if np.any(denom <= 0):
        raise ValueError("sigma_w + sigma_z must be strictly positive")
    s_hat = (np.asarray(y) - np.asarray(p_hat)) / denom
    return s_hat, -1.0 / denom


@dataclass
class GampResult:
    """One solve's outcome. x is the image and sigma_x its final posterior
    variances; iterations is the number of updates done; residual is the
    last squared residual computed; converged is set when the residual or
    the x-change rule stopped the run (see gamp_solve)."""

    x: np.ndarray = field(repr=False)
    sigma_x: np.ndarray = field(repr=False)
    iterations: int = 0
    residual: float = np.inf
    converged: bool = False


def _map_objective(phi, y, x, q: PriorParams, sw) -> float:
    """Log of the (unnormalized) MAP objective at a candidate x, for noise
    variance sw > 0.

    Coordinates at exactly 0 take the spike mass; nonzero coordinates take
    the Gaussian-branch density times its mass lam.
    """
    x = np.asarray(x, dtype=float)
    on = x != 0
    return float(
        -np.sum((y - phi @ x) ** 2) / (2 * sw)
        - np.sum((x[on] - q.theta) ** 2) / (2 * q.sigma_x)
        + np.count_nonzero(on) * q.log_gauss
        + np.count_nonzero(~on) * q.log_spike
    )


def _polish_support(phi, y, q: PriorParams, sw, support):
    """Best x restricted to a support: box-constrained ridge LS toward theta."""
    from scipy.optimize import lsq_linear  # slow to import; only restarts > 0 get here

    n = phi.shape[1]
    x = np.zeros(n)
    if support:
        sub = list(support)
        a = np.vstack(
            [phi[:, sub] / np.sqrt(2 * sw), np.eye(len(sub)) / np.sqrt(2 * q.sigma_x)]
        )
        b = np.concatenate(
            [y / np.sqrt(2 * sw), np.full(len(sub), q.theta) / np.sqrt(2 * q.sigma_x)]
        )
        x[sub] = lsq_linear(a, b, bounds=(0.0, 1.0)).x
    return x


def _gamp_iterate(phi, y, q, sigma_w, x0, eps_t, max_iter, damping) -> GampResult:
    n = phi.shape[1]
    phi2 = phi**2
    x_hat = np.full(n, q.theta * q.lam) if x0 is None else np.asarray(x0, float).copy()
    sig_x = np.full(n, q.sigma_x)
    s_hat = np.zeros(phi.shape[0])
    var_floor = 1e-15 * q.sigma_x

    res0 = None
    bad_streak = 0
    residual = np.inf
    low, since_low = np.inf, 0
    for t in range(max_iter):
        # each matrix's two products run back to back (phi.T then phi across
        # iterations, phi2 then phi2.T within one), so a phi that nearly fits
        # in cache is read from it the second time
        z_hat = phi @ x_hat
        sig_z = phi2 @ sig_x
        p_hat = z_hat - sig_z * s_hat
        residual = float(np.sum((y - z_hat) ** 2))
        if residual <= eps_t:
            return GampResult(x_hat, sig_x, t, residual, True)
        if res0 is None:
            res0 = residual
        bad_streak = bad_streak + 1 if residual > 10 * res0 else 0
        if bad_streak >= 5:
            raise GampDivergence(
                f"residual {residual:.3g} stayed above 10x initial for 5 iterations",
                x_hat, sig_x, t, residual,
            )

        s_new, gp_out = g_out(y, p_hat, sig_z, sigma_w)
        s_hat = damping * s_new + (1 - damping) * s_hat
        sig_s = -gp_out

        sig_v = 1.0 / (phi2.T @ sig_s)
        v_hat = x_hat + sig_v * (phi.T @ s_hat)

        x_new, gp_in = g_in(v_hat, sig_v, q)
        x_old = x_hat
        x_hat = damping * x_new + (1 - damping) * x_hat
        sig_x = np.maximum(sig_v * gp_in, var_floor)
        step, size = np.linalg.norm(x_hat - x_old), np.linalg.norm(x_hat)
        if step <= _X_TOL * size:
            return GampResult(x_hat, sig_x, t + 1, residual, True)
        change = step / size if size > 0 else np.inf
        if change < low:
            low, since_low = change, 0
        elif bad_streak == 0:  # a diverging run is left to the divergence rule
            since_low += 1
            if since_low >= _STALL:
                return GampResult(x_hat, sig_x, t + 1, residual, False)

    return GampResult(x_hat, sig_x, max_iter, residual, False)


def gamp_solve(
    phi,
    y,
    q: PriorParams,
    sigma_w,
    eps_t=None,
    max_iter=200,
    damping=0.7,
    x0=None,
    restarts=0,
    seed=0,
) -> GampResult:
    """Iterative solve of y = phi @ x + w under the truncated BG prior q,
    for measurement noise w of variance sigma_w (finite, >= 0) per entry.

    Follows the standard update schedule (linear step, output step, input
    step) with damping on the s and x iterates; damping=1 disables it. Two
    rules stop the run early, and either counts as converged: the squared
    residual sum(|y - z|^2) drops below eps_t (checked before an update),
    or an update moves the image by at most 1e-4 relative,
    ||x_t - x_{t-1}|| <= 1e-4 * ||x_t|| (checked after the damped x
    update). eps_t defaults to the noise floor, the larger of 1e-12 times
    the measurement energy and sigma_w times the number of measurements:
    the residual cannot fall below the noise energy. Model error (e.g. from
    wrong decodes) may keep it above even that; the x-change rule ends such
    runs once the image settles. A third rule ends a run whose image never
    settles: once the relative x change has gone 30 updates without a new
    low, the run stops, not converged, with its current iterate, as a cap
    at that update would (the count pauses while the residual is above 10x
    its initial value, so a diverging run is left to the divergence rule).
    Otherwise it stops, not converged, after max_iter updates. Raises
    GampDivergence when the residual exceeds 10x its initial value for 5
    consecutive iterations.

    restarts > 0 switches to a robust mode for hard (e.g. underdetermined)
    systems: the plain run plus `restarts` randomly re-initialized runs each
    propose candidate supports, every candidate is polished by a
    box-constrained ridge fit, and the candidate with the best MAP objective
    (under a noise variance floored just above zero) wins. Matched-filter
    support pairs are added to the candidate pool. It counts as converged
    when the winner meets eps_t. The plain mode (restarts=0) never polishes.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0] or phi.size == 0:
        raise ValueError(f"bad system shapes: phi {phi.shape}, y {y.shape}")
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    if not 0 <= sigma_w < np.inf:
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma_w}")
    if eps_t is None:
        eps_t = max(1e-12 * float(np.sum(y**2)), sigma_w * len(y))
    if restarts == 0:
        return _gamp_iterate(phi, y, q, sigma_w, x0, eps_t, max_iter, damping)

    n = phi.shape[1]
    rng = np.random.default_rng(seed)
    proposals = {()}
    inits = [x0] + [
        rng.uniform(0, 1, n) * (rng.random(n) < 0.25) for _ in range(restarts)
    ]
    last = None
    for start in inits:
        try:
            res = _gamp_iterate(phi, y, q, sigma_w, start, eps_t, max_iter, damping)
        except GampDivergence:
            continue
        last = res
        order = np.argsort(res.x)[::-1]
        proposals.add(tuple(sorted(int(i) for i in np.flatnonzero(res.x > 1e-2))))
        proposals.add((int(order[0]),))
        proposals.add(tuple(sorted(int(i) for i in order[:2])))
    top = np.argsort(np.abs(phi.T @ y))[::-1][:4]
    for pair in itertools.combinations(top, 2):
        proposals.add(tuple(sorted(int(i) for i in pair)))

    sw = max(sigma_w, 1e-12)
    best_x, best_obj = None, -np.inf
    for sup in proposals:
        cand = _polish_support(phi, y, q, sw, sup)
        obj = _map_objective(phi, y, cand, q, sw)
        if obj > best_obj:
            best_x, best_obj = cand, obj
    residual = float(np.sum((y - phi @ best_x) ** 2))
    sig_x = last.sigma_x if last is not None else np.full(n, q.sigma_x)
    iters = last.iterations if last is not None else 0
    return GampResult(best_x, sig_x, iters, residual, residual <= eps_t)

