"""Generalized approximate message passing with an interval-truncated
Bernoulli-Gaussian MAP denoiser.

The prior on each coordinate is a spike at zero with mass (1 - lam + alpha)
plus a Gaussian N(theta, sigma_x) carrying mass lam, truncated to [0, 1];
alpha is the Gaussian mass falling outside (0, 1), folded back onto the
spike. All sigmas are variances. The solver works on real systems; complex
measurement stacks are bridged via lift_complex.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

__all__ = [
    "PriorParams",
    "GampResult",
    "GampDivergence",
    "g_in",
    "g_out",
    "map_objective",
    "gamp_solve",
    "lift_complex",
]

_LOG_SQRT_2PI = 0.5 * np.log(2 * np.pi)


@dataclass(frozen=True)
class PriorParams:
    """Truncated Bernoulli-Gaussian prior parameters (variances, not stds).

    alpha (the Gaussian mass outside (0, 1)) and spike_mass (1 - lam + alpha)
    are derived from (lam, theta, sigma_x) once, at construction; the
    instance is frozen, and dataclasses.replace constructs anew, so they
    cannot go stale.
    """

    lam: float = 0.05
    theta: float = 0.5
    sigma_x: float = 0.1
    sigma_w: float = 0.0
    renormalized: bool = False  # renormalize the truncated Gaussian branch
    alpha: float = field(init=False, repr=False, compare=False)
    spike_mass: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.lam < 1:
            raise ValueError(f"sparsity coefficient must lie in (0, 1), got {self.lam}")
        if not 0 <= self.theta <= 1:
            raise ValueError(f"prior mean must lie in [0, 1], got {self.theta}")
        if self.sigma_x <= 0:
            raise ValueError("prior variance must be positive")
        if self.sigma_w < 0:
            raise ValueError("noise variance must be nonnegative")
        s = np.sqrt(self.sigma_x)
        inside = ndtr((1 - self.theta) / s) - ndtr((0 - self.theta) / s)
        alpha = float(self.lam * (1.0 - inside))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "spike_mass", 1.0 - self.lam + alpha)
        if not 0 < self.spike_mass <= 1:
            raise ValueError("1 - lam + alpha must lie in (0, 1]")


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
    log_gauss_mass = np.log(q.lam)
    if q.renormalized:
        log_gauss_mass -= np.log1p(-q.alpha / q.lam)
    f_gauss = (
        log_gauss_mass
        - _LOG_SQRT_2PI
        - 0.5 * np.log(q.sigma_x)
        - (x_c - q.theta) ** 2 / (2 * q.sigma_x)
        - (v - x_c) ** 2 / (2 * sv)
    )
    f_spike = np.log(q.spike_mass) - v**2 / (2 * sv)

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
    x: np.ndarray = field(repr=False)
    sigma_x: np.ndarray = field(repr=False)
    iterations: int = 0
    residual: float = np.inf
    converged: bool = False


def map_objective(phi, y, x, q: PriorParams) -> float:
    """Log of the (unnormalized) MAP objective at a candidate x.

    Coordinates at exactly 0 take the spike mass; nonzero coordinates take
    the Gaussian-branch density times its mass lam.
    """
    sw = max(q.sigma_w, 1e-12)
    x = np.asarray(x, dtype=float)
    on = x != 0
    log_gauss = np.log(q.lam) - _LOG_SQRT_2PI - 0.5 * np.log(q.sigma_x)
    return float(
        -np.sum((y - phi @ x) ** 2) / (2 * sw)
        - np.sum((x[on] - q.theta) ** 2) / (2 * q.sigma_x)
        + np.count_nonzero(on) * log_gauss
        + np.count_nonzero(~on) * np.log(q.spike_mass)
    )


def _polish_support(phi, y, q: PriorParams, support):
    """Best x restricted to a support: box-constrained ridge LS toward theta."""
    from scipy.optimize import lsq_linear  # slow to import; only restarts > 0 get here

    n = phi.shape[1]
    x = np.zeros(n)
    if support:
        sw = max(q.sigma_w, 1e-12)
        sub = list(support)
        a = np.vstack(
            [phi[:, sub] / np.sqrt(2 * sw), np.eye(len(sub)) / np.sqrt(2 * q.sigma_x)]
        )
        b = np.concatenate(
            [y / np.sqrt(2 * sw), np.full(len(sub), q.theta) / np.sqrt(2 * q.sigma_x)]
        )
        x[sub] = lsq_linear(a, b, bounds=(0.0, 1.0)).x
    return x


def _gamp_iterate(phi, y, q, x0, eps_t, max_iter, damping) -> GampResult:
    n = phi.shape[1]
    phi2 = phi**2
    x_hat = np.full(n, q.theta * q.lam) if x0 is None else np.asarray(x0, float).copy()
    sig_x = np.full(n, q.sigma_x)
    s_hat = np.zeros(phi.shape[0])
    var_floor = 1e-15 * q.sigma_x

    res0 = None
    bad_streak = 0
    residual = np.inf
    for t in range(max_iter):
        sig_z = phi2 @ sig_x
        z_hat = phi @ x_hat
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

        s_new, gp_out = g_out(y, p_hat, sig_z, q.sigma_w)
        s_hat = damping * s_new + (1 - damping) * s_hat
        sig_s = -gp_out

        sig_v = 1.0 / (phi2.T @ sig_s)
        v_hat = x_hat + sig_v * (phi.T @ s_hat)

        x_new, gp_in = g_in(v_hat, sig_v, q)
        x_hat = damping * x_new + (1 - damping) * x_hat
        sig_x = np.maximum(sig_v * gp_in, var_floor)

    return GampResult(x_hat, sig_x, max_iter, residual, False)


def gamp_solve(
    phi,
    y,
    q: PriorParams,
    eps_t=None,
    max_iter=200,
    damping=0.7,
    x0=None,
    restarts=0,
    seed=0,
) -> GampResult:
    """Iterative solve of y = phi @ x + w under the truncated BG prior.

    Follows the standard update schedule (linear step, output step, input
    step) with damping on the s and x iterates; damping=1 disables it. Stops
    when the squared residual sum(|y - z|^2) drops below eps_t (default:
    1e-12 times the measurement energy) or after max_iter iterations.
    Raises GampDivergence when the residual exceeds 10x its initial value
    for 5 consecutive iterations.

    restarts > 0 switches to a robust mode for hard (e.g. underdetermined)
    systems: the plain run plus `restarts` randomly re-initialized runs each
    propose candidate supports, every candidate is polished by a
    box-constrained ridge fit, and the candidate with the best MAP objective
    wins. Matched-filter support pairs are added to the candidate pool.
    The plain mode (restarts=0) never polishes.
    """
    phi = np.asarray(phi, dtype=float)
    y = np.asarray(y, dtype=float)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0] or phi.size == 0:
        raise ValueError(f"bad system shapes: phi {phi.shape}, y {y.shape}")
    if not 0 < damping <= 1:
        raise ValueError("damping must lie in (0, 1]")
    if eps_t is None:
        eps_t = 1e-12 * float(np.sum(y**2)) + 1e-30
    if restarts == 0:
        return _gamp_iterate(phi, y, q, x0, eps_t, max_iter, damping)

    n = phi.shape[1]
    rng = np.random.default_rng(seed)
    proposals = {()}
    inits = [x0] + [
        rng.uniform(0, 1, n) * (rng.random(n) < 0.25) for _ in range(restarts)
    ]
    last = None
    for start in inits:
        try:
            res = _gamp_iterate(phi, y, q, start, eps_t, max_iter, damping)
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

    best_x, best_obj = None, -np.inf
    for sup in proposals:
        cand = _polish_support(phi, y, q, sup)
        obj = map_objective(phi, y, cand, q)
        if obj > best_obj:
            best_x, best_obj = cand, obj
    residual = float(np.sum((y - phi @ best_x) ** 2))
    sig_x = last.sigma_x if last is not None else np.full(n, q.sigma_x)
    iters = last.iterations if last is not None else 0
    return GampResult(best_x, sig_x, iters, residual, residual <= eps_t)


def lift_complex(a_tilde, h_tilde):
    """Stack [Re; Im] of a complex system so phi @ x reproduces it exactly.

    x is real, so columns are not duplicated; the row count doubles.
    """
    a = np.asarray(a_tilde, dtype=complex)
    h = np.asarray(h_tilde, dtype=complex)
    if a.ndim != 2 or h.ndim != 1 or a.shape[0] != h.shape[0]:
        raise ValueError(f"shape mismatch: A {a.shape}, H {h.shape}")
    phi = np.vstack([a.real, a.imag])
    y = np.concatenate([h.real, h.imag])
    return phi, y
