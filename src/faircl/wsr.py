"""Weighted sum-rate objective, its analytic gradient, and power-control solvers.

The rate of receiver k in a K-user interference channel is

    R_k(p) = alpha_k * log(1 + g_kk p_k / (sum_{j != k} g_kj p_j + noise_k))

with g_kj the squared channel magnitude from transmitter j into receiver k.
All rates are in nats. Powers live in the box [0, p_max]^K.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class RateProblem:
    """One power-control instance.

    gains:   (K, K) nonnegative, gains[k, j] = |h_kj|^2, row k is receiver k
    weights: (K,) positive rate weights alpha_k
    noise:   (K,) positive noise powers sigma_k^2
    p_max:   scalar power budget per transmitter
    """

    gains: np.ndarray
    weights: np.ndarray
    noise: np.ndarray
    p_max: float

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=float)
        k = self.gains.shape[0]
        if self.gains.ndim != 2 or self.gains.shape != (k, k):
            raise ValueError(f"gains must be square, got shape {self.gains.shape}")
        if not np.all(np.isfinite(self.gains)) or np.any(self.gains < 0):
            raise ValueError("gains must be finite and nonnegative")
        self.weights = np.broadcast_to(np.asarray(self.weights, dtype=float), (k,)).copy()
        self.noise = np.broadcast_to(np.asarray(self.noise, dtype=float), (k,)).copy()
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be positive and finite")
        if np.any(self.noise <= 0) or not np.all(np.isfinite(self.noise)):
            raise ValueError("noise powers must be positive and finite")
        self.p_max = float(self.p_max)
        if not self.p_max > 0:
            raise ValueError("p_max must be positive")

    @property
    def k_pairs(self) -> int:
        return self.gains.shape[0]


def problem_from_channel(h, noise=1.0, p_max=1.0, weights=1.0) -> RateProblem:
    """Build a RateProblem from a complex channel matrix (gains = |h|^2)."""
    h = np.asarray(h)
    return RateProblem(np.abs(h) ** 2, weights, noise, p_max)


def _check_box(p: np.ndarray, p_max: float):
    # NaN-skipping extremes: the same verdict as the elementwise comparisons,
    # in which a NaN entry fails neither, with two calls instead of four
    if p.size and (np.fmin.reduce(p) < 0.0 or np.fmax.reduce(p) > p_max):
        raise ValueError(f"power vector outside [0, {p_max}] box")


def sum_rate(prob: RateProblem, p) -> float:
    """Weighted sum rate at power vector p, in nats."""
    p = np.asarray(p, dtype=float)
    if p.shape != (prob.k_pairs,):
        raise ValueError(f"expected power vector of shape ({prob.k_pairs},), got {p.shape}")
    _check_box(p, prob.p_max)
    return float(sum_rate_many(prob.gains[None], p[None], prob.noise, prob.weights)[0])


def grad_sum_rate(prob: RateProblem, p) -> np.ndarray:
    """Analytic gradient of the weighted sum rate with respect to p."""
    p = np.asarray(p, dtype=float)
    if p.shape != (prob.k_pairs,):
        raise ValueError(f"expected power vector of shape ({prob.k_pairs},), got {p.shape}")
    _check_box(p, prob.p_max)
    return grad_sum_rate_many(prob.gains[None], p[None], prob.noise, prob.weights)[0]


def sum_rate_many(gains, powers, noise=1.0, weights=1.0) -> np.ndarray:
    """Vectorized weighted sum rate.

    gains:  (n, K, K), powers: (n, K), noise/weights: scalar or (K,).
    Returns (n,) rates. No box validation here; callers own their domains.
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.asarray(powers, dtype=float)
    direct = gains.diagonal(0, 1, 2)
    received = np.einsum("nkj,nj->nk", gains, powers)
    signal = direct * powers
    sinr = signal / (received - signal + noise)
    return np.add.reduce(weights * np.log1p(sinr), 1)


def grad_sum_rate_many(gains, powers, noise=1.0, weights=1.0) -> np.ndarray:
    """Vectorized gradient of the weighted sum rate, shape (n, K).

    d R / d p_m = w_m g_mm / tot_m - sum_{j != m} w_j g_jj p_j g_jm / (intf_j tot_j)

    where tot_j = sum_i g_ji p_i + noise_j and intf_j = tot_j - g_jj p_j.
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.asarray(powers, dtype=float)
    direct = gains.diagonal(0, 1, 2)
    tot = np.einsum("nkj,nj->nk", gains, powers) + noise
    intf = tot - direct * powers
    c = weights * direct * powers / (intf * tot)
    cross = np.einsum("njm,nj->nm", gains, c)
    return weights * direct / tot - cross + c * direct


def rate_and_grad_many(gains: np.ndarray, powers: np.ndarray, noise=1.0):
    """Unit-weight sum rates and their gradients from one shared pass.

    Takes float arrays shaped as in sum_rate_many. The results are bitwise
    equal to sum_rate_many and grad_sum_rate_many at weights=1.0: the terms
    shared between the two are the same expressions, each formula keeps its
    association order, and the dropped multiplications are by exactly 1.0.
    """
    direct = gains.diagonal(0, 1, 2).copy()  # contiguous: used three times
    received = np.einsum("nkj,nj->nk", gains, powers)
    signal = direct * powers
    rates = np.add.reduce(np.log1p(signal / (received - signal + noise)), 1)
    tot = received + noise
    c = signal / ((tot - signal) * tot)
    cross = np.einsum("njm,nj->nm", gains, c)
    return rates, direct / tot - cross + c * direct


def _wmmse_from(prob: RateProblem, v0: np.ndarray, max_iters: int, tol: float):
    # one run of the clipped alternating u/w/v sweeps from a given amplitude
    # vector; returns the best (p, rate) iterate seen including the start.
    # sqrt(p_max)**2 can round above p_max, so powers are clamped to the box
    g = prob.gains
    a_direct = np.sqrt(np.diag(g))
    alpha = prob.weights
    sigma2 = prob.noise
    v_cap = np.sqrt(prob.p_max)

    v = v0
    best_p = np.minimum(v * v, prob.p_max)
    best_rate = sum_rate(prob, best_p)
    prev_rate = best_rate
    for _ in range(max_iters):
        u = a_direct * v / (g @ (v * v) + sigma2)
        w = 1.0 / (1.0 - u * a_direct * v)
        num = alpha * w * u * a_direct
        den = g.T @ (alpha * w * u * u)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(den > 0.0, num / den, 0.0)
        v = np.clip(v, 0.0, v_cap)
        p = np.minimum(v * v, prob.p_max)
        rate = sum_rate(prob, p)
        if rate > best_rate:
            best_rate = rate
            best_p = p
        if abs(rate - prev_rate) < tol:
            break
        prev_rate = rate
    return best_p, best_rate


def wmmse(prob: RateProblem, max_iters: int = 500, tol: float = 1e-6):
    """WMMSE power control for the scalar interference channel.

    Alternates closed-form receiver, weight, and transmit-amplitude updates
    with v clipped to [0, sqrt(p_max)]. Each run stops once the rate changes
    by less than tol between sweeps. The sweeps are run from the full-power
    point and from every single-user corner, and the best iterate across all
    starts is returned: the full-power point is a spurious KKT trap of the
    clipped iteration on a nontrivial fraction of strong-interference draws,
    and the corner starts (which the updates keep on their corner's support)
    cover the shut-a-user-off solutions those draws need. The reported rate
    therefore never drops below the full-power operating point.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    k = prob.k_pairs
    v_cap = np.sqrt(prob.p_max)
    starts = [np.full(k, v_cap)]
    for i in range(k):
        corner = np.zeros(k)
        corner[i] = v_cap
        starts.append(corner)

    best_p, best_rate = None, -np.inf
    for v0 in starts:
        p, rate = _wmmse_from(prob, v0, max_iters, tol)
        if rate > best_rate:
            best_p, best_rate = p, rate
    return best_p, best_rate


def brute_force_opt(prob: RateProblem, grid_points_per_dim: int = 201):
    """Exhaustive grid search over the power box; oracle for small K.

    Evaluates every point of a uniform grid including both endpoints and
    returns (p, rate) for the best one (first index on exact ties).
    """
    k = prob.k_pairs
    if k > 3:
        raise ValueError(f"grid search supports K <= 3, got K={k}")
    if grid_points_per_dim < 2:
        raise ValueError("grid_points_per_dim must be >= 2")
    axis = np.linspace(0.0, prob.p_max, grid_points_per_dim)
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)

    direct = np.diag(prob.gains)
    received = grid @ prob.gains.T
    signal = grid * direct
    sinr = signal / (received - signal + prob.noise)
    rates = np.sum(prob.weights * np.log1p(sinr), axis=1)
    best = int(np.argmax(rates))
    return grid[best].copy(), float(rates[best])
