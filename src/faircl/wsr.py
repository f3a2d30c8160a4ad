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
        self.weights, self.noise, self.p_max = _checked_terms(self.gains, self.weights, self.noise, self.p_max)

    @property
    def k_pairs(self) -> int:
        return self.gains.shape[0]


def _checked_terms(gains: np.ndarray, weights, noise, p_max):
    # the checks RateProblem and wmmse_many share, for gains of shape
    # (..., K, K); returns weights and noise broadcast to (K,) and p_max.
    # min propagates NaN, so one reduction each catches NaN, -inf, +inf and
    # negative entries without an n-sized temporary
    if gains.size and not (gains.min() >= 0.0 and gains.max() < np.inf):
        raise ValueError("gains must be finite and nonnegative")
    k = gains.shape[-1]
    weights = np.broadcast_to(np.asarray(weights, dtype=float), (k,)).copy()
    noise = np.broadcast_to(np.asarray(noise, dtype=float), (k,)).copy()
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be positive and finite")
    if np.any(noise <= 0) or not np.all(np.isfinite(noise)):
        raise ValueError("noise powers must be positive and finite")
    p_max = float(p_max)
    if not p_max > 0:
        raise ValueError("p_max must be positive")
    return weights, noise, p_max


def problem_from_channel(h, noise=1.0, p_max=1.0, weights=1.0) -> RateProblem:
    """Build a RateProblem from a complex channel matrix (gains = |h|^2)."""
    h = np.asarray(h)
    return RateProblem(np.abs(h) ** 2, weights, noise, p_max)


def _check_box(p: np.ndarray, p_max: float):
    # NaN-skipping extremes: the same verdict as the elementwise comparisons,
    # in which a NaN entry fails neither, with two calls instead of four
    if p.size and (np.fmin.reduce(p, None) < 0.0 or np.fmax.reduce(p, None) > p_max):
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


# float64 entries per block. A block sweeps one row per sample: its K x K
# gains and about _ROW_VECTORS live K-vectors (iterates, best point, sweep
# temporaries), which outweigh the gains at small K. So the working set, 1.3
# to 2.2 MB up to K=50, grows with neither n nor K; a K=10 block is 655 samples
_BLOCK_ENTRIES = 5 << 15
_ROW_VECTORS = 15


def wmmse_many(gains, noise=1.0, p_max=1.0, weights=1.0, max_iters: int = 500, tol: float = 1e-6):
    """WMMSE power control for a stack of scalar interference channels.

    gains: (n, K, K) as in RateProblem; noise/weights: scalar or (K,).
    Returns (powers (n, K), rates (n,)).

    Alternates closed-form receiver, weight, and transmit-amplitude updates
    with v clipped to [0, sqrt(p_max)] and powers clamped to min(v*v, p_max),
    since sqrt(p_max)**2 can round above p_max. Each run stops once the rate
    changes by less than tol between sweeps, and keeps the best iterate it
    saw, its start included. The starts are the full-power point, a spurious
    KKT trap of the clipped iteration on a nontrivial fraction of
    strong-interference draws, then every single-user corner, which covers
    the shut-a-user-off solutions those draws need; the first strict maximum
    across them, in that order, is returned, so the rate never drops below
    the full-power operating point. Only full power is swept: a corner is its
    own best point, as with only user j on the others' u is 0, so their v
    stays 0, and v_j becomes v + sigma_j / (g_jj v) >= sqrt(p_max), which
    the clip brings back (0, at rate 0, if g_jj = 0; NaN, never better, if
    1 - u a v rounds to 0). Its rate is closed-form, in sum_rate_many's bits.

    Each sweep updates every sample still running; a sample leaves once it
    stops. Samples are solved in fixed-size blocks, so the working set does
    not grow with n, and each performs the same floating-point operations,
    in the same order, as a solve of it alone: results depend neither on n
    nor on the block a sample falls in.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 3 or gains.shape[1] != gains.shape[2]:
        raise ValueError(f"gains must be a stack of square matrices, got shape {gains.shape}")
    weights, noise, p_max = _checked_terms(gains, weights, noise, p_max)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    n, k = gains.shape[0], gains.shape[2]
    powers, rates = np.empty((n, k)), np.empty(n)
    size = max(1, _BLOCK_ENTRIES // max(1, k * k + _ROW_VECTORS * k))
    for lo in range(0, n, size):
        hi = min(n, lo + size)
        powers[lo:hi], rates[lo:hi] = _wmmse_block(gains[lo:hi], noise, p_max, weights, max_iters, tol)
    return powers, rates


def _wmmse_block(gains, noise, p_max, alpha, max_iters, tol):
    # row s sweeps sample s from full power. Matmuls over (K, 1) columns of
    # C-ordered gains, and rates from sum_rate_many, keep its bits those of a
    # one-sample solve (an einsum for the products would not)
    n, k = gains.shape[0], gains.shape[2]
    v_cap = np.sqrt(p_max)
    g = np.ascontiguousarray(gains)
    direct = g.diagonal(0, 1, 2)
    a_direct = np.sqrt(direct)
    v = np.full((n, k), v_cap)
    best_p = np.minimum(v * v, p_max)
    _check_box(best_p, p_max)
    best_rate = sum_rate_many(g, best_p, noise, alpha)
    prev_rate = best_rate
    out_p, out_rate = np.empty_like(best_p), np.empty_like(best_rate)
    rows = np.arange(n)
    for _ in range(max_iters):
        u = a_direct * v / (np.matmul(g, (v * v)[..., None])[..., 0] + noise)
        w = 1.0 / (1.0 - u * a_direct * v)
        awu = alpha * w * u
        den = np.matmul(g.transpose(0, 2, 1), (awu * u)[..., None])[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(den > 0.0, awu * a_direct / den, 0.0)
        # np.clip costs about twice this pair on a block's short rows; only a
        # zero v's sign can differ, which changes neither p nor any rate
        v = np.minimum(np.maximum(v, 0.0), v_cap)
        p = np.minimum(v * v, p_max)
        _check_box(p, p_max)
        rate = sum_rate_many(g, p, noise, alpha)
        better = rate > best_rate
        best_rate = np.where(better, rate, best_rate)
        best_p[better] = p[better]
        done = np.abs(rate - prev_rate) < tol
        prev_rate = rate
        if done.any():
            out_p[rows[done]] = best_p[done]
            out_rate[rows[done]] = best_rate[done]
            live = np.flatnonzero(~done)
            if not live.size:
                break
            g, a_direct, v, best_p, best_rate, prev_rate, rows = (
                x[live] for x in (g, a_direct, v, best_p, best_rate, prev_rate, rows)
            )
    else:  # rows still running after max_iters sweeps
        out_p[rows] = best_p
        out_rate[rows] = best_rate

    # corner j's rate is column j: sum_rate_many's received - signal there is
    # 0 (NaN where the signal overflows), and each other user adds an exact
    # +0. The first strict maximum across a sample's starts, full power
    # first, wins; a sample whose every rate is NaN keeps -inf and NaN powers
    p_c = np.minimum(v_cap * v_cap, p_max)
    signal = direct * p_c
    corner_rate = alpha * np.log1p(signal / (signal - signal + noise))
    rates = np.fmax(out_rate, -np.inf)
    powers = np.where(np.isnan(out_rate)[:, None], np.nan, out_p)
    for j in range(k):
        better = corner_rate[:, j] > rates
        rates[better] = corner_rate[better, j]
        powers[better] = 0.0
        powers[better, j] = p_c
    return powers, rates


def wmmse(prob: RateProblem, max_iters: int = 500, tol: float = 1e-6):
    """WMMSE power control of one problem; see wmmse_many. Returns (p, rate)."""
    powers, rates = wmmse_many(prob.gains[None], prob.noise, prob.p_max, prob.weights, max_iters, tol)
    return powers[0], float(rates[0])


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
