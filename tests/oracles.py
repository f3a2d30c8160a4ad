"""Shared numerical oracles for the test suite.

Central finite differences are the reference for every analytic gradient in
the package; they are computed here, independent of any library code paths.
The sequential WMMSE solver below, one sample and one start at a time, is the
reference that the batched wsr.wmmse_many must match bit for bit.
"""

import numpy as np

from faircl import wsr


def fd_gradient(fn, x, step=1e-5):
    """Central finite-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        grad.flat[i] = (fn(hi) - fn(lo)) / (2.0 * step)
    return grad


def rel_error(approx, exact):
    """Scale-free distance between two gradient vectors."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(np.linalg.norm(approx), np.linalg.norm(exact), 1e-10)
    return float(np.linalg.norm(approx - exact) / denom)


def _wmmse_from(prob, v0, max_iters, tol):
    # one run of the clipped alternating u/w/v sweeps from a given amplitude
    # vector; returns the best (p, rate) iterate seen including the start
    g = prob.gains
    a_direct = np.sqrt(np.diag(g))
    alpha = prob.weights
    sigma2 = prob.noise
    v_cap = np.sqrt(prob.p_max)

    v = v0
    best_p = np.minimum(v * v, prob.p_max)
    best_rate = wsr.sum_rate(prob, best_p)
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
        rate = wsr.sum_rate(prob, p)
        if rate > best_rate:
            best_rate = rate
            best_p = p
        if abs(rate - prev_rate) < tol:
            break
        prev_rate = rate
    return best_p, best_rate


def wmmse_sequential(prob, max_iters=500, tol=1e-6):
    """Multi-start WMMSE of one RateProblem: full power, then corners 0..K-1.

    Returns the first strict maximum across the starts as (p, rate).
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
