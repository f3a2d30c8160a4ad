"""Shared numerical oracles for the test suite.

Central finite differences are the reference for every analytic gradient in
the package; they are computed here, independent of any library code paths.
The sequential WMMSE solver below, one sample and one start at a time, is the
reference that the batched wsr.wmmse_many, which labels shares of a set's rows
in forked workers, must match bit for bit. The training loops at the end,
which hand the oracles a fresh SampleSet take on every call, are the
references for the array-backed trainer. Last, checkpoint text is built from
the format's description with struct, not numpy, then spoiled one field at a
time for the model and CLI tests of load_params.
"""

import base64
import dataclasses
import json
import math
import struct

import numpy as np

from faircl import model, objective, wsr


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


# ---------------------------------------------------------------------------
# The training loops as they were before the array-backed, fused trainer:
# sample sets converted on every oracle call, and the compositional step as
# three forwards and two backwards. The fused step must match this one's y
# bit for bit and its parameters to rounding; the SGD and descent/ascent
# loops, whose arithmetic did not change, must match bit for bit.


def _descend_checked(params, delta):
    return model.ModelParams(params.layer_sizes, params.values + delta, params.p_max)


def scsc_step_unfused(state, noise, batch_xi, batch_phi):
    """One compositional update from g_eval, g_value and f_eval on sample sets."""
    g_cur, grad_g = objective.g_eval(noise, state.params, batch_phi)
    g_prev = objective.g_value(noise, state.params_prev, batch_phi)
    y_new = (1.0 - state.beta) * (state.y + g_cur - g_prev) + state.beta * g_cur
    _, grad1, grad2 = objective.f_eval(noise, state.params, batch_xi, z=y_new)
    params = _descend_checked(state.params, -state.alpha * (grad_g * grad1 + grad2))
    return dataclasses.replace(state, params=params, params_prev=state.params, y=y_new, step=state.step + 1)


def sgd_train_lists(params, dataset, epochs, minibatch, alpha, rng):
    """Epoch SGD with every minibatch a fresh take of the sample set."""
    n = len(dataset)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for s in range(0, n, minibatch):
            batch = dataset.take(perm[s : s + minibatch])
            _, grad = objective.weighted_upper(params, batch, np.full(len(batch), 1.0 / len(batch)))
            params = _descend_checked(params, -alpha * grad)
    return params


def gda_train_lists(params, lam, dataset, iters, alpha_theta, alpha_lambda):
    """Descent/ascent with the whole sample set converted every iteration."""
    lam = np.array(lam, dtype=float)
    for _ in range(iters):
        ells, grad = objective.weighted_upper(params, dataset, lam)
        params = _descend_checked(params, -alpha_theta * grad)
        lam = lam * np.exp(alpha_lambda * (ells - ells.max()))
        lam = lam / lam.sum()
    return params, lam


def lower_values_lists(noise, params, samples):
    """u = -rate/rbar of every sample from one value-only pass over a set's channels."""
    mag = np.abs(samples.h)
    out, _ = model.forward(params, mag.reshape(len(samples), -1))
    return -1.0 / samples.rbar * wsr.sum_rate_many(mag * mag, out, noise=noise)


# ---------------------------------------------------------------------------
# Checkpoints: version 2 is one JSON line whose "values" is the base64 of the
# parameter vector's little-endian float64 bytes.


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def checkpoint_text(params) -> str:
    """The line save_params must write for params, spelled out key by key."""
    raw = struct.pack(f"<{params.values.size}d", *params.values)
    return (f'{{"version": 2, "layer_sizes": {list(params.layer_sizes)}, "p_max": {params.p_max!r}, '
            f'"values": "{_b64(raw)}"}}\n')


def bad_checkpoints(params) -> list:
    """(name, text, message pattern) of checkpoints of params with one fault each."""
    good = json.loads(checkpoint_text(params))
    raw = base64.b64decode(good["values"])
    no_version = {k: v for k, v in good.items() if k != "version"}
    sizes = good["layer_sizes"]
    cases = [
        ("version 1", dict(no_version, values=params.values.tolist()), "version 1.*rerun faircl run"),
        ("no version", dict(no_version), "missing field 'version'"),
        ("invalid base64", dict(good, values="*" + good["values"][1:]), "not valid base64"),
        ("ragged bytes", dict(good, values=_b64(raw + bytes(4))),
         f"{len(raw) + 4} bytes, not a whole number of float64s"),
        ("short count", dict(good, values=_b64(raw[:-8])), f"expected {params.values.size} parameter values"),
        ("NaN bytes", dict(good, values=_b64(struct.pack("<d", math.nan) + raw[8:])), "must be finite"),
        ("infinite p_max", dict(good, p_max=math.inf), "p_max must be a positive finite number, got inf"),
        ("bool p_max", dict(good, p_max=True), "checkpoint: p_max must be a positive finite number, got True"),
        ("string p_max", dict(good, p_max="1.0"), "checkpoint: p_max must be a positive finite number, got '1.0'"),
        ("sizes not a list", dict(good, layer_sizes=4), "checkpoint: .*not iterable"),
        # ModelParams would read 4.9 as 4 and True as 1
        ("float layer size", dict(good, layer_sizes=[sizes[0] + 0.9, *sizes[1:]]),
         f"checkpoint: layer size {sizes[0] + 0.9!r} is not an integer"),
        ("bool layer size", dict(good, layer_sizes=[*sizes[:-1], True]), "checkpoint: layer size True is not an integer"),
        ("not an object", [good], "not a JSON object"),
    ]
    return [(name, json.dumps(doc) + "\n", match) for name, doc, match in cases]
