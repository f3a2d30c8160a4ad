"""Shared numerical oracles for the test suite.

Central finite differences are the reference for every analytic gradient in
the package; they are computed here, independent of any library code paths.
The sequential WMMSE solver below, one sample and one start at a time, is the
reference that the batched wsr.wmmse_many, which labels shares of a set's rows
in forked workers, must match bit for bit. The training loops at the end,
which hand the oracles a fresh SampleSet take on every call, are the
references for the array-backed trainer. Last, checkpoint bytes are built
from the format's description with struct, not numpy, then spoiled one field
at a time for the model and CLI tests of load_params.
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
# Checkpoints: version 3 is one JSON header line, then the parameter vector's
# little-endian float64 bytes. Version 2 was one JSON line whose "values" was
# the base64 of those bytes.


def _header(sizes, p_max, n) -> str:
    return (f'{{"version": 3, "layer_sizes": {list(sizes)}, "p_max": {p_max!r}, '
            f'"arrays": [["values", "<f8", [{n}]]]}}\n')


def checkpoint_bytes(params) -> bytes:
    """The bytes save_params must write for params, spelled out key by key."""
    raw = struct.pack(f"<{params.values.size}d", *params.values)
    return _header(params.layer_sizes, params.p_max, params.values.size).encode() + raw


def _count(sizes) -> int:
    return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))


def bad_checkpoints(params) -> list:
    """(name, bytes, message pattern) of checkpoints of params with one fault each."""
    good = checkpoint_bytes(params)
    line, raw = good[:good.index(b"\n") + 1], good[good.index(b"\n") + 1:]
    head = json.loads(line)
    n, sizes = params.values.size, head["layer_sizes"]
    no_version = {k: v for k, v in head.items() if k != "version"}
    v1 = {"layer_sizes": sizes, "p_max": params.p_max, "values": params.values.tolist()}
    v2 = {"version": 2, "layer_sizes": sizes, "p_max": params.p_max, "values": base64.b64encode(raw).decode()}
    # 8 PB of values, past any address space; 2**65 bytes, past numpy's byte count
    huge, past_memory = [10**7, 10**8, 1], [2**31, 2**31, 2]
    nan = struct.pack("<d", math.nan) + raw[8:]
    cases = [  # (name, header, values bytes, message pattern)
        ("version 1", v1, b"", "^checkpoint: version None is not 3; write the file again with faircl run$"),
        ("version 2", v2, b"", "^checkpoint: version 2 is not 3; write the file again with faircl run$"),
        ("no version", no_version, raw, "^checkpoint: version None is not 3; write the file again with faircl run$"),
        ("no arrays", {k: v for k, v in head.items() if k != "arrays"}, raw, "missing field 'arrays'"),
        ("non-JSON header", "{not json", raw, r"^checkpoint: not JSON \(Expecting property name"),
        ("ragged bytes", head, raw[:-4], "^file ends inside array 'values'$"),
        ("short file", head, raw[:-8], "^file ends inside array 'values'$"),
        ("trailing bytes", head, raw + bytes(8), "^bytes after the last array$"),
        ("short count", dict(head, arrays=[["values", "<f8", [n - 1]]]), raw[:-8],
         rf"^checkpoint: arrays \[\['values', '<f8', \[{n - 1}\]\]\] are not the \[\['values', '<f8', \[{n}\]\]\] "
         "that the header's fields give$"),
        ("float64 big-endian", dict(head, arrays=[["values", ">f8", [n]]]), raw,
         "^checkpoint: arrays .* are not the .* that the header's fields give$"),
        ("NaN bytes", head, nan, "^parameter values must be finite$"),
        ("infinite p_max", dict(head, p_max=math.inf), raw, "p_max must be a positive finite number, got inf"),
        ("bool p_max", dict(head, p_max=True), raw, "checkpoint: p_max must be a positive finite number, got True"),
        ("string p_max", dict(head, p_max="1.0"), raw, "checkpoint: p_max must be a positive finite number, got '1.0'"),
        ("sizes not a list", dict(head, layer_sizes=4), raw, "^checkpoint: layer_sizes must be a JSON array, got 4$"),
        ("sizes an object", dict(head, layer_sizes={"a": 1}), raw,
         r"^checkpoint: layer_sizes must be a JSON array, got \{'a': 1\}$"),
        # ModelParams would read 4.9 as 4 and True as 1
        ("float layer size", dict(head, layer_sizes=[sizes[0] + 0.9, *sizes[1:]]), raw,
         f"^checkpoint: layer_sizes entry must be an integer >= 1, got {sizes[0] + 0.9!r}$"),
        ("bool layer size", dict(head, layer_sizes=[*sizes[:-1], True]), raw,
         "^checkpoint: layer_sizes entry must be an integer >= 1, got True$"),
        ("oversized layer_sizes", dict(head, layer_sizes=huge, arrays=[["values", "<f8", [_count(huge)]]]), raw,
         rf"^checkpoint: arrays \[\['values', '<f8', \[{_count(huge)}\]\]\] are more than memory holds$"),
        ("layer_sizes past memory", dict(head, layer_sizes=past_memory,
                                         arrays=[["values", "<f8", [_count(past_memory)]]]), raw,
         rf"^checkpoint: arrays \[\['values', '<f8', \[{_count(past_memory)}\]\]\] are more than memory holds$"),
        ("not an object", [head], raw, "^checkpoint: not a JSON object$"),
    ]
    return [(name, (doc if isinstance(doc, str) else json.dumps(doc)).encode() + b"\n" + tail, match)
            for name, doc, tail, match in cases]
