"""Shared numerical oracles for the test suite.

Central finite differences are the reference for every analytic gradient in
the package; they are computed here, independent of any library code paths.
The sequential WMMSE solver below, one sample and one start at a time, is the
reference that the batched wsr.wmmse_many must match bit for bit. The
record-by-record dataset reader below is the reference for the array-backed
channels.load_dataset: the same samples on valid files, in the same stream
layout, and the same error on malformed ones; the record-by-record writer is
the one whose bytes the block-formatting channels.save_dataset must write.
The training loops at the
end, which hand the oracles a fresh SampleSet take on every call, are the
references for the array-backed trainer.
"""

import dataclasses
import json
from types import SimpleNamespace

import numpy as np

from faircl import channels, model, objective, wsr


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


def _sample_per_record(line, lineno, k):
    # one record, checked field by field in the order of the fields' use
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise channels.DatasetFormatError(f"line {lineno}: invalid JSON record ({e.msg})") from e
    for key in ("k", "episode", "h_re", "h_im"):
        if key not in rec:
            raise channels.DatasetFormatError(f"line {lineno}: record missing field {key!r}")
    if rec["k"] != k:
        raise channels.DatasetFormatError(f"line {lineno}: field 'k' is {rec['k']}, header says {k}")
    h_re = np.asarray(rec["h_re"], dtype=float)
    h_im = np.asarray(rec["h_im"], dtype=float)
    if h_re.shape != (k * k,) or h_im.shape != (k * k,):
        raise channels.DatasetFormatError(f"line {lineno}: fields 'h_re'/'h_im' must hold {k * k} values")
    h = (h_re + 1j * h_im).reshape(k, k)
    try:
        episode_id = int(rec["episode"])
        if not np.all(np.isfinite(h.real)) or not np.all(np.isfinite(h.imag)):
            raise ValueError("h must be finite")
        p_label = rec.get("p_label")
        if p_label is not None:
            p_label = np.asarray(p_label, dtype=float)
            if p_label.shape != (k,) or np.any(p_label < 0):
                raise ValueError("p_label must be a nonnegative length-K vector")
        rbar = rec.get("rbar")
        if rbar is not None:
            rbar = float(rbar)
            if not rbar > 0:
                raise ValueError(f"rbar must be positive, got {rbar}")
    except ValueError as e:
        raise channels.DatasetFormatError(f"line {lineno}: {e}") from e
    return SimpleNamespace(k_pairs=k, h=h, p_label=p_label, rbar=rbar, episode_id=episode_id)


def load_dataset_per_record(path):
    """A dataset file read one record at a time, each checked on its own.

    Samples are plain namespaces with ChannelSample's fields. Non-finite
    labels and an infinite rbar pass here; load_dataset rejects them.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise channels.DatasetFormatError("line 1: empty file, expected header")
    try:
        header = json.loads(lines[0])
        version = header["version"]
        k = header["k"]
        specs = [
            channels.EpisodeSpec(
                distribution=sp["distribution"],
                n_train=sp["n_train"],
                n_test=sp["n_test"],
                n_batches=sp["n_batches"],
                area_side_m=sp.get("area_side_m"),
            )
            for sp in header["specs"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise channels.DatasetFormatError(f"line 1: bad header ({e})") from e
    if version != channels.DATASET_VERSION:
        raise channels.DatasetFormatError(f"line 1: unsupported version {version}")
    expected = sum(sp.n_train + sp.n_test for sp in specs)
    if len(lines) - 1 != expected:
        raise channels.DatasetFormatError(
            f"line {len(lines) + 1}: expected {expected} records after the header, found {len(lines) - 1}"
        )
    batches, test_sets = [], []
    lineno = 2
    for ep, sp in enumerate(specs):
        train = [_sample_per_record(lines[lineno - 1 + i], lineno + i, k) for i in range(sp.n_train)]
        lineno += sp.n_train
        test = [_sample_per_record(lines[lineno - 1 + i], lineno + i, k) for i in range(sp.n_test)]
        lineno += sp.n_test
        size = sp.n_train // sp.n_batches
        for b in range(sp.n_batches):
            batches.append(train[b * size : (b + 1) * size])
        test_sets.append(test)
    return RecordStream(k, specs, batches, test_sets)


@dataclasses.dataclass
class RecordStream:
    """The reference reader's stream: batches and test sets as sample lists."""

    k_pairs: int
    specs: list
    batches: list
    test_sets: list

    def all_samples(self):
        for samples in self.batches + self.test_sets:
            yield from samples


def save_dataset_per_record(stream, path):
    """A dataset file written one record at a time, in row order."""
    header = {
        "version": channels.DATASET_VERSION,
        "k": stream.k_pairs,
        "specs": [dataclasses.asdict(sp) for sp in stream.specs],
    }
    samples = stream.samples
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for i, h in enumerate(samples.h):
            rec = {
                "k": stream.k_pairs,
                "episode": int(samples.episode[i]),
                "h_re": h.real.ravel().tolist(),
                "h_im": h.imag.ravel().tolist(),
            }
            if not np.isnan(samples.labels[i]).all():
                rec["p_label"] = samples.labels[i].tolist()
            if not np.isnan(samples.rbar[i]):
                rec["rbar"] = float(samples.rbar[i])
            fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# The training loops as they were before the array-backed, fused trainer:
# sample sets converted on every oracle call, and the compositional step as
# three forwards and two backwards. The fused step must match this one's y
# bit for bit and its parameters to rounding; the SGD and descent/ascent
# loops, whose arithmetic did not change, must match bit for bit.


def _descend_checked(params, delta):
    return model.ModelParams(params.layer_sizes, params.values + delta, params.p_max)


def scsc_step_unfused(state, spec, batch_xi, batch_phi):
    """One compositional update from g_eval, g_value and f_eval on sample sets."""
    g_cur, grad_g = objective.g_eval(spec, state.params, batch_phi)
    g_prev = objective.g_value(spec, state.params_prev, batch_phi)
    y_new = (1.0 - state.beta) * (state.y + g_cur - g_prev) + state.beta * g_cur
    _, grad1, grad2 = objective.f_eval(spec, state.params, batch_xi, z=y_new)
    params = _descend_checked(state.params, -state.alpha * (grad_g * grad1 + grad2))
    return dataclasses.replace(state, params=params, params_prev=state.params, y=y_new, step=state.step + 1)


def sgd_train_lists(params, spec, dataset, epochs, minibatch, alpha, rng):
    """Epoch SGD with every minibatch a fresh take of the sample set."""
    n = len(dataset)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for s in range(0, n, minibatch):
            batch = dataset.take(perm[s : s + minibatch])
            _, grad = objective.weighted_upper(spec, params, batch, np.full(len(batch), 1.0 / len(batch)))
            params = _descend_checked(params, -alpha * grad)
    return params


def gda_train_lists(params, lam, spec, dataset, iters, alpha_theta, alpha_lambda):
    """Descent/ascent with the whole sample set converted every iteration."""
    lam = np.array(lam, dtype=float)
    for _ in range(iters):
        ells, grad = objective.weighted_upper(spec, params, dataset, lam)
        params = _descend_checked(params, -alpha_theta * grad)
        lam = lam * np.exp(alpha_lambda * (ells - ells.max()))
        lam = lam / lam.sum()
    return params, lam


def lower_values_lists(spec, params, samples):
    """u of every sample from one value-only pass over a set's channels."""
    mag = np.abs(samples.h)
    out, _ = model.forward(params, mag.reshape(len(samples), -1))
    if spec.lower == "same_as_upper":
        if spec.upper == "mse":
            diff = out - samples.labels
            return np.add.reduce(diff * diff, 1)
        return -wsr.sum_rate_many(mag * mag, out, noise=spec.noise)
    if spec.alpha_mode == "unit":
        neg_alpha = np.full(len(samples), -1.0)
    else:
        neg_alpha = -1.0 / samples.rbar
    return neg_alpha * wsr.sum_rate_many(mag * mag, out, noise=spec.noise)
