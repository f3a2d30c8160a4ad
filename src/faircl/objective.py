"""Per-sample losses, fairness weights, and the compositional objective.

Two per-sample losses drive everything:

  ell  training loss: squared error against the solver label.
  u    performance loss feeding the sample weights: the negative of the
       rate ratio, u = -R(pi(theta, h); h) / rbar(h), so a sample the
       policy serves badly scores high. R is the sum rate at the noise
       power each oracle that reads u takes as its first argument.

The sample weights are lam_i = e^{u_i} / sum_j e^{u_j}, and the training
objective is the weighted loss F = sum_i lam_i ell_i. F factors into a
composition F = f(g(theta); theta) with

  g(theta)    = (1/n) sum_i e^{u_i}
  f(z; theta) = (1/(n z)) sum_i e^{u_i} ell_i

which is the form the stochastic compositional trainer consumes: g_eval and
f_eval below are its (minibatch) value/gradient oracles, eval_composition
is the one followed by the other at z = g, and full_objective evaluates F
with its exact gradient

  grad F = grad g * d f/d z + grad_theta f,

algebraically equal to the softmax-weighted expression. full_objective
applies a joint max-shift to the exponentials of f and g (their ratio is
unchanged); g_eval reports the raw unshifted mean, which is what the
trainer's tracking variable follows.

The oracles take a SampleSet or a Batch, never single samples: a sample is
a one-row set. The labels and rbar a set's columns feed are checked on
entry, while a trainer checks its pool once and passes row takes.
step_terms and chain_gradient split the compositional trainer's fused step
around its y update; they share the g and f pull-back formulas with g_eval
and f_eval. step_terms reads phi and xi as one Batch, phi's rows first,
which the trainer takes from its pool in one row take per step.

This module holds no input rule: the config's numbers it computes with
were checked when the config was read, by model's rules.

Every gradient an oracle returns is model.backward's fresh vector, which
the caller owns: the trainers build their next parameters inside it.
weighted_upper takes one scalar weight (SGD's 1/n) or one weight per row.

Every oracle takes its per-sample terms from one _batch_terms pass. The
value-only callers (g_value, lower_values, pool_stats) take their rates from
wsr.sum_rate_many and build no pull-back terms; those rates are bitwise
equal to the ones the gradient paths take from wsr.rate_and_grad_many, so
both modes give the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model, wsr

U_GUARD = 50.0
Y_FLOOR = 1e-8


class TrackingCollapseError(RuntimeError):
    """The compositional denominator fell below its floor."""


class GuardExceededError(ValueError):
    """Some |u| exceeded U_GUARD, so e^u is no longer a usable weight."""


@dataclass(eq=False)
class CompositionalEval:
    """One batch's compositional pieces at a given z."""

    g_value: float
    f_value: float
    grad_g: np.ndarray
    grad1_f: float
    grad2_f: np.ndarray


@dataclass(eq=False)
class Batch:
    """Samples as arrays: the |h| stack plus the fields the losses read.

    mag is (n, K, K); labels (n, K) and neg_alpha (n,), which is -1/rbar,
    are None where the oracle the batch was built for does not read them.
    A pool is converted once and its minibatches are row takes.
    """

    mag: np.ndarray
    labels: np.ndarray | None
    neg_alpha: np.ndarray | None

    def __len__(self):
        return len(self.mag)

    def take(self, idx) -> "Batch":
        """The rows idx, in that order."""
        return Batch(self.mag[idx], _take(self.labels, idx), _take(self.neg_alpha, idx))


def _take(a, idx):
    return None if a is None else a[idx]


def as_batch(samples, need_ell=True, need_u=True) -> Batch:
    """A SampleSet's columns as a Batch, checking the labels ell reads and the rbar u reads.

    need_ell and need_u name the losses the batch will feed, as in the
    oracles. A Batch passes through unchanged.
    """
    if not len(samples):
        raise ValueError("empty sample batch")
    if isinstance(samples, Batch):
        return samples
    labels = neg_alpha = None
    if need_ell:
        labels = samples.labels
        missing = np.isnan(labels).all(1)
        if missing.any():
            raise ValueError(f"sample {int(missing.argmax())} has no p_label; MSE loss needs solver labels")
    if need_u:
        rbar = samples.rbar
        bad = ~(rbar > 0)
        if bad.any():
            i = int(bad.argmax())
            r = None if math.isnan(rbar[i]) else float(rbar[i])
            raise ValueError(f"sample {i} is degenerate: rbar must be positive, got {r}")
        neg_alpha = -1.0 / rbar  # -1/r is bitwise -(1/r)
    return Batch(samples.mag, labels, neg_alpha)


@dataclass(eq=False)
class _BatchTerms:
    ell: np.ndarray | None
    up_ell: np.ndarray | None
    u: np.ndarray | None
    up_u: np.ndarray | None
    trace: model.ForwardTrace


def _batch_terms(noise, params, samples, need_ell=True, need_u=True, grad=True) -> _BatchTerms:
    # with grad=False, up_ell and up_u stay None; only u reads noise
    batch = as_batch(samples, need_ell, need_u)
    mag = batch.mag
    outputs, trace = model.forward(params, mag.reshape(len(mag), -1))

    ell = up_ell = None
    if need_ell:
        diff = outputs - batch.labels
        ell = np.add.reduce(diff * diff, 1)
        up_ell = 2.0 * diff if grad else None

    u = up_u = None
    if need_u:
        neg_alpha = batch.neg_alpha
        if grad:
            rates, grad_p = wsr.rate_and_grad_many(mag * mag, outputs, noise=noise)
            up_u = neg_alpha[:, None] * grad_p
        else:
            rates = wsr.sum_rate_many(mag * mag, outputs, noise=noise)
        u = neg_alpha * rates
        abs_u = np.abs(u)
        if np.fmax.reduce(abs_u) > U_GUARD:  # NaN-skipping, as a comparison per entry
            raise _guard_error(abs_u)

    return _BatchTerms(ell, up_ell, u, up_u, trace)


def _guard_error(abs_u):
    return GuardExceededError(f"|u| guard exceeded: max |u| = {np.max(abs_u):.3g} > {U_GUARD}")


def _g_pullback(u, up_u):
    # g = (1/n) sum_i e^{u_i} and the upstream rows that pull its gradient back
    n = len(u)
    e = np.exp(u)
    return float(np.add.reduce(e) / n), (e / n)[:, None] * up_u


def _f_pullback(u, up_u, ell, up_ell, z):
    # f(z) = sum_i e^{u_i} ell_i / (n z), d f/d z, and the upstream rows of grad_theta f
    n = len(u)
    e = np.exp(u)
    value = float(np.add.reduce(e * ell) / (n * z))
    upstream = (e[:, None] * (ell[:, None] * up_u + up_ell)) / (n * z)
    return value, -value / z, upstream


def loss_upper(params, sample):
    """(value, grad) of the training loss on one sample, a one-row set."""
    t = _batch_terms(None, params, sample, need_u=False)
    return t.ell.item(), model.backward(params, t.trace, t.up_ell)


def loss_lower_u(noise: float, params, sample):
    """(value, grad) of the performance loss u on one sample, a one-row set."""
    t = _batch_terms(noise, params, sample, need_ell=False)
    return t.u.item(), model.backward(params, t.trace, t.up_u)


def weighted_upper(params, batch, weights):
    """Per-sample training losses plus the gradient of their weighted sum.

    One forward pass serves both SGD (one scalar weight, 1/n, gives the
    mean loss) and the minimax baseline (a vector of dual weights, one per
    sample).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim:
        if w.shape != (len(batch),):
            raise ValueError(f"{w.shape} weights for {len(batch)} samples")
        w = w[:, None]
    t = _batch_terms(None, params, batch, need_u=False)
    grad = model.backward(params, t.trace, w * t.up_ell)
    return t.ell.copy(), grad


def lower_values(noise: float, params, samples) -> np.ndarray:
    """u values for a whole pool, no gradients; used for memory selection."""
    return _batch_terms(noise, params, samples, need_ell=False, grad=False).u.copy()


def softmax_weights(u_values) -> np.ndarray:
    """Sample weights lam_i = e^{u_i} / sum e^{u_j}, max-shifted."""
    u = np.asarray(u_values, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise ValueError("u_values must be a nonempty vector")
    abs_u = np.abs(u)
    if np.any(abs_u > U_GUARD):
        raise _guard_error(abs_u)
    return _softmax(u)


def _softmax(u):
    e = np.exp(u - np.maximum.reduce(u))
    return e / np.add.reduce(e)


def g_value(noise: float, params, batch) -> float:
    """Raw mean of e^{u_i} over the batch, no gradients."""
    t = _batch_terms(noise, params, batch, need_ell=False, grad=False)
    return float(np.add.reduce(np.exp(t.u)) / len(t.u))  # np.mean's bits, less overhead


def g_eval(noise: float, params, batch):
    """(value, grad) of g(theta) = (1/n) sum_i e^{u_i} on a batch."""
    t = _batch_terms(noise, params, batch, need_ell=False)
    value, upstream = _g_pullback(t.u, t.up_u)
    return value, model.backward(params, t.trace, upstream)


def f_eval(noise: float, params, batch, z: float):
    """(value, d/dz, grad_theta) of f(z; theta) = sum_i e^{u_i} ell_i / (n z)."""
    if not z >= Y_FLOOR:
        raise TrackingCollapseError(f"f evaluated at z={z!r}, below the {Y_FLOOR} floor")
    t = _batch_terms(noise, params, batch)
    value, grad1, upstream = _f_pullback(t.u, t.up_u, t.ell, t.up_ell, z)
    return value, grad1, model.backward(params, t.trace, upstream)


def eval_composition(noise: float, params, batch, z: float | None = None) -> CompositionalEval:
    """All compositional pieces of one batch: g_eval, then f_eval at z.

    With z omitted, f is evaluated at the batch's own raw g value, so
    f_value is the batch's compositional objective.
    """
    gv, grad_g = g_eval(noise, params, batch)
    fv, grad1, grad2 = f_eval(noise, params, batch, gv if z is None else z)
    return CompositionalEval(gv, fv, grad_g, grad1, grad2)


@dataclass(eq=False)
class StepTerms:
    """One forward at params over the stacked [phi; xi] rows of a compositional step."""

    g_value: float  # raw g on phi
    g_upstream: np.ndarray  # phi's rows of the upstream pulling back grad g
    rows: _BatchTerms  # every per-sample term of [phi; xi]
    n_phi: int


def stack(top: Batch, bottom: Batch) -> Batch:
    """One Batch of top's rows above bottom's."""
    return Batch(np.concatenate((top.mag, bottom.mag)), _concat(top.labels, bottom.labels),
                 _concat(top.neg_alpha, bottom.neg_alpha))


def _concat(a, b):
    return None if a is None else np.concatenate((a, b))


def step_terms(noise: float, params, rows: Batch, n_phi: int) -> StepTerms:
    """g on phi and what chain_gradient needs of phi and xi, from one forward.

    rows holds phi's n_phi rows above xi's, as one take of a pool.
    """
    t = _batch_terms(noise, params, rows)
    g, g_up = _g_pullback(t.u[:n_phi], t.up_u[:n_phi])
    return StepTerms(g, g_up, t, n_phi)


def chain_gradient(params, terms: StepTerms, z: float) -> np.ndarray:
    """grad g * d f/d z + grad_theta f at z, with g on phi and f on xi.

    One backward over the stacked rows: model.backward is linear in its
    upstream, so scaling phi's g rows by d f/d z and stacking xi's f rows
    below them sums the two pull-backs, up to summation order.
    """
    if not z >= Y_FLOOR:
        raise TrackingCollapseError(f"f evaluated at z={z!r}, below the {Y_FLOOR} floor")
    t, m = terms.rows, terms.n_phi
    _, grad1, f_up = _f_pullback(t.u[m:], t.up_u[m:], t.ell[m:], t.up_ell[m:], z)
    return model.backward(params, t.trace, np.concatenate((grad1 * terms.g_upstream, f_up)))


def full_objective(noise: float, params, dataset):
    """(F, gradF) of the weighted objective over a full dataset.

    Computed in shifted form: with lam the softmax of u, F = sum lam_i ell_i
    and grad F = sum_i lam_i (up_ell_i + (ell_i - F) up_u_i) pulled back
    through the network, which is exactly grad_g * d f/d z + grad_theta f.
    """
    t = _batch_terms(noise, params, dataset)
    lam = _softmax(t.u)  # _batch_terms applied the |u| guard
    value = float(lam @ t.ell)
    upstream = lam[:, None] * (t.up_ell + (t.ell - value)[:, None] * t.up_u)
    return value, model.backward(params, t.trace, upstream)


def pool_stats(noise: float, params, dataset):
    """(F, raw g) over a dataset, values only; cheap instrumentation hook."""
    t = _batch_terms(noise, params, dataset, grad=False)
    lam = _softmax(t.u)  # _batch_terms applied the |u| guard
    return float(lam @ t.ell), float(np.mean(np.exp(t.u)))
