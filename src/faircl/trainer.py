"""Optimization loops for the power-control policy.

Four training modes share the objective module's oracles:

  scsc_train  stochastic compositional updates for the weighted objective.
              A scalar tracking variable y follows the inner mean
              g(theta) = (1/n) sum e^{u_i}; each step refreshes y from two
              correction terms on a fresh minibatch phi, then descends the
              chain-rule gradient grad_g * d f/d z + grad_theta f evaluated
              at z = y on an independent minibatch xi.
  gd_train    full-batch gradient descent on the exact weighted objective.
  sgd_train   plain epoch SGD on the unweighted mean training loss, the
              optimizer behind the non-fairness baselines.
  gda_train   two-timescale descent/ascent for the minimax baseline: theta
              descends the dual-weighted loss while the dual, uniform at
              the start, ascends by a multiplicative update that keeps it
              on the simplex exactly.

Each loop takes its pool's arrays once (objective.as_batch), checking
labels and rbar there, and takes minibatches as row indices. A
compositional step is fused: scsc_train makes one row take of the pool
per step, phi's rows above xi's, and one forward at theta over those
stacked rows gives g on phi and every term of f on xi, one value-only
forward at the previous theta gives g's old value on phi, a row view of
the take, and once y is refreshed one backward pulls back the stacked
upstream, phi's g rows scaled by d f/d z over xi's rows of grad_theta f.
The network's backward is linear in its upstream, so this is the
chain-rule gradient up to summation order.

Every loop owns the gradient vector model.backward returns, and _descend
builds the next parameter vector inside it: theta - alpha * grad without a
new array. The parameters a step starts from are never written, so a
compositional state's params_prev and a caller's params stay as they were.

y must stay above a small floor; a collapse aborts with diagnostics rather
than being clamped, since downstream quantities divide by y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model, objective
from .objective import TrackingCollapseError, Y_FLOOR

DEFAULT_ALPHA = 1e-3
DEFAULT_BETA = 0.1


class DivergenceError(RuntimeError):
    """Training produced non-finite values."""


@dataclass(eq=False)
class TrainerState:
    """Compositional trainer state: current and previous params plus y."""

    params: model.ModelParams
    params_prev: model.ModelParams
    y: float | None
    step: int
    alpha: float
    beta: float
    rng: np.random.Generator

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if self.step < 0:
            raise ValueError("step must be nonnegative")

    def _next(self, params, params_prev, y, step) -> "TrainerState":
        # this state's alpha and beta passed __post_init__ and steps only
        # grow: the next state without dataclasses.replace's second check
        s = TrainerState.__new__(TrainerState)
        s.params, s.params_prev, s.y, s.step = params, params_prev, y, step
        s.alpha, s.beta, s.rng = self.alpha, self.beta, self.rng
        return s


@dataclass
class TraceRow:
    """One instrumented training step; unused fields stay None."""

    step: int
    objective: float
    grad_norm: float | None = None
    y: float | None = None
    tracking_error: float | None = None


def init_state(params, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA, *, rng) -> TrainerState:
    """Fresh state at step 0; y is set from the first minibatch seen."""
    return TrainerState(params, params, None, 0, alpha, beta, rng)


def _descend(params, grad, alpha) -> model.ModelParams:
    """params - alpha * grad, built in grad: the caller's gradient buffer becomes the new values.

    The same bits as params.values + (-alpha * grad); params is not written.
    """
    values = np.multiply(grad, -alpha, out=grad)
    np.add(params.values, values, out=values)
    # a NaN or an infinity shows in the smallest or the largest entry
    if not (-np.inf < np.minimum.reduce(values) and np.maximum.reduce(values) < np.inf):
        raise DivergenceError("parameter update produced non-finite values; reduce alpha")
    # params passed the layout check, and values the finite check just made
    return model.ModelParams._checked(params.layer_sizes, values, params.p_max)


def scsc_step(state: TrainerState, spec, batch_xi, batch_phi) -> TrainerState:
    """One fused compositional update: refresh y, then descend at z = y.

    The minibatches are SampleSets or objective.Batch row takes: xi feeds
    f's terms, phi g's at the current and the previous params.
    """
    phi = objective.as_batch(spec, batch_phi)
    return _scsc_step(state, spec, objective.stack(phi, objective.as_batch(spec, batch_xi)), len(phi))


def _scsc_step(state: TrainerState, spec, rows, n_phi) -> TrainerState:
    # rows is one Batch, phi's n_phi rows above xi's
    if state.y is None:
        raise ValueError("tracking variable not initialized; run scsc_train or set y")
    if not state.y >= Y_FLOOR:
        raise TrackingCollapseError(
            f"tracking collapsed at step {state.step}: y = {state.y!r} (floor {Y_FLOOR})"
        )
    terms = objective.step_terms(spec, state.params, rows, n_phi)
    g_cur = terms.g_value
    g_prev = objective.g_value(spec, state.params_prev, rows.take(slice(n_phi)))
    y_new = (1.0 - state.beta) * (state.y + g_cur - g_prev) + state.beta * g_cur
    if not y_new >= Y_FLOOR:
        raise TrackingCollapseError(
            f"tracking collapsed at step {state.step}: y = {y_new!r} (floor {Y_FLOOR})"
        )
    grad = objective.chain_gradient(state.params, terms, y_new)
    params_new = _descend(state.params, grad, state.alpha)
    return state._next(params_new, state.params, y_new, state.step + 1)


def scsc_train(state: TrainerState, spec, pool, iters: int, minibatch_size: int, trace=None) -> TrainerState:
    """iters compositional steps with fresh uniform minibatches per step.

    Trace rows, when requested, snapshot each step's pre-update params:
    the full-pool objective, the new y, and its squared tracking error
    against the full-pool g.
    """
    if not pool:
        raise ValueError("empty training pool")
    if minibatch_size < 1:
        raise ValueError("minibatch_size must be at least 1")
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    pool = objective.as_batch(spec, pool)
    n = len(pool)
    for _ in range(iters):
        xi_idx = state.rng.integers(0, n, minibatch_size)
        phi_idx = state.rng.integers(0, n, minibatch_size)
        rows = pool.take(np.concatenate((phi_idx, xi_idx)))
        if state.y is None:
            y0 = objective.g_value(spec, state.params, rows.take(slice(minibatch_size)))
            if not y0 >= Y_FLOOR:
                raise TrackingCollapseError(
                    f"tracking collapsed at initialization: y = {y0!r} (floor {Y_FLOOR})"
                )
            state = state._next(state.params, state.params_prev, y0, state.step)
        before = state.params
        state = _scsc_step(state, spec, rows, minibatch_size)
        if trace is not None:
            f_val, g_bar = objective.pool_stats(spec, before, pool)
            trace.append(
                TraceRow(
                    step=state.step - 1,
                    objective=f_val,
                    y=state.y,
                    tracking_error=(state.y - g_bar) ** 2,
                )
            )
    return state


def gd_train(params, spec, dataset, iters: int, alpha: float, trace=None) -> model.ModelParams:
    """Full-batch descent on the weighted objective."""
    if not dataset:
        raise ValueError("empty dataset")
    if iters < 0 or alpha < 0:
        raise ValueError("iters and alpha must be nonnegative")
    dataset = objective.as_batch(spec, dataset)
    for k in range(iters):
        value, grad = objective.full_objective(spec, params, dataset)
        if not np.isfinite(value) or not np.all(np.isfinite(grad)):
            raise DivergenceError(f"objective diverged at iteration {k}; reduce alpha")
        if trace is not None:
            trace.append(TraceRow(step=k, objective=value, grad_norm=float(np.linalg.norm(grad))))
        params = _descend(params, grad, alpha)
    return params


def sgd_train(params, spec, dataset, epochs: int, minibatch: int, alpha: float, rng) -> model.ModelParams:
    """Epoch SGD on the unweighted mean training loss."""
    if not dataset:
        raise ValueError("empty dataset")
    if minibatch < 1:
        raise ValueError("minibatch must be at least 1")
    if epochs < 0 or alpha < 0:
        raise ValueError("epochs and alpha must be nonnegative")
    pool = objective.as_batch(spec, dataset, need_u=False)
    n = len(pool)
    for _ in range(epochs):
        perm = rng.permutation(n)
        for s in range(0, n, minibatch):
            batch = pool.take(perm[s : s + minibatch])
            ells, grad = objective.weighted_upper(spec, params, batch, 1.0 / len(batch))
            if not np.all(np.isfinite(ells)):
                raise DivergenceError("training loss diverged; reduce alpha")
            params = _descend(params, grad, alpha)
    return params


def gda_train(params, spec, dataset, iters: int, alpha_theta: float, alpha_lambda: float):
    """Two-timescale minimax: simultaneous theta descent and dual ascent.

    The dual starts uniform on the simplex. Both updates at step k use the
    same loss evaluation. The dual moves by
    lam_i <- lam_i * exp(alpha_lambda * ell_i), max-shifted and renormalized,
    so it stays on the simplex exactly. Returns (params, lam).
    """
    if not dataset:
        raise ValueError("empty dataset")
    if not alpha_lambda > alpha_theta:
        raise ValueError("two-timescale ascent needs alpha_lambda > alpha_theta")
    if alpha_theta < 0 or iters < 0:
        raise ValueError("alpha_theta and iters must be nonnegative")
    pool = objective.as_batch(spec, dataset, need_u=False)
    lam = np.full(len(pool), 1.0 / len(pool))
    for _ in range(iters):
        ells, grad = objective.weighted_upper(spec, params, pool, lam)
        if not np.all(np.isfinite(ells)):
            raise DivergenceError("training loss diverged; reduce alpha_theta")
        params = _descend(params, grad, alpha_theta)
        lam = lam * np.exp(alpha_lambda * (ells - ells.max()))
        lam = lam / lam.sum()
    return params, lam
