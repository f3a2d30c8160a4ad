"""Optimization loops for the power-control policy.

One loop, _loop, calls a step (state, rows) -> state a given number of
times; rows is the pool's row take at each draw, or the whole pool for a
None draw. A trainer is a lazy draw and a step, so zero steps draw nothing:

  sgd_train   plain SGD on the unweighted mean training loss, the optimizer
              behind the non-fairness baselines: one permutation per pass,
              drawn when the pass's first minibatch is taken.
  scsc_train  stochastic compositional updates for the weighted objective,
              on two uniform minibatches per step, xi's drawn first. A
              scalar tracking variable y follows the inner mean
              g(theta) = (1/n) sum e^{u_i}; each step refreshes y from two
              correction terms on phi, then descends the chain-rule
              gradient grad_g * d f/d z + grad_theta f at z = y on xi.
  gda_train   two-timescale descent/ascent for the minimax baseline, on the
              whole pool every step: theta descends the dual-weighted loss
              while the dual, uniform at the start, ascends by a
              multiplicative update that keeps it on the simplex exactly.

SGD and descent/ascent share one step, _descent; neither reads u, so
neither takes a noise power. Each trainer takes its pool's arrays once
(objective.as_batch), checking labels and rbar there. scsc_step is the one
compositional step, which scsc_train looks up in this module at every
draw; a state whose y is None starts y at g's value on phi. The step is
fused: one row take of the pool per step, phi's rows above xi's, and one
forward at theta over those stacked rows gives g on phi and every
term of f on xi, one value-only forward at the previous theta gives g's
old value on phi, a row view of the take, and once y is refreshed one
backward pulls back the stacked upstream, phi's g rows scaled by d f/d z
over xi's rows of grad_theta f. The network's backward is linear in its
upstream, so this is the chain-rule gradient up to summation order.

Every step owns the gradient vector model.backward returns, and _descend
builds the next parameter vector inside it: theta - alpha * grad without a
new array. The parameters a step starts from are never written, so a
compositional state's params_prev and a caller's params stay as they were.

A diverging step overflows on its way to a non-finite loss, y or
parameter, which the step reports, so the loop silences numpy's overflow
and invalid-value warnings. y must stay above a small floor; a collapse
aborts with diagnostics rather than being clamped, since downstream
quantities divide by y.
"""

from __future__ import annotations

import itertools
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
    """One instrumented compositional step."""

    step: int
    objective: float
    y: float
    tracking_error: float


def init_state(params, alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA, *, rng) -> TrainerState:
    """Fresh state at step 0; y is None until the first step sets it from phi's rows."""
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


def scsc_step(state: TrainerState, noise, rows, n_phi) -> TrainerState:
    """One fused compositional update: refresh y, then descend at z = y.

    rows is a SampleSet or an objective.Batch row take, phi's n_phi rows
    above xi's: phi feeds g at the current and the previous params, xi f's
    terms. A state whose y is None takes g's value on phi at its params.
    """
    rows = objective.as_batch(rows)
    if not 0 < n_phi < len(rows):
        raise ValueError(f"n_phi = {n_phi} leaves phi or xi empty in {len(rows)} rows")
    phi = rows.take(slice(n_phi))
    y = objective.g_value(noise, state.params, phi) if state.y is None else state.y
    if not y >= Y_FLOOR:
        raise TrackingCollapseError(
            f"tracking collapsed at step {state.step}: y = {y!r} (floor {Y_FLOOR})"
        )
    terms = objective.step_terms(noise, state.params, rows, n_phi)
    g_cur = terms.g_value
    g_prev = objective.g_value(noise, state.params_prev, phi)
    y_new = (1.0 - state.beta) * (y + g_cur - g_prev) + state.beta * g_cur
    if not y_new >= Y_FLOOR:
        raise TrackingCollapseError(
            f"tracking collapsed at step {state.step}: y = {y_new!r} (floor {Y_FLOOR})"
        )
    grad = objective.chain_gradient(state.params, terms, y_new)
    params_new = _descend(state.params, grad, state.alpha)
    return state._next(params_new, state.params, y_new, state.step + 1)


def _pool(pool, minibatch, need_u=True) -> objective.Batch:
    # every trainer's one check of its pool and minibatch size, and its arrays
    if not pool:
        raise ValueError("empty training pool")
    if minibatch < 1:
        raise ValueError("minibatch_size must be at least 1")
    return objective.as_batch(pool, need_u=need_u)


def _loop(state, pool, steps: int, draws, step):
    """state after steps calls of step(state, rows), rows the pool's take at the next draw.

    A None draw passes the whole pool. The loop asks draws for no more
    draws than it takes steps.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):
        for draw in itertools.islice(draws, steps):
            state = step(state, pool if draw is None else pool.take(draw))
    return state


def scsc_train(state: TrainerState, noise, pool, steps: int, minibatch_size: int, trace=None) -> TrainerState:
    """steps compositional steps with fresh uniform minibatches per step.

    Trace rows, when requested, snapshot each step's pre-update params:
    the full-pool objective, the new y, and its squared tracking error
    against the full-pool g.
    """
    pool = _pool(pool, minibatch_size)
    n, rng = len(pool), state.rng

    def draws():
        while True:
            xi = rng.integers(0, n, minibatch_size)
            phi = rng.integers(0, n, minibatch_size)
            yield np.concatenate((phi, xi))

    def step(state, rows):
        before = state.params
        state = scsc_step(state, noise, rows, minibatch_size)
        if trace is not None:
            f_val, g_bar = objective.pool_stats(noise, before, pool)
            trace.append(TraceRow(state.step - 1, f_val, state.y, (state.y - g_bar) ** 2))
        return state

    return _loop(state, pool, steps, draws(), step)


def _passes(rng, n, minibatch):
    # one permutation per pass over n rows, drawn when its first minibatch is taken
    while True:
        perm = rng.permutation(n)
        for s in range(0, n, minibatch):
            yield perm[s : s + minibatch]


def _descent(alpha, dual=None, alpha_lambda=0.0):
    # SGD's step on the rows' mean training loss, or descent/ascent's on the
    # dual-weighted one; the dual then ascends in place from the same losses
    hint = "alpha" if dual is None else "alpha_theta"

    def step(params, rows):
        ells, grad = objective.weighted_upper(params, rows, 1.0 / len(rows) if dual is None else dual)
        if not np.all(np.isfinite(ells)):
            raise DivergenceError(f"training loss diverged; reduce {hint}")
        params = _descend(params, grad, alpha)
        if dual is not None:
            lam = dual * np.exp(alpha_lambda * (ells - ells.max()))
            np.divide(lam, lam.sum(), out=dual)
        return params

    return step


def sgd_train(params, pool, steps: int, minibatch: int, alpha: float, rng) -> model.ModelParams:
    """steps SGD steps on the unweighted mean training loss, passes of a permuted pool."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    pool = _pool(pool, minibatch, need_u=False)
    return _loop(params, pool, steps, _passes(rng, len(pool), minibatch), _descent(alpha))


def gda_train(params, pool, steps: int, alpha_theta: float, alpha_lambda: float):
    """Two-timescale minimax: simultaneous theta descent and dual ascent.

    The dual starts uniform on the simplex. Both updates at step k use the
    same loss evaluation. The dual moves by
    lam_i <- lam_i * exp(alpha_lambda * ell_i), max-shifted and renormalized,
    so it stays on the simplex exactly. Returns (params, lam).
    """
    if not alpha_lambda > alpha_theta:
        raise ValueError("two-timescale ascent needs alpha_lambda > alpha_theta")
    if alpha_theta < 0:
        raise ValueError("alpha_theta must be nonnegative")
    pool = _pool(pool, 1, need_u=False)
    lam = np.full(len(pool), 1.0 / len(pool))
    return _loop(params, pool, steps, itertools.repeat(None), _descent(alpha_theta, lam, alpha_lambda)), lam
