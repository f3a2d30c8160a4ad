"""Continual-learning outer loop, strategy table, and evaluation.

Six strategies consume the same episode stream. Each is one row of
STRATEGIES: a trainer (sgd: plain SGD, scsc: the compositional trainer,
gda: descent/ascent) paired with a memory rule (see memory). All of them
train first and update their memory afterwards, warm-starting each round
from the previous round's parameters. _train_round branches on the
trainer and run_continual on the memory rule, never on a method name.
Both call through the trainer and memory module attributes, so a tracer
that replaces those attributes sees every call.

Training takes the stream's sample set at row indices, the memory's first
and then the batch's, and never sees episode boundaries; only evaluation
groups the held-out sets by episode.

Training declares the training fields once and checks their types and
ranges by model's input rules; StrategyConfig adds the method and
Minimax's two-timescale check.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import memory as memory_mod
from . import model, objective, trainer, wsr


class Strategy(NamedTuple):
    trainer: str  # "sgd", "scsc" or "gda"
    memory: str | None  # None, "reservoir", "top_m" or "joint"


# the row order is the canonical method order: it fixes each method's
# random stream (cli.method_rngs) and the report order
STRATEGIES = {
    "TL": Strategy("sgd", None),  # the newest batch only
    "Reservoir": Strategy("sgd", "reservoir"),  # plus a uniform sample of the stream
    "Bilevel": Strategy("scsc", "top_m"),  # plus the M worst-served (largest u) pool rows
    "Minimax": Strategy("gda", "top_m"),  # plus the M pool rows of largest final dual weight
    "JointEqual": Strategy("sgd", "joint"),  # every sample seen so far
    "JointWeighted": Strategy("scsc", "joint"),
}
METHODS = tuple(STRATEGIES)


class TrainingAborted(RuntimeError):
    """A strategy's trainer failed; metrics gathered so far ride along."""

    def __init__(self, message, rows):
        super().__init__(message)
        self.rows = rows


@dataclass(kw_only=True)
class Training:
    """The training fields of a strategy and of an experiment config.

    noise and p_max are those the labels are solved at: training and
    scoring take their rates at noise, and the network's powers stay below
    p_max. __post_init__ checks each field's JSON type and range.
    """

    memory_capacity: int = 0
    noise: float = 1.0
    hidden_sizes: tuple[int, ...] = (200, 80)
    p_max: float = 1.0
    epochs: int = 20
    minibatch_size: int = 50
    alpha: float = trainer.DEFAULT_ALPHA
    beta: float = trainer.DEFAULT_BETA
    gda_alpha_theta: float | None = None
    gda_alpha_lambda: float | None = None

    def __post_init__(self):
        self.hidden_sizes = tuple(model.check_array("hidden_sizes", self.hidden_sizes))
        for name, least in (("memory_capacity", 0), ("epochs", 0), ("minibatch_size", 1)):
            model.check_count(name, getattr(self, name), least)
        for n in self.hidden_sizes:
            model.check_count("hidden_sizes entry", n, 1)
        model.check_positive("noise", self.noise)
        model.check_positive("p_max", self.p_max)
        model.check_positive("alpha", self.alpha)
        model.check_positive("beta", self.beta, most=1)
        model.check_positive("gda_alpha_theta", self.gda_alpha_theta, nullable=True)
        model.check_positive("gda_alpha_lambda", self.gda_alpha_lambda, nullable=True)


@dataclass
class StrategyConfig(Training):
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {', '.join(METHODS)}")
        super().__post_init__()
        if self.method == "Minimax":
            a_theta, a_lambda = self.gda_rates()
            if not a_lambda > a_theta:
                raise ValueError(f"Minimax needs gda_alpha_lambda > gda_alpha_theta, got {a_lambda!r} <= {a_theta!r}")

    def gda_rates(self) -> tuple[float, float]:
        """Minimax's (alpha_theta, alpha_lambda): theta defaults to alpha, lambda to 10 theta."""
        a_theta = self.alpha if self.gda_alpha_theta is None else self.gda_alpha_theta
        return a_theta, 10.0 * a_theta if self.gda_alpha_lambda is None else self.gda_alpha_lambda


@dataclass
class MetricsRow:
    seen_samples: int
    method: str
    per_episode_rate: list[float]
    per_episode_ratio: list[float]
    avg_rate: float
    wall_ms: int


def network_policy(params: model.ModelParams):
    """Power allocation by the trained network."""

    def policy(samples):
        mag = samples.mag
        return model.forward(params, mag.reshape(len(mag), -1))[0]

    return policy


def wmmse_policy(noise: float = 1.0, p_max: float = 1.0):
    """Power allocation by the iterative solver itself."""

    def policy(samples):
        return wsr.wmmse_many(samples.mag * samples.mag, noise=noise, p_max=p_max)[0]

    return policy


def _set_ratios(policy, test_set, noise):
    missing = np.isnan(test_set.rbar)
    if missing.any():
        raise ValueError(f"test sample {int(missing.argmax())} has no rbar; evaluation needs solver rates")
    mag = test_set.mag
    rates = wsr.sum_rate_many(mag * mag, np.asarray(policy(test_set), dtype=float), noise=noise)
    return rates, rates / test_set.rbar


def score_sets(policy, test_sets, noise: float = 1.0):
    """Per-sample (rates, rate/rbar ratios) of each test set, one policy call per set."""
    return [_set_ratios(policy, test_set, noise) for test_set in test_sets]


def episode_means(scores):
    """(mean rate, mean ratio) per test set, from score_sets' arrays."""
    if not scores:
        raise ValueError("no test sets")
    return [float(r.mean()) for r, _ in scores], [float(q.mean()) for _, q in scores]


# a histogram holds one count, and its CSV one row, per bin up to the
# largest ratio: a width of 1e-8 would ask for gigabytes
_MAX_BINS = 100_000


def pooled_histogram(scores, bin_width: float):
    """Histogram of score_sets' ratios, pooled, as (bin_lo, bin_hi, count) rows.

    Raises ValueError if bin_width would need more than _MAX_BINS bins.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    pooled = np.concatenate([q for _, q in scores])
    with np.errstate(over="ignore"):  # an inf bin index is refused below
        bins = np.floor(pooled / bin_width)
    n_bins = bins.max() + 1
    if not n_bins <= _MAX_BINS:
        raise ValueError(f"bin width {bin_width!r} needs {n_bins:.4g} bins, more than {_MAX_BINS}")
    counts = np.bincount(bins.astype(int), minlength=int(n_bins))
    return [(i * bin_width, (i + 1) * bin_width, int(c)) for i, c in enumerate(counts)]


def evaluate(policy, test_sets, noise: float = 1.0):
    """(mean rate, mean rate/rbar ratio) per episode test set."""
    return episode_means(score_sets(policy, test_sets, noise))


def ratio_histogram(policy, test_sets, bin_width: float, noise: float = 1.0):
    """Pooled histogram of per-sample ratios as (bin_lo, bin_hi, count) rows."""
    return pooled_histogram(score_sets(policy, test_sets, noise), bin_width)


def _train_round(cfg, params, train_set, rng):
    """(params, scores): scores are the final dual for gda, else None."""
    kind = STRATEGIES[cfg.method].trainer
    if kind == "sgd":
        return trainer.sgd_train(params, train_set, cfg.epochs, cfg.minibatch_size, cfg.alpha, rng), None
    # the step count of cfg.epochs passes over the pool
    iters = cfg.epochs * math.ceil(len(train_set) / cfg.minibatch_size)
    if kind == "scsc":
        state = trainer.init_state(params, cfg.alpha, cfg.beta, rng=rng)
        state = trainer.scsc_train(state, cfg.noise, train_set, iters, cfg.minibatch_size)
        return state.params, None
    # gda: a fresh uniform dual each round
    a_theta, a_lambda = cfg.gda_rates()
    return trainer.gda_train(params, train_set, iters, a_theta, a_lambda)


def run_continual(stream, cfg: StrategyConfig, rng):
    """Stream the batches through one strategy.

    Returns (rows, params): one MetricsRow per batch plus the final model.
    A trainer failure, or a |u| guard trip in training or selection, raises
    TrainingAborted carrying the rows of the rounds completed before it.
    """
    k = stream.k_pairs
    params = model.init((k * k, *cfg.hidden_sizes, k), cfg.p_max, rng)
    rule = STRATEGIES[cfg.method].memory
    items: list = []  # the memory: row indices of stream.samples
    rows: list[MetricsRow] = []
    seen = 0
    for batch in stream.batches:
        start = time.perf_counter()
        pool = items + list(batch)  # row indices: memory first, then the batch
        scores = None
        try:
            if pool:
                train_set = stream.samples.take(pool)
                params, scores = _train_round(cfg, params, train_set, rng)
            if rule == "reservoir":
                items = memory_mod.update_reservoir(items, batch, seen, cfg.memory_capacity, rng)
            elif rule == "top_m" and pool:
                if scores is None:
                    scores = objective.lower_values(cfg.noise, params, train_set)
                items = memory_mod.update_bilevel(pool, scores, cfg.memory_capacity)
            elif rule == "joint":
                items = memory_mod.update_joint(items, batch)
        except (
            trainer.DivergenceError,
            objective.TrackingCollapseError,
            objective.GuardExceededError,
        ) as exc:
            raise TrainingAborted(f"{cfg.method}: {exc}", rows) from exc
        seen += len(batch)
        rates, ratios = evaluate(network_policy(params), stream.test_sets, cfg.noise)
        row = MetricsRow(
            seen_samples=seen,
            method=cfg.method,
            per_episode_rate=rates,
            per_episode_ratio=ratios,
            avg_rate=float(np.mean(rates)),
            wall_ms=int(round((time.perf_counter() - start) * 1000)),
        )
        rows.append(row)
    return rows, params


def metrics_header(n_episodes: int) -> list[str]:
    return (
        ["seen", "method"]
        + [f"ep{i}_rate" for i in range(n_episodes)]
        + [f"ep{i}_ratio" for i in range(n_episodes)]
        + ["avg_rate", "wall_ms"]
    )


def write_metrics_csv(path, rows) -> None:
    """One CSV row per round: seen,method,ep*_rate,ep*_ratio,avg_rate,wall_ms."""
    if not rows:
        raise ValueError("no metrics rows")
    n_episodes = len(rows[0].per_episode_rate)
    with model.replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(metrics_header(n_episodes))
        for r in rows:
            writer.writerow(
                [r.seen_samples, r.method]
                + [repr(v) for v in r.per_episode_rate]
                + [repr(v) for v in r.per_episode_ratio]
                + [repr(r.avg_rate), r.wall_ms]
            )
