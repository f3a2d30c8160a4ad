"""Command-line entry points: dataset generation, training runs, evaluation.

Three subcommands cover the experiment lifecycle:

  gen    draw an episode stream from a config, label every sample with the
         iterative solver, and write it as a dataset file.
  run    stream a dataset through the selected strategies, writing one
         metrics CSV and one model checkpoint per method.
  eval   score a saved model (or the solver itself) on a dataset's test
         sets and write a ratio histogram.

gen labels in its own process. On Linux with OpenBLAS, run trains the
methods in forked processes, one per usable CPU (see workers).

ExperimentConfig takes its training fields from harness.Training, which
checks them at load; run also builds each selected method's StrategyConfig
before it writes or forks anything, so a bad config writes nothing.

Every command is deterministic given (config, seed): reruns reproduce
output files byte for byte, and timings go to the console only.

main(argv) may be called any number of times in one process. It builds
its parser on the first call and reuses it, and it looks up cmd_gen,
cmd_run or cmd_eval each time it runs one, so a function replaced on
this module after the first call is the one that runs.

Exit codes: 0 success, 1 usage or input error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import channels, harness, model, workers
from .channels import EpisodeSpec
from .harness import METHODS, StrategyConfig

DEFAULT_SCALE = 10


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig(harness.Training):
    seed: int
    k_pairs: int
    episodes: list[EpisodeSpec]
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    memory_capacity: int = field(default=200, kw_only=True)

    def __post_init__(self):
        super().__post_init__()
        model.check_count("seed", self.seed, 0)
        model.check_count("k_pairs", self.k_pairs, 1)
        if not model.check_array("episodes", self.episodes):
            raise ValueError("config needs at least one episode")
        for m in model.check_array("methods", self.methods):
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {', '.join(METHODS)}")

    def strategy(self, method: str) -> StrategyConfig:
        training = {f.name: getattr(self, f.name) for f in dataclasses.fields(harness.Training)}
        return StrategyConfig(method=method, **training)


def default_config(scale: int = DEFAULT_SCALE) -> ExperimentConfig:
    """The stock four-episode setup, shrunk by `scale` to desk size."""
    if scale < 1 or 1000 % scale != 0:
        raise ValueError("scale must be a positive divisor of 1000")
    episodes = [
        EpisodeSpec("rayleigh", 20000 // scale, 1000 // scale, 4),
        EpisodeSpec("rician", 20000 // scale, 1000 // scale, 4),
        EpisodeSpec("geometry", 20000 // scale, 1000 // scale, 4, area_side_m=10.0),
        EpisodeSpec("geometry", 20000 // scale, 1000 // scale, 4, area_side_m=50.0),
    ]
    return ExperimentConfig(seed=0, k_pairs=10, episodes=episodes, memory_capacity=2000 // scale)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return dict(dataclasses.asdict(cfg), hidden_sizes=list(cfg.hidden_sizes))


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a JSON object gives; model.build refuses a missing or an unknown key."""
    cfg = model.build(ExperimentConfig, raw, "config")
    cfg.episodes = [model.build(EpisodeSpec, e, "episode") for e in cfg.episodes]
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)  # the flag passes the config's checks
    return cfg


def method_rngs(seed: int) -> dict[str, np.random.Generator]:
    """One child generator per method, fixed by canonical order.

    A method's stream depends only on the seed, not on which other
    methods run alongside it.
    """
    children = np.random.SeedSequence(seed).spawn(len(METHODS))
    return {m: np.random.default_rng(s) for m, s in zip(METHODS, children)}


def cmd_gen(args) -> int:
    cfg = _resolve_config(args)
    rng = np.random.default_rng(cfg.seed)
    stream = channels.build_stream(cfg.episodes, cfg.k_pairs, rng)
    stream.label(noise=cfg.noise, p_max=cfg.p_max)
    channels.save_dataset(stream, args.out)
    n_train = sum(e.n_train for e in cfg.episodes)
    n_test = sum(e.n_test for e in cfg.episodes)
    print(
        f"wrote {n_train} train + {n_test} test samples "
        f"({len(cfg.episodes)} episodes, K={cfg.k_pairs}) to {args.out}"
    )
    return 0


def _run_method(strategy, stream, rng, out_dir):
    method = strategy.method
    start = time.perf_counter()
    rows, err = [], None
    try:
        rows, params = harness.run_continual(stream, strategy, rng)
        model.save_params(params, out_dir / f"model_{method}.json")
    except harness.TrainingAborted as exc:
        rows, err = exc.rows, str(exc)
    if rows:
        harness.write_metrics_csv(out_dir / f"metrics_{method}.csv", rows)
    return rows, err, time.perf_counter() - start


# the methods by their measured cost on the stock run, largest first: the
# joint pools grow to the whole stream, Minimax takes full-pool steps
_BY_COST = ("JointWeighted", "Minimax", "JointEqual", "Bilevel", "Reservoir", "TL")


def cmd_run(args) -> int:
    cfg = _resolve_config(args)
    stream = channels.load_dataset(args.data)
    if stream.k_pairs != cfg.k_pairs:
        raise UsageError(f"dataset has K={stream.k_pairs}, config says K={cfg.k_pairs}")
    if (cfg.noise, cfg.p_max) != (stream.noise, stream.p_max):
        raise UsageError(
            f"dataset labels were solved at noise={stream.noise}, p_max={stream.p_max}; "
            f"config says noise={cfg.noise}, p_max={cfg.p_max}"
        )
    selected = cfg.methods
    if args.methods is not None:
        selected = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not selected:
        raise UsageError("no methods selected")
    # every strategy is checked before anything is written or forked
    strategies = {m: cfg.strategy(m) for m in selected}
    ordered = [m for m in METHODS if m in strategies]
    out_dir = _ensure_dir(args.out)
    rngs = method_rngs(cfg.seed)
    failed = []

    def job(method):
        return _run_method(strategies[method], stream, rngs[method], out_dir)

    def report(method, outcome):
        if isinstance(outcome, workers.WorkerDied):
            outcome = [], str(outcome), outcome.secs
        rows, err, secs = outcome
        if err is not None:
            failed.append(method)
            print(f"{method}: ABORTED after {len(rows)} rounds ({secs:.1f}s): {err}", file=sys.stderr)
            return
        print(
            f"{method}: {len(rows)} rounds in {secs:.1f}s, final avg rate {rows[-1].avg_rate:.4f}, "
            f"final mean ratio {np.mean(rows[-1].per_episode_ratio):.4f}, metrics in metrics_{method}.csv"
        )

    # the workers start in decreasing cost, so the last to finish is a
    # short job; the reports, and with them the bytes, stay in canonical order
    by_cost = sorted(ordered, key=_BY_COST.index)
    workers.run(ordered, job, workers.worker_cpus(), report, start=by_cost)
    return 2 if failed else 0


def cmd_eval(args) -> int:
    stream = channels.load_dataset(args.data)
    if args.policy == "wmmse":
        policy = harness.wmmse_policy(noise=stream.noise, p_max=stream.p_max)
        label = "wmmse"
    else:
        params = model.load_params(args.checkpoint)
        if params.layer_sizes[0] != stream.k_pairs**2:
            raise UsageError(
                f"checkpoint expects {params.layer_sizes[0]} inputs, "
                f"dataset K={stream.k_pairs} gives {stream.k_pairs ** 2}"
            )
        if params.layer_sizes[-1] != stream.k_pairs:
            raise UsageError(
                f"checkpoint outputs {params.layer_sizes[-1]} powers, dataset K={stream.k_pairs} needs {stream.k_pairs}"
            )
        if params.p_max != stream.p_max:
            raise UsageError(f"checkpoint has p_max={params.p_max}, dataset labels were solved at p_max={stream.p_max}")
        policy = harness.network_policy(params)
        label = args.checkpoint
    # the policy runs once per test set; the means and the histogram share its ratios
    scores = harness.score_sets(policy, stream.test_sets, noise=stream.noise)
    hist = harness.pooled_histogram(scores, args.bin_width)
    rates, ratios = harness.episode_means(scores)
    for i, (r, q) in enumerate(zip(rates, ratios)):
        print(f"episode {i}: mean rate {r:.6f} nats, mean ratio {q:.6f}")
    print(f"average rate {np.mean(rates):.6f} ({label})")
    out_dir = _ensure_dir(args.out)
    hist_path = out_dir / "histogram.csv"
    with model.replacing(hist_path, newline="") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        for lo, hi, count in hist:
            fh.write(f"{lo!r},{hi!r},{count}\n")
    print(f"histogram in {hist_path}")
    return 0


def _ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faircl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labeled dataset")
    gen.add_argument("--config", help="config JSON; omit for the stock desk-scale setup")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--out", required=True, help="dataset file to write")

    run = sub.add_parser("run", help="train strategies over a dataset")
    run.add_argument("--config", help="config JSON; omit for the stock desk-scale setup")
    run.add_argument("--seed", type=int, help="override the config seed")
    run.add_argument("--data", required=True, help="dataset file from gen")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--methods", help="comma-separated subset of methods")

    ev = sub.add_parser("eval", help="score a checkpoint or the solver on a dataset")
    ev.add_argument("--checkpoint", help="model checkpoint JSON")
    ev.add_argument("--data", required=True, help="dataset file from gen")
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--policy", choices=["checkpoint", "wmmse"], default="checkpoint")
    ev.add_argument("--bin-width", type=_positive_float, default=0.1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "eval":
            if args.policy == "checkpoint" and not args.checkpoint:
                raise UsageError("--checkpoint is required unless --policy wmmse")
            if args.policy == "wmmse" and args.checkpoint is not None:
                raise UsageError("--checkpoint cannot be used with --policy wmmse")
        # looked up per call, not stored in the cached parser, so a
        # replaced cmd_* (a tracing wrapper, a test's spy) is what runs
        command = {"gen": cmd_gen, "run": cmd_run, "eval": cmd_eval}[args.command]
        return command(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
