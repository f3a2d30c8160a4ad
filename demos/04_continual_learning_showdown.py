"""
Six ways to ride an episodic stream
===================================

A model trained on a drifting channel stream has to balance adapting to the
newest batch against remembering the old ones. This script runs the six
update strategies over the same three-episode stream and tabulates how much
of each episode's solver rate they retain at the end.

TL retrains on the newest batch only. Reservoir and Bilevel keep a small
memory, filled uniformly at random or by picking the currently
worst-performing samples. Minimax reweights the same selected memory with
an adversarial dual step. The two Joint strategies keep everything and mark
the ceiling.
"""

import time

import numpy as np

from faircl import channels, cli, harness
from faircl.objective import LossSpec

SEED = 0
K = 3

specs = [
    channels.EpisodeSpec("rayleigh", 400, 100, 4),
    channels.EpisodeSpec("rician", 400, 100, 4),
    channels.EpisodeSpec("geometry", 400, 100, 4, area_side_m=50.0),
]
stream = channels.build_stream(specs, K, np.random.default_rng(SEED))
stream.label()
print(f"stream: 3 episodes x 400 train / 100 test, K={K}, memory half a batch")

rngs = cli.method_rngs(SEED)
results = {}
for method in harness.METHODS:
    cfg = harness.StrategyConfig(
        method=method,
        memory_capacity=50,
        loss=LossSpec(),
        hidden_sizes=(16,),
        epochs=20,
        minibatch_size=20,
        alpha=0.5 if harness.STRATEGIES[method].trainer == "sgd" else 0.3,
        beta=0.1,
        gda_alpha_theta=0.5,
        gda_alpha_lambda=1.0,
    )
    t0 = time.perf_counter()
    rows, _ = harness.run_continual(stream, cfg, rngs[method])
    results[method] = rows
    print(f"  {method:<14} trained in {time.perf_counter() - t0:5.1f}s")

print("\nfinal rate/solver per episode (higher is better, 1.0 matches wmmse)")
print(f"{'method':<14} {'episode 0':>10} {'episode 1':>10} {'episode 2':>10} "
      f"{'average':>10}")
for method, rows in results.items():
    q = rows[-1].per_episode_ratio
    print(f"{method:<14} {q[0]:>10.4f} {q[1]:>10.4f} {q[2]:>10.4f} "
          f"{np.mean(q):>10.4f}")

# How well the first episode survived two distribution shifts. At this toy
# scale the gaps are small and move with the seed; the pinned large-margin
# reproduction lives in the acceptance suite.
tl_q = results["TL"][-1].per_episode_ratio[0]
bl_q = results["Bilevel"][-1].per_episode_ratio[0]
je_q = results["JointEqual"][-1].per_episode_ratio[0]
print(f"\nepisode-0 retention: TL {tl_q:.4f} with no memory, Bilevel {bl_q:.4f} "
      f"from 50 stored samples, JointEqual {je_q:.4f} keeping all 1200")
