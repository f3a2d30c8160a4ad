"""
Channel families and the episode stream
=======================================

Draws samples from the three fading families, compares their gain scales,
and round-trips an episode stream through the dataset file format.
"""

import tempfile
from pathlib import Path

import numpy as np

from faircl import channels

rng = np.random.default_rng(0)
K = 3

# The three families live on very different gain scales: Rayleigh and Rician
# entries are order one, while the geometry channel attenuates with squared
# distance and its direct links are no stronger than its cross links.
print(f"per-family |h| statistics, K={K}, 2000 draws each")
for name, batch in [
    ("rayleigh", channels.gen_rayleigh(K, 2000, rng)),
    ("rician", channels.gen_rician(K, 2000, rng)),
    ("geometry 10m", channels.gen_geometry(K, 2000, 10.0, rng)),
    ("geometry 50m", channels.gen_geometry(K, 2000, 50.0, rng)),
]:
    mags = batch.mag
    print(f"  {name:<13} mean {mags.mean():8.4f}   median {np.median(mags):8.4f}"
          f"   p99 {np.quantile(mags, 0.99):8.4f}")

# An episode stream interleaves nothing: each episode's training data arrives
# as contiguous batches, row ranges of one sample set, and the learner never
# sees the boundary.
specs = [
    channels.EpisodeSpec("rayleigh", 200, 50, 4),
    channels.EpisodeSpec("geometry", 200, 50, 4, area_side_m=50.0),
]
stream = channels.build_stream(specs, K, rng)
print(f"\nstream: {len(stream.batches)} batches, "
      f"{sum(len(b) for b in stream.batches)} train samples, "
      f"{sum(len(t) for t in stream.test_sets)} test samples")
for rows in stream.batches:
    print(f"  episode {stream.samples.episode[rows.start]}: batch of {len(rows)}")

# Labels attach in place: the solver's power vector and its rate.
stream.label()
sample = stream.samples[stream.batches[0][0]]
print(f"\nfirst sample label p = {np.round(sample.p_label, 4)}, "
      f"solver rate = {sample.rbar:.4f} nats")

# The dataset file is one JSON header line and the raw arrays; it reloads
# bit for bit.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.bin"
    channels.save_dataset(stream, path)
    again = channels.load_dataset(path)
    same = np.array_equal(stream.samples.h, again.samples.h)
    print(f"dataset round trip: {path.stat().st_size} bytes, "
          f"channels identical: {same}")
