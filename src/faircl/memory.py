"""Replay-memory rules for the continual-learning strategies.

A memory is a plain list of row indices of the stream's sample set, and
each rule is a function that returns the next list: fairness-driven top-M
selection (keep the M samples with the largest performance loss u, which
is exactly keeping the largest softmax weights), classic reservoir
sampling, and unbounded accumulation for the joint baselines. A method
with no memory keeps the empty list. The rules take pools and batches of
row indices and never modify the lists they are given.
"""

from __future__ import annotations

import numpy as np


def top_m_indices(u_values, m: int) -> np.ndarray:
    """Indices of the m largest u values, ascending; ties keep the earliest."""
    u = np.asarray(u_values, dtype=float)
    if u.ndim != 1:
        raise ValueError("u_values must be a vector")
    if m >= u.size:
        return np.arange(u.size)
    order = np.argsort(-u, kind="stable")
    return np.sort(order[:m])


def update_bilevel(pool, scores, capacity: int) -> list:
    """The capacity-M rows of the pool with the largest scores.

    A pool smaller than the capacity is kept whole. The scores are the
    performance losses u of the pool rows at the post-training params, or
    a trainer's final dual weights.
    """
    if len(scores) != len(pool):
        raise ValueError(f"{len(scores)} scores for {len(pool)} pool samples")
    return [pool[i] for i in top_m_indices(scores, capacity)]


def update_reservoir(items, batch, seen: int, capacity: int, rng) -> list:
    """Classic reservoir sampling over the whole stream seen so far.

    seen counts the rows the stream gave before this batch; an empty batch
    draws nothing from rng.
    """
    items = list(items)
    if not len(batch):
        return items
    draws = rng.random(len(batch))
    for sample, u in zip(batch, draws):
        seen += 1
        if len(items) < capacity:
            items.append(sample)
        else:
            slot = int(u * seen)
            if slot < capacity:
                items[slot] = sample
    return items


def update_joint(items, batch) -> list:
    """Append everything; nothing is ever evicted."""
    return [*items, *batch]
