"""Replay buffers for the continual-learning strategies.

Four population rules share one buffer type: fairness-driven top-M
selection (keep the M samples with the largest performance loss u, which
is exactly keeping the largest softmax weights), classic reservoir
sampling, unbounded accumulation for the joint baselines, and no memory
at all. A buffer's items are row indices of the stream's sample set, and
the rules take pools and batches of row indices. Updates mutate the buffer
in place and return it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BILEVEL_TOP_M = "bilevel_top_m"
RESERVOIR = "reservoir"
JOINT_UNBOUNDED = "joint_unbounded"
NO_MEMORY = "no_memory"
STRATEGIES = (BILEVEL_TOP_M, RESERVOIR, JOINT_UNBOUNDED, NO_MEMORY)


@dataclass(eq=False)
class MemoryBuffer:
    capacity: int
    strategy: str
    items: list = field(default_factory=list)
    seen_count: int = 0
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if self.strategy == RESERVOIR and self.rng is None:
            raise ValueError("reservoir buffer needs an rng")


def _require(buffer: MemoryBuffer, strategy: str):
    if buffer.strategy != strategy:
        raise ValueError(f"buffer strategy is {buffer.strategy!r}, expected {strategy!r}")


def top_m_indices(u_values, m: int) -> np.ndarray:
    """Indices of the m largest u values, ascending; ties keep the earliest."""
    u = np.asarray(u_values, dtype=float)
    if u.ndim != 1:
        raise ValueError("u_values must be a vector")
    if m >= u.size:
        return np.arange(u.size)
    order = np.argsort(-u, kind="stable")
    return np.sort(order[:m])


def update_bilevel(buffer: MemoryBuffer, pool, u_values) -> MemoryBuffer:
    """Keep the capacity-M samples of the pool with the largest u.

    A pool smaller than the capacity is kept whole. u_values must be the
    performance losses of the pool samples at the post-training params.
    """
    _require(buffer, BILEVEL_TOP_M)
    if len(u_values) != len(pool):
        raise ValueError(f"{len(u_values)} u values for {len(pool)} pool samples")
    keep = top_m_indices(u_values, buffer.capacity)
    buffer.items = [pool[i] for i in keep]
    return buffer


def update_reservoir(buffer: MemoryBuffer, new_batch) -> MemoryBuffer:
    """Classic reservoir sampling over the whole stream seen so far."""
    _require(buffer, RESERVOIR)
    if not len(new_batch):
        return buffer
    draws = buffer.rng.random(len(new_batch))
    cap = buffer.capacity
    for sample, u in zip(new_batch, draws):
        buffer.seen_count += 1
        if len(buffer.items) < cap:
            buffer.items.append(sample)
        else:
            slot = int(u * buffer.seen_count)
            if slot < cap:
                buffer.items[slot] = sample
    return buffer


def update_joint(buffer: MemoryBuffer, new_batch) -> MemoryBuffer:
    """Append everything; nothing is ever evicted."""
    _require(buffer, JOINT_UNBOUNDED)
    buffer.items.extend(new_batch)
    buffer.seen_count += len(new_batch)
    return buffer
