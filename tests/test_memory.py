import numpy as np
import pytest

from faircl import memory
from faircl.memory import MemoryBuffer


def samples(n, start=0):
    # buffers hold row indices of a stream's sample set
    return list(range(start, start + n))


# ------------------------------------------------------------- top-M select

def test_top_m_basic():
    # weights proportional to (0.5, 0.3, 0.2) mean u ordered the same way
    u = np.log([0.5, 0.3, 0.2])
    assert memory.top_m_indices(u, 2).tolist() == [0, 1]


def test_top_m_small_pool_keeps_all():
    assert memory.top_m_indices([3.0, 1.0, 2.0], 5).tolist() == [0, 1, 2]


def test_top_m_ties_take_earliest():
    assert memory.top_m_indices([1.0, 1.0, 1.0, 1.0], 2).tolist() == [0, 1]
    assert memory.top_m_indices([0.0, 1.0, 1.0, 1.0], 2).tolist() == [1, 2]


def test_top_m_is_threshold_selection():
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.normal(size=30)
        keep = memory.top_m_indices(u, 10)
        evicted = np.setdiff1d(np.arange(30), keep)
        assert u[keep].min() >= u[evicted].max()


def test_update_bilevel():
    pool = samples(6)
    buf = MemoryBuffer(3, memory.BILEVEL_TOP_M)
    u = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7])
    memory.update_bilevel(buf, pool, u)
    assert buf.items == [pool[1], pool[3], pool[5]]
    memory.update_bilevel(buf, pool[:2], u[:2])
    assert buf.items == pool[:2]


def test_update_bilevel_misaligned():
    buf = MemoryBuffer(3, memory.BILEVEL_TOP_M)
    with pytest.raises(ValueError, match="u values"):
        memory.update_bilevel(buf, samples(4), np.zeros(3))


def test_bilevel_keeps_whole_stream_when_big_enough():
    pool = samples(5)
    buf = MemoryBuffer(10, memory.BILEVEL_TOP_M)
    memory.update_bilevel(buf, pool, np.arange(5.0))
    assert buf.items == pool


# --------------------------------------------------------------- reservoir

def reservoir(capacity, seed=0):
    return MemoryBuffer(capacity, memory.RESERVOIR, rng=np.random.default_rng(seed))


def test_reservoir_fills_exactly():
    buf = reservoir(5)
    memory.update_reservoir(buf, samples(5))
    assert len(buf.items) == 5 and buf.seen_count == 5


def test_reservoir_capacity_and_count():
    buf = reservoir(10)
    memory.update_reservoir(buf, samples(30))
    memory.update_reservoir(buf, samples(25))
    assert len(buf.items) == 10 and buf.seen_count == 55


def test_reservoir_zero_capacity():
    buf = reservoir(0)
    memory.update_reservoir(buf, samples(20))
    assert buf.items == [] and buf.seen_count == 20


def test_reservoir_uniform_inclusion():
    # every stream position should be kept with probability close to M/N
    n, cap, trials = 60, 12, 3000
    rng = np.random.default_rng(1)
    stream = list(range(n))
    hits = np.zeros(n)
    for _ in range(trials):
        buf = MemoryBuffer(cap, memory.RESERVOIR, rng=rng)
        memory.update_reservoir(buf, stream)
        hits[buf.items] += 1
    p = cap / n
    sigma = np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(hits / trials - p) < 4 * sigma)


def test_reservoir_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        MemoryBuffer(3, memory.RESERVOIR)


# ------------------------------------------------------------------- joint

def test_joint_appends_in_order():
    buf = MemoryBuffer(0, memory.JOINT_UNBOUNDED)
    first, second = samples(5), samples(5, start=100)
    memory.update_joint(buf, first)
    memory.update_joint(buf, second)
    assert len(buf.items) == 10
    assert buf.items[:5] == first
    assert buf.items[5:] == second
    memory.update_joint(buf, [])
    assert len(buf.items) == 10


def test_rules_take_index_arrays():
    # the harness passes row ranges; numpy index arrays work the same way
    buf = MemoryBuffer(3, memory.BILEVEL_TOP_M)
    memory.update_bilevel(buf, np.arange(10, 16), np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7]))
    assert buf.items == [11, 13, 15]
    kept = []
    for batches in ([range(0, 30), range(30, 55)], [np.arange(0, 30), np.arange(30, 55)], [np.arange(0)]):
        buf = reservoir(10)
        for batch in batches:
            memory.update_reservoir(buf, batch)
        kept.append(buf.items)
    assert len(kept[0]) == 10 and kept[1] == kept[0] and kept[2] == []
    buf = MemoryBuffer(0, memory.JOINT_UNBOUNDED)
    memory.update_joint(buf, np.arange(0, 5))
    memory.update_joint(buf, np.arange(5, 9))
    assert buf.items == list(range(9)) and buf.seen_count == 9


# --------------------------------------------------------------- guardrails

def test_strategy_mismatch_rejected():
    buf = MemoryBuffer(3, memory.JOINT_UNBOUNDED)
    with pytest.raises(ValueError, match="strategy"):
        memory.update_bilevel(buf, samples(3), np.zeros(3))
    with pytest.raises(ValueError, match="strategy"):
        memory.update_reservoir(buf, samples(3))


def test_buffer_validation():
    with pytest.raises(ValueError, match="strategy"):
        MemoryBuffer(3, "fifo")
    with pytest.raises(ValueError, match="capacity"):
        MemoryBuffer(-1, memory.NO_MEMORY)
