import numpy as np
import pytest

from faircl import memory


def samples(n, start=0):
    # a memory holds row indices of a stream's sample set
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
    u = np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7])
    assert memory.update_bilevel(pool, u, 3) == [pool[1], pool[3], pool[5]]
    assert memory.update_bilevel(pool[:2], u[:2], 3) == pool[:2]


def test_update_bilevel_misaligned():
    with pytest.raises(ValueError, match="3 scores for 4 pool samples"):
        memory.update_bilevel(samples(4), np.zeros(3), 3)


def test_bilevel_keeps_whole_stream_when_big_enough():
    pool = samples(5)
    assert memory.update_bilevel(pool, np.arange(5.0), 10) == pool


# --------------------------------------------------------------- reservoir

def reservoir(batches, capacity, seed=0):
    """The memory after streaming batches through one reservoir."""
    rng = np.random.default_rng(seed)
    items, seen = [], 0
    for batch in batches:
        items = memory.update_reservoir(items, batch, seen, capacity, rng)
        seen += len(batch)
    return items


def test_reservoir_fills_exactly():
    assert reservoir([samples(5)], 5) == samples(5)


def test_reservoir_capacity_and_count():
    # the second batch's slots are drawn against 31..55 rows seen
    items = reservoir([samples(30), samples(25, start=30)], 10)
    assert len(items) == 10
    assert items == reservoir([samples(55)], 10)


def test_reservoir_zero_capacity():
    assert reservoir([samples(20)], 0) == []


def test_reservoir_uniform_inclusion():
    # every stream position should be kept with probability close to M/N
    n, cap, trials = 60, 12, 3000
    rng = np.random.default_rng(1)
    stream = list(range(n))
    hits = np.zeros(n)
    for _ in range(trials):
        hits[memory.update_reservoir([], stream, 0, cap, rng)] += 1
    p = cap / n
    sigma = np.sqrt(p * (1 - p) / trials)
    assert np.all(np.abs(hits / trials - p) < 4 * sigma)


def test_rules_leave_their_inputs_alone():
    items, pool = samples(3), samples(6)
    memory.update_reservoir(items, samples(5, start=3), 3, 3, np.random.default_rng(0))
    memory.update_joint(items, samples(2, start=3))
    memory.update_bilevel(pool, np.arange(6.0), 2)
    assert items == samples(3) and pool == samples(6)


# ------------------------------------------------------------------- joint

def test_joint_appends_in_order():
    first, second = samples(5), samples(5, start=100)
    items = memory.update_joint(memory.update_joint([], first), second)
    assert items == first + second
    assert memory.update_joint(items, []) == items


def test_rules_take_index_arrays():
    # the harness passes row ranges; numpy index arrays work the same way
    assert memory.update_bilevel(np.arange(10, 16), np.array([0.1, 0.9, 0.3, 0.8, 0.2, 0.7]), 3) == [11, 13, 15]
    kept = [
        reservoir(batches, 10)
        for batches in ([range(0, 30), range(30, 55)], [np.arange(0, 30), np.arange(30, 55)], [np.arange(0)])
    ]
    assert len(kept[0]) == 10 and kept[1] == kept[0] and kept[2] == []
    assert memory.update_joint(memory.update_joint([], np.arange(0, 5)), np.arange(5, 9)) == list(range(9))
