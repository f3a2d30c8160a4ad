"""Host-speed calibration for the untraced benchmark run.

The speed of a shared host moves by about a quarter over seconds and
minutes, and CPU time moves with wall time, so no split of one run into
more samples removes it. A fixed calibration kernel, timed after each
measured step, tracks the host's speed through the run. A step's median
wall time in a run, multiplied by REFERENCE_S over the run's median
calibration block, is its scaled time: seconds on a host where one kernel
call takes REFERENCE_S. Single blocks are too noisy to scale single steps
by; the run's median block follows the drift between runs, and the median
over steps absorbs the rest. The kernel is the benchmark's own code, so a
change to faircl moves scaled times exactly as it moves wall times.

The kernel mixes what faircl's commands spend their time on: small dense
matrix products (the model passes), many calls on short numpy arrays (the
objective and rate functions), JSON text (datasets and checkpoints) and
plain interpreter work.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# scaled seconds are seconds on a host where one kernel call takes this
# long; about the kernel's median on the 2-vCPU machine this was built on
REFERENCE_S = 0.014
CHUNKS = 5  # kernel calls per calibration block; the block is their median

_RNG = np.random.default_rng(12345)
_W = _RNG.standard_normal((200, 200)) * 0.05
_X = _RNG.standard_normal((50, 200))
_SHORT = [_RNG.standard_normal(10) for _ in range(50)]
_DOC = [[float(v) for v in _RNG.standard_normal(10)] for _ in range(40)]


def kernel() -> float:
    """Wall seconds of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    x = _X
    for _ in range(30):
        x = np.tanh(x @ _W)
    acc = 0.0
    for _ in range(20):
        for v in _SHORT:
            acc += float(np.sum(np.log1p(v * v)))
    for _ in range(3):
        acc += len(json.loads(json.dumps(_DOC)))
    n = 0
    for i in range(20000):
        n += i % 7
    return time.perf_counter() - start


def block() -> float:
    """Median kernel time over CHUNKS calls."""
    return statistics.median(kernel() for _ in range(CHUNKS))


class HostClock:
    """Tracks the host's speed through a run.

    One calibration block runs on construction, after a warm-up call, and
    tick() runs another; the benchmark ticks after every timed step, so
    the blocks are spread over the whole run. factor() turns a median wall
    time of the run into seconds at the reference speed.
    """

    def __init__(self):
        kernel()
        self.blocks = [block()]

    def tick(self) -> None:
        self.blocks.append(block())

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.blocks)

    def median_ms(self) -> float:
        return statistics.median(self.blocks) * 1e3
