import os
import threading

import numpy  # loaded before forks_here looks for its OpenBLAS, whatever workers imports
import pytest

from faircl import workers

# forked workers need a readable CPU set and an OpenBLAS to hold to one thread
forks_here = pytest.mark.skipif(
    workers._openblas() is None or not hasattr(os, "sched_getaffinity"),
    reason="jobs run in-process here",
)


@pytest.fixture
def no_children():
    yield
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def use_cpus(monkeypatch):
    """use_cpus(n) makes CPUs 0 to n-1 the usable ones."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


@pytest.fixture
def forks(monkeypatch):
    """A list that gets one entry per os.fork call."""
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


def through_fifo(load, path):
    """load applied to a FIFO that carries path's bytes.

    A reader cannot learn a FIFO's size before reading it (fstat gives 0).
    """
    fifo = path.with_name("data.fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join()
        fifo.unlink()
