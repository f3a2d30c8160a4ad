"""Forked worker processes: run a command's independent jobs on every usable CPU.

run() calls a job once per key and hands each outcome to a report callback
in key order. On Linux with OpenBLAS, and more than one usable CPU, the
jobs run in children of multiprocessing's fork context, one per CPU at a
time, which inherit the caller's arrays unpickled and die with it;
elsewhere they run in this process, in turn. Either way OpenBLAS runs one
thread while a job runs, so a job's floating-point results do not depend
on where it ran or on the BLAS's own thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading
import time

# unused here, but it loads the OpenBLAS that _openblas looks for, so the
# lookup, which is cached, never runs before the library is there
import numpy

_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>


class WorkerDied(RuntimeError):
    """A forked worker that exited before it wrote its outcome; secs is how long it ran."""

    def __init__(self, message: str, secs: float):
        super().__init__(message)
        self.secs = secs


@functools.cache
def _openblas():
    """(set_num_threads, get_num_threads) of the loaded OpenBLAS, or None.

    They are scipy_openblas_{set,get}_num_threads64_ in numpy's wheels since
    numpy 2.0, openblas_{set,get}_num_threads64_ before, and have no suffix
    in a system OpenBLAS. Cached, so a forked child inherits the lookup
    instead of reading /proc/self/maps and loading the library again.
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold the loaded OpenBLAS, if one is found, to one thread for the block, then restore its count."""
    blas = _openblas()
    if blas is None:
        yield
        return
    set_threads, get_threads = blas
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def worker_cpus() -> list[int]:
    """The CPUs to fork workers on; none where jobs run in this process.

    That is where the CPU set cannot be read (macOS, Windows), other threads
    run (forking is unsafe then), one CPU is usable, or no OpenBLAS is found
    to hold each worker to one thread: with every worker's BLAS threads
    contending for 2 CPUs, a K=10 run took 13 times as long.
    """
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus if len(cpus) > 1 and _openblas() is not None else []


@functools.cache
def _libc():
    """The C library with prctl declared (Linux only); cached like _openblas, so a child does not load it again."""
    libc = ctypes.CDLL(None)
    libc.prctl.argtypes, libc.prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    return libc


def _pickled_outcome(job, key) -> bytes:
    """job(key)'s result, or the exception it raised, as pickle bytes."""
    try:
        return pickle.dumps(job(key))
    except Exception as exc:  # the parent re-raises it; this process only reports it
        try:
            data = pickle.dumps(exc)
            pickle.loads(data)  # an exception whose __init__ takes other args fails here
            return data
        except Exception:
            return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _child(job, key, cpu: int, cpus: list[int], parent: int, conn) -> None:
    """Send _pickled_outcome(job, key) through conn: the body of a forked worker.

    The child starts on `cpu`, then may move among `cpus`: left alone, a
    kernel may keep short-lived children on their parent's CPU while
    another idles. Its BLAS runs one thread: the workers already share the
    CPUs. The kernel kills it when its parent dies: a parent killed by
    SIGKILL gets no chance to kill its children, which would work on.
    """
    _libc().prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:  # the parent died before the prctl
        return
    with contextlib.suppress(OSError):  # a placement hint only
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, cpus)
    with one_blas_thread():
        conn.send_bytes(_pickled_outcome(job, key))


def run(keys, job, cpus: list[int], report, start=None) -> None:
    """Call report(key, outcome of job(key)) for each key, in the order of keys.

    With no CPUs given, the jobs run here, in turn, and an exception a job
    raises propagates. Otherwise each job runs in a forked child, one child
    per CPU at a time, started in the order of `start` (default: keys). An
    exception a child's job raised is re-raised here at its key's turn, and
    keys after it are not started. A child that dies before it writes its
    outcome gives report a WorkerDied as that outcome. No child outlives
    this call.
    """
    keys = list(keys)
    if not cpus:
        with one_blas_thread():
            for key in keys:
                report(key, job(key))
        return
    import multiprocessing.connection  # here, as gen and eval never fork: the import takes about 10 ms
    fork = multiprocessing.get_context("fork")  # a fork context's children inherit job unpickled
    queue = list(keys if start is None else start)
    free = cpus[: len(queue)]  # CPUs no live child started on
    live, done = {}, {}  # live: read end -> (key, process, cpu, start time)
    try:
        for key in keys:
            while key not in done:
                while queue and free:
                    k, cpu = queue.pop(0), free.pop(0)
                    r, w = fork.Pipe(duplex=False)
                    with w:  # the child's end: closed here once the child holds it
                        proc = fork.Process(target=_child, args=(job, k, cpu, cpus, os.getpid(), w))
                        try:
                            proc.start()
                        except BaseException:
                            r.close()
                            raise
                    live[r] = (k, proc, cpu, time.perf_counter())
                for r in multiprocessing.connection.wait(list(live)):
                    k, proc, cpu, began = live[r]
                    data = None
                    with contextlib.suppress(EOFError, OSError):  # EOF: the child left no outcome
                        data = r.recv_bytes()  # read before the join: no child blocks on a full pipe
                    proc.join()
                    code = proc.exitcode
                    del live[r]
                    r.close()
                    proc.close()
                    free.append(cpu)
                    if code == 0 and data is not None:
                        done[k] = pickle.loads(data)
                        if isinstance(done[k], Exception):  # keys after it are not started
                            queue = [q for q in queue if keys.index(q) < keys.index(k)]
                    else:
                        why = f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
                        done[k] = WorkerDied(f"worker process {why}", time.perf_counter() - began)
            outcome = done.pop(key)
            if isinstance(outcome, Exception) and not isinstance(outcome, WorkerDied):
                raise outcome
            report(key, outcome)
    finally:
        for r, (_, proc, *_) in live.items():
            proc.kill()
            proc.join()
            proc.close()
            r.close()
