"""Span recording for the traced benchmark run.

A Tracer swaps each named public function of the faircl package for a
wrapper on its module attribute. The package calls these functions through
module attributes or module globals (objective -> model.forward,
wsr.wmmse -> wsr.sum_rate), so the wrappers see intra-package calls too.
Each call records one span: name, start, end, parent and an optional work
tally (rows, MFLOP, bytes). Spans stay in memory until summarise() turns
them into per-name totals.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

# (module, attribute) pairs the traced run wraps; the span name is
# "<module>.<attribute>" and the layer is the module.
TRACED = {
    "cli": ("main", "cmd_gen", "cmd_run", "cmd_eval"),
    "channels": ("build_stream", "add_wmmse_labels", "save_dataset", "load_dataset"),
    "wsr": ("wmmse", "sum_rate", "sum_rate_many", "grad_sum_rate_many"),
    "model": ("forward", "backward", "save_params", "load_params"),
    "objective": ("g_eval", "g_value", "f_eval", "weighted_upper", "lower_values"),
    "trainer": ("scsc_step", "scsc_train", "sgd_train", "gda_train"),
    "memory": ("update_bilevel", "update_reservoir", "update_joint"),
    "harness": ("run_continual", "evaluate", "ratio_histogram", "write_metrics_csv"),
}


def _dense_flop(sizes) -> int:
    return 2 * sum(fi * fo for fi, fo in zip(sizes[:-1], sizes[1:]))


def _forward_work(args, kwargs):
    params, x = args[0], args[1] if len(args) > 1 else kwargs["x"]
    rows = 1 if getattr(x, "ndim", 2) == 1 else len(x)
    return rows, rows * _dense_flop(params.layer_sizes) / 1e6


def _backward_work(args, kwargs):
    params, trace = args[0], args[1]
    rows = trace.outputs.shape[0]
    sizes = params.layer_sizes
    # weight gradients for every layer, input gradients below the top one
    flop = 2 * _dense_flop(sizes) - 2 * sizes[0] * sizes[1]
    return rows, rows * flop / 1e6


def _file_bytes(args, kwargs):
    path = args[1] if len(args) > 1 else args[0]
    return (os.path.getsize(path),)


# work tallies taken from a call's arguments, before (load) or after (save)
# the call; the value is a tuple summed per span name
WORK_BEFORE = {
    "model.forward": _forward_work,
    "model.backward": _backward_work,
    "channels.load_dataset": _file_bytes,
}
WORK_AFTER = {"channels.save_dataset": _file_bytes}


class Tracer:
    """Install span-recording wrappers on enter, restore the originals on exit."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.work: list = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        before, after = WORK_BEFORE.get(name), WORK_AFTER.get(name)
        per_method = name == "harness.run_continual"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(self._id(f"{name}.{args[1].method}") if per_method else nid)
            self.parent.append(self._stack[-1])
            self.end.append(0)
            self.work.append(before(args, kwargs) if before else None)
            self._stack.append(i)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self._stack.pop()
            if after:
                self.work[i] = after(args, kwargs)
            return result

        return traced

    def __enter__(self):
        for layer, attrs in TRACED.items():
            mod = self._modules[layer]
            for attr in attrs:
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(f"{layer}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
        return False

    def summarise(self) -> "Summary":
        """Per-name calls, total and self nanoseconds, and work tallies."""
        s = Summary()
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        run_id = self._ids.get("cli.cmd_run")
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            s.calls[name] += 1
            s.total_ns[name] += dur
            s.self_ns[name] += dur - child_ns[i]
            w = self.work[i]
            if w is not None:
                s.work[name] = tuple(a + b for a, b in zip(s.work.get(name, (0,) * len(w)), w))
            if name in ("model.forward", "model.backward") and self._has_ancestor(i, run_id):
                s.model_in_run_ns += dur
        return s

    def _has_ancestor(self, i: int, nid) -> bool:
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False


class Summary:
    """Span totals by name; phases combine by adding their totals."""

    def __init__(self):
        self.calls = defaultdict(float)
        self.total_ns = defaultdict(float)
        self.self_ns = defaultdict(float)
        self.work: dict[str, tuple] = {}
        self.model_in_run_ns = 0.0

    def add(self, other: "Summary", divisor: int = 1) -> None:
        """Add other's totals divided by divisor (exact for whole multiples)."""
        for mine, theirs in (
            (self.calls, other.calls),
            (self.total_ns, other.total_ns),
            (self.self_ns, other.self_ns),
        ):
            for k, v in theirs.items():
                mine[k] += v / divisor
        for k, w in other.work.items():
            base = self.work.get(k, (0,) * len(w))
            self.work[k] = tuple(a + b / divisor for a, b in zip(base, w))
        self.model_in_run_ns += other.model_in_run_ns / divisor

    def seconds(self, name: str) -> float:
        return self.total_ns.get(name, 0.0) / 1e9

    def us_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0.0)
        return self.total_ns[name] / calls / 1e3 if calls else 0.0

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer) / 1e9

    def work_sum(self, name: str, index: int) -> float:
        w = self.work.get(name)
        return float(w[index]) if w else 0.0
