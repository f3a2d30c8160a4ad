"""Fully-connected power-control policy with exact backpropagation.

The network maps the K^2 channel magnitudes to K transmit powers. Hidden
layers are ReLU; the output layer is a logistic sigmoid scaled by p_max, so
every output lands strictly inside (0, p_max) and the power box holds by
construction. Parameters live in one flat vector, layer-major: W0 row-major,
b0, W1, b1, ...

forward adds each bias and applies each ReLU in place on its GEMM's output,
and its trace keeps only the activation entering each layer: backward masks
the ReLU on a > 0, bitwise the mask z > 0 of the pre-activation. backward
returns a fresh gradient vector that the caller owns and may overwrite, as
the trainers do when they build the next parameter vector in it.
"""

from __future__ import annotations

import base64
import contextlib
import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass(eq=False)
class ModelParams:
    layer_sizes: tuple[int, ...]
    values: np.ndarray
    p_max: float
    # (W, b) views into values per layer, built once here; do not rebind values
    layers: list = field(init=False, repr=False)

    def __post_init__(self):
        self.layer_sizes = tuple(map(int, self.layer_sizes))
        spans = _layout(self.layer_sizes)
        values = self.values = np.asarray(self.values, dtype=float)
        want = spans[-1][2]
        if values.shape != (want,):
            raise ValueError(f"expected {want} parameter values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("parameter values must be finite")
        self.p_max = float(self.p_max)
        if not 0 < self.p_max < math.inf:
            raise ValueError(f"p_max must be a positive finite number, got {self.p_max!r}")
        self.layers = _views(values, spans)

    @classmethod
    def _checked(cls, layer_sizes, values, p_max):
        # values already hold layer_sizes' count of finite floats: no second check
        p = cls.__new__(cls)
        p.layer_sizes, p.values, p.p_max = layer_sizes, values, p_max
        p.layers = _views(values, _layout(layer_sizes))
        return p


@dataclass(eq=False)
class ForwardTrace:
    """What backward reads of one forward: no pre-activation is kept."""

    inputs: list  # activation entering each layer, (n, fan_in): x, then each hidden layer's ReLU output
    outputs: np.ndarray  # (n, K) powers
    layer_sizes: tuple  # of the params forward ran with


def param_count(layer_sizes) -> int:
    return sum((fi + 1) * fo for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]))


@functools.lru_cache(maxsize=64)
def _layout(layer_sizes: tuple[int, ...]) -> tuple:
    """(w_start, b_start, b_end, w_shape) of each layer in the flat vector."""
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"bad layer sizes {layer_sizes}")
    spans = []
    pos = 0
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        spans.append((pos, pos + fi * fo, pos + fi * fo + fo, (fo, fi)))
        pos += (fi + 1) * fo
    return tuple(spans)


def _views(values, spans) -> list:
    return [(values[w0:b0].reshape(shape), values[b0:b1]) for w0, b0, b1, shape in spans]


def init(layer_sizes, p_max: float, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases."""
    chunks = []
    for fi, fo in zip(layer_sizes[:-1], layer_sizes[1:]):
        a = np.sqrt(6.0 / (fi + fo))
        chunks.append(rng.uniform(-a, a, size=fi * fo))
        chunks.append(np.zeros(fo))
    return ModelParams(tuple(layer_sizes), np.concatenate(chunks), p_max)


def _sigmoid(z):
    # both branches of the overflow-free logistic share e = exp(-|z|):
    # 1 / (1 + e) for z >= 0 and e / (1 + e) below. As e <= 1, the
    # numerator is max(e, step(z)), with step(0) = 1: float ufuncs in place
    # of a boolean mask, bit for bit the same values.
    e = np.copysign(z, -1.0)  # -|z|
    np.exp(e, out=e)
    s = np.heaviside(z, 1.0)
    np.maximum(e, s, out=s)
    e += 1.0
    s /= e
    return s


def forward(params: ModelParams, x):
    """Evaluate the policy on x, the (n, K^2) row-major channel magnitudes.

    Returns (powers, trace); powers are (n, K).
    """
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[1] != params.layer_sizes[0]:
        raise ValueError(f"expected (n, {params.layer_sizes[0]}) inputs, got shape {a.shape}")
    *hidden, (w_out, b_out) = params.layers
    inputs = [a]
    # np.dot: on 2-D operands the same products as @, with less overhead;
    # the bias add and the ReLU then work in the GEMM's output, the same
    # bits as z = a @ w.T + b and max(z, 0) made as new arrays
    for w, b in hidden:
        a = np.dot(a, w.T)
        a += b
        np.maximum(a, 0.0, out=a)
        inputs.append(a)
    z = np.dot(a, w_out.T)
    z += b_out
    a = _sigmoid(z)
    a *= params.p_max
    return a, ForwardTrace(inputs, a, params.layer_sizes)


def backward(params: ModelParams, trace: ForwardTrace, upstream) -> np.ndarray:
    """Gradient of sum_i <upstream_i, pi(params; x_i)> over the flat values.

    upstream is (n, K), one row per row of the forward outputs. The result
    is a fresh vector, shared with no params and no trace: the caller owns it.
    """
    u = np.asarray(upstream, dtype=float)
    if u.shape != trace.outputs.shape:
        raise ValueError(f"upstream shape {u.shape} does not match outputs {trace.outputs.shape}")
    if trace.layer_sizes != params.layer_sizes:
        raise ValueError("trace does not match params")
    layers = params.layers

    # dz = u * p_max * s * (1 - s), left to right, in two arrays
    s = trace.outputs / params.p_max
    dz = u * params.p_max
    dz *= s
    dz *= np.subtract(1.0, s, out=s)
    flat = np.empty_like(params.values)
    spans = _layout(params.layer_sizes)
    for i in reversed(range(len(layers))):
        w0, b0, b1, shape = spans[i]
        np.dot(dz.T, trace.inputs[i], flat[w0:b0].reshape(shape))
        np.add.reduce(dz, 0, out=flat[b0:b1])
        if i > 0:
            # ReLU derivative as the mask a > 0 on the activation a = max(z, 0),
            # which is z > 0 bit for bit (0 at z = +-0); a NaN z gives 0 where a
            # float step gives NaN, but its dz row is all NaN anyway
            dz = np.dot(dz, layers[i][0])
            dz *= trace.inputs[i] > 0.0
    return flat


@contextlib.contextmanager
def replacing(path, mode="w", newline=None):
    """Open a file to write, in mode "w" or "wb", that takes path's place only once complete.

    The data goes to a temp file in path's directory, which os.replace
    renames over path when the block exits cleanly, so a reader sees the
    old file or the whole new one, never a truncated one. A block that
    raises leaves path as it was; a writer killed mid-write leaves its
    hidden temp file beside it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


CHECKPOINT_VERSION = 2


def save_params(params: ModelParams, path):
    """Write a checkpoint: one JSON line whose values are base64 float64 bytes.

    The keys are version, layer_sizes, p_max and values, the base64 of the
    flat vector's little-endian float64 bytes, so the round trip is exact.
    """
    values = base64.b64encode(params.values.astype("<f8").tobytes()).decode("ascii")
    doc = {"version": CHECKPOINT_VERSION, "layer_sizes": list(params.layer_sizes), "p_max": params.p_max,
           "values": values}
    with replacing(path) as fh:
        fh.write(json.dumps(doc))
        fh.write("\n")


def load_params(path) -> ModelParams:
    """The ModelParams a checkpoint holds; a malformed one raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    if "version" not in doc and isinstance(doc.get("values"), list):
        raise ValueError("checkpoint is version 1 (values as a list of floats); rerun faircl run to write it again")
    try:
        version, sizes, p_max, text = doc["version"], doc["layer_sizes"], doc["p_max"], doc["values"]
    except KeyError as e:
        raise ValueError(f"checkpoint missing field {e}") from e
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {version!r} is not {CHECKPOINT_VERSION}; rerun faircl run")
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as e:  # binascii.Error is a ValueError; a number is a TypeError
        raise ValueError(f"checkpoint values are not valid base64 ({e})") from e
    if len(raw) % 8:
        raise ValueError(f"checkpoint values hold {len(raw)} bytes, not a whole number of float64s")
    try:
        sizes = tuple(sizes)
        for s in sizes:
            if type(s) is not int:  # ModelParams would truncate 4.9 to 4 and take True as 1
                raise ValueError(f"layer size {s!r} is not an integer")
        if type(p_max) not in (int, float):  # ModelParams would read true and "1.0" as 1.0
            raise ValueError(f"p_max must be a positive finite number, got {p_max!r}")
        return ModelParams(sizes, np.frombuffer(raw, "<f8").astype(float), p_max)
    except (TypeError, ValueError) as e:  # layout, finiteness and p_max checks, or a field's type
        raise ValueError(f"checkpoint: {e}") from e
