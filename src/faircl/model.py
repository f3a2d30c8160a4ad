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

A checkpoint is one JSON header line (version, layer_sizes, p_max and the
arrays layout), then the flat vector's little-endian float64 bytes: the
layout of a dataset file. write_arrays and read_file are the one writer
and reader of both kinds, and every output file goes through replacing.

Every JSON input (a config, its episodes, a dataset's or a checkpoint's
header) is read by the rules here: check_count, check_positive,
check_array, build for an object and read_file for a file.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
from dataclasses import MISSING, dataclass, field, fields
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
        self.p_max = float(check_positive("p_max", self.p_max))
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
    hidden temp file beside it. A path that exists and is not a regular
    file (a pipe, a device or a symlink) is written in place: a rename
    would put a file where the link or the pipe was.
    """
    path = Path(path)
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    if not regular:
        with open(path, mode, newline=newline) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ------------------------------------------------------------- input rules


def check_count(name, value, least):
    """value, if it is a JSON integer >= least; a bool, a float or a string raises ValueError."""
    if type(value) is not int or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


def check_positive(name, value, most=math.inf, nullable=False):
    """value, if a number in (0, most], or None if nullable: a bool, NaN and +-inf raise ValueError."""
    if nullable and value is None:
        return value
    if type(value) is bool or not isinstance(value, (int, float)) or not (0 < value < math.inf and value <= most):
        want = "a positive finite number" if most == math.inf else f"a number in (0, {most}]"
        raise ValueError(f"{name} must be {'null or ' if nullable else ''}{want}, got {value!r}")
    return value


def check_array(name, value):
    """value, if it is a JSON array (a list, or a tuple built in code); anything else raises ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a JSON array, got {value!r}")
    return value


def build(cls, raw, label):
    """The dataclass cls made of the JSON object raw, whose __post_init__ checks the values.

    A raw that is not an object, that lacks a field without a default, or
    that has a key that is no field raises ValueError naming it by label.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{label} must be a JSON object, got {raw!r}")
    declared = fields(cls)
    for f in declared:
        if f.default is MISSING and f.default_factory is MISSING and f.name not in raw:
            raise ValueError(f"{label} missing {f.name!r}")
    known = {f.name for f in declared}
    extra = set(raw) - known
    if extra:
        raise ValueError(f"unknown {label} keys: {', '.join(sorted(extra))}; valid: {', '.join(sorted(known))}")
    return cls(**raw)


# Checkpoints and datasets share one file layout: a JSON header line whose
# "arrays" entry lists [name, dtype, shape] of each array in file order,
# then each array's C-order bytes in that dtype, with nothing after them.


def write_arrays(path, header: dict, arrays) -> None:
    """Write header as one JSON line, then the bytes of arrays, through replacing.

    arrays are the arrays header["arrays"] names, in its order; each is
    written in the dtype its entry gives.
    """
    with replacing(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for (_, dtype, _), array in zip(header["arrays"], arrays):
            fh.write(np.ascontiguousarray(array, dtype=dtype).data)


def read_arrays(fh, layout, too_big: str, error=ValueError) -> list:
    """The arrays layout names, read from fh after its header line, then the file's end.

    Each array is read into one of the shape its entry gives, so a pipe is
    read as a file is and no file size is trusted. A short file, or bytes
    after the last array, raise error; so does a shape that asks for more
    memory than there is, with the message too_big.
    """
    arrays = []
    for name, dtype, shape in layout:
        try:
            array = np.empty(shape, dtype)
        except (MemoryError, ValueError) as e:  # numpy refuses a byte count past the address space
            raise error(too_big) from e
        if fh.readinto(array.reshape(-1).view(np.uint8)) != array.nbytes:
            raise error(f"file ends inside array {name!r}")
        arrays.append(array)
    if fh.read(1):
        raise error("bytes after the last array")
    return arrays


def read_file(path, version, check, label, again, error=ValueError):
    """(fields, arrays) of the file at path, read in one pass.

    The header line must be a JSON object of this version. check(header)
    checks its other fields and returns (fields, layout): what the caller
    keeps, and the arrays entry the header must hold, which read_arrays
    then reads. A header error raises error with a message that starts
    with label; a file of another version is told to be written again with again.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as e:  # UnicodeDecodeError is a ValueError
            raise error(f"{label}: not JSON ({e})") from e
        try:
            if not isinstance(header, dict):
                raise ValueError("not a JSON object")
            if header.get("version") != version:
                raise ValueError(f"version {header.get('version')!r} is not {version}; write the file again with {again}")
            fields, layout = check(header)
            if header["arrays"] != layout:
                raise ValueError(f"arrays {header['arrays']} are not the {layout} that the header's fields give")
        except KeyError as e:
            raise error(f"{label}: missing field {e}") from e
        except ValueError as e:
            raise error(f"{label}: {e}") from e
        return fields, read_arrays(fh, layout, f"{label}: arrays {layout} are more than memory holds", error)


CHECKPOINT_VERSION = 3


def save_params(params: ModelParams, path):
    """Write a checkpoint: one JSON header line, then the flat vector's float64 bytes.

    The header's keys are version, layer_sizes, p_max and arrays, which is
    [["values", "<f8", [n]]]; the n little-endian float64s follow it, so
    the round trip is exact.
    """
    header = {"version": CHECKPOINT_VERSION, "layer_sizes": list(params.layer_sizes), "p_max": params.p_max,
              "arrays": [["values", "<f8", [params.values.size]]]}
    write_arrays(path, header, [params.values])


def _checkpoint_fields(header):
    """((layer_sizes, p_max), arrays layout) of a checkpoint header, for read_file."""
    sizes = tuple(check_count("layer_sizes entry", s, 1) for s in check_array("layer_sizes", header["layer_sizes"]))
    p_max = check_positive("p_max", header["p_max"])
    return (sizes, p_max), [["values", "<f8", [_layout(sizes)[-1][2]]]]


def load_params(path) -> ModelParams:
    """The ModelParams a checkpoint holds, read in one pass by read_file; a malformed one raises ValueError."""
    (sizes, p_max), (values,) = read_file(path, CHECKPOINT_VERSION, _checkpoint_fields, "checkpoint", "faircl run")
    return ModelParams(sizes, values, p_max)  # the finiteness check
