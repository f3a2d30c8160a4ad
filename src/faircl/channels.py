"""Synthetic interference-channel episodes: generation, streaming, persistence.

Three channel families, all K-pair and dimensionless:

  rayleigh   Re, Im ~ N(0, 1)/sqrt(2), so E|h|^2 = 1.
  rician     Re, Im ~ (1 + N(0, 1))/2: a unit line-of-sight component at
             equal power with the scattered one (0 dB K-factor).
  geometry   |h_ij|^2 = |f_ij|^2 / (1 + d_ij^2) with f_ij ~ CN(0, 1) and
             d_ij the tx_j -> rx_i distance; K transmitters and K receivers
             drawn independently and uniformly in an area_side x area_side
             square, pair i = (tx_i, rx_i). The phase of h is the phase of f.

Entry h[k, j] is the channel from transmitter j into receiver k.

An EpisodeStream stitches per-episode sample sets into an ordered list of
training batches plus per-episode test sets. Consumers of iter_batches see
bare sample lists: episode boundaries stay internal and are only exposed
through test_sets for evaluation.

Datasets persist as JSON lines, one header then one record per sample, with
floats written as decimal text via repr so that a load of a save is
bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import wsr

RAYLEIGH = "rayleigh"
RICIAN = "rician"
GEOMETRY = "geometry"
DISTRIBUTIONS = (RAYLEIGH, RICIAN, GEOMETRY)

DATASET_VERSION = 1


_LABEL_RULE = "p_label must be a nonnegative length-K vector"


@dataclass(eq=False)
class ChannelSample:
    """One network snapshot: channel matrix plus optional solver labels."""

    k_pairs: int
    h: np.ndarray
    p_label: np.ndarray | None = None
    rbar: float | None = None
    episode_id: int = 0

    def __post_init__(self):
        k = self.k_pairs
        self.h = np.asarray(self.h, dtype=complex)
        if self.h.shape != (k, k):
            raise ValueError(f"h must be {k}x{k}, got {self.h.shape}")
        labels = rbar = None
        if self.p_label is not None:
            self.p_label = np.asarray(self.p_label, dtype=float)
            if self.p_label.shape != (k,):
                raise ValueError(_LABEL_RULE)
            labels = self.p_label[None]
        if self.rbar is not None:
            self.rbar = float(self.rbar)
            rbar = np.array([self.rbar])
        bad = _first_invalid(self.h[None], labels, rbar)
        if bad is not None:
            raise ValueError(bad[1])

    @classmethod
    def _checked_row(cls, k_pairs, h, p_label, rbar, episode_id):
        # a row of a stack that _first_invalid has passed: no second check
        s = cls.__new__(cls)
        s.k_pairs, s.h, s.p_label, s.rbar, s.episode_id = k_pairs, h, p_label, rbar, episode_id
        return s


def _first_invalid(h, p_label=None, rbar=None):
    """(index, message) of the first sample of a stack that breaks a rule, or None.

    h is (n, K, K) complex, p_label (n, K) and rbar (n,); None skips a field.
    Shapes are the caller's to check. A sample breaks the first of these
    rules, in this order, that fails for it: finite h, nonnegative p_label,
    finite p_label, positive rbar, finite rbar.
    """
    rules = [(~np.isfinite(h).all((1, 2)), lambda i: "h must be finite")]
    if p_label is not None:
        rules.append(((p_label < 0).any(1), lambda i: _LABEL_RULE))
        rules.append((~np.isfinite(p_label).all(1), lambda i: "p_label must be finite"))
    if rbar is not None:
        rules.append((~(rbar > 0), lambda i: f"rbar must be positive, got {float(rbar[i])}"))
        rules.append((~np.isfinite(rbar), lambda i: f"rbar must be finite, got {float(rbar[i])}"))
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not bad.any():
        return None
    i = int(bad.argmax())
    return i, next(message(i) for mask, message in rules if mask[i])


@dataclass
class EpisodeSpec:
    """One stationary segment of the stream."""

    distribution: str
    n_train: int
    n_test: int
    n_batches: int
    area_side_m: float | None = None

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}, expected one of {DISTRIBUTIONS}")
        if self.distribution == GEOMETRY:
            if self.area_side_m is None or not self.area_side_m > 0:
                raise ValueError("geometry episodes need a positive area_side_m")
        if min(self.n_train, self.n_test, self.n_batches) < 1:
            raise ValueError("n_train, n_test, n_batches must be positive")
        if self.n_train % self.n_batches != 0:
            raise ValueError(f"n_train={self.n_train} not divisible by n_batches={self.n_batches}")


@dataclass(eq=False)
class EpisodeStream:
    k_pairs: int
    specs: list[EpisodeSpec]
    batches: list[tuple[int, list[ChannelSample]]]
    test_sets: list[list[ChannelSample]] = field(default_factory=list)

    def iter_batches(self):
        """Training batches in arrival order, with no episode tags attached."""
        for _, samples in self.batches:
            yield samples

    def all_samples(self):
        for _, samples in self.batches:
            yield from samples
        for test in self.test_sets:
            yield from test


def _to_samples(h_block: np.ndarray, k_pairs: int) -> list[ChannelSample]:
    return [ChannelSample(k_pairs, h_block[i]) for i in range(h_block.shape[0])]


def gen_rayleigh(k_pairs: int, n: int, rng: np.random.Generator) -> list[ChannelSample]:
    """n i.i.d. Rayleigh-fading samples, E|h|^2 = 1."""
    _check_gen_args(k_pairs, n)
    shape = (n, k_pairs, k_pairs)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return _to_samples(h, k_pairs)


def gen_rician(k_pairs: int, n: int, rng: np.random.Generator) -> list[ChannelSample]:
    """n i.i.d. samples with Re, Im ~ (1 + N(0,1))/2."""
    _check_gen_args(k_pairs, n)
    shape = (n, k_pairs, k_pairs)
    re = (1.0 + rng.standard_normal(shape)) / 2.0
    im = (1.0 + rng.standard_normal(shape)) / 2.0
    return _to_samples(re + 1j * im, k_pairs)


def pathloss_fading(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Scale small-scale fading f by the 1/(1+d^2) pathloss, keeping f's phase."""
    return f / np.sqrt(1.0 + np.asarray(d, dtype=float) ** 2)


def gen_geometry(k_pairs: int, n: int, area_side_m: float, rng: np.random.Generator) -> list[ChannelSample]:
    """n i.i.d. samples from the uniform-placement pathloss model."""
    _check_gen_args(k_pairs, n)
    if not area_side_m > 0:
        raise ValueError("area_side_m must be positive")
    tx = rng.uniform(0.0, area_side_m, size=(n, k_pairs, 2))
    rx = rng.uniform(0.0, area_side_m, size=(n, k_pairs, 2))
    # d[s, k, j] = distance from transmitter j to receiver k in sample s
    d = np.linalg.norm(rx[:, :, None, :] - tx[:, None, :, :], axis=3)
    shape = (n, k_pairs, k_pairs)
    f = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return _to_samples(pathloss_fading(f, d), k_pairs)


def _check_gen_args(k_pairs, n):
    if k_pairs < 1:
        raise ValueError("k_pairs must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")


def _generate(spec: EpisodeSpec, k_pairs: int, n: int, rng) -> list[ChannelSample]:
    if spec.distribution == RAYLEIGH:
        return gen_rayleigh(k_pairs, n, rng)
    if spec.distribution == RICIAN:
        return gen_rician(k_pairs, n, rng)
    return gen_geometry(k_pairs, n, spec.area_side_m, rng)


def build_stream(specs: list[EpisodeSpec], k_pairs: int, rng: np.random.Generator) -> EpisodeStream:
    """Draw every episode's train and test samples and slice train batches.

    Episodes are generated in spec order; within an episode the first
    n_train draws become the training batches and the remaining n_test the
    held-out test set, so no sample appears in both.
    """
    if not specs:
        raise ValueError("specs must be nonempty")
    batches: list[tuple[int, list[ChannelSample]]] = []
    test_sets: list[list[ChannelSample]] = []
    for ep, spec in enumerate(specs):
        samples = _generate(spec, k_pairs, spec.n_train + spec.n_test, rng)
        for s in samples:
            s.episode_id = ep
        size = spec.n_train // spec.n_batches
        for b in range(spec.n_batches):
            batches.append((ep, samples[b * size : (b + 1) * size]))
        test_sets.append(samples[spec.n_train :])
    return EpisodeStream(k_pairs, list(specs), batches, test_sets)


def add_wmmse_labels(samples, noise=1.0, p_max=1.0) -> None:
    """Populate p_label and rbar on every sample (all of one K), in place.

    Raises ValueError, and labels no sample, if a label's rate is not
    positive (a channel whose direct gains are all zero): rbar divides
    every evaluation ratio, and load_dataset rejects it.
    """
    samples = list(samples)
    if not samples:
        return
    # |h|^2 written sample by sample into one stack: no n-sized complex copy
    k = samples[0].k_pairs
    gains = np.empty((len(samples), k, k))
    for g, s in zip(gains, samples):
        np.abs(s.h, out=g)
    np.square(gains, out=gains)
    powers, rates = wsr.wmmse_many(gains, noise=noise, p_max=p_max)
    for i, rate in enumerate(rates):
        if not rate > 0:
            raise ValueError(f"sample {i}: WMMSE label rate {rate} is not positive")
    for s, p, rate in zip(samples, powers, rates):
        s.p_label, s.rbar = p, float(rate)


# ------------------------------------------------------------- persistence


class DatasetFormatError(ValueError):
    """A dataset file that cannot be parsed; message carries the line number."""


def _record(sample: ChannelSample) -> dict:
    rec = {
        "k": sample.k_pairs,
        "episode": sample.episode_id,
        "h_re": sample.h.real.ravel().tolist(),
        "h_im": sample.h.imag.ravel().tolist(),
    }
    if sample.p_label is not None:
        rec["p_label"] = sample.p_label.tolist()
    if sample.rbar is not None:
        rec["rbar"] = sample.rbar
    return rec


def write_samples(fh, samples) -> None:
    for s in samples:
        fh.write(json.dumps(_record(s)))
        fh.write("\n")


def save_dataset(stream: EpisodeStream, path) -> None:
    """Header line then one record per sample, episode by episode.

    Within an episode, training samples come first (batch order) and test
    samples follow; load_dataset relies on this order plus the header specs
    to rebuild the stream.
    """
    header = {
        "version": DATASET_VERSION,
        "k": stream.k_pairs,
        "specs": [
            {
                "distribution": sp.distribution,
                "n_train": sp.n_train,
                "n_test": sp.n_test,
                "n_batches": sp.n_batches,
                "area_side_m": sp.area_side_m,
            }
            for sp in stream.specs
        ],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header))
        fh.write("\n")
        for ep in range(len(stream.specs)):
            for e, samples in stream.batches:
                if e == ep:
                    write_samples(fh, samples)
            write_samples(fh, stream.test_sets[ep])


def _put(row: np.ndarray, value) -> bool:
    """Write a JSON value into a preallocated row; False if its shape differs.

    Only a list of exactly len(row) entries is assigned directly: numpy
    would broadcast a length-1 or nested list into the row. Anything else
    goes through np.asarray, which raises the conversion error it raises
    for that value or gives its actual shape.
    """
    if type(value) is list and len(value) == len(row):
        try:
            row[...] = value
            return True
        except (ValueError, TypeError):
            pass
    value = np.asarray(value, dtype=float)
    if value.shape != row.shape:
        return False
    row[...] = value
    return True


def _checked_stack(h, p_label, rbar, k):
    """The (n, K, K) channel stack, once every row passes the sample rules.

    h is (n, K^2) complex and holds each record's h_re and h_im as read. It
    becomes h_re + 1j*h_im in place, with that sum's signed zeros: 1j*h_im
    has real part h_im*0.0 and imaginary part h_im + 0.0.
    """
    re, im = h.real, h.imag
    re += im * 0.0
    im += 0.0
    h = h.reshape(len(h), k, k)
    bad = _first_invalid(h, p_label, rbar)
    if bad is not None:
        i, message = bad
        raise DatasetFormatError(f"line {i + 2}: {message}")
    return h


def _parse_records(lines, k) -> list[ChannelSample]:
    """The samples of the record lines (file line 2 onward), in order.

    Each record is parsed once into preallocated per-field arrays, with
    exact shape checks, h_re and h_im straight into the complex stack's
    real and imaginary parts; the value rules then run over all rows at
    once, and the samples are views of the stack. Of several bad records
    the first is reported, with the error a record-by-record reader gives
    it, and every fault names its line.
    """
    n, kk = len(lines), k * k
    h = np.empty((n, kk), dtype=complex)
    h_re, h_im = h.real, h.imag
    # rows without a label or rbar keep these values, which pass every rule
    p_label, rbar = np.zeros((n, k)), np.ones(n)
    has_label, has_rbar = [False] * n, [False] * n
    episode = [0] * n
    checked = 0  # rows whose fields read so far go through the rules
    try:
        for i, line in enumerate(lines):
            lineno = i + 2
            checked = i
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetFormatError(f"line {lineno}: invalid JSON record ({e.msg})") from e
            if not isinstance(rec, dict):
                rec = {}  # a record that is no JSON object has none of the fields
            for key in ("k", "episode", "h_re", "h_im"):
                if key not in rec:
                    raise DatasetFormatError(f"line {lineno}: record missing field {key!r}")
            if rec["k"] != k:
                raise DatasetFormatError(f"line {lineno}: field 'k' is {rec['k']}, header says {k}")
            try:
                h_ok = _put(h_re[i], rec["h_re"]) and _put(h_im[i], rec["h_im"])
            except (ValueError, TypeError):  # an entry that is not a number
                h_ok = False
            if not h_ok:
                raise DatasetFormatError(f"line {lineno}: fields 'h_re'/'h_im' must hold {kk} values")
            try:
                episode[i] = int(rec["episode"])
                checked = i + 1  # h's rule comes before the label's and rbar's
                label = rec.get("p_label")
                if label is not None:
                    if not _put(p_label[i], label):
                        raise ValueError(_LABEL_RULE)
                    has_label[i] = True
                value = rec.get("rbar")
                if value is not None:
                    rbar[i] = float(value)
                    has_rbar[i] = True
            except (ValueError, TypeError) as e:
                raise DatasetFormatError(f"line {lineno}: {e}") from e
    except (ValueError, TypeError):
        # a fault in an earlier row, or earlier in this one, comes first
        _checked_stack(h[:checked], p_label[:checked], rbar[:checked], k)
        raise
    h = _checked_stack(h, p_label, rbar, k)
    rbars = rbar.tolist()
    return [
        ChannelSample._checked_row(
            k, h[i], p_label[i] if has_label[i] else None, rbars[i] if has_rbar[i] else None, episode[i]
        )
        for i in range(n)
    ]


def load_dataset(path) -> EpisodeStream:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty file, expected header")
    try:
        header = json.loads(lines[0])
        version = header["version"]
        k = header["k"]
        specs = [
            EpisodeSpec(
                distribution=sp["distribution"],
                n_train=sp["n_train"],
                n_test=sp["n_test"],
                n_batches=sp["n_batches"],
                area_side_m=sp.get("area_side_m"),
            )
            for sp in header["specs"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise DatasetFormatError(f"line 1: bad header ({e})") from e
    if version != DATASET_VERSION:
        raise DatasetFormatError(f"line 1: unsupported version {version}")

    expected = sum(sp.n_train + sp.n_test for sp in specs)
    if len(lines) - 1 != expected:
        raise DatasetFormatError(
            f"line {len(lines) + 1}: expected {expected} records after the header, found {len(lines) - 1}"
        )

    samples = _parse_records(lines[1:], k)
    batches: list[tuple[int, list[ChannelSample]]] = []
    test_sets: list[list[ChannelSample]] = []
    start = 0
    for ep, sp in enumerate(specs):
        train = samples[start : start + sp.n_train]
        start += sp.n_train
        test_sets.append(samples[start : start + sp.n_test])
        start += sp.n_test
        size = sp.n_train // sp.n_batches
        for b in range(sp.n_batches):
            batches.append((ep, train[b * size : (b + 1) * size]))
    return EpisodeStream(k, specs, batches, test_sets)
