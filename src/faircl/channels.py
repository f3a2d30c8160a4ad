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

Samples live in one array-backed SampleSet: channel stack, |h|, labels,
rbar and episode ids, one row per sample. Code that computes on samples
reads the set's arrays, and a single sample is a one-row set (set[i:i+1]);
ChannelSample is only the row view that set[i] gives. An EpisodeStream
holds one SampleSet; its training batches are row ranges in arrival order
and its per-episode test sets are slices. Training reads the batches' rows,
never their episode ids; only evaluation groups samples by episode, through
test_sets.

A dataset file is one JSON header line, then the raw bytes of the set's
h, labels and rbar arrays (see save_dataset), so a load of a save is
bit-exact. A checkpoint has the same layout, and model.write_arrays and
model.read_file write and read both, by model's input rules; this module
gives the header's fields and checks the rows.

Labelling (add_wmmse_labels) solves the whole set in one call, in the
calling process: at the stock 8,400 rows the solve takes about 0.2 s, and
the stock run that trains on its labels about 30 s, so forking it out over
the CPUs would not pay for its code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import model, workers, wsr

RAYLEIGH = "rayleigh"
RICIAN = "rician"
GEOMETRY = "geometry"
DISTRIBUTIONS = (RAYLEIGH, RICIAN, GEOMETRY)

DATASET_VERSION = 2


@dataclass(eq=False)
class ChannelSample:
    """One row of a SampleSet, for reading a sample singly.

    Its arrays are views of the set's, whose values were checked where the
    set was built; p_label and rbar are None for a sample without labels.
    """

    k_pairs: int
    h: np.ndarray
    p_label: np.ndarray | None = None
    rbar: float | None = None
    episode_id: int = 0


@dataclass(eq=False)
class SampleSet:
    """Samples of one K as arrays, one row per sample.

    h is the (n, K, K) channel stack and mag = |h|, taken once when the set
    is built: reshaped to (n, K^2) row-major, mag is the network input, and
    squared the gains, so h and mag change together. labels is (n, K) and
    rbar (n,); a sample without solver labels has an all-NaN labels row and
    a NaN rbar, which is also what omitted arrays default to. episode (n,)
    holds each sample's episode id, 0 by default. h and mag are read-only, so
    a new channel needs a new set.

    set[i], and iteration, give ChannelSample rows whose arrays are views of
    the set's; set[a:b] is a set of views, take(idx) a set of copies.
    """

    h: np.ndarray
    labels: np.ndarray | None = None
    rbar: np.ndarray | None = None
    episode: np.ndarray | None = None
    mag: np.ndarray | None = None

    def __post_init__(self):
        n, k = self.h.shape[:2]
        if self.labels is None:
            self.labels = np.full((n, k), np.nan)
        if self.rbar is None:
            self.rbar = np.full(n, np.nan)
        if self.episode is None:
            self.episode = np.zeros(n, dtype=int)
        if self.mag is None:
            self.mag = np.abs(self.h)
        # mag is taken from h once: neither may change after
        self.h.setflags(write=False)
        self.mag.setflags(write=False)

    @classmethod
    def concat(cls, sets) -> "SampleSet":
        """The rows of every set, in order."""
        return cls(*(np.concatenate([getattr(s, f.name) for s in sets]) for f in fields(cls)))

    def __len__(self):
        return len(self.h)

    def take(self, idx) -> "SampleSet":
        """The rows idx, in that order."""
        return SampleSet(*(getattr(self, f.name)[idx] for f in fields(self)))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(i)
        label, rbar = self.labels[i], float(self.rbar[i])
        return ChannelSample(
            len(label),
            self.h[i],
            None if np.isnan(label).all() else label,
            None if math.isnan(rbar) else rbar,
            int(self.episode[i]),
        )


def _first_invalid(h, p_label=None, rbar=None):
    """(index, message) of the first sample of a stack that breaks a rule, or None.

    h is (n, K, K) complex, p_label (n, K) and rbar (n,); None skips a field.
    Shapes are the caller's to check. A sample breaks the first of these
    rules, in this order, that fails for it: finite h, nonnegative p_label,
    finite p_label, positive rbar, finite rbar.
    """
    rules = [(~np.isfinite(h).all((1, 2)), lambda i: "h must be finite")]
    if p_label is not None:
        rules.append(((p_label < 0).any(1), lambda i: "p_label must be a nonnegative length-K vector"))
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
        for name in ("n_train", "n_test", "n_batches"):
            model.check_count(name, getattr(self, name), 1)
        # null outside geometry, which places its users in an area_side_m square
        model.check_positive("area_side_m", self.area_side_m, nullable=self.distribution != GEOMETRY)
        if self.n_train % self.n_batches != 0:
            raise ValueError(f"n_train={self.n_train} not divisible by n_batches={self.n_batches}")


@dataclass(eq=False)
class EpisodeStream:
    """An episode schedule over one sample set.

    batches are the training batches in arrival order, as row ranges of
    samples; test_sets are per-episode slices of samples. noise and p_max
    are those the samples' labels were solved at: label() records them,
    load_dataset reads them back and save_dataset writes them.
    """

    k_pairs: int
    specs: list[EpisodeSpec]
    samples: SampleSet
    batches: list[range]
    test_sets: list[SampleSet]
    noise: float = 1.0
    p_max: float = 1.0

    def label(self, noise=1.0, p_max=1.0) -> None:
        """Label every sample with the solver (add_wmmse_labels) at noise and p_max, and record both."""
        add_wmmse_labels(self.samples, noise=noise, p_max=p_max)
        self.noise, self.p_max = noise, p_max

    def all_samples(self):
        """ChannelSample rows of every training batch, then of every test set."""
        for rows in self.batches:
            for i in rows:
                yield self.samples[i]
        for test in self.test_sets:
            yield from test


def _episode_stream(k_pairs, specs, samples, noise=1.0, p_max=1.0) -> EpisodeStream:
    # episodes are consecutive row blocks in spec order: n_train rows cut
    # into n_batches equal batches, then n_test test rows
    samples.episode[:] = np.repeat(np.arange(len(specs)), [sp.n_train + sp.n_test for sp in specs])
    batches, test_sets = [], []
    start = 0
    for sp in specs:
        size = sp.n_train // sp.n_batches
        batches += [range(start + b * size, start + (b + 1) * size) for b in range(sp.n_batches)]
        start += sp.n_train
        test_sets.append(samples[start : start + sp.n_test])
        start += sp.n_test
    return EpisodeStream(k_pairs, list(specs), samples, batches, test_sets, noise, p_max)


def gen_rayleigh(k_pairs: int, n: int, rng: np.random.Generator) -> SampleSet:
    """n i.i.d. Rayleigh-fading samples, E|h|^2 = 1."""
    _check_gen_args(k_pairs, n)
    shape = (n, k_pairs, k_pairs)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return SampleSet(h)


def gen_rician(k_pairs: int, n: int, rng: np.random.Generator) -> SampleSet:
    """n i.i.d. samples with Re, Im ~ (1 + N(0,1))/2."""
    _check_gen_args(k_pairs, n)
    shape = (n, k_pairs, k_pairs)
    re = (1.0 + rng.standard_normal(shape)) / 2.0
    im = (1.0 + rng.standard_normal(shape)) / 2.0
    return SampleSet(re + 1j * im)


def pathloss_fading(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Scale small-scale fading f by the 1/(1+d^2) pathloss, keeping f's phase."""
    return f / np.sqrt(1.0 + np.asarray(d, dtype=float) ** 2)


def gen_geometry(k_pairs: int, n: int, area_side_m: float, rng: np.random.Generator) -> SampleSet:
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
    return SampleSet(pathloss_fading(f, d))


def _check_gen_args(k_pairs, n):
    if k_pairs < 1:
        raise ValueError("k_pairs must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")


def _generate(spec: EpisodeSpec, k_pairs: int, n: int, rng) -> SampleSet:
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
    samples = SampleSet.concat([_generate(spec, k_pairs, spec.n_train + spec.n_test, rng) for spec in specs])
    return _episode_stream(k_pairs, specs, samples)


def add_wmmse_labels(samples: SampleSet, noise=1.0, p_max=1.0) -> None:
    """Write the solver's powers and rate into every row's labels and rbar.

    OpenBLAS runs one thread during the solve (see workers), so the labels do
    not depend on the BLAS's thread count. Raises ValueError, and labels no
    sample, if a label's rate is not positive (a channel whose direct gains
    are all zero): rbar divides every evaluation ratio, and load_dataset
    rejects it.
    """
    with workers.one_blas_thread():
        powers, rates = wsr.wmmse_many(samples.mag * samples.mag, noise=noise, p_max=p_max)
    bad = ~(rates > 0)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"sample {i}: WMMSE label rate {rates[i]} is not positive")
    samples.labels[...] = powers
    samples.rbar[...] = rates


# ------------------------------------------------------------- persistence


class DatasetFormatError(ValueError):
    """A dataset file that cannot be read; the message names the header or a row."""


def _layout(k, n):
    """The header's arrays entry: [name, dtype, shape] of each array, in file order."""
    return [["h", "<c16", [n, k, k]], ["labels", "<f8", [n, k]], ["rbar", "<f8", [n]]]


def save_dataset(stream: EpisodeStream, path) -> None:
    """One JSON header line, then the C-order bytes of h, labels and rbar.

    The header holds version, k, specs, the noise and p_max the labels were
    solved at, and arrays, the layout of what follows it (see _layout).
    Episode ids are not stored: build_stream and load_dataset lay each
    episode out as its training rows in batch order, then its test rows, so
    the specs give them. model.write_arrays writes the file through
    model.replacing: a failed save leaves the old file, and a pipe, a
    device or a symlink is written in place.
    """
    samples = stream.samples
    layout = _layout(stream.k_pairs, len(samples))
    header = {"version": DATASET_VERSION, "k": stream.k_pairs, "specs": [asdict(sp) for sp in stream.specs],
              "noise": stream.noise, "p_max": stream.p_max, "arrays": layout}
    model.write_arrays(path, header, [getattr(samples, name) for name, _, _ in layout])


def _header_fields(header):
    """((k, specs, noise, p_max), arrays layout) of a dataset header, for model.read_file."""
    k = model.check_count("k", header["k"], 1)
    specs = [model.build(EpisodeSpec, sp, "episode") for sp in model.check_array("specs", header["specs"])]
    noise, p_max = (model.check_positive(name, header[name]) for name in ("noise", "p_max"))
    return (k, specs, noise, p_max), _layout(k, sum(sp.n_train + sp.n_test for sp in specs))


def load_dataset(path) -> EpisodeStream:
    """The stream a dataset file holds, read in one pass.

    model.read_file checks the header before any array is read, then reads
    each array into one of the shape the header gives, so a pipe is read
    as a file is and no file size is trusted. A row whose labels are all
    NaN has none, and a NaN rbar is no rbar; every other value must pass
    the sample rules.
    """
    (k, specs, noise, p_max), (h, labels, rbar) = model.read_file(
        path, DATASET_VERSION, _header_fields, "header", "faircl gen", DatasetFormatError)
    has_label, has_rbar = ~np.isnan(labels).all(1), ~np.isnan(rbar)
    bad = _first_invalid(h, np.where(has_label[:, None], labels, 0.0), np.where(has_rbar, rbar, 1.0))
    if bad is not None:
        raise DatasetFormatError(f"row {bad[0]}: {bad[1]}")
    return _episode_stream(k, specs, SampleSet(h, labels, rbar), noise, p_max)
