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

Datasets persist as JSON lines, one header then one record per sample, with
floats written as decimal text via repr so that a load of a save is
bit-exact.

Labelling (add_wmmse_labels) and saving (save_dataset) share a set's rows
out over usable CPUs through workers, one share of at least _FORK_ENTRIES
channel entries per CPU; a set too small for two shares is worked in one
process. A row's label and its record depend on that row alone, so the
labels and the file's bytes are those of a run in one process.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import stat
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import model, workers, wsr

RAYLEIGH = "rayleigh"
RICIAN = "rician"
GEOMETRY = "geometry"
DISTRIBUTIONS = (RAYLEIGH, RICIAN, GEOMETRY)

DATASET_VERSION = 1


_LABEL_RULE = "p_label must be a nonnegative length-K vector"


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
    """An episode schedule over one sample set.

    batches are the training batches in arrival order, as row ranges of
    samples; test_sets are per-episode slices of samples.
    """

    k_pairs: int
    specs: list[EpisodeSpec]
    samples: SampleSet
    batches: list[range]
    test_sets: list[SampleSet]

    def all_samples(self):
        """ChannelSample rows of every training batch, then of every test set."""
        for rows in self.batches:
            for i in rows:
                yield self.samples[i]
        for test in self.test_sets:
            yield from test


def _episode_stream(k_pairs, specs, samples) -> EpisodeStream:
    # episodes are consecutive row blocks in spec order: n_train rows cut
    # into n_batches equal batches, then n_test test rows
    batches, test_sets = [], []
    start = 0
    for sp in specs:
        size = sp.n_train // sp.n_batches
        batches += [range(start + b * size, start + (b + 1) * size) for b in range(sp.n_batches)]
        start += sp.n_train
        test_sets.append(samples[start : start + sp.n_test])
        start += sp.n_test
    return EpisodeStream(k_pairs, list(specs), samples, batches, test_sets)


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
    sizes = [spec.n_train + spec.n_test for spec in specs]
    samples = SampleSet.concat([_generate(spec, k_pairs, n, rng) for spec, n in zip(specs, sizes)])
    samples.episode[:] = np.repeat(np.arange(len(specs)), sizes)
    return _episode_stream(k_pairs, specs, samples)


# float entries (rows x K^2) each of gen's forked workers gets at least: 81
# rows at K=10, 910 at K=3. On a 2-CPU host, forked gen of 84 K=10 rows
# took as long as serial, and of 164 rows 0.78 times as long
_FORK_ENTRIES = 1 << 13


def _gen_cpus(samples: SampleSet) -> list[int]:
    """The CPUs to fork gen's workers on (see workers), one per share.

    As many as shares of _FORK_ENTRIES entries fit, and none, so the set is
    worked in this process, where fewer than two fit: a fork costs
    milliseconds, and a share must pay for its own.
    """
    n, k = samples.h.shape[:2]
    cpus = workers.worker_cpus()[: n * k * k // _FORK_ENTRIES]
    return cpus if len(cpus) > 1 else []


def add_wmmse_labels(samples: SampleSet, noise=1.0, p_max=1.0) -> None:
    """Write the solver's powers and rate into every row's labels and rbar.

    The rows are solved on every usable CPU (see workers); each row's solve
    does not depend on the others, so neither do the labels. Raises
    ValueError, and labels no sample, if a label's rate is not positive (a
    channel whose direct gains are all zero): rbar divides every evaluation
    ratio, and load_dataset rejects it.
    """
    n = len(samples)
    if not n:
        return
    cpus = _gen_cpus(samples)
    # job j solves every jobs-th row: the stream's first episodes cost the
    # most, so contiguous shares would leave the last worker idle
    jobs = max(1, len(cpus))
    powers, rates = np.empty(samples.labels.shape), np.empty(n)

    def solve(j):
        mag = samples.mag[j::jobs]
        return wsr.wmmse_many(mag * mag, noise=noise, p_max=p_max)

    def report(j, solved):
        if isinstance(solved, workers.WorkerDied):
            raise solved
        powers[j::jobs], rates[j::jobs] = solved

    workers.run(range(jobs), solve, cpus, report)
    bad = ~(rates > 0)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"sample {i}: WMMSE label rate {rates[i]} is not positive")
    samples.labels[...] = powers
    samples.rbar[...] = rates


# ------------------------------------------------------------- persistence


class DatasetFormatError(ValueError):
    """A dataset file that cannot be parsed; message carries the line number."""


def save_dataset(stream: EpisodeStream, path) -> None:
    """Header line then one record per row of stream.samples, in row order.

    build_stream and load_dataset lay each episode out as its training rows
    in batch order, then its test rows; load_dataset relies on this order
    plus the header specs to rebuild the stream.

    The records are formatted on every usable CPU (see workers), in
    contiguous shares of rows, one per CPU: each forked worker writes its
    share to an anonymous temp file, which this process copies out in row
    order, so no process holds more than a record's text. A regular file,
    or a new one, is replaced only once complete, so a failed save leaves
    the old file, and the shares are made in its directory; a pipe, a
    device or a symlink is written in place, and the shares are made in
    the temp directory.
    """
    header = {"version": DATASET_VERSION, "k": stream.k_pairs, "specs": [asdict(sp) for sp in stream.specs]}
    samples = stream.samples
    n, k = len(samples), stream.k_pairs
    cpus = _gen_cpus(samples)
    try:
        regular = stat.S_ISREG(os.lstat(path).st_mode)
    except FileNotFoundError:
        regular = True
    with (model.replacing(path) if regular else open(path, "w")) as fh, contextlib.ExitStack() as stack:
        fh.write(json.dumps(header))
        fh.write("\n")
        if not cpus:
            _write_records(fh, samples, k)
            return
        share_dir = os.path.dirname(os.path.abspath(path)) if regular else None
        parts = [stack.enter_context(tempfile.TemporaryFile("w+", dir=share_dir)) for _ in cpus]

        def write(j):
            _write_records(parts[j], samples[j * n // len(parts) : (j + 1) * n // len(parts)], k)
            parts[j].flush()  # a forked worker leaves through os._exit, which flushes nothing

        def copy(j, outcome):
            if isinstance(outcome, workers.WorkerDied):
                raise outcome
            parts[j].seek(0)
            shutil.copyfileobj(parts[j], fh)

        workers.run(range(len(parts)), write, cpus, copy)


def _write_records(fh, samples: SampleSet, k: int) -> None:
    """Write the dataset records of samples to fh, one line each.

    Each row's lists are made as its record is written, so the floats of
    only one record are alive at a time.
    """
    h = samples.h.reshape(len(samples), k * k)
    has_label = ~np.isnan(samples.labels).all(1)
    for i, (episode, rbar) in enumerate(zip(samples.episode.tolist(), samples.rbar.tolist())):
        rec = {"k": k, "episode": episode, "h_re": h[i].real.tolist(), "h_im": h[i].imag.tolist()}
        if has_label[i]:
            rec["p_label"] = samples.labels[i].tolist()
        if not math.isnan(rbar):
            rec["rbar"] = rbar
        fh.write(json.dumps(rec))
        fh.write("\n")


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


def _record_arrays(rows, k):
    """Per-field arrays for rows records: h (rows, K^2) complex, p_label,
    rbar, their presence flags and episode ids. Rows without a label or rbar
    keep the values set here, which pass every rule."""
    return (
        np.empty((rows, k * k), dtype=complex),
        np.zeros((rows, k)),
        np.ones(rows),
        np.zeros(rows, dtype=bool),
        np.zeros(rows, dtype=bool),
        np.zeros(rows, dtype=int),
    )


def _parse_records(lines, k, n, size) -> SampleSet:
    """The samples of the n record lines (file line 2 onward), in order.

    Each record is parsed once into per-field arrays, with exact shape
    checks, h_re and h_im straight into the complex stack's real and
    imaginary parts; the value rules then run over all rows at once. A count
    of lines other than n is reported first. Of several bad records the
    first is reported, with the error a record-by-record reader gives it,
    and every fault names its line.

    size is the file's byte count, or 0 when that is unknown (a pipe). A
    valid record holds two lists of K^2 numbers, so 4*K^2 characters or
    more: the arrays start with as many rows as size can hold and double,
    up to n, whenever more records come, so neither a header that claims
    too many records nor a stream of unknown size sizes them wrongly.
    """
    cols = _record_arrays(min(n, size // max(4 * k * k, 1) + 1), k)
    h, p_label, rbar, has_label, has_rbar, episode = cols
    h_re, h_im = h.real, h.imag
    found = 0  # lines read
    checked = 0  # rows whose fields read so far go through the rules
    try:
        for i, line in enumerate(lines):
            found = i + 1
            if i >= n:
                continue  # surplus lines are only counted
            if i == len(h):
                more = _record_arrays(min(n, 2 * i) - i, k)
                cols = h, p_label, rbar, has_label, has_rbar, episode = [np.concatenate(c) for c in zip(cols, more)]
                h_re, h_im = h.real, h.imag
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
                raise DatasetFormatError(f"line {lineno}: fields 'h_re'/'h_im' must hold {k * k} values")
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
            except (ValueError, TypeError, OverflowError) as e:
                raise DatasetFormatError(f"line {lineno}: {e}") from e
    except (ValueError, TypeError):
        # a wrong count comes first, then a fault in an earlier row, or
        # earlier in this one
        _check_count(found + sum(1 for _ in lines), n)
        _checked_stack(h[:checked], p_label[:checked], rbar[:checked], k)
        raise
    _check_count(found, n)
    h = _checked_stack(h, p_label, rbar, k)
    p_label[~has_label] = np.nan
    rbar[~has_rbar] = np.nan
    return SampleSet(h, p_label, rbar, episode)


def _check_count(found, n):
    if found != n:
        raise DatasetFormatError(f"line {found + 2}: expected {n} records after the header, found {found}")


def _lines(fh):
    # the lines str.splitlines gives of the whole text, read line by line
    for line in fh:
        yield from line.splitlines()


def load_dataset(path) -> EpisodeStream:
    """The stream a dataset file holds, read in one pass, line by line."""
    with open(path) as fh:
        lines = _lines(fh)
        first = next(lines, None)
        if first is None:
            raise DatasetFormatError("line 1: empty file, expected header")
        try:
            header = json.loads(first)
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
        samples = _parse_records(lines, k, expected, os.fstat(fh.fileno()).st_size)
    return _episode_stream(k, specs, samples)
