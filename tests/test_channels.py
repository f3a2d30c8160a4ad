"""Channel generators, episode streams, and dataset persistence."""

import json
import os
import signal
import tempfile
import threading

import numpy as np
import pytest

from faircl import channels, workers, wsr
from conftest import forks_here
from oracles import load_dataset_per_record, save_dataset_per_record


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- generators


def test_rayleigh_moments():
    samples = channels.gen_rayleigh(1, 100_000, rng(0))
    h = np.array([s.h[0, 0] for s in samples])
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
    assert abs(np.mean(h.real)) < 0.01


def test_rayleigh_shapes():
    samples = channels.gen_rayleigh(3, 4, rng(7))
    assert len(samples) == 4
    for s in samples:
        assert s.h.shape == (3, 3)
        assert np.all(np.isfinite(s.h.real))
        assert s.p_label is None and s.rbar is None


def test_rician_moments():
    samples = channels.gen_rician(1, 100_000, rng(0))
    h = np.array([s.h[0, 0] for s in samples])
    assert np.mean(h.real) == pytest.approx(0.5, abs=0.01)
    assert np.var(h.imag) == pytest.approx(0.25, abs=0.005)


def test_geometry_pathloss_shrinks_gains():
    samples = channels.gen_geometry(1, 100_000, 50.0, rng(0))
    mean_gain = np.mean([np.abs(s.h[0, 0]) ** 2 for s in samples])
    assert mean_gain < 0.1  # far below Rayleigh's 1.0 at 50 m scale


def test_geometry_colocated_override():
    f = (rng(5).standard_normal((2, 2)) + 1j * rng(6).standard_normal((2, 2))) / np.sqrt(2)
    h = channels.pathloss_fading(f, np.zeros((2, 2)))
    np.testing.assert_array_equal(h, f)


def test_geometry_phase_preserved_and_bounded():
    samples = channels.gen_geometry(2, 50, 10.0, rng(3))
    # reconstruct nothing: just check the contract |h| <= |f| via unit pathloss bound
    for s in samples:
        assert np.all(np.isfinite(s.h.real))
    f = np.array([[1.0 + 1.0j]])
    d = np.array([[2.0]])
    h = channels.pathloss_fading(f, d)
    assert np.angle(h[0, 0]) == pytest.approx(np.angle(f[0, 0]))
    assert np.abs(h[0, 0]) ** 2 == pytest.approx(np.abs(f[0, 0]) ** 2 / 5.0)


def test_generators_deterministic():
    a = channels.gen_rayleigh(2, 5, rng(42))
    b = channels.gen_rayleigh(2, 5, rng(42))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.h, y.h)


def test_generator_arg_validation():
    with pytest.raises(ValueError):
        channels.gen_rayleigh(0, 5, rng())
    with pytest.raises(ValueError):
        channels.gen_rician(2, 0, rng())
    with pytest.raises(ValueError):
        channels.gen_geometry(2, 5, -1.0, rng())


# ---------------------------------------------------------------- specs and streams


def test_spec_divisibility():
    with pytest.raises(ValueError, match="not divisible"):
        channels.EpisodeSpec(channels.RAYLEIGH, n_train=10, n_test=2, n_batches=3)


def test_spec_geometry_needs_area():
    with pytest.raises(ValueError, match="area_side_m"):
        channels.EpisodeSpec(channels.GEOMETRY, n_train=4, n_test=2, n_batches=2)


def test_spec_unknown_distribution():
    with pytest.raises(ValueError, match="unknown distribution"):
        channels.EpisodeSpec("nakagami", n_train=4, n_test=2, n_batches=2)


def test_build_stream_slicing():
    spec = channels.EpisodeSpec(channels.RAYLEIGH, n_train=100, n_test=7, n_batches=4)
    stream = channels.build_stream([spec], 2, rng(0))
    assert len(stream.batches) == 4
    assert all(len(b) == 25 for b in stream.batches)
    assert len(stream.test_sets) == 1 and len(stream.test_sets[0]) == 7


def test_build_stream_four_episode_schedule():
    specs = [
        channels.EpisodeSpec(channels.RAYLEIGH, 2000, 10, 4),
        channels.EpisodeSpec(channels.RICIAN, 2000, 10, 4),
        channels.EpisodeSpec(channels.GEOMETRY, 2000, 10, 4, area_side_m=10.0),
        channels.EpisodeSpec(channels.GEOMETRY, 2000, 10, 4, area_side_m=50.0),
    ]
    stream = channels.build_stream(specs, 2, rng(1))
    assert len(stream.batches) == 16
    episodes = [stream.samples.episode[b].tolist() for b in stream.batches]
    assert episodes == [[ep] * 500 for ep in range(4) for _ in range(4)]


def test_build_stream_deterministic():
    specs = [channels.EpisodeSpec(channels.RICIAN, 8, 4, 2)]
    s1 = channels.build_stream(specs, 3, rng(9))
    s2 = channels.build_stream(specs, 3, rng(9))
    for a, b in zip(s1.all_samples(), s2.all_samples()):
        np.testing.assert_array_equal(a.h, b.h)


def test_build_stream_empty_specs():
    with pytest.raises(ValueError):
        channels.build_stream([], 2, rng(0))


def test_batches_are_row_ranges_of_one_sample_set():
    spec = channels.EpisodeSpec(channels.RAYLEIGH, 4, 2, 2)
    stream = channels.build_stream([spec], 2, rng(0))
    assert stream.batches == [range(0, 2), range(2, 4)]
    assert isinstance(stream.samples, channels.SampleSet) and len(stream.samples) == 6
    # test sets are views of the stream's set, and rows are views of its arrays
    test = stream.test_sets[0]
    assert isinstance(test, channels.SampleSet) and np.shares_memory(test.h, stream.samples.h)
    rows = list(stream.all_samples())
    assert all(isinstance(s, channels.ChannelSample) for s in rows)
    assert all(np.shares_memory(s.h, stream.samples.h) for s in rows)
    assert [s.h.tobytes() for s in rows] == [h.tobytes() for h in stream.samples.h]


def test_channels_of_a_set_are_read_only():
    # mag is taken from h once, so a write into either would leave it stale
    stream = channels.build_stream([channels.EpisodeSpec(channels.RICIAN, 4, 2, 2)], 2, rng(0))
    samples = stream.samples
    for stack in (samples.h, samples.mag, stream.test_sets[0].h, samples.take([1, 3]).mag, samples[2].h):
        with pytest.raises(ValueError, match="read-only"):
            stack[..., 0, 0] = 0.0
    channels.add_wmmse_labels(samples)  # labels and rbar stay writable
    assert not np.isnan(samples.rbar).any()


# ---------------------------------------------------------------- labels


def test_labels_consistent_with_rate():
    spec = channels.EpisodeSpec(channels.RAYLEIGH, 4, 2, 2)
    stream = channels.build_stream([spec], 2, rng(11))
    channels.add_wmmse_labels(stream.samples, noise=1.0, p_max=1.0)
    for s in stream.all_samples():
        assert s.p_label is not None and s.rbar is not None
        assert np.all(s.p_label >= 0.0) and np.all(s.p_label <= 1.0)
        prob = wsr.problem_from_channel(s.h)
        assert abs(s.rbar - wsr.sum_rate(prob, s.p_label)) <= 1e-9


def test_labels_reject_a_channel_without_direct_gain():
    # rate 0 at every power: rbar would be 0, which load_dataset rejects
    good = [[1.0, 0.3], [0.2, 0.8]]
    dead = [[0.0, 0.5], [0.4, 0.0]]
    samples = channels.SampleSet(np.array([good, dead], dtype=complex))
    with pytest.raises(ValueError, match="sample 1: .* not positive"):
        channels.add_wmmse_labels(samples)
    assert all(s.p_label is None and s.rbar is None for s in samples)


# ---------------------------------------------------------------- persistence


def small_stream(labels=False):
    spec = channels.EpisodeSpec(channels.RAYLEIGH, 4, 2, 2)
    stream = channels.build_stream([spec], 2, rng(13))
    if labels:
        channels.add_wmmse_labels(stream.samples)
    return stream


def assert_streams_equal(a, b):
    assert a.k_pairs == b.k_pairs
    assert a.specs == b.specs
    assert a.batches == b.batches
    assert [len(t) for t in a.test_sets] == [len(t) for t in b.test_sets]
    xs, ys = list(a.all_samples()), list(b.all_samples())
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert_samples_equal(x, y)


def assert_samples_equal(x, y):
    assert x.k_pairs == y.k_pairs and x.episode_id == y.episode_id
    np.testing.assert_array_equal(x.h, y.h)
    if x.p_label is None:
        assert y.p_label is None
    else:
        np.testing.assert_array_equal(x.p_label, y.p_label)
    assert x.rbar == y.rbar


@pytest.mark.parametrize("labels", [False, True])
def test_round_trip_bit_exact(tmp_path, labels):
    stream = small_stream(labels)
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    assert_streams_equal(channels.load_dataset(path), stream)


def test_save_is_reproducible_bytes(tmp_path):
    stream = small_stream(True)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    channels.save_dataset(stream, p1)
    channels.save_dataset(stream, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_truncated_names_line(tmp_path):
    stream = small_stream()
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="line"):
        channels.load_dataset(path)


def test_load_k_mismatch_names_line_and_field(tmp_path):
    stream = small_stream()
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[3])
    rec["k"] = 5
    lines[3] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="line 4.*'k'"):
        channels.load_dataset(path)


def test_load_malformed_record_names_line(tmp_path):
    stream = small_stream()
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="line 3"):
        channels.load_dataset(path)
    # a zero reference rate is rejected at load, before anything divides by it
    lines[2] = json.dumps(dict(json.loads(lines[1]), rbar=0.0))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="line 3.*rbar"):
        channels.load_dataset(path)
    # so are non-finite labels, which training would otherwise divide into
    for field, value, rule in (
        ("p_label", [float("nan"), 0.5], "p_label must be finite"),
        ("p_label", [0.5, float("inf")], "p_label must be finite"),
        ("rbar", float("inf"), "rbar must be finite, got inf"),
    ):
        lines[2] = json.dumps(dict(json.loads(lines[1]), **{field: value}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(channels.DatasetFormatError, match=f"^line 3: {rule}$"):
            channels.load_dataset(path)


def test_load_missing_field_named(tmp_path):
    stream = small_stream()
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    del rec["h_im"]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="line 2.*'h_im'"):
        channels.load_dataset(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(channels.DatasetFormatError, match="line 1"):
        channels.load_dataset(path)


def test_load_sizes_arrays_by_the_file_not_the_header(tmp_path):
    # a header claiming far more records than the file can hold gets the
    # count error, not an allocation of its claimed size; with as many lines
    # as it claims, the first bad record is reported as a per-record reader does
    path = tmp_path / "data.jsonl"
    huge = {"distribution": "rayleigh", "n_train": 10**15, "n_test": 1, "n_batches": 1}
    header = json.dumps({"version": channels.DATASET_VERSION, "k": 10, "specs": [huge]})
    path.write_text(header + "\n{}\n")
    with pytest.raises(channels.DatasetFormatError, match=r"^line 3: expected 1000000000000001 records .* found 1$"):
        channels.load_dataset(path)
    header = json.dumps({"version": channels.DATASET_VERSION, "k": 10, "specs": [dict(huge, n_train=4)]})
    for records in (["{}"] * 5, ['{"k": 10}'] * 5, ["{}", "{not json", "[]", "1", "{}"]):
        _write_records(path, header, records)
        want = _outcome(load_dataset_per_record, path)
        assert want is not None and _outcome(channels.load_dataset, path) == want, records


def _through_fifo(load, path):
    # load applied to a FIFO that carries path's bytes: a reader cannot learn
    # a FIFO's size before reading it (fstat gives 0)
    fifo = path.with_name("data.fifo")
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()))
    writer.start()
    try:
        return load(fifo)
    finally:
        writer.join()
        fifo.unlink()


def test_load_reads_a_fifo(tmp_path):
    specs = [
        channels.EpisodeSpec(channels.RICIAN, 6, 3, 2),
        channels.EpisodeSpec(channels.GEOMETRY, 4, 2, 2, area_side_m=10.0),
    ]
    stream = channels.build_stream(specs, 3, rng(7))
    channels.add_wmmse_labels(stream.samples)
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    loaded = _through_fifo(channels.load_dataset, path)
    assert len(loaded.samples) == 15
    assert _layout_and_bits(loaded) == _layout_and_bits(load_dataset_per_record(path))
    # a short, a long and a corrupt file read through a FIFO fail as read from disk
    header, *lines = path.read_text().splitlines()
    for records in (lines[:-1], lines + lines[:1], lines[:-1] + ["{}"]):
        _write_records(path, header, records)
        want = _outcome(load_dataset_per_record, path)
        assert want is not None and _through_fifo(lambda p: _outcome(channels.load_dataset, p), path) == want


def test_load_names_the_line_of_an_out_of_range_number(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    header, *lines = path.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    for field, value, rule in (
        ("episode", 10**30, "Python int too large to convert to C long"),
        ("episode", float("inf"), "cannot convert float infinity to integer"),
        ("rbar", 10**400, "int too large to convert to float"),
    ):
        _write_records(path, header, _corrupt(recs, 3, **{field: value}))
        with pytest.raises(channels.DatasetFormatError, match=f"^line 3: {rule}$"):
            channels.load_dataset(path)


# ------------------------------------------- loader against the per-record reference


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _layout_and_bits(stream):
    layout = (
        stream.k_pairs,
        stream.specs,
        [len(b) for b in stream.batches],
        [len(t) for t in stream.test_sets],
    )
    rows = [
        (s.k_pairs, type(s.episode_id), s.episode_id, _bits(s.h), _bits(s.p_label), type(s.rbar), repr(s.rbar))
        for s in stream.all_samples()
    ]
    return layout, rows


def _write_records(path, header, recs):
    path.write_text("\n".join([header] + [r if isinstance(r, str) else json.dumps(r) for r in recs]) + "\n")


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("labels", [False, True])
def test_load_bitwise_equal_per_record_reference(tmp_path, k, labels):
    specs = [
        channels.EpisodeSpec(channels.RICIAN, 6, 3, 2),
        channels.EpisodeSpec(channels.GEOMETRY, 4, 2, 2, area_side_m=10.0),
    ]
    stream = channels.build_stream(specs, k, rng(50 + k))
    if labels:
        channels.add_wmmse_labels(stream.samples, noise=0.7, p_max=2.0)
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    assert _layout_and_bits(channels.load_dataset(path)) == _layout_and_bits(load_dataset_per_record(path))
    # records the format accepts that save_dataset does not write: integer
    # and signed-zero entries, a null label, no rbar, a float episode, extras;
    # h_re + 1j*h_im turns a -0.0 h_im into +0.0, and a -0.0 h_re into +0.0
    # where h_im > 0
    header, *lines = path.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    recs[0]["h_re"] = [-0.0] * (k * k)
    recs[1]["h_im"] = list(range(k * k))
    recs[2]["p_label"] = None
    recs[3].pop("rbar", None)
    recs[4]["episode"] = 0.0
    recs[5]["note"] = "extra"
    recs[6]["h_im"] = [-0.0] * (k * k)
    _write_records(path, header, recs)
    assert _layout_and_bits(channels.load_dataset(path)) == _layout_and_bits(load_dataset_per_record(path))


def _corrupt(recs, line, **fields):
    # the records with fields replaced at a file line (records start at line 2)
    out = [dict(r) for r in recs]
    out[line - 2].update(fields)
    return out


def _malformed_corpus(recs):
    """(name, records) pairs: every list holds at least one bad record."""
    inf, nan = float("inf"), float("nan")
    r2, r3 = recs[0], recs[1]
    no_im = dict(r2)
    del no_im["h_im"]
    corpus = [
        ("bad JSON", ["{not json" if i == 1 else r for i, r in enumerate(recs)]),
        ("missing field", [no_im] + recs[1:]),
        ("k mismatch", _corrupt(recs, 4, k=5)),
        ("length-1 h_re", _corrupt(recs, 3, h_re=[0.5])),
        ("nested h_re", _corrupt(recs, 3, h_re=[r3["h_re"]])),
        ("column h_im", _corrupt(recs, 3, h_im=[[v] for v in r3["h_im"]])),
        ("null h_re", _corrupt(recs, 3, h_re=None)),
        ("string in h_re", _corrupt(recs, 3, h_re=["x"] + r3["h_re"][1:])),
        ("object h_im", _corrupt(recs, 3, h_im={"a": 1.0})),
        ("infinite h", _corrupt(recs, 3, h_re=[inf] + r3["h_re"][1:])),
        ("NaN h", _corrupt(recs, 5, h_im=r3["h_im"][:-1] + [nan])),
        ("negative label", _corrupt(recs, 3, p_label=[-0.1, 0.5])),
        ("-inf label", _corrupt(recs, 3, p_label=[0.5, -inf])),
        ("short label", _corrupt(recs, 3, p_label=[0.5])),
        ("nested label", _corrupt(recs, 3, p_label=[[0.5, 0.5]])),
        ("string label", _corrupt(recs, 3, p_label=["x", "y"])),
        ("zero rbar", _corrupt(recs, 3, rbar=0.0)),
        ("negative rbar", _corrupt(recs, 3, rbar=-1.0)),
        ("NaN rbar", _corrupt(recs, 3, rbar=nan)),
        ("string rbar", _corrupt(recs, 3, rbar="abc")),
        ("list rbar", _corrupt(recs, 3, rbar=[1.0])),
        ("string episode", _corrupt(recs, 3, episode="x")),
        ("null episode", _corrupt(recs, 3, episode=None)),
        ("list record", ["[1, 2]" if i == 2 else r for i, r in enumerate(recs)]),
        ("number record", ["5" if i == 2 else r for i, r in enumerate(recs)]),
        # two bad lines with different faults: the earlier one is reported
        ("infinite h, later bad JSON", _corrupt(recs, 3, h_re=[inf] + r3["h_re"][1:])[:3] + ["{"] + recs[4:]),
        ("bad JSON, later negative label", ["{" if i == 1 else r for i, r in enumerate(_corrupt(recs, 5, p_label=[-1.0, 0.0]))]),
        ("zero rbar, later missing field", _corrupt(recs, 4, rbar=0.0)[:4] + [no_im] + recs[5:]),
        ("NaN h, later k mismatch", _corrupt(_corrupt(recs, 2, h_im=[nan] + r2["h_im"][1:]), 6, k=3)),
        # two faults in one record: the one a record-by-record reader meets first
        ("infinite h and short label", _corrupt(recs, 3, h_re=[inf] + r3["h_re"][1:], p_label=[0.5])),
        ("negative label and string rbar", _corrupt(recs, 3, p_label=[-1.0, 0.0], rbar="abc")),
        ("infinite h and string episode", _corrupt(recs, 3, h_re=[inf] + r3["h_re"][1:], episode="x")),
        ("length-1 h_re and string h_im", _corrupt(recs, 3, h_re=[0.5], h_im=["x"] * len(r3["h_im"]))),
    ]
    return corpus


def _outcome(load, path):
    try:
        load(path)
    except Exception as e:  # the type is part of what is compared
        return type(e), str(e)
    return None


# Where the record-by-record reader lets a raw TypeError, or a ValueError
# that names no line, escape, load_dataset raises a DatasetFormatError with
# the line number instead.
_H_VALUES = "fields 'h_re'/'h_im' must hold 4 values"
_NAMED_LINE = {
    "string in h_re": f"line 3: {_H_VALUES}",
    "object h_im": f"line 3: {_H_VALUES}",
    "length-1 h_re and string h_im": f"line 3: {_H_VALUES}",
    "list rbar": "line 3: float() argument must be a string or a real number, not 'list'",
    "null episode": "line 3: int() argument must be a string, a bytes-like object or a real number, not 'NoneType'",
    "number record": "line 4: record missing field 'k'",
}


def test_load_malformed_matches_per_record_reference(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    header, *lines = path.read_text().splitlines()
    recs = [json.loads(line) for line in lines]
    cases = _malformed_corpus(recs)
    cases += [
        ("truncated file", recs[:-2]),
        ("extra record", recs + recs[:1]),
    ]
    for name, bad in cases:
        _write_records(path, header, bad)
        want = _outcome(load_dataset_per_record, path)
        assert want is not None, name
        if name in _NAMED_LINE:
            assert not issubclass(want[0], channels.DatasetFormatError), name
            want = (channels.DatasetFormatError, _NAMED_LINE[name])
        assert _outcome(channels.load_dataset, path) == want, name
    assert {name for name, _ in cases} >= _NAMED_LINE.keys()
    for name, text in (("empty file", ""), ("bad header", "{}\n"), ("bad version", json.dumps({"version": 9, "k": 2, "specs": []}) + "\n")):
        path.write_text(text)
        want = _outcome(load_dataset_per_record, path)
        assert want is not None and _outcome(channels.load_dataset, path) == want, name


# ------------------------------------------------------------- gen workers

def forked_stream(monkeypatch, dead_row=None):
    """24 K=3 samples, enough to fork for; dead_row's direct gains are zero."""
    monkeypatch.setattr(channels, "_FORK_ENTRIES", 8 * 9)
    specs = [channels.EpisodeSpec(channels.RAYLEIGH, 8, 4, 2), channels.EpisodeSpec(channels.RICIAN, 8, 4, 2)]
    stream = channels.build_stream(specs, 3, rng(5))
    if dead_row is not None:
        h = stream.samples.h.copy()
        h[dead_row][np.diag_indices(3)] = 0.0
        samples = channels.SampleSet(h, episode=stream.samples.episode)
        stream = channels._episode_stream(stream.k_pairs, stream.specs, samples)
    return stream


@forks_here
def test_labels_same_in_process_and_in_workers(monkeypatch, no_children, use_cpus, forks):
    labelled = []
    # (CPUs, forks): the set holds three shares' entries, so at most three
    for n, n_forks in ((1, 0), (2, 2), (3, 3), (8, 3)):
        use_cpus(n)
        forks.clear()
        samples = forked_stream(monkeypatch).samples
        channels.add_wmmse_labels(samples)
        assert len(forks) == n_forks
        labelled.append((samples.labels, samples.rbar))
    powers, rates = wsr.wmmse_many(samples.mag**2)
    for labels, rbar in labelled:
        np.testing.assert_array_equal(labels, powers)
        np.testing.assert_array_equal(rbar, rates)


@forks_here
@pytest.mark.parametrize("n_cpus", [1, 3])
def test_labels_in_workers_name_a_dead_channel_by_its_row(monkeypatch, no_children, use_cpus, n_cpus):
    use_cpus(n_cpus)
    samples = forked_stream(monkeypatch, dead_row=23).samples  # in the last worker's share
    with pytest.raises(ValueError, match="^sample 23: WMMSE label rate 0.0 is not positive$"):
        channels.add_wmmse_labels(samples)
    assert np.isnan(samples.labels).all() and np.isnan(samples.rbar).all()


@forks_here
@pytest.mark.parametrize("n_cpus", [1, 3])
def test_save_bitwise_equal_per_record_reference(tmp_path, monkeypatch, no_children, use_cpus, n_cpus):
    use_cpus(n_cpus)
    stream = forked_stream(monkeypatch)
    channels.add_wmmse_labels(stream.samples)
    # rows without labels or rbar, a negative zero and a non-finite value
    stream.samples.labels[3:9] = np.nan
    stream.samples.rbar[7:12] = np.nan
    h = stream.samples.h.copy()
    h[2, 0, 1], h[17, 1, 1] = -0.0, complex(np.inf, np.nan)
    stream = channels._episode_stream(3, stream.specs, channels.SampleSet(h, *(
        getattr(stream.samples, f) for f in ("labels", "rbar", "episode"))))
    path, want = tmp_path / "data.jsonl", tmp_path / "want.jsonl"
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))  # shares go beside the file
    channels.save_dataset(stream, path)
    save_dataset_per_record(stream, want)
    assert path.read_bytes() == want.read_bytes()


@forks_here
@pytest.mark.parametrize("fault, n_cpus", [("raise", 1), ("raise", 2), ("kill", 2)])
def test_save_that_fails_leaves_the_old_file(tmp_path, monkeypatch, no_children, use_cpus, fault, n_cpus):
    use_cpus(n_cpus)
    stream = forked_stream(monkeypatch)
    path = tmp_path / "data.jsonl"
    path.write_text("old\n")
    parent, write = os.getpid(), channels._write_records

    def failing(fh, samples, k):
        if fault == "kill" and os.getpid() != parent:  # never kill the test's process
            os.kill(os.getpid(), signal.SIGKILL)
        if np.array_equal(samples.h[-1], stream.samples.h[-1]):  # the last share: the others come first
            raise ValueError("boom")
        write(fh, samples, k)

    monkeypatch.setattr(channels, "_write_records", failing)
    error = (ValueError, "boom") if fault == "raise" else (workers.WorkerDied, "killed by signal 9")
    with pytest.raises(error[0], match=error[1]):
        channels.save_dataset(stream, path)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["data.jsonl"]  # no temp file behind


def test_save_writes_a_fifo_and_a_symlink_in_place(tmp_path):
    stream = small_stream(True)
    want = tmp_path / "want.jsonl"
    save_dataset_per_record(stream, want)
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_text("old\n")
    link.symlink_to(target)
    channels.save_dataset(stream, link)
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        channels.save_dataset(stream, fifo)
    finally:
        reader.join()
    assert read == [want.read_bytes()]
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.jsonl", "target.jsonl", "want.jsonl"]
