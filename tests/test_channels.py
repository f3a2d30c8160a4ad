"""Channel generators, episode streams, and dataset persistence."""

import json
import math
import os
import threading

import numpy as np
import pytest

from faircl import channels, harness, model, workers, wsr
from conftest import forks_here, through_fifo


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
    # each raised a TypeError, numpy's OverflowError or drew samples
    gens = (lambda k, n: channels.gen_rayleigh(k, n, rng()), lambda k, n: channels.gen_rician(k, n, rng()),
            lambda k, n: channels.gen_geometry(k, n, 10.0, rng()))
    for bad in (2.5, True, math.inf, math.nan):
        for gen in gens:
            with pytest.raises(ValueError, match="^k_pairs must"):
                gen(bad, 5)
            with pytest.raises(ValueError, match="^n must"):
                gen(2, bad)
        if bad != 2.5:
            with pytest.raises(ValueError, match="^area_side_m must"):
                channels.gen_geometry(2, 5, bad, rng())


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
    stream.label(noise=1.0, p_max=1.0)
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
        stream.label()
    return stream


def assert_streams_equal(a, b):
    assert a.k_pairs == b.k_pairs
    assert a.specs == b.specs
    assert (a.noise, a.p_max) == (b.noise, b.p_max)
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


def read_parts(path):
    """A dataset file's header and its arrays, as writable copies."""
    line, _, body = path.read_bytes().partition(b"\n")
    header, arrays, at = json.loads(line), [], 0
    for _, dtype, shape in header["arrays"]:
        arrays.append(np.frombuffer(body, dtype, int(np.prod(shape)), at).reshape(shape).copy())
        at += arrays[-1].nbytes
    assert at == len(body)
    return header, arrays


def write_parts(path, header, arrays):
    path.write_bytes(json.dumps(header).encode() + b"\n" + b"".join(a.tobytes() for a in arrays))


@pytest.mark.parametrize("labels", [False, True])
def test_round_trip_bit_exact(tmp_path, labels):
    specs = [
        channels.EpisodeSpec(channels.RICIAN, 6, 3, 2),
        channels.EpisodeSpec(channels.GEOMETRY, 4, 2, 2, area_side_m=10.0),
    ]
    stream = channels.build_stream(specs, 3, rng(50))
    if labels:
        stream.label(noise=0.7, p_max=2.0)
        # rows without labels or rbar, and signed zeros, keep their bits
        stream.samples.labels[3:6] = np.nan
        stream.samples.rbar[5:8] = np.nan
        stream.samples.labels[0, 1] = -0.0
    h = stream.samples.h.copy()
    h[1, 0, 1], h[2, 2, 2] = complex(-0.0, 0.0), complex(0.5, -0.0)
    samples = channels.SampleSet(h, stream.samples.labels, stream.samples.rbar)
    stream = channels._episode_stream(3, specs, samples, stream.noise, stream.p_max)
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    loaded = channels.load_dataset(path)
    assert_streams_equal(loaded, stream)
    assert (loaded.noise, loaded.p_max) == ((0.7, 2.0) if labels else (1.0, 1.0))
    for field in ("h", "labels", "rbar", "episode"):
        a, b = getattr(loaded.samples, field), getattr(stream.samples, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert [s.episode_id for s in loaded.all_samples()] == [0] * 6 + [1] * 4 + [0] * 3 + [1] * 2


def test_save_is_reproducible_bytes(tmp_path):
    stream = small_stream(True)
    p1, p2, p3 = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    channels.save_dataset(stream, p1)
    channels.save_dataset(stream, p2)
    assert p1.read_bytes() == p2.read_bytes()
    channels.save_dataset(channels.load_dataset(p1), p3)
    assert p3.read_bytes() == p1.read_bytes()


def test_save_lays_out_one_header_line_and_the_raw_arrays(tmp_path):
    stream = small_stream(True)
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    header, (h, labels, rbar) = read_parts(path)
    assert header == {
        "version": 2,
        "k": 2,
        "specs": [{"distribution": "rayleigh", "n_train": 4, "n_test": 2, "n_batches": 2, "area_side_m": None}],
        "noise": 1.0,
        "p_max": 1.0,
        "arrays": [["h", "<c16", [6, 2, 2]], ["labels", "<f8", [6, 2]], ["rbar", "<f8", [6]]],
    }
    assert h.tobytes() == stream.samples.h.tobytes()
    assert labels.tobytes() == stream.samples.labels.tobytes()
    assert rbar.tobytes() == stream.samples.rbar.tobytes()


def test_save_that_fails_leaves_the_old_file(tmp_path):
    stream = small_stream(True)
    stream.samples.rbar = np.array(["x"] * len(stream.samples))  # fails after h and labels are written
    path = tmp_path / "data.jsonl"
    path.write_text("old\n")
    with pytest.raises(ValueError, match="could not convert string to float"):
        channels.save_dataset(stream, path)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["data.jsonl"]  # no temp file behind


def _write_in_place(save, tmp_path, suffix):
    # save(path) through a symlink, then into a FIFO: each writes the bytes
    # that save writes to a new file, leaving the link and the FIFO in place
    want = tmp_path / f"want{suffix}"
    save(want)
    target, link = tmp_path / f"target{suffix}", tmp_path / f"link{suffix}"
    target.write_text("old\n")
    link.symlink_to(target)
    save(link)
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()
    fifo = tmp_path / f"fifo{suffix}"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()))
    reader.start()
    try:
        save(fifo)
    finally:
        reader.join()
    assert read == [want.read_bytes()]
    return [f"{name}{suffix}" for name in ("fifo", "link", "target", "want")]


def test_save_writes_a_fifo_and_a_symlink_in_place(tmp_path):
    stream = small_stream(True)
    params = model.init((4, 3, 2), 1.0, rng(0))
    rows = [harness.MetricsRow(4, "TL", [0.5, 0.25], [1.0, 0.5], 0.375)]
    names = _write_in_place(lambda p: channels.save_dataset(stream, p), tmp_path, ".jsonl")
    names += _write_in_place(lambda p: model.save_params(params, p), tmp_path, ".json")
    names += _write_in_place(lambda p: harness.write_metrics_csv(p, rows), tmp_path, ".csv")
    assert sorted(os.listdir(tmp_path)) == sorted(names)  # no temp file behind


def test_load_truncated_inside_each_array(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    data = path.read_bytes()
    head = data.index(b"\n") + 1
    # h holds 6*4 complex (384 bytes), labels 6*2 and rbar 6 doubles
    for size, name in ((head, "h"), (head + 383, "h"), (head + 384, "labels"), (head + 400, "labels"),
                       (head + 480, "rbar"), (len(data) - 1, "rbar")):
        path.write_bytes(data[:size])
        with pytest.raises(channels.DatasetFormatError, match=f"^header: file ends inside array '{name}'$"):
            channels.load_dataset(path)


def test_load_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(channels.DatasetFormatError, match="^header: bytes after the last array$"):
        channels.load_dataset(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(channels.DatasetFormatError, match=r"^header: not JSON \(Expecting value: line 1 column 1 \(char 0\)\)$"):
        channels.load_dataset(path)


def test_load_rejects_a_header_that_does_not_give_the_arrays(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    header, arrays = read_parts(path)
    h_dtype = [["h", ">c16", [6, 2, 2]]] + header["arrays"][1:]
    h_shape = [["h", "<c16", [6, 4]]] + header["arrays"][1:]
    no_rbar = header["arrays"][:2]
    spec = header["specs"][0]
    no_batches = {key: v for key, v in spec.items() if key != "n_batches"}
    for fields, message in (
        ({"arrays": h_dtype}, "^header: arrays .* are not the .* that the header's fields give$"),
        ({"arrays": h_shape}, "^header: arrays .* are not the .* that the header's fields give$"),
        ({"arrays": no_rbar}, "^header: arrays .* are not the .* that the header's fields give$"),
        ({"k": 3}, "^header: arrays .* are not the .* that the header's fields give$"),
        ({"k": 0}, "^header: k must be an integer >= 1, got 0$"),
        ({"k": 2.0}, "^header: k must be an integer >= 1, got 2.0$"),
        ({"specs": [dict(spec, n_train=4.0)]}, "^header: n_train must be an integer >= 1, got 4.0$"),
        ({"specs": [dict(spec, n_test=3)]}, "^header: arrays .* are not the .* that the header's fields give$"),
        ({"specs": [dict(spec, n_batches=3)]}, "^header: n_train=4 not divisible by n_batches=3$"),
        ({"specs": [dict(spec, note=1)]},
         "^header: unknown episode keys: note; valid: area_side_m, distribution, n_batches, n_test, n_train$"),
        ({"specs": [no_batches]}, "^header: episode missing 'n_batches'$"),
        ({"specs": [dict(spec, distribution="geometry", area_side_m=float("inf"))]},
         "^header: area_side_m must be a positive finite number, got inf$"),
        ({"specs": [dict(spec, area_side_m="x")]}, "^header: area_side_m must be null or a positive finite number, got 'x'$"),
        ({"specs": [dict(spec, area_side_m=True)]}, "^header: area_side_m must be null or a positive finite number, got True$"),
        ({"specs": [dict(spec, area_side_m=-1)]}, "^header: area_side_m must be null or a positive finite number, got -1$"),
        ({"specs": "rayleigh"}, "^header: specs must be a JSON array, got 'rayleigh'$"),
        ({"specs": [5]}, "^header: episode must be a JSON object, got 5$"),
        ({"noise": 0.0}, "^header: noise must be a positive finite number, got 0.0$"),
        ({"noise": "1.0"}, "^header: noise must be a positive finite number, got '1.0'$"),
        ({"p_max": float("inf")}, "^header: p_max must be a positive finite number, got inf$"),
        ({"p_max": True}, "^header: p_max must be a positive finite number, got True$"),
        ({"version": 9}, "^header: version 9 is not 2; write the file again with faircl gen$"),
    ):
        write_parts(path, dict(header, **fields), arrays)
        with pytest.raises(channels.DatasetFormatError, match=message):
            channels.load_dataset(path)
    for missing in ("k", "specs", "noise", "p_max"):
        write_parts(path, {key: v for key, v in header.items() if key != missing}, arrays)
        with pytest.raises(channels.DatasetFormatError, match=f"^header: missing field '{missing}'$"):
            channels.load_dataset(path)
    for line, message in (
        (b"{not json", r"^header: not JSON \(Expecting property name enclosed in double quotes: line 1 column 2 \(char 1\)\)$"),
        (b"[1, 2]", "^header: not a JSON object$"),
        (b"\xff\xfe", r"^header: not JSON \('utf-16-le' codec can't decode byte 0x0a in position 2: truncated data\)$"),
        (b'{"k": 2}', "^header: version None is not 2; write the file again with faircl gen$"),
    ):
        path.write_bytes(line + b"\n")
        with pytest.raises(channels.DatasetFormatError, match=message):
            channels.load_dataset(path)


def test_load_of_a_header_claiming_more_rows_than_memory_holds(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    header, arrays = read_parts(path)
    # 64 PB of h, past any address space; 2**64 bytes of h, past numpy's byte count
    for n in (10**15, 2**58):
        header["specs"][0].update(n_train=n - 2)
        header["arrays"] = [["h", "<c16", [n, 2, 2]], ["labels", "<f8", [n, 2]], ["rbar", "<f8", [n]]]
        write_parts(path, header, arrays)
        with pytest.raises(channels.DatasetFormatError,
                           match=rf"^header: arrays \[\['h', '<c16', \[{n}, 2, 2\]\], .* are more than memory holds$"):
            channels.load_dataset(path)


def test_load_names_a_version_1_file_as_one_to_regenerate(tmp_path):
    path = tmp_path / "data.jsonl"
    spec = {"distribution": "rayleigh", "n_train": 2, "n_test": 1, "n_batches": 1, "area_side_m": None}
    record = {"k": 1, "episode": 0, "h_re": [0.5], "h_im": [0.25], "p_label": [1.0], "rbar": 0.1}
    path.write_text("\n".join(json.dumps(r) for r in [{"version": 1, "k": 1, "specs": [spec]}] + [record] * 3) + "\n")
    with pytest.raises(channels.DatasetFormatError, match="^header: version 1 is not 2; write the file again with faircl gen$"):
        channels.load_dataset(path)


def test_load_names_the_row_of_each_value_rule(tmp_path):
    path = tmp_path / "data.jsonl"
    channels.save_dataset(small_stream(True), path)
    header, good = read_parts(path)
    inf, nan = float("inf"), float("nan")
    # (array, index, value, message): a label row or rbar that is all NaN is
    # absent, so only a row with some NaN labels breaks the finite rule
    for array, index, value, message in (
        (0, (3, 0, 1), complex(inf, 0.0), "h must be finite"),
        (0, (3, 1, 1), complex(0.0, nan), "h must be finite"),
        (1, (3, 1), -0.5, "p_label must be a nonnegative length-K vector"),
        (1, (3, 1), -inf, "p_label must be a nonnegative length-K vector"),
        (1, (3, 0), nan, "p_label must be finite"),
        (1, (3, 1), inf, "p_label must be finite"),
        (2, 3, 0.0, "rbar must be positive, got 0.0"),
        (2, 3, -1.0, "rbar must be positive, got -1.0"),
        (2, 3, inf, "rbar must be finite, got inf"),
    ):
        arrays = [a.copy() for a in good]
        arrays[array][index] = value
        write_parts(path, header, arrays)
        with pytest.raises(channels.DatasetFormatError, match=f"^row 3: {message}$"):
            channels.load_dataset(path)
    # of one row's faults the first rule is named, and of several rows the earliest
    arrays = [a.copy() for a in good]
    arrays[0][2, 0, 0], arrays[1][2, 0], arrays[2][4] = inf, -1.0, 0.0
    write_parts(path, header, arrays)
    with pytest.raises(channels.DatasetFormatError, match="^row 2: h must be finite$"):
        channels.load_dataset(path)
    # row 2 without labels or rbar passes
    arrays[0][2, 0, 0], arrays[1][2], arrays[2][2] = 0.5, nan, nan
    write_parts(path, header, arrays)
    with pytest.raises(channels.DatasetFormatError, match="^row 4: rbar must be positive, got 0.0$"):
        channels.load_dataset(path)
    arrays[2][4] = nan
    write_parts(path, header, arrays)
    loaded = channels.load_dataset(path)
    assert loaded.samples[2].p_label is None and loaded.samples[2].rbar is None
    assert loaded.samples[4].rbar is None and loaded.samples[4].p_label is not None


def _outcome(load, path):
    try:
        return load(path).samples
    except channels.DatasetFormatError as e:
        return str(e)


def test_load_reads_a_fifo(tmp_path):
    specs = [
        channels.EpisodeSpec(channels.RICIAN, 6, 3, 2),
        channels.EpisodeSpec(channels.GEOMETRY, 4, 2, 2, area_side_m=10.0),
    ]
    stream = channels.build_stream(specs, 3, rng(7))
    stream.label()
    path = tmp_path / "data.jsonl"
    channels.save_dataset(stream, path)
    loaded = through_fifo(channels.load_dataset, path)
    assert len(loaded.samples) == 15
    assert_streams_equal(loaded, channels.load_dataset(path))
    # a short, a long and a corrupt file read through a FIFO fail as read from disk
    data = path.read_bytes()
    corrupt = bytearray(data)
    corrupt[-8:] = np.array([-1.0]).tobytes()
    for bad in (data[:-1], data + data[:1], bytes(corrupt)):
        path.write_bytes(bad)
        want = _outcome(channels.load_dataset, path)
        assert isinstance(want, str) and through_fifo(lambda p: _outcome(channels.load_dataset, p), path) == want


# ------------------------------------------------------------- labelling

@forks_here
def test_labels_never_fork(use_cpus, forks):
    # 1,400 K=10 rows: enough for two CPUs' shares, were the solve shared out
    use_cpus(2)
    samples = channels.gen_rayleigh(10, 1400, rng(5))
    channels.add_wmmse_labels(samples)
    assert forks == []
    powers, rates = wsr.wmmse_many(samples.mag**2)
    np.testing.assert_array_equal(samples.labels, powers)
    np.testing.assert_array_equal(samples.rbar, rates)


@forks_here
def test_labels_hold_blas_to_one_thread_then_restore(monkeypatch):
    set_threads, get_threads = workers._openblas()
    calls, during, solve = [], [], wsr.wmmse_many
    monkeypatch.setattr(workers, "_openblas", lambda: (lambda n: calls.append(n) or set_threads(n), get_threads))
    monkeypatch.setattr(wsr, "wmmse_many", lambda *a, **kw: during.append(get_threads()) or solve(*a, **kw))
    before = get_threads()
    set_threads(2)  # an OPENBLAS_NUM_THREADS=2 start
    try:
        channels.add_wmmse_labels(small_stream().samples)
        assert (calls, during, get_threads()) == ([1, 2], [1], 2)
    finally:
        set_threads(before)
