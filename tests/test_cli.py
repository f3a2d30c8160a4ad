import contextlib
import dataclasses
import json
import math
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from faircl import channels, cli, harness, model, workers, wsr
from faircl.channels import EpisodeSpec
from faircl.cli import ExperimentConfig, config_from_dict, config_to_dict, main

from conftest import forks_here
from oracles import bad_checkpoints


def tiny_config(**kw):
    defaults = dict(
        seed=3,
        k_pairs=2,
        episodes=[
            EpisodeSpec("rayleigh", 8, 4, 2),
            EpisodeSpec("rician", 8, 4, 2),
        ],
        methods=["TL", "Bilevel"],
        hidden_sizes=(6,),
        memory_capacity=4,
        epochs=1,
        minibatch_size=4,
        alpha=0.01,
        beta=0.2,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    return path


def gen(cfg_path, out):
    return main(["gen", "--config", str(cfg_path), "--out", str(out)])


# ------------------------------------------------------------------ config

def test_default_config_scales():
    cfg = cli.default_config()
    assert cfg.episodes[0].n_train == 2000
    assert cfg.memory_capacity == 200
    assert len(cfg.episodes) == 4
    assert cli.default_config(scale=1).episodes[0].n_train == 20000
    with pytest.raises(ValueError, match="scale"):
        cli.default_config(scale=3)


def test_config_training_defaults_are_the_strategy_defaults():
    cfg = cli.default_config()
    for method in harness.METHODS:
        got, want = cfg.strategy(method), harness.StrategyConfig(method)
        for f in dataclasses.fields(harness.StrategyConfig):
            if f.name != "memory_capacity":  # the config's own, scaled with the stream
                assert getattr(got, f.name) == getattr(want, f.name), f.name


def test_config_round_trip():
    cfg = tiny_config()
    again = config_from_dict(config_to_dict(cfg))
    assert config_to_dict(again) == config_to_dict(cfg)


def test_config_rejects_bad_input():
    with pytest.raises(ValueError, match="seed"):
        config_from_dict({"k_pairs": 2, "episodes": []})
    good = config_to_dict(tiny_config())
    bad = dict(good, extra_knob=1)
    with pytest.raises(ValueError, match="extra_knob"):
        config_from_dict(bad)
    bad = dict(good, methods=["TL", "SGD"])
    with pytest.raises(ValueError, match="SGD"):
        config_from_dict(bad)
    # nested dicts must fail with ValueError too, so the CLI prints a
    # clean error line instead of a TypeError traceback
    bad = dict(good, episodes=[dict(good["episodes"][0], family="rayleigh")])
    with pytest.raises(ValueError, match="episode keys"):
        config_from_dict(bad)
    bad = dict(good, loss={"upper": "mse"})
    with pytest.raises(ValueError, match="unknown config keys: loss"):
        config_from_dict(bad)


TINY = config_to_dict(tiny_config())
MALFORMED_CONFIGS = {
    "episodes not a list": dict(TINY, episodes=5),
    "episode not an object": dict(TINY, episodes=[5]),
    "seed a string": dict(TINY, seed="a"),
    "k_pairs a string": dict(TINY, k_pairs="2"),
    "n_train a float": dict(TINY, episodes=[dict(TINY["episodes"][0], n_train=4.0)]),
    "hidden_sizes a number": dict(TINY, hidden_sizes=5),
    "loss a list": dict(TINY, loss=[]),
    # the nested loss object of earlier releases, which held a second noise
    "loss an object": dict(TINY, loss={"noise": 1.0}),
    # a missing key escaped cli.main as a TypeError traceback
    "episode missing n_test": dict(TINY, episodes=[{"distribution": "rayleigh", "n_train": 4, "n_batches": 2}]),
    "episode missing distribution": dict(TINY, episodes=[{"n_train": 4, "n_test": 2, "n_batches": 2}]),
    # outside geometry, gen wrote any area_side_m into the dataset header
    "area_side_m a string": dict(TINY, episodes=[dict(TINY["episodes"][0], area_side_m="x")]),
    "area_side_m a bool": dict(TINY, episodes=[dict(TINY["episodes"][0], area_side_m=True)]),
}


@pytest.mark.parametrize("raw", MALFORMED_CONFIGS.values(), ids=MALFORMED_CONFIGS)
def test_gen_rejects_a_malformed_config_in_one_line(tmp_path, capsys, raw):
    path, out = tmp_path / "bad.json", tmp_path / "data.bin"
    path.write_text(json.dumps(raw))
    assert gen(path, out) == 1
    console = capsys.readouterr()
    assert console.out == "" and re.fullmatch(r"error: [^\n]+\n", console.err), console.err
    assert not out.exists()


# one case per numeric training field: each escaped cli.main as a
# TypeError, or ran with a value of the wrong JSON type (TL reads no beta)
MALFORMED_TRAINING_FIELDS = {
    "p_max a bool": dict(TINY, p_max=True),
    "noise a bool": dict(TINY, noise=True),
    "memory_capacity a string": dict(TINY, memory_capacity="x"),
    "epochs a float": dict(TINY, epochs=1.5),
    "minibatch_size a string": dict(TINY, minibatch_size="4"),
    "alpha a string": dict(TINY, alpha="x"),
    "beta a string": dict(TINY, beta="x"),
    "gda_alpha_theta a bool": dict(TINY, gda_alpha_theta=True),
    "gda_alpha_lambda a string": dict(TINY, gda_alpha_lambda="x"),
    "hidden_sizes entry a string": dict(TINY, hidden_sizes=["a"]),
    "noise a string": dict(TINY, noise="1"),
}


@pytest.mark.parametrize("raw", MALFORMED_TRAINING_FIELDS.values(), ids=MALFORMED_TRAINING_FIELDS)
def test_run_rejects_a_malformed_training_field_in_one_line(tmp_path, data_path, capsys, raw):
    path, out = tmp_path / "bad.json", tmp_path / "runs"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run_cmd(path, data_path, out, "--methods", "TL") == 1
    console = capsys.readouterr()
    assert console.out == "" and re.fullmatch(r"error: [^\n]+\n", console.err), console.err
    assert not out.exists()
    # gen loads the same config, so it refuses it too
    assert gen(path, tmp_path / "again.bin") == 1
    assert not (tmp_path / "again.bin").exists()


def test_config_keeps_numbers_of_either_json_type():
    raw = dict(TINY, alpha=1, p_max=2, gda_alpha_theta=None, gda_alpha_lambda=0.5, noise=1)
    cfg = config_from_dict(raw)
    assert (cfg.alpha, cfg.p_max, cfg.gda_alpha_theta, cfg.noise) == (1, 2, None, 1)


# one case per range rule. Each was checked only inside training, so
# some wrote other methods' files, or reported one ABORTED, before the error
OUT_OF_RANGE = {
    "beta 0": dict(TINY, beta=0),
    "beta 2.0": dict(TINY, beta=2.0),
    "alpha 0": dict(TINY, alpha=0),
    "alpha NaN": dict(TINY, alpha=math.nan),
    "alpha Infinity": dict(TINY, alpha=math.inf),
    "epochs -1": dict(TINY, epochs=-1),
    "minibatch_size 0": dict(TINY, minibatch_size=0),
    "memory_capacity -1": dict(TINY, memory_capacity=-1),
    "hidden_sizes [0]": dict(TINY, hidden_sizes=[0]),
    "p_max 0": dict(TINY, p_max=0),
    "gda_alpha_theta -1": dict(TINY, gda_alpha_theta=-1),
    "gda_alpha_lambda Infinity": dict(TINY, gda_alpha_lambda=math.inf),
    "noise NaN": dict(TINY, noise=math.nan),
    # rng.uniform raised an OverflowError in gen, and the header loaded
    "area_side_m Infinity": dict(TINY, episodes=[dict(TINY["episodes"][0], distribution="geometry", area_side_m=math.inf)]),
    # a rayleigh episode wrote it into the dataset header, and the header loaded
    "area_side_m -1": dict(TINY, episodes=[dict(TINY["episodes"][0], area_side_m=-1)]),
}


def refused_in_one_line(capsys, code):
    console = capsys.readouterr()
    return code == 1 and console.out == "" and re.fullmatch(r"error: [^\n]+\n", console.err)


@pytest.mark.parametrize("raw", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE)
def test_run_refuses_a_training_field_out_of_range_before_writing(tmp_path, data_path, capsys, use_cpus, forks, raw):
    use_cpus(2)
    path, out = tmp_path / "bad.json", tmp_path / "runs"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert refused_in_one_line(capsys, run_cmd(path, data_path, out, "--methods", "TL,Bilevel,Minimax"))
    assert not out.exists() and forks == []
    assert refused_in_one_line(capsys, gen(path, tmp_path / "again.bin"))
    assert not (tmp_path / "again.bin").exists()


# (config, flags, the refusal's text): each passed load, so run made --out
# and then failed with a line that named no field, or with a K mismatch
REFUSED_AT_LOAD = {
    "config seed -1": (dict(TINY, seed=-1), [], "seed must be an integer >= 0, got -1"),
    "--seed -3": (TINY, ["--seed", "-3"], "seed must be an integer >= 0, got -3"),
    "k_pairs 0": (dict(TINY, k_pairs=0), [], "k_pairs must be an integer >= 1, got 0"),
}


@pytest.mark.parametrize("raw, flags, message", REFUSED_AT_LOAD.values(), ids=REFUSED_AT_LOAD)
def test_run_and_gen_refuse_a_bad_seed_or_k_pairs_naming_the_field(tmp_path, data_path, capsys, raw, flags, message):
    path, out = tmp_path / "bad.json", tmp_path / "runs"
    path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert run_cmd(path, data_path, out, *flags) == 1
    console = capsys.readouterr()
    assert console.out == "" and console.err == f"error: {message}\n"
    assert not out.exists()
    again = tmp_path / "again.bin"
    assert main(["gen", "--config", str(path), "--out", str(again), *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not again.exists()


def test_run_checks_minimax_rates_only_when_minimax_runs(tmp_path, data_path, capsys, use_cpus, forks):
    # the effective lambda, 1e-4, is not above the effective theta, alpha's 1e-3
    use_cpus(2)
    path, out = tmp_path / "slow_dual.json", tmp_path / "runs"
    path.write_text(json.dumps(dict(TINY, alpha=1e-3, gda_alpha_lambda=1e-4)))
    capsys.readouterr()
    assert refused_in_one_line(capsys, run_cmd(path, data_path, out, "--methods", "TL,Minimax"))
    assert not out.exists() and forks == []
    assert run_cmd(path, data_path, out, "--methods", "TL") == 0
    assert sorted(p.name for p in out.iterdir()) == ["metrics_TL.csv", "model_TL.json"]


def test_run_refuses_an_empty_method_selection(tmp_path, data_path, capsys, use_cpus, forks):
    use_cpus(2)
    path, out = tmp_path / "none.json", tmp_path / "runs"
    path.write_text(json.dumps(dict(TINY, methods=[])))
    capsys.readouterr()
    for extra in ((), ("--methods", ",")):
        assert refused_in_one_line(capsys, run_cmd(path, data_path, out, *extra))
        assert not out.exists() and forks == []


# --------------------------------------------------------------------- gen

def test_gen_writes_labeled_dataset(tmp_path, cfg_path, capsys):
    out = tmp_path / "data.jsonl"
    assert gen(cfg_path, out) == 0
    assert "16 train + 8 test" in capsys.readouterr().out
    stream = channels.load_dataset(out)
    assert stream.k_pairs == 2
    assert len(stream.test_sets) == 2
    for s in stream.all_samples():
        assert s.p_label is not None and s.rbar is not None


def test_gen_rejects_bad_batching(tmp_path, capsys):
    raw = config_to_dict(tiny_config())
    raw["episodes"][0]["n_train"] = 7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert gen(path, tmp_path / "data.jsonl") == 1
    assert "divisible" in capsys.readouterr().err


def test_gen_zero_rate_label_is_input_error(tmp_path, cfg_path, monkeypatch, capsys):
    build = channels.build_stream

    def with_dead_channel(*args):
        stream = build(*args)
        h = stream.samples.h.copy()
        h[22][np.diag_indices(2)] = 0.0  # row 2 of the second test set: 8 + 4 + 8 rows come before it
        return channels._episode_stream(stream.k_pairs, stream.specs, channels.SampleSet(h, episode=stream.samples.episode))

    monkeypatch.setattr(channels, "build_stream", with_dead_channel)
    out = tmp_path / "data.jsonl"
    assert gen(cfg_path, out) == 1
    assert "sample 22: WMMSE label rate 0.0 is not positive" in capsys.readouterr().err
    assert not out.exists()


def test_gen_is_byte_deterministic(tmp_path, cfg_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert gen(cfg_path, a) == 0
    assert gen(cfg_path, b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_flag_overrides(tmp_path, cfg_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["gen", "--config", str(cfg_path), "--out", str(a), "--seed", "9"]) == 0
    assert gen(cfg_path, b) == 0
    assert a.read_bytes() != b.read_bytes()


# ------------------------------------------------------------ gen: CPUs


@forks_here
def test_gen_files_same_with_one_or_more_workers(tmp_path, cfg_path, monkeypatch, no_children, use_cpus, forks):
    find_blas = workers._openblas
    datasets = []
    # (CPUs, an OpenBLAS to hold to one thread): gen labels in its own process on each
    for n, blas in ((1, True), (2, True), (8, True), (2, False)):
        use_cpus(n)
        monkeypatch.setattr(workers, "_openblas", find_blas if blas else lambda: None)
        out = tmp_path / f"data{n}{blas}.jsonl"
        assert gen(cfg_path, out) == 0
        datasets.append(out.read_bytes())
    assert forks == []
    assert all(data == datasets[0] for data in datasets)


# --------------------------------------------------------------------- run

def run_cmd(cfg_path, data, out, *extra):
    return main(["run", "--config", str(cfg_path), "--data", str(data), "--out", str(out), *extra])


@pytest.fixture
def data_path(tmp_path, cfg_path):
    out = tmp_path / "data.jsonl"
    assert gen(cfg_path, out) == 0
    return out


def test_run_single_method(tmp_path, cfg_path, data_path, capsys):
    out = tmp_path / "runs"
    assert run_cmd(cfg_path, data_path, out, "--methods", "TL") == 0
    assert "TL:" in capsys.readouterr().out
    lines = (out / "metrics_TL.csv").read_text().splitlines()
    assert lines[0] == "seen,method,ep0_rate,ep1_rate,ep0_ratio,ep1_ratio,avg_rate,wall_ms"
    assert len(lines) == 5
    assert [row.split(",")[0] for row in lines[1:]] == ["4", "8", "12", "16"]
    assert all(row.endswith(",0") for row in lines[1:])
    restored = model.load_params(out / "model_TL.json")
    assert restored.layer_sizes == (4, 6, 2)
    assert not (out / "metrics_Bilevel.csv").exists()


def test_run_starts_the_workers_in_decreasing_cost(tmp_path, cfg_path, data_path, monkeypatch):
    calls = []
    monkeypatch.setattr(workers, "run", lambda keys, job, cpus, report, start: calls.append((keys, start)))
    assert run_cmd(cfg_path, data_path, tmp_path / "runs", "--methods", "TL,Minimax,JointWeighted,Bilevel") == 0
    # reports come in canonical order, starts in cost order
    assert calls == [(["TL", "Bilevel", "Minimax", "JointWeighted"], ["JointWeighted", "Minimax", "Bilevel", "TL"])]
    assert sorted(cli._BY_COST) == sorted(harness.METHODS)


def test_run_unknown_method(tmp_path, cfg_path, data_path, capsys):
    assert run_cmd(cfg_path, data_path, tmp_path / "x", "--methods", "Frontier") == 1
    assert "JointWeighted" in capsys.readouterr().err


def test_run_is_byte_deterministic(tmp_path, cfg_path, data_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cmd(cfg_path, data_path, out1) == 0
    assert run_cmd(cfg_path, data_path, out2) == 0
    for name in ("metrics_TL.csv", "metrics_Bilevel.csv", "model_TL.json", "model_Bilevel.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("method", harness.METHODS)
def test_run_method_rng_independent_of_filter(tmp_path, cfg_path, data_path, method):
    # the table's order, not the selection, fixes each method's random stream
    every, solo = tmp_path / "every", tmp_path / "solo"
    assert run_cmd(cfg_path, data_path, every, "--methods", ",".join(harness.METHODS)) == 0
    assert run_cmd(cfg_path, data_path, solo, "--methods", method) == 0
    for name in (f"metrics_{method}.csv", f"model_{method}.json"):
        assert (every / name).read_bytes() == (solo / name).read_bytes(), name


def test_run_guard_trip_is_runtime_failure(tmp_path, cfg_path, data_path, capsys):
    # on gen's labels |u| <= K: each rate is at most its user's single-user
    # corner rate, and rbar at least the best corner. rbar at 1e-3 of the
    # solver's puts u = -rate/rbar far past the |u| guard
    data = bytearray(data_path.read_bytes())
    n = json.loads(data[: data.index(b"\n")])["arrays"][2][2][0]
    rbar = np.frombuffer(data[-8 * n :], "<f8") * 1e-3
    data[-8 * n :] = rbar.astype("<f8").tobytes()
    data_path.write_bytes(bytes(data))
    out = tmp_path / "runs"
    capsys.readouterr()
    assert run_cmd(cfg_path, data_path, out) == 2
    assert "Bilevel: ABORTED after 0 rounds" in capsys.readouterr().err
    assert len((out / "metrics_TL.csv").read_text().splitlines()) == 5
    assert not (out / "metrics_Bilevel.csv").exists()


def test_run_rejects_non_finite_label_at_load(tmp_path, cfg_path, data_path, capsys):
    data = data_path.read_bytes()
    # row 4's second label: after the header, 24 rows of 2x2 complex h, then 4*2 + 1 doubles
    at = data.index(b"\n") + 1 + 24 * 4 * 16 + 9 * 8
    for value in (np.nan, np.inf):
        data_path.write_bytes(data[:at] + np.array([value], "<f8").tobytes() + data[at + 8 :])
        capsys.readouterr()
        assert run_cmd(cfg_path, data_path, tmp_path / "runs") == 1
        assert "row 4: p_label must be finite" in capsys.readouterr().err


def test_run_rejects_a_malformed_dataset(tmp_path, cfg_path, data_path, capsys):
    data = data_path.read_bytes()
    for bad, message in (
        (data[:-1], "error: header: file ends inside array 'rbar'\n"),
        (data + b"\n", "error: header: bytes after the last array\n"),
        (b'{"version": 1, "k": 2, "specs": []}\n', "error: header: version 1 is not 2; write the file again with faircl gen\n"),
    ):
        data_path.write_bytes(bad)
        capsys.readouterr()
        assert run_cmd(cfg_path, data_path, tmp_path / "runs") == 1
        assert message in capsys.readouterr().err


def test_run_rejects_a_dataset_solved_at_another_noise_or_p_max(tmp_path, data_path, capsys):
    for kw, values in (
        ({"noise": 2.0}, "noise=1.0, p_max=1.0; config says noise=2.0, p_max=1.0"),
        ({"p_max": 2.0}, "noise=1.0, p_max=1.0; config says noise=1.0, p_max=2.0"),
    ):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(config_to_dict(tiny_config(**kw))))
        capsys.readouterr()
        assert run_cmd(path, data_path, tmp_path / "runs") == 1
        assert f"error: dataset labels were solved at {values}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_shared_seen_column(tmp_path, cfg_path, data_path):
    out = tmp_path / "all"
    assert run_cmd(cfg_path, data_path, out) == 0
    seen = [
        [row.split(",")[0] for row in (out / f"metrics_{m}.csv").read_text().splitlines()[1:]]
        for m in ("TL", "Bilevel")
    ]
    assert seen[0] == seen[1]


def test_run_k_mismatch(tmp_path, data_path):
    raw = config_to_dict(tiny_config(k_pairs=3, episodes=[EpisodeSpec("rayleigh", 8, 4, 2)]))
    bad_cfg = tmp_path / "k3.json"
    bad_cfg.write_text(json.dumps(raw))
    assert run_cmd(bad_cfg, data_path, tmp_path / "x") == 1


# ----------------------------------------------------------- run: workers

ALL_METHODS = ",".join(harness.METHODS)


@forks_here
def test_run_files_same_with_one_or_more_workers(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus, forks
):
    find_blas = workers._openblas
    outs, consoles = {}, {}
    # (CPUs, an OpenBLAS to hold to one thread per worker, forks)
    for n, blas, n_forks in ((1, True, 0), (2, True, 6), (2, False, 0)):
        use_cpus(n)
        monkeypatch.setattr(workers, "_openblas", find_blas if blas else lambda: None)
        forks.clear()
        out = tmp_path / f"workers{n}{blas}"
        capsys.readouterr()
        assert run_cmd(cfg_path, data_path, out, "--methods", ALL_METHODS) == 0
        assert len(forks) == n_forks
        outs[out] = sorted(out.iterdir())
        consoles[out] = re.sub(r"in [0-9.]+s", "in _s", capsys.readouterr().out)
    (first, files), *rest = outs.items()
    assert len(files) == 12
    for out, others in rest:
        assert [p.name for p in others] == [p.name for p in files]
        for a, b in zip(files, others):
            assert a.read_bytes() == b.read_bytes(), b
        # the console lists the methods in canonical order either way
        assert consoles[out] == consoles[first]
    assert [line.split(":")[0] for line in consoles[first].splitlines()] == list(harness.METHODS)


@forks_here
def test_run_workers_hold_blas_to_one_thread(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    threads = []
    monkeypatch.setattr(workers, "_openblas", lambda: (threads.append, lambda: 4))

    def report_threads(stream, cfg, rng):
        raise ValueError(f"BLAS threads set to {threads}")

    monkeypatch.setattr(harness, "run_continual", report_threads)
    assert run_cmd(cfg_path, data_path, tmp_path / "runs") == 1
    assert "error: BLAS threads set to [1]" in capsys.readouterr().err
    assert threads == []  # set in the child, never here


@forks_here
def test_run_reraises_the_earliest_error_of_the_children(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    parent = os.getpid()
    run = harness.run_continual

    def failing(stream, cfg, rng):
        if os.getpid() == parent:
            raise AssertionError("ran in the test's process")
        if cfg.method == "JointEqual":  # starts first, fails first
            raise RuntimeError("later in method order")
        if cfg.method == "JointWeighted":  # still running when TL fails: must be killed
            time.sleep(60)
        if cfg.method == "TL":
            raise ValueError("boom")
        return run(stream, cfg, rng)

    monkeypatch.setattr(harness, "run_continual", failing)
    start = time.perf_counter()
    assert run_cmd(cfg_path, data_path, tmp_path / "runs", "--methods", ALL_METHODS) == 1
    assert time.perf_counter() - start < 30
    assert "error: boom" in capsys.readouterr().err


@forks_here
def test_run_child_killed_is_runtime_failure(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    parent = os.getpid()
    run = harness.run_continual

    def killed(stream, cfg, rng):
        if cfg.method == "Bilevel" and os.getpid() != parent:  # never kill the test's process
            os.kill(os.getpid(), signal.SIGKILL)
        return run(stream, cfg, rng)

    monkeypatch.setattr(harness, "run_continual", killed)
    out = tmp_path / "runs"
    assert run_cmd(cfg_path, data_path, out, "--methods", ALL_METHODS) == 2
    err = capsys.readouterr().err
    assert re.search(r"Bilevel: ABORTED after 0 rounds \([0-9.]+s\): worker process killed by signal 9", err)
    written = {p.name for p in out.iterdir()}
    assert written == {f"{kind}_{m}.{ext}" for m in harness.METHODS if m != "Bilevel"
                       for kind, ext in (("model", "json"), ("metrics", "csv"))}


@forks_here
def test_run_child_exited_is_runtime_failure(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    parent = os.getpid()
    run = harness.run_continual

    def exits(stream, cfg, rng):
        if cfg.method == "Bilevel" and os.getpid() != parent:  # never end the test's process
            os._exit(3)
        return run(stream, cfg, rng)

    monkeypatch.setattr(harness, "run_continual", exits)
    out = tmp_path / "runs"
    assert run_cmd(cfg_path, data_path, out, "--methods", ALL_METHODS) == 2
    err = capsys.readouterr().err
    assert re.search(r"Bilevel: ABORTED after 0 rounds \([0-9.]+s\): worker process exited with status 3", err)
    written = {p.name for p in out.iterdir()}
    assert written == {f"{kind}_{m}.{ext}" for m in harness.METHODS if m != "Bilevel"
                       for kind, ext in (("model", "json"), ("metrics", "csv"))}


class Odd(ValueError):
    """An exception whose __init__ takes other arguments than its args, so it does not unpickle."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


@forks_here
def test_run_child_error_that_does_not_unpickle_arrives_as_runtime_failure(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    parent = os.getpid()

    def odd(stream, cfg, rng):
        if os.getpid() == parent:
            raise AssertionError("ran in the test's process")
        raise Odd("a", "b")

    monkeypatch.setattr(harness, "run_continual", odd)
    assert run_cmd(cfg_path, data_path, tmp_path / "runs") == 2
    assert "error: Odd: a/b" in capsys.readouterr().err


@forks_here
def test_run_leaves_no_file_descriptor_open(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    parent = os.getpid()
    run = harness.run_continual

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    def failing(stream, cfg, rng):
        if cfg.method == "TL" and os.getpid() != parent:
            raise ValueError("boom")
        return run(stream, cfg, rng)

    before = open_fds()
    assert run_cmd(cfg_path, data_path, tmp_path / "ok", "--methods", ALL_METHODS) == 0
    assert open_fds() == before
    monkeypatch.setattr(harness, "run_continual", failing)
    assert run_cmd(cfg_path, data_path, tmp_path / "failed", "--methods", ALL_METHODS) == 1
    assert "error: boom" in capsys.readouterr().err
    assert open_fds() == before


@forks_here
def test_run_result_larger_than_a_pipe_buffer(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    use_cpus(2)
    fake = [harness.MetricsRow(i, "TL", [float(i)] * 2, [i / 5000] * 2, float(i), 0) for i in range(5000)]
    assert len(pickle.dumps((fake, None, 0.0))) > 1 << 16
    run = harness.run_continual

    def many_rows(stream, cfg, rng):
        return fake, run(stream, cfg, rng)[1]

    def hung(signum, frame):
        raise TimeoutError("no result after 60 s")

    monkeypatch.setattr(harness, "run_continual", many_rows)
    out = tmp_path / "runs"
    previous = signal.signal(signal.SIGALRM, hung)  # a deadlock fails the test instead of hanging it
    signal.alarm(60)
    try:
        assert run_cmd(cfg_path, data_path, out, "--methods", "TL,Bilevel") == 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert "TL: 5000 rounds" in capsys.readouterr().out
    assert len((out / "metrics_TL.csv").read_text().splitlines()) == 5001


@forks_here
def test_run_in_process_holds_blas_to_one_thread_then_restores(
    tmp_path, cfg_path, data_path, monkeypatch, capsys, no_children, use_cpus
):
    set_threads, get_threads = workers._openblas()
    calls = []
    monkeypatch.setattr(workers, "_openblas", lambda: (lambda n: calls.append(n) or set_threads(n), get_threads))
    before = get_threads()
    set_threads(2)  # an OPENBLAS_NUM_THREADS=2 start
    try:
        use_cpus(1)
        assert run_cmd(cfg_path, data_path, tmp_path / "serial", "--methods", ALL_METHODS) == 0
        assert calls == [1, 2] and get_threads() == 2
        use_cpus(2)
        assert run_cmd(cfg_path, data_path, tmp_path / "forked", "--methods", ALL_METHODS) == 0
    finally:
        set_threads(before)
    serial = sorted((tmp_path / "serial").iterdir())
    assert len(serial) == 12
    for path in serial:
        assert path.read_bytes() == (tmp_path / "forked" / path.name).read_bytes(), path.name


# a faircl run whose methods only note their pid and sleep, as if training
SLEEPING_RUN = """
import os, sys, time
from faircl import cli, harness

def sleep_in_worker(stream, cfg, rng):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(120)

harness.run_continual = sleep_in_worker
os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[2:]))
"""


def running(pid):
    """Whether pid is a process that has not exited; a zombie has."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


@forks_here
def test_run_workers_die_with_a_killed_parent(tmp_path, cfg_path, data_path):
    pids = tmp_path / "pids"
    pids.mkdir()
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["run", "--config", str(cfg_path), "--data", str(data_path), "--out", str(tmp_path / "runs")]
    parent = subprocess.Popen([sys.executable, "-c", SLEEPING_RUN, str(pids), *argv], env=env)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(pids)) < 2 and time.monotonic() < deadline and parent.poll() is None:
            time.sleep(0.05)
        workers = [int(name) for name in os.listdir(pids)]
        assert len(workers) == 2  # TL and Bilevel, one per CPU
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(running, workers))
    finally:
        parent.kill()
        parent.wait()
        for name in os.listdir(pids):  # no survivor outlives the test
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(name), signal.SIGKILL)


@forks_here
def test_workers_finds_openblas_when_imported_first():
    # the lookup is cached: run before numpy loaded OpenBLAS, it would
    # keep every later command in one process
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    found = "from faircl import workers; print(workers._openblas() is not None)"
    out = subprocess.run([sys.executable, "-c", found], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "True\n"


# -------------------------------------------------------------------- eval

def test_eval_wmmse_policy(tmp_path, data_path, capsys):
    out = tmp_path / "eval"
    code = main(["eval", "--data", str(data_path), "--out", str(out), "--policy", "wmmse"])
    assert code == 0
    console = capsys.readouterr().out
    assert "mean ratio 1.000000" in console
    lines = (out / "histogram.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert sum(int(row.split(",")[2]) for row in lines[1:]) == 8


def test_eval_histogram_write_that_fails_leaves_the_old_file(tmp_path, data_path, monkeypatch, capsys):
    out = tmp_path / "eval"
    argv = ["eval", "--data", str(data_path), "--out", str(out), "--policy", "wmmse"]
    assert main(argv) == 0
    before = (out / "histogram.csv").read_bytes()
    # the bins are written one line at a time: fail after the header line
    monkeypatch.setattr(harness, "pooled_histogram", lambda scores, width: [(0.0, 0.1, 3), None])
    with pytest.raises(TypeError):
        main(argv)
    assert (out / "histogram.csv").read_bytes() == before
    assert [p.name for p in out.iterdir()] == ["histogram.csv"]


def test_eval_scores_at_the_datasets_noise_and_p_max(tmp_path, monkeypatch):
    # labels solved at p_max 2 and noise 0.5: the solver scored there gets ratio 1
    path, data = tmp_path / "p2.json", tmp_path / "data.jsonl"
    path.write_text(json.dumps(config_to_dict(tiny_config(k_pairs=3, p_max=2.0, noise=0.5))))
    assert gen(path, data) == 0
    means, episode_means = [], harness.episode_means

    def recorded(scores):
        means.append(episode_means(scores))
        return means[-1]

    monkeypatch.setattr(harness, "episode_means", recorded)
    assert main(["eval", "--data", str(data), "--out", str(tmp_path / "e"), "--policy", "wmmse"]) == 0
    (_, ratios), = means
    assert len(ratios) == 2 and all(abs(q - 1.0) <= 1e-12 for q in ratios), ratios


def test_eval_runs_the_policy_once_per_test_set(tmp_path, monkeypatch):
    # the acceptance gate's CLI config: 2 x 20 test samples
    raw = config_to_dict(
        tiny_config(
            seed=5,
            episodes=[EpisodeSpec("rayleigh", 80, 20, 4), EpisodeSpec("geometry", 80, 20, 4, area_side_m=10.0)],
        )
    )
    path, data = tmp_path / "gate9.json", tmp_path / "data.jsonl"
    path.write_text(json.dumps(raw))
    assert gen(path, data) == 0
    solve = wsr.wmmse_many
    solved = []

    def counted(gains, *args, **kw):
        solved.append(len(gains))
        return solve(gains, *args, **kw)

    monkeypatch.setattr(wsr, "wmmse_many", counted)
    assert main(["eval", "--data", str(data), "--out", str(tmp_path / "e"), "--policy", "wmmse"]) == 0
    assert solved == [20, 20]


def test_eval_checkpoint(tmp_path, cfg_path, data_path, capsys):
    run_dir = tmp_path / "runs"
    assert run_cmd(cfg_path, data_path, run_dir, "--methods", "TL") == 0
    capsys.readouterr()
    code = main(
        [
            "eval",
            "--data",
            str(data_path),
            "--out",
            str(tmp_path / "eval"),
            "--checkpoint",
            str(run_dir / "model_TL.json"),
        ]
    )
    assert code == 0
    assert "episode 1:" in capsys.readouterr().out


def test_eval_rejects_a_checkpoint_of_another_p_max(tmp_path, capsys):
    # a p_max-4 network on labels solved at p_max 1 spends 4 times their budget
    path, data = tmp_path / "k3.json", tmp_path / "data.jsonl"
    path.write_text(json.dumps(config_to_dict(tiny_config(k_pairs=3))))
    assert gen(path, data) == 0
    ckpt = tmp_path / "p4.json"
    model.save_params(model.init((9, 6, 3), 4.0, np.random.default_rng(0)), ckpt)
    capsys.readouterr()
    out = tmp_path / "e"
    assert main(["eval", "--data", str(data), "--out", str(out), "--checkpoint", str(ckpt)]) == 1
    console = capsys.readouterr()
    assert console.out == ""
    assert "error: checkpoint has p_max=4.0, dataset labels were solved at p_max=1.0" in console.err
    assert not out.exists()


def test_eval_k_mismatch(tmp_path, data_path, capsys):
    # a (4, 6, 1) network scored its one power broadcast to both users, a
    # (4, 6, 3) one failed in numpy's broadcasting
    for sizes, message in (
        ((9, 4, 3), "checkpoint expects 9 inputs, dataset K=2 gives 4"),
        ((4, 6, 1), "checkpoint outputs 1 powers, dataset K=2 needs 2"),
        ((4, 6, 3), "checkpoint outputs 3 powers, dataset K=2 needs 2"),
    ):
        ckpt, out = tmp_path / "wrong.json", tmp_path / "e"
        model.save_params(model.init(sizes, 1.0, np.random.default_rng(0)), ckpt)
        capsys.readouterr()
        assert main(["eval", "--data", str(data_path), "--out", str(out), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


BAD_CHECKPOINTS = bad_checkpoints(model.init((4, 6, 2), 1.0, np.random.default_rng(0)))


@pytest.mark.parametrize("name,data,match", BAD_CHECKPOINTS, ids=[c[0] for c in BAD_CHECKPOINTS])
def test_eval_rejects_malformed_checkpoint(tmp_path, data_path, capsys, name, data, match):
    ckpt = tmp_path / "bad.json"
    ckpt.write_bytes(data)
    capsys.readouterr()
    out = tmp_path / "e"
    assert main(["eval", "--data", str(data_path), "--out", str(out), "--checkpoint", str(ckpt)]) == 1
    console = capsys.readouterr()
    assert console.err.startswith("error: ") and console.err.count("\n") == 1
    assert re.search(match, console.err.removeprefix("error: ").removesuffix("\n")), console.err
    assert not out.exists()


def test_eval_names_the_file_whose_arrays_are_padded(tmp_path, data_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    model.save_params(model.init((4, 6, 2), 1.0, np.random.default_rng(0)), ckpt)
    good_ckpt, good_data = ckpt.read_bytes(), data_path.read_bytes()
    errors = []
    for padded in (ckpt, data_path):
        ckpt.write_bytes(good_ckpt)
        data_path.write_bytes(good_data)
        padded.write_bytes(padded.read_bytes() + b"\0")
        capsys.readouterr()
        assert main(["eval", "--data", str(data_path), "--out", str(tmp_path / "e"), "--checkpoint", str(ckpt)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors == ["error: checkpoint: bytes after the last array\n", "error: header: bytes after the last array\n"]


def test_eval_needs_checkpoint_or_wmmse(tmp_path, data_path, capsys):
    assert main(["eval", "--data", str(data_path), "--out", str(tmp_path / "e")]) == 1
    assert "--checkpoint" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_under_wmmse(tmp_path, data_path, capsys):
    # the checkpoint was never opened, even a missing one, and the output read as WMMSE's score
    capsys.readouterr()
    out = tmp_path / "e"
    argv = ["eval", "--data", str(data_path), "--out", str(out), "--policy", "wmmse"]
    assert main(argv + ["--checkpoint", str(tmp_path / "missing.json")]) == 1
    console = capsys.readouterr()
    assert console.out == ""
    assert console.err == "error: --checkpoint cannot be used with --policy wmmse\n"
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-0.1", "nan", "inf", "wide"])
def test_eval_rejects_bad_bin_width_before_loading(tmp_path, data_path, capsys, width):
    capsys.readouterr()
    out = tmp_path / "e"
    argv = ["eval", "--data", str(data_path), "--out", str(out), "--policy", "wmmse", "--bin-width", width]
    assert main(argv) == 1
    console = capsys.readouterr()
    assert console.out == ""
    assert "--bin-width: must be a positive finite number" in console.err
    assert not out.exists()


def test_eval_rejects_a_bin_width_with_too_many_bins(tmp_path, data_path, capsys):
    # WMMSE's ratios are about 1: 1e-9 would make 10^9 bins, 2^-13 makes about 8,193
    capsys.readouterr()
    out = tmp_path / "e"
    argv = ["eval", "--data", str(data_path), "--out", str(out), "--policy", "wmmse", "--bin-width"]
    assert main(argv + ["1e-09"]) == 1
    assert "error: bin width 1e-09 needs 1e+09 bins, more than 100000" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + [repr(2.0**-13)]) == 0
    rows = (out / "histogram.csv").read_text().splitlines()[1:]
    assert len(rows) >= 8192 and sum(int(row.split(",")[2]) for row in rows) == 8


# ------------------------------------------------------------------- usage

def test_bad_invocations(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["gen"]) == 1
    capsys.readouterr()


# ------------------------------------------------ many calls, one process

@pytest.fixture
def fresh_parser():
    cli.build_parser.cache_clear()
    yield
    cli.build_parser.cache_clear()  # the next test builds its own, of the real class


def test_main_builds_its_parser_once_per_process(tmp_path, cfg_path, monkeypatch, fresh_parser, capsys):
    made = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kw):
            made.append(kw["prog"])
            super().__init__(*args, **kw)

    monkeypatch.setattr(cli, "_Parser", Counted)
    data, runs = tmp_path / "data.bin", tmp_path / "runs"
    assert gen(cfg_path, data) == 0
    assert run_cmd(cfg_path, data, runs, "--methods", "TL") == 0
    for policy in (["--policy", "wmmse"], ["--checkpoint", str(runs / "model_TL.json")]):
        assert main(["eval", "--data", str(data), "--out", str(tmp_path / "e"), *policy]) == 0
    # the top-level parser and its three subparsers, each once
    assert made == ["faircl", "faircl gen", "faircl run", "faircl eval"]


@pytest.mark.parametrize("refused", [[], ["--out", "{tmp}/refused", "--bin-width", "0"]], ids=["no --out", "bin width 0"])
def test_a_refused_call_leaves_the_next_one_as_it_was(tmp_path, data_path, capsys, refused):
    argv = ["eval", "--data", str(data_path), "--policy", "wmmse"]
    assert main(argv + ["--out", str(tmp_path / "before")]) == 0
    capsys.readouterr()
    assert refused_in_one_line(capsys, main(argv + [f.format(tmp=tmp_path) for f in refused]))
    assert main(argv + ["--out", str(tmp_path / "after")]) == 0
    after, before = ((tmp_path / out / "histogram.csv").read_bytes() for out in ("after", "before"))
    assert after == before
    assert not (tmp_path / "refused").exists()


def test_repeated_evals_write_what_a_fresh_process_writes(tmp_path, cfg_path, data_path):
    # each case differs from the one before it in a flag the next one leaves at its default
    runs = tmp_path / "runs"
    assert run_cmd(cfg_path, data_path, runs, "--methods", "TL") == 0
    checkpoint = ["--checkpoint", str(runs / "model_TL.json")]
    cases = [checkpoint + ["--bin-width", "0.5"], checkpoint, ["--policy", "wmmse"], checkpoint]
    for i, flags in enumerate(cases):
        assert main(["eval", "--data", str(data_path), "--out", str(tmp_path / f"in-process-{i}"), *flags]) == 0
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    for i, flags in enumerate(cases):
        fresh = ["eval", "--data", str(data_path), "--out", str(tmp_path / f"fresh-{i}"), *flags]
        subprocess.run([sys.executable, "-m", "faircl", *fresh], env=env, capture_output=True, check=True)
        want = (tmp_path / f"fresh-{i}" / "histogram.csv").read_bytes()
        assert (tmp_path / f"in-process-{i}" / "histogram.csv").read_bytes() == want, flags
