"""The package names and config keys that perfbench/ relies on still exist.

perfbench/spans.py wraps every function its TRACED table names, through
getattr on the faircl module, perfbench/bench.py reads fields off the
rows of EpisodeStream.all_samples(), and bench.set_up writes the configs
that every benchmark command loads. A rename, or a config key the package
no longer takes, breaks the benchmark without failing any other test here.
So does a cli.main that keeps the cmd_* functions it found on its first
call, which would skip the wrappers spans.py installs after it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from faircl import channels, cli

ROOT = Path(__file__).resolve().parent.parent


def test_names_perfbench_resolves_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{attr}"
        for layer, attrs in spans.TRACED.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"faircl.{layer}"), attr, None))
    ]
    assert missing == []

    # the row fields bench.py reads: h, p_label, rbar and episode_id
    specs = [channels.EpisodeSpec(channels.RAYLEIGH, 4, 2, 2), channels.EpisodeSpec(channels.RICIAN, 4, 2, 2)]
    stream = channels.build_stream(specs, 3, np.random.default_rng(0))
    assert all(s.p_label is None and s.rbar is None for s in stream.all_samples())
    stream.label()
    rows = list(stream.all_samples())
    assert [s.episode_id for s in rows] == [0] * 4 + [1] * 4 + [0] * 2 + [1] * 2
    for s in rows:
        assert s.h.shape == (3, 3) and s.h.dtype == complex
        assert s.p_label.shape == (3,)
        assert type(s.rbar) is float and type(s.episode_id) is int


def test_benchmark_configs_load(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    bench = importlib.import_module("bench")
    for name, plan in bench.PLANS.items():
        files, ledger = bench.Files(tmp_path / name, len(plan.runs)), bench.Ledger()
        bench.set_up(plan, 3, files, ledger)  # the set-up gen loads the data config
        assert ledger.failed == 0, name
        cli.load_config(files.fresh_config)
        for path, (methods, _) in zip(files.run_configs, plan.runs):
            cfg = cli.load_config(path)
            for method in methods.split(","):
                cfg.strategy(method)


# the paths name no file, so the real command, if it ran, would fail fast
@pytest.mark.parametrize(
    "command,flags",
    [
        ("gen", ["--config", "{tmp}/missing.json", "--out", "{tmp}/data.bin"]),
        ("run", ["--config", "{tmp}/missing.json", "--data", "{tmp}/data.bin", "--out", "{tmp}/runs"]),
        ("eval", ["--data", "{tmp}/data.bin", "--out", "{tmp}/eval", "--policy", "wmmse"]),
    ],
)
def test_main_runs_the_command_the_module_holds_when_called(tmp_path, monkeypatch, capsys, command, flags):
    # spans.py replaces cli.cmd_* with its timing wrappers after main may
    # have built its parser; a parser that kept the functions would skip them
    assert cli.main(["gen"]) == 1  # refused, with the parser built
    ran = []
    monkeypatch.setattr(cli, f"cmd_{command}", lambda args: ran.append(args.command) or 7)
    assert cli.main([command, *(f.format(tmp=tmp_path) for f in flags)]) == 7
    assert ran == [command]
    capsys.readouterr()
