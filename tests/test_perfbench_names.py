"""The package names that perfbench/ looks up at run time still exist.

perfbench/spans.py wraps every function its TRACED table names, through
getattr on the faircl module, and perfbench/bench.py reads fields off the
rows of EpisodeStream.all_samples(). A rename breaks the benchmark without
failing any other test here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from faircl import channels

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
