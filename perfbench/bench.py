"""Workloads, correctness checks and metrics of the faircl benchmark.

Each workload drives the package only through `cli.main` and the public
functions the checks need. A run sets up (writes the configs and `faircl
gen`s the dataset the runs train on), then times three steps: `faircl gen`
of a fresh labelled stream, `faircl run` of all six methods, and `faircl
eval` of each checkpoint. The first full iteration's outputs are checked in
full; every later step must reproduce them byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from faircl import channels, cli, harness, memory, model, objective, trainer, wsr

import hostspeed
import spans

MODULES = {
    "cli": cli,
    "channels": channels,
    "wsr": wsr,
    "model": model,
    "objective": objective,
    "trainer": trainer,
    "memory": memory,
    "harness": harness,
}

METHODS = harness.METHODS
ALL_METHODS = ",".join(METHODS)
P_MAX = 1.0
NOISE = 1.0
SETUP_REPEATS = 5

# the stock four-family stream of `faircl gen`, and demo 04's three families
STOCK_FAMILIES = (("rayleigh", None), ("rician", None), ("geometry", 10.0), ("geometry", 50.0))
DEMO_FAMILIES = (("rayleigh", None), ("rician", None), ("geometry", 50.0))

# demo 04's hyperparameters; SGD methods and the compositional trainer use
# different step sizes there, so stream_small makes two `faircl run` calls
DEMO_CONFIG = {
    "hidden_sizes": [16],
    "minibatch_size": 20,
    "memory_capacity": 50,
    "beta": 0.1,
    "gda_alpha_theta": 0.5,
    "gda_alpha_lambda": 1.0,
}

END_TO_END = {
    "setup_s": "s",
    "label_samples_per_s": "1/s",
    "rbar_mean": "nats",
    "run_s": "s",
    "eval_s": "s",
    "ratio_mean.Bilevel": "ratio",
    "ratio_p5.Bilevel": "ratio",
    "ratio_mean.worst": "ratio",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


@dataclass(frozen=True)
class Plan:
    """Sizes and configs of one workload.

    n_train/n_test/n_batches size each episode of the set-up dataset that
    `faircl run` and `faircl eval` read. `runs` holds one (methods, config
    overrides) pair per `faircl run` call. Each iteration's `faircl gen`
    writes a stream sized by gen_sizes, (n_train, n_test, n_batches) per
    episode, or regenerates the set-up dataset when gen_sizes is None.
    """

    k_pairs: int
    families: tuple
    n_train: int
    n_test: int
    n_batches: int
    runs: tuple
    gen_sizes: tuple | None = None


PLANS = {
    # the gen step labels a larger stock stream than the runs train on, so
    # WMMSE labelling gets its own quarter of the window at a realistic size
    "stream_stock": Plan(
        10, STOCK_FAMILIES, 50, 50, 2, ((ALL_METHODS, {"memory_capacity": 10}),),
        gen_sizes=(120, 5, 4),
    ),
    "stream_small": Plan(
        3, DEMO_FAMILIES, 60, 100, 3,
        (
            ("TL,Reservoir,Minimax,JointEqual", dict(DEMO_CONFIG, alpha=0.5)),
            ("Bilevel,JointWeighted", dict(DEMO_CONFIG, alpha=0.3)),
        ),
    ),
}


def episodes(families, n_train, n_test, n_batches) -> list[dict]:
    return [
        {"distribution": d, "n_train": n_train, "n_test": n_test, "n_batches": n_batches, "area_side_m": a}
        for d, a in families
    ]


class Ledger:
    """Operations attempted and failed: gen calls, method runs, eval calls, checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail.strip()}", file=sys.stderr)

    def check(self, what: str, fn, *args) -> None:
        """Run one check; it fails on a returned problem or on any exception."""
        try:
            problem = fn(*args)
        except Exception:  # a broken output must be counted, never end the run
            problem = traceback.format_exc(limit=4)
        self.record(what, problem is None, problem or "")


def call_cli(argv: list[str]) -> tuple[int | None, float, str]:
    """(exit code, wall seconds, stderr) of one `faircl` command, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an escaped error is a failed operation, not a crash
            code = None
            err.write(traceback.format_exc(limit=4))
        secs = time.perf_counter() - start
    return code, secs, err.getvalue()


class Files:
    """Paths inside one run's working directory."""

    def __init__(self, work: Path, n_runs: int):
        self.work = work
        self.data = work / "data.jsonl"  # set-up dataset that runs and evals read
        self.data_config = work / "data.json"
        self.run_configs = [work / f"run{i}.json" for i in range(n_runs)]
        self.fresh = work / "fresh.jsonl"  # written by the gen step
        self.fresh_config = work / "fresh.json"
        self.out = work / "out"  # written by the run step
        self.evals = work / "eval"  # written by the eval step


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1))


def set_up(plan: Plan, seed: int, files: Files, ledger: Ledger) -> None:
    """Write the configs and generate the dataset the runs train on."""
    files.work.mkdir(parents=True, exist_ok=True)
    base = {"seed": seed, "k_pairs": plan.k_pairs, "p_max": P_MAX, "noise": NOISE}
    eps = episodes(plan.families, plan.n_train, plan.n_test, plan.n_batches)
    _write_json(files.data_config, dict(base, episodes=eps))
    for path, (_, overrides) in zip(files.run_configs, plan.runs):
        _write_json(path, dict(base, episodes=eps, **overrides))
    gen_eps = episodes(plan.families, *plan.gen_sizes) if plan.gen_sizes else eps
    _write_json(files.fresh_config, dict(base, episodes=gen_eps))
    code, _, err = call_cli(
        ["gen", "--config", str(files.data_config), "--seed", str(seed), "--out", str(files.data)]
    )
    ledger.record("set-up gen", code == 0, err)


def gen_step(plan: Plan, seed: int, files: Files, ledger: Ledger) -> float:
    """`faircl gen` of the iteration's stream; returns its wall seconds."""
    files.fresh.unlink(missing_ok=True)
    code, secs, err = call_cli(
        ["gen", "--config", str(files.fresh_config), "--seed", str(seed), "--out", str(files.fresh)]
    )
    ledger.record("gen", code == 0, err)
    return secs


def run_step(plan: Plan, seed: int, files: Files, ledger: Ledger) -> float:
    """The `faircl run` calls of all six methods; returns their total wall seconds."""
    shutil.rmtree(files.out, ignore_errors=True)
    total = 0.0
    for path, (methods, _) in zip(files.run_configs, plan.runs):
        code, secs, err = call_cli(
            ["run", "--config", str(path), "--seed", str(seed), "--data", str(files.data),
             "--out", str(files.out), "--methods", methods]
        )
        total += secs
        for m in methods.split(","):
            done = (files.out / f"model_{m}.json").is_file() and (files.out / f"metrics_{m}.csv").is_file()
            ledger.record(f"run {m}", code == 0 and done, err or "outputs missing")
    return total


def eval_step(plan: Plan, seed: int, files: Files, ledger: Ledger) -> float:
    """`faircl eval` of each checkpoint; returns their total wall seconds."""
    shutil.rmtree(files.evals, ignore_errors=True)
    total = 0.0
    for m in METHODS:
        code, secs, err = call_cli(
            ["eval", "--checkpoint", str(files.out / f"model_{m}.json"), "--data", str(files.data),
             "--out", str(files.evals / m)]
        )
        total += secs
        ledger.record(f"eval {m}", code == 0, err)
    return total


STEPS = {"gen": gen_step, "run": run_step, "eval": eval_step}
# shares of the measurement window; run is the longest step, so it gets
# half, to collect about as many samples as the shorter steps' medians need
WINDOW_SHARE = {"gen": 0.25, "run": 0.5, "eval": 0.25}


def iterate(plan: Plan, seed: int, files: Files, ledger: Ledger, tracer=None) -> dict[str, float]:
    """One gen, run and eval step each; only the commands are traced."""
    with tracer if tracer is not None else contextlib.nullcontext():
        return {key: step(plan, seed, files, ledger) for key, step in STEPS.items()}


# ------------------------------------------------------------------ checks


def check_labels(path: Path):
    """Labels in the power box; rbar is the label's rate and beats full power."""
    stream = channels.load_dataset(path)
    full = np.full(stream.k_pairs, P_MAX)
    for i, s in enumerate(stream.all_samples()):
        if s.p_label is None or s.rbar is None:
            return f"sample {i} has no label"
        if s.p_label.shape != (stream.k_pairs,) or np.any(s.p_label < 0) or np.any(s.p_label > P_MAX):
            return f"sample {i}: p_label outside [0, {P_MAX}]^K"
        prob = wsr.problem_from_channel(s.h, noise=NOISE, p_max=P_MAX)
        rate = wsr.sum_rate(prob, s.p_label)
        if abs(s.rbar - rate) > 1e-9 * abs(rate):
            return f"sample {i}: rbar {s.rbar!r} != sum_rate(p_label) {rate!r}"
        # the solver starts from full power, so only rounding may separate them
        if s.rbar < wsr.sum_rate(prob, full) * (1.0 - 1e-12):
            return f"sample {i}: rbar {s.rbar!r} below the full-power rate"
    return None


def _arrays(stream) -> list[np.ndarray]:
    out = []
    for s in stream.all_samples():
        out += [s.h, np.array([s.episode_id], dtype=float)]
        if s.p_label is not None:
            out += [s.p_label, np.array([s.rbar])]
    return out


def _bit_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def check_round_trip(path: Path, config: Path, seed: int, work: Path):
    """Channels match a fresh draw from the seed; save of a load is bit-exact."""
    cfg = cli.load_config(config)
    fresh = channels.build_stream(cfg.episodes, cfg.k_pairs, np.random.default_rng(seed))
    loaded = channels.load_dataset(path)
    if not _bit_equal([s.h for s in loaded.all_samples()], [s.h for s in fresh.all_samples()]):
        return "channels differ from build_stream with the same config and seed"
    copy = work / "round_trip.jsonl"
    channels.save_dataset(loaded, copy)
    try:
        if copy.read_bytes() != path.read_bytes():
            return "save_dataset(load_dataset(file)) differs from the file"
        again = _arrays(channels.load_dataset(copy))
    finally:
        copy.unlink(missing_ok=True)
    if not _bit_equal(_arrays(loaded), again):
        return "load_dataset(save_dataset(x)) is not bit-exact"
    return None


def check_same_bytes(path: Path, reference: Path):
    if path.read_bytes() != reference.read_bytes():
        return f"{path.name} differs from {reference.name}"
    return None


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run_outputs(plan: Plan, files: Files, stream):
    """2x6 files, one CSV row per batch, finite positive ratios, exact eval replay."""
    want = {f"{kind}_{m}.{ext}" for m in METHODS for kind, ext in (("model", "json"), ("metrics", "csv"))}
    have = {p.name for p in files.out.iterdir()}
    if have != want:
        return f"run outputs {sorted(have ^ want)} differ from the expected 2x{len(METHODS)} files"
    n_eps = len(plan.families)
    for m in METHODS:
        rows = read_csv(files.out / f"metrics_{m}.csv")
        if len(rows) != n_eps * plan.n_batches:
            return f"{m}: {len(rows)} CSV rows for {n_eps * plan.n_batches} batches"
        ratios = np.array([[float(r[f"ep{i}_ratio"]) for i in range(n_eps)] for r in rows])
        if not np.all(np.isfinite(ratios)) or np.any(ratios <= 0):
            return f"{m}: ratios not finite and positive"
        params = model.load_params(files.out / f"model_{m}.json")
        rates, qs = harness.evaluate(harness.network_policy(params), stream.test_sets, NOISE)
        last = rows[-1]
        replay = [repr(v) for v in rates + qs] + [repr(float(np.mean(rates)))]
        logged = [last[f"ep{i}_rate"] for i in range(n_eps)] + [last[f"ep{i}_ratio"] for i in range(n_eps)]
        if replay != logged + [last["avg_rate"]]:
            return f"{m}: evaluate on the checkpoint does not reproduce the final CSV row"
    return None


def check_histograms(files: Files, stream):
    """Each eval's histogram counts every pooled test sample once."""
    n_test = sum(len(t) for t in stream.test_sets)
    for m in METHODS:
        rows = read_csv(files.evals / m / "histogram.csv")
        if sum(int(r["count"]) for r in rows) != n_test:
            return f"{m}: histogram does not count the {n_test} test samples"
    return None


def output_digests(files: Files, key: str) -> dict[str, str]:
    """sha256 of every file the gen, run or eval step (`key`) wrote."""
    if key == "gen":
        paths = [files.fresh] if files.fresh.is_file() else []
    else:
        top = files.out if key == "run" else files.evals
        paths = sorted(p for p in top.rglob("*") if p.is_file())
    return {str(p.relative_to(files.work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def quality(plan: Plan, files: Files, stream) -> dict[str, float]:
    """Final mean ratios per method and the Bilevel fairness tail."""
    n_eps = len(plan.families)
    out = {}
    for m in METHODS:
        last = read_csv(files.out / f"metrics_{m}.csv")[-1]
        out[m] = float(np.mean([float(last[f"ep{i}_ratio"]) for i in range(n_eps)]))
    policy = harness.network_policy(model.load_params(files.out / "model_Bilevel.json"))
    pooled = []
    for test in stream.test_sets:
        gains = np.stack([np.abs(s.h) ** 2 for s in test])
        rbar = np.array([s.rbar for s in test])
        pooled.append(wsr.sum_rate_many(gains, policy(test), noise=NOISE) / rbar)
    return {
        "ratio_mean.Bilevel": out["Bilevel"],
        "ratio_p5.Bilevel": float(np.percentile(np.concatenate(pooled), 5)),
        "ratio_mean.worst": min(out.values()),
    }


def check_outputs(plan: Plan, seed: int, files: Files, stream, ledger: Ledger) -> dict:
    """Full checks of one iteration's outputs; returns its quality metrics (empty on failure)."""
    if plan.gen_sizes:
        ledger.check("gen labels", check_labels, files.fresh)
        ledger.check("gen round trip", check_round_trip, files.fresh, files.fresh_config, seed, files.work)
    else:
        ledger.check("gen reproduces set-up", check_same_bytes, files.fresh, files.data)
    if stream is None:
        return {}
    ledger.check("run outputs", check_run_outputs, plan, files, stream)
    ledger.check("eval histograms", check_histograms, files, stream)
    found = {}
    ledger.check("quality metrics", lambda: found.update(quality(plan, files, stream)))
    return found


# ----------------------------------------------------------------- running


def load_checked(path: Path, ledger: Ledger):
    """The dataset at path, or None; loading counts as one checked operation."""
    try:
        stream = channels.load_dataset(path)
    except (OSError, ValueError) as exc:
        ledger.record(f"load {path.name}", False, str(exc))
        return None
    ledger.record(f"load {path.name}", True)
    return stream


def check_set_up(seed: int, files: Files, ledger: Ledger):
    """Check the set-up dataset's labels and round trip; return it loaded."""
    ledger.check("set-up labels", check_labels, files.data)
    ledger.check("set-up round trip", check_round_trip, files.data, files.data_config, seed, files.work)
    return load_checked(files.data, ledger)


def _files(name: str, plan: Plan) -> Files:
    return Files(Path(".perfbench_work") / f"{name}-{os.getpid()}", len(plan.runs))


def _clean(files: Files) -> None:
    shutil.rmtree(files.work, ignore_errors=True)
    with contextlib.suppress(OSError):  # another run may still be using it
        files.work.parent.rmdir()


def _rbar_mean(stream) -> float | None:
    rbars = [s.rbar for s in stream.all_samples() if s.rbar is not None] if stream else []
    return float(np.mean(rbars)) if rbars else None


def _gen_samples(plan: Plan) -> int:
    n_train, n_test, _ = plan.gen_sizes or (plan.n_train, plan.n_test, plan.n_batches)
    return len(plan.families) * (n_train + n_test)


def _measure(plan, seed, seconds, files, ledger, stream, clock):
    """Time gen, run and eval steps for `seconds`, shared out by WINDOW_SHARE.

    A full iteration comes first and its outputs are checked in full. Then
    the step furthest below its share of the measured time runs next, and
    its outputs must still match the first iteration's byte for byte.
    `clock` takes a calibration block after every step. Stops once every
    step has run twice and the next one would end past `seconds`. Returns
    each step's wall times and the quality metrics.
    """
    start = time.perf_counter()
    wall = {key: [] for key in STEPS}

    def step(key):
        wall[key].append(STEPS[key](plan, seed, files, ledger))
        clock.tick()

    for key in STEPS:
        step(key)
    found = check_outputs(plan, seed, files, stream, ledger)
    reference = {key: output_digests(files, key) for key in STEPS}
    while True:
        key = min(wall, key=lambda k: sum(wall[k]) / WINDOW_SHARE[k])
        late = time.perf_counter() - start + statistics.mean(wall[key]) > seconds
        if late and min(len(v) for v in wall.values()) >= 2:
            return wall, found
        step(key)
        same = output_digests(files, key) == reference[key]
        ledger.record(f"{key} rerun byte-identical", same, "outputs differ from the first iteration")


def run_workload(name: str, seed: int, seconds: float, plan: Plan | None = None) -> dict:
    """Untraced run: set up SETUP_REPEATS times, then measure for `seconds`.

    Timings are medians over the set-ups and over each step's samples,
    scaled to the reference host speed by the run's median calibration
    block (see hostspeed.py); the unscaled medians are printed beside them.
    """
    plan = plan or PLANS[name]
    files = _files(name, plan)
    ledger = Ledger()
    try:
        clock = hostspeed.HostClock()
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            set_up(plan, seed, files, ledger)
            setups.append(time.perf_counter() - start)
            clock.tick()
        stream = check_set_up(seed, files, ledger)
        wall, found = _measure(plan, seed, seconds, files, ledger, stream, clock)
        wall["setup"] = setups
        scaled = {key: statistics.median(v) * clock.factor() for key, v in wall.items()}
        values = {
            "setup_s": scaled["setup"],
            "label_samples_per_s": _gen_samples(plan) / scaled["gen"],
            "rbar_mean": _rbar_mean(load_checked(files.fresh, ledger)),
            "run_s": scaled["run"],
            "eval_s": scaled["eval"],
            **{k: found.get(k) for k in ("ratio_mean.Bilevel", "ratio_p5.Bilevel", "ratio_mean.worst")},
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (ledger.attempted - ledger.failed) / ledger.attempted,
        }
        env = environment({"setup": files.data, "gen": files.fresh})
    finally:
        _clean(files)
    metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
    notes = [f"calibration kernel: median {clock.median_ms():.3f} ms over {len(clock.blocks)} blocks"
             f" (reference {hostspeed.REFERENCE_S * 1e3:g} ms)"]
    notes += [f"unscaled wall, {key}: median {statistics.median(wall[key]):.6f} s over {len(wall[key])}"
              for key in ("setup", "gen", "run", "eval")]
    counts = ", ".join(f"{len(wall[k])} {k}" for k in STEPS)
    return {"env": env, "ledger": ledger, "metrics": metrics, "samples": counts, "notes": notes}


def traced_run(name: str, seed: int, seconds: float, plan: Plan | None = None) -> dict:
    """Traced set-up, then (untraced, traced) iteration pairs for `seconds`."""
    plan = plan or PLANS[name]
    files = _files(name, plan)
    ledger = Ledger()
    try:
        total = spans.Summary()
        with spans.Tracer(MODULES) as setup_tracer:
            start = time.perf_counter()
            set_up(plan, seed, files, ledger)
            setup_s = time.perf_counter() - start
        total.add(setup_tracer.summarise())
        stream = check_set_up(seed, files, ledger)
        traced, overheads, reference = [], [], None
        start = time.perf_counter()
        while True:
            # untraced then traced, so each pair shares the machine's state
            plain = iterate(plan, seed, files, ledger)
            if reference is None:
                check_outputs(plan, seed, files, stream, ledger)
                reference = {key: output_digests(files, key) for key in STEPS}
            tracer = spans.Tracer(MODULES)
            with_spans = iterate(plan, seed, files, ledger, tracer)
            same = {key: output_digests(files, key) for key in STEPS} == reference
            ledger.record("traced rerun byte-identical", same, "outputs differ from the untraced run")
            traced.append(tracer.summarise())
            overheads.append(sum(with_spans.values()) / sum(plain.values()))
            elapsed = time.perf_counter() - start
            if elapsed * (len(traced) + 1) / len(traced) > seconds:
                break
        iterations = spans.Summary()
        for s in traced:
            iterations.add(s)
        total.add(iterations, divisor=len(traced))
        metrics = layer_metrics(total, statistics.median(overheads), setup_s)
        env = environment({"setup": files.data, "gen": files.fresh})
    finally:
        _clean(files)
    return {"env": env, "ledger": ledger, "metrics": metrics, "samples": f"{len(traced)} traced pairs"}


def layer_metrics(s: spans.Summary, overhead: float, setup_s: float) -> dict:
    """Per-layer metrics of one traced set-up plus one mean traced iteration."""
    m: dict[str, tuple[float, str]] = {}

    def calls(n):
        m[f"{n}.calls"] = (s.calls.get(n, 0.0), "count")

    def per_call(n):
        m[f"{n}.us_per_call"] = (s.us_per_call(n), "us")

    def secs(n, key=None):
        m[key or f"{n}.s"] = (s.seconds(n), "s")

    calls("wsr.wmmse")
    per_call("wsr.wmmse")
    wmmse_calls = s.calls.get("wsr.wmmse", 0.0)
    m["wsr.sum_rate.calls_per_wmmse"] = (
        s.calls.get("wsr.sum_rate", 0.0) / wmmse_calls if wmmse_calls else 0.0, "count")
    for n in ("wsr.sum_rate_many", "wsr.grad_sum_rate_many"):
        calls(n)
        per_call(n)
    gen_s = s.seconds("cli.cmd_gen")
    m["wsr.wmmse.share_of_gen"] = (s.seconds("wsr.wmmse") / gen_s if gen_s else 0.0, "share")

    secs("channels.save_dataset")
    m["channels.save_dataset.bytes"] = (s.work_sum("channels.save_dataset", 0), "bytes")
    calls("channels.load_dataset")
    secs("channels.load_dataset")
    load_s = s.seconds("channels.load_dataset")
    m["channels.load_dataset.mb_per_s"] = (
        s.work_sum("channels.load_dataset", 0) / 1e6 / load_s if load_s else 0.0, "MB/s")
    secs("channels.build_stream")
    secs("channels.add_wmmse_labels")

    calls("model.forward")
    m["model.forward.rows"] = (s.work_sum("model.forward", 0), "count")
    per_call("model.forward")
    m["model.forward.mflop"] = (s.work_sum("model.forward", 1), "MFLOP-computed")
    calls("model.backward")
    per_call("model.backward")
    m["model.backward.mflop"] = (s.work_sum("model.backward", 1), "MFLOP-computed")
    secs("model.save_params")
    secs("model.load_params")
    run_s = s.seconds("cli.cmd_run")
    m["model.share_of_run"] = (s.model_in_run_ns / 1e9 / run_s if run_s else 0.0, "share")

    for n in ("g_eval", "g_value", "f_eval", "weighted_upper", "lower_values"):
        calls(f"objective.{n}")
        per_call(f"objective.{n}")
    m["objective.self_s"] = (s.layer_self_s("objective"), "s")

    calls("trainer.scsc_step")
    per_call("trainer.scsc_step")
    for n in ("scsc_train", "sgd_train", "gda_train"):
        secs(f"trainer.{n}")
    m["trainer.self_s"] = (s.layer_self_s("trainer"), "s")

    for n in ("update_bilevel", "update_reservoir", "update_joint"):
        calls(f"memory.{n}")
        secs(f"memory.{n}")

    for method in METHODS:
        secs(f"harness.run_continual.{method}", f"harness.run_continual.s.{method}")
    calls("harness.evaluate")
    secs("harness.evaluate")
    m["harness.self_s"] = (s.layer_self_s("harness"), "s")

    for n in ("cmd_gen", "cmd_run", "cmd_eval"):
        secs(f"cli.{n}")
    m["cli.self_s"] = (s.layer_self_s("cli"), "s")

    m["bench.traced_setup_s"] = (setup_s, "s")
    m["bench.tracing_overhead"] = (overhead, "ratio")
    return m


# -------------------------------------------------------------- environment


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if one can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(datasets: dict[str, Path]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "dataset_bytes": {k: p.stat().st_size for k, p in datasets.items() if p.is_file()},
    }
