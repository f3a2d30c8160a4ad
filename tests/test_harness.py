import numpy as np
import pytest

from faircl import channels, harness, memory, model, objective, trainer
from faircl.channels import EpisodeSpec, EpisodeStream, SampleSet
from faircl.harness import StrategyConfig

K = 2


def tiny_stream(rng, n_train=8, n_batches=2, n_test=4, episodes=("rayleigh", "rician")):
    specs = [
        EpisodeSpec(distribution=d, n_train=n_train, n_test=n_test, n_batches=n_batches)
        for d in episodes
    ]
    stream = channels.build_stream(specs, K, rng)
    stream.label()
    return stream


def tiny_cfg(method, **kw):
    defaults = dict(
        method=method,
        memory_capacity=6,
        hidden_sizes=(6,),
        epochs=2,
        minibatch_size=4,
        alpha=0.01,
        beta=0.2,
    )
    defaults.update(kw)
    return StrategyConfig(**defaults)


# -------------------------------------------------------------- evaluation

def test_wmmse_policy_ratios_exactly_one():
    stream = tiny_stream(np.random.default_rng(0))
    rates, ratios = harness.evaluate(harness.wmmse_policy(), stream.test_sets)
    assert len(rates) == len(ratios) == 2
    assert all(q == 1.0 for q in ratios)
    assert all(r > 0 for r in rates)


def test_max_power_policy():
    stream = tiny_stream(np.random.default_rng(1))
    full = lambda samples: np.ones((len(samples), K))
    rates, ratios = harness.evaluate(full, stream.test_sets)
    # the solver run starts from full power, so it can never do worse
    assert all(q <= 1.0 + 1e-12 for q in ratios)
    expect = np.mean(
        [
            np.log1p(np.abs(s.h[k, k]) ** 2 / (1.0 + sum(np.abs(s.h[k, j]) ** 2 for j in range(K) if j != k)))
            for s in stream.test_sets[0]
            for k in range(K)
        ]
    ) * K
    assert rates[0] == pytest.approx(expect, rel=1e-9)


def test_zero_policy():
    stream = tiny_stream(np.random.default_rng(2))
    zero = lambda samples: np.zeros((len(samples), K))
    rates, ratios = harness.evaluate(zero, stream.test_sets)
    assert rates == [0.0, 0.0] and ratios == [0.0, 0.0]


def test_missing_rbar_rejected():
    plain = channels.gen_rayleigh(K, 3, np.random.default_rng(3))
    zero = lambda samples: np.zeros((len(samples), K))
    with pytest.raises(ValueError, match="rbar"):
        harness.evaluate(zero, [plain])


def test_ratio_histogram():
    stream = tiny_stream(np.random.default_rng(4))
    rows = harness.ratio_histogram(harness.wmmse_policy(), stream.test_sets, 0.1)
    nonzero = [r for r in rows if r[2] > 0]
    assert nonzero == [(pytest.approx(1.0), pytest.approx(1.1), 8)]
    zero = lambda samples: np.zeros((len(samples), K))
    rows = harness.ratio_histogram(zero, stream.test_sets, 0.25)
    assert rows == [(0.0, 0.25, 8)]
    assert sum(c for _, _, c in rows) == 8
    with pytest.raises(ValueError, match="bin_width"):
        harness.ratio_histogram(zero, stream.test_sets, 0.0)


def loop_histogram(ratios, bin_width):
    counts = {}
    for q in ratios:
        i = int(np.floor(q / bin_width))
        counts[i] = counts.get(i, 0) + 1
    return [(i * bin_width, (i + 1) * bin_width, counts.get(i, 0)) for i in range(max(counts) + 1)]


@pytest.mark.parametrize("width", [0.1, 0.37, 1e-3, 2.0**-16])
def test_pooled_histogram_matches_a_loop(width):
    ratios = np.concatenate([[0.0, 1.0], np.random.default_rng(8).uniform(0.0, 1.4, 200)])
    scores = [(ratios[:50], ratios[:50]), (ratios[50:], ratios[50:])]
    assert harness.pooled_histogram(scores, width) == loop_histogram(ratios, width)


def test_pooled_histogram_caps_its_bins():
    width = 2.0**-20
    # the largest ratio falls in bin _MAX_BINS - 1, then in bin _MAX_BINS
    top = (harness._MAX_BINS - 1) * width
    rows = harness.pooled_histogram([(np.ones(2), np.array([0.0, top]))], width)
    assert len(rows) == harness._MAX_BINS and rows[-1] == (top, top + width, 1)
    for ratios, w in (([0.0, top + width], width), ([1.0], 1e-9), ([1.0], 5e-324)):
        with pytest.raises(ValueError, match=f"^bin width {w!r} needs .* bins, more than 100000$"):
            harness.pooled_histogram([(np.ones(len(ratios)), np.array(ratios))], w)


# ------------------------------------------------------------ outer loop

def test_row_schedule_and_fields():
    stream = tiny_stream(np.random.default_rng(5))
    rows, _ = harness.run_continual(stream, tiny_cfg("TL"), np.random.default_rng(6))
    assert [r.seen_samples for r in rows] == [4, 8, 12, 16]
    for r in rows:
        assert r.method == "TL"
        assert len(r.per_episode_rate) == len(r.per_episode_ratio) == 2
        assert r.avg_rate == pytest.approx(np.mean(r.per_episode_rate))
        assert all(q >= 0 for q in r.per_episode_ratio)
        assert r.wall_ms >= 0


def test_every_method_produces_full_rows():
    stream = tiny_stream(np.random.default_rng(7))
    for method in harness.METHODS:
        rows, _ = harness.run_continual(stream, tiny_cfg(method), np.random.default_rng(8))
        assert len(rows) == 4, method


RULE_FUNCTIONS = {"reservoir": "update_reservoir", "top_m": "update_bilevel", "joint": "update_joint"}


def test_each_method_calls_its_trainer_and_memory_rule_through_the_modules(monkeypatch):
    # a wrapper on the module attribute, as a tracer installs, sees each call
    calls = []
    for mod, names in ((trainer, ("sgd_train", "scsc_train", "gda_train")), (memory, RULE_FUNCTIONS.values())):
        for name in names:
            fn = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name, **kw: calls.append(_name) or _fn(*a, **kw))
    stream = tiny_stream(np.random.default_rng(7))
    assert harness.METHODS == ("TL", "Reservoir", "Bilevel", "Minimax", "JointEqual", "JointWeighted")
    for method, (trainer_name, rule) in harness.STRATEGIES.items():
        calls.clear()
        harness.run_continual(stream, tiny_cfg(method), np.random.default_rng(8))
        want = [f"{trainer_name}_train"] + ([RULE_FUNCTIONS[rule]] if rule else [])
        assert calls == want * 4, method


def test_reservoir_is_told_the_rows_seen_before_each_batch(monkeypatch):
    seen = []
    update = memory.update_reservoir

    def update_reservoir(items, batch, n, *rest):
        seen.append(n)
        return update(items, batch, n, *rest)

    monkeypatch.setattr(memory, "update_reservoir", update_reservoir)
    harness.run_continual(tiny_stream(np.random.default_rng(7)), tiny_cfg("Reservoir"), np.random.default_rng(8))
    assert seen == [0, 4, 8, 12]


def test_top_m_ranks_minimax_by_its_final_dual_and_bilevel_by_u(monkeypatch):
    stream = tiny_stream(np.random.default_rng(7))
    duals, ranked = [], []
    gda, update = trainer.gda_train, memory.update_bilevel

    def gda_train(*args):
        params, lam = gda(*args)
        duals.append(lam)
        return params, lam

    def update_bilevel(pool, scores, capacity):
        ranked.append((pool, scores))
        return update(pool, scores, capacity)

    monkeypatch.setattr(trainer, "gda_train", gda_train)
    monkeypatch.setattr(memory, "update_bilevel", update_bilevel)
    harness.run_continual(stream, tiny_cfg("Minimax"), np.random.default_rng(8))
    assert len(ranked) == 4 and all(scores is lam for (_, scores), lam in zip(ranked, duals))
    ranked.clear()
    cfg = tiny_cfg("Bilevel")
    _, params = harness.run_continual(stream, cfg, np.random.default_rng(8))
    # the last round ranks its pool by u at the final params
    pool, scores = ranked[-1]
    assert np.array_equal(scores, objective.lower_values(cfg.noise, params, stream.samples.take(pool)))


def test_tl_skips_empty_batch():
    rng = np.random.default_rng(9)
    samples = SampleSet.concat([channels.gen_rayleigh(K, 4, rng), channels.gen_rayleigh(K, 3, rng)])
    channels.add_wmmse_labels(samples)
    spec = EpisodeSpec(distribution="rayleigh", n_train=4, n_test=3, n_batches=2)
    stream = EpisodeStream(K, [spec], samples, [range(0, 4), range(4, 4)], [samples[4:]])
    rows, _ = harness.run_continual(stream, tiny_cfg("TL"), np.random.default_rng(10))
    assert rows[1].per_episode_rate == rows[0].per_episode_rate


def test_warm_start_carries_params():
    # zero training keeps the initial params, so metrics repeat identically
    stream = tiny_stream(np.random.default_rng(11))
    cfg = tiny_cfg("TL", epochs=0)
    rows, _ = harness.run_continual(stream, cfg, np.random.default_rng(12))
    assert all(r.per_episode_rate == rows[0].per_episode_rate for r in rows)


def test_bilevel_equals_jointweighted_when_capacity_covers_stream():
    rng = np.random.default_rng(13)
    stream = tiny_stream(rng, n_train=12, n_batches=3, n_test=4, episodes=("rayleigh",))
    final = {}
    for method in ("Bilevel", "JointWeighted"):
        cfg = tiny_cfg(method, memory_capacity=50)
        rows, params = harness.run_continual(stream, cfg, np.random.default_rng(15))
        final[method] = (rows, params)
    # identical pools and identical rng draws give bit-identical models
    assert np.array_equal(final["Bilevel"][1].values, final["JointWeighted"][1].values)
    a = [r.per_episode_rate for r in final["Bilevel"][0]]
    b = [r.per_episode_rate for r in final["JointWeighted"][0]]
    assert a == b


def test_jointequal_ignores_capacity():
    stream = tiny_stream(np.random.default_rng(16))
    runs = []
    for cap in (1, 40):
        cfg = tiny_cfg("JointEqual", memory_capacity=cap)
        rows, _ = harness.run_continual(stream, cfg, np.random.default_rng(17))
        runs.append([r.per_episode_rate for r in rows])
    assert runs[0] == runs[1]


def test_aborted_run_carries_partial_rows(monkeypatch):
    rng = np.random.default_rng(18)
    test = channels.gen_rayleigh(K, 3, rng)
    channels.add_wmmse_labels(test)
    # two calm samples, then two whose labels are far out of reach
    labels = np.array([[0.5, 0.5], [0.5, 0.5], [1e4, 0.5], [1e4, 0.5]])
    train = SampleSet(np.zeros((4, K, K), dtype=complex), labels)
    samples = SampleSet.concat([train, test])
    spec = EpisodeSpec(distribution="rayleigh", n_train=4, n_test=3, n_batches=2)
    stream = EpisodeStream(K, [spec], samples, [range(0, 2), range(2, 4)], [samples[4:]])
    cfg = tiny_cfg("TL", epochs=1, minibatch_size=2, alpha=1e306)
    params = model.ModelParams((K * K, 6, K), np.zeros(model.param_count((K * K, 6, K))), 1.0)
    monkeypatch.setattr(model, "init", lambda *args: params)
    with np.errstate(over="ignore"), pytest.raises(harness.TrainingAborted, match="TL") as info:
        harness.run_continual(stream, cfg, np.random.default_rng(19))
    assert len(info.value.rows) == 1


# (keyword arguments, the refusal's text): one case per rule of Training
# and StrategyConfig; NaN and +-inf fail every numeric range
REFUSED_STRATEGIES = {
    "method EWMA": (dict(method="EWMA"), "unknown method 'EWMA'; valid"),
    "memory_capacity -1": (dict(memory_capacity=-1), "memory_capacity must be an integer >= 0, got -1"),
    "memory_capacity a float": (dict(memory_capacity=2.0), "memory_capacity must be an integer"),
    "epochs -1": (dict(epochs=-1), "epochs must be an integer >= 0"),
    "epochs a bool": (dict(epochs=True), "epochs must be an integer"),
    "minibatch_size 0": (dict(minibatch_size=0), "minibatch_size must be an integer >= 1"),
    "hidden_sizes [0]": (dict(hidden_sizes=[0]), "hidden_sizes entry must be an integer >= 1"),
    "hidden_sizes a number": (dict(hidden_sizes=5), "hidden_sizes must be an array"),
    "p_max 0": (dict(p_max=0), "p_max must be a positive finite number, got 0"),
    "p_max a bool": (dict(p_max=True), "p_max must be a positive finite number"),
    "noise 0": (dict(noise=0), "noise must be a positive finite number, got 0"),
    "noise NaN": (dict(noise=float("nan")), "noise must be a positive finite number, got nan"),
    "noise Infinity": (dict(noise=float("inf")), "noise must be a positive finite number, got inf"),
    "noise a bool": (dict(noise=True), "noise must be a positive finite number, got True"),
    "noise a string": (dict(noise="1"), "noise must be a positive finite number, got '1'"),
    "alpha NaN": (dict(alpha=float("nan")), "alpha must be a positive finite number, got nan"),
    "alpha Infinity": (dict(alpha=float("inf")), "alpha must be a positive finite number, got inf"),
    "beta 0": (dict(beta=0.0), r"beta must be a number in \(0, 1\], got 0.0"),
    "beta 2.0": (dict(beta=2.0), r"beta must be a number in \(0, 1\]"),
    "gda_alpha_theta -1": (dict(gda_alpha_theta=-1), "gda_alpha_theta must be null or a positive"),
    "gda_alpha_lambda -inf": (dict(gda_alpha_lambda=float("-inf")), "gda_alpha_lambda must be null or"),
    "Minimax lambda below theta": (
        dict(method="Minimax", alpha=1e-3, gda_alpha_lambda=1e-4),
        "Minimax needs gda_alpha_lambda > gda_alpha_theta, got 0.0001 <= 0.001",
    ),
    "Minimax lambda equal to theta": (
        dict(method="Minimax", gda_alpha_theta=0.5, gda_alpha_lambda=0.5),
        "Minimax needs gda_alpha_lambda > gda_alpha_theta",
    ),
}


@pytest.mark.parametrize("kw, message", REFUSED_STRATEGIES.values(), ids=REFUSED_STRATEGIES)
def test_strategy_config_validation(kw, message):
    with pytest.raises(ValueError, match=message):
        StrategyConfig(**dict(dict(method="TL"), **kw))


def test_minimax_rates_default_from_alpha_and_pass_other_methods():
    assert StrategyConfig(method="Minimax", alpha=0.02).gda_rates() == (0.02, 0.2)
    assert StrategyConfig(method="Minimax", gda_alpha_theta=0.1, gda_alpha_lambda=0.3).gda_rates() == (0.1, 0.3)
    StrategyConfig(method="Bilevel", alpha=1e-3, gda_alpha_lambda=1e-4)  # the condition is Minimax's alone
    assert StrategyConfig(method="TL", hidden_sizes=[3, 2]).hidden_sizes == (3, 2)


# ----------------------------------------------------------------- output

def test_metrics_csv_shape(tmp_path):
    stream = tiny_stream(np.random.default_rng(20))
    rows, _ = harness.run_continual(stream, tiny_cfg("Reservoir"), np.random.default_rng(21))
    path = tmp_path / "metrics.csv"
    harness.write_metrics_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "seen,method,ep0_rate,ep1_rate,ep0_ratio,ep1_ratio,avg_rate,wall_ms"
    assert len(lines) == 5
    assert lines[1].startswith("4,Reservoir,")
    with pytest.raises(ValueError):
        harness.write_metrics_csv(tmp_path / "empty.csv", [])


def test_metrics_csv_write_that_fails_leaves_the_old_file(tmp_path):
    stream = tiny_stream(np.random.default_rng(20))
    rows, _ = harness.run_continual(stream, tiny_cfg("TL"), np.random.default_rng(21))
    path = tmp_path / "metrics.csv"
    harness.write_metrics_csv(path, rows)
    before = path.read_bytes()
    broken = rows[:2] + [harness.MetricsRow(0, "TL", None, None, 0.0, 0)]  # fails after two rows
    with pytest.raises(TypeError):
        harness.write_metrics_csv(path, broken)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]
