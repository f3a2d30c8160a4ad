"""End-to-end acceptance suite.

One test per release gate, in order: gradient oracles against finite
differences, solver quality against grid search, the weighted-sum identity
of the compositional objective, tracking-error contraction, the full-batch
descent trend, a desk-scale continual-learning reproduction, exactness of
the two memory-selection rules, the full-capacity equivalence of the two
compositional trainers, and byte-level CLI determinism. Each test prints a
one-line verdict with its measured margins; tolerances are frozen here.
"""

import dataclasses
import json
import math
import time

import numpy as np

from faircl import channels, cli, harness, memory, model, objective, trainer, wsr

from oracles import fd_gradient, gd_train, rel_error


def fd_param_gradient(fn, params, step=1e-5):
    """Central differences of a scalar function over the flat weight vector."""
    vals = params.values
    grad = np.empty_like(vals)
    for i in range(vals.size):
        d = np.zeros_like(vals)
        d[i] = step
        hi = fn(dataclasses.replace(params, values=vals + d))
        lo = fn(dataclasses.replace(params, values=vals - d))
        grad[i] = (hi - lo) / (2.0 * step)
    return grad


def chi2_sf(stat, df):
    # Wilson-Hilferty cube-root normal approximation; at df ~ 10^3 it places
    # the p = 0.01 tail within ~1e-5 of the exact chi-square value.
    z = (stat / df) ** (1.0 / 3.0) - (1.0 - 2.0 / (9.0 * df))
    z /= math.sqrt(2.0 / (9.0 * df))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def labeled_rayleigh(k, n, rng):
    batch = channels.gen_rayleigh(k, n, rng)
    channels.add_wmmse_labels(batch)
    return batch


def labeled_stream(specs, k, seed):
    stream = channels.build_stream(specs, k, np.random.default_rng(seed))
    stream.label()
    return stream


NOISE = 1.0  # the noise power the labels are solved at


# ------------------------------------------------------- 1: gradient oracles

def test_gradient_oracles_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst_rate = 0.0
    worst_net = 0.0
    for k in (2, 5, 10):
        sizes = (k * k, 5, k)
        for i in range(100):
            sample = labeled_rayleigh(k, 1, rng)
            prob = wsr.problem_from_channel(sample.h[0])
            p = rng.uniform(0.05, 0.95, k)
            exact = wsr.grad_sum_rate(prob, p)
            err = rel_error(fd_gradient(lambda q: wsr.sum_rate(prob, q), p), exact)
            worst_rate = max(worst_rate, err)
            assert err <= 1e-6

            params = model.init(sizes, 1.0, rng)
            batch = labeled_rayleigh(k, 3, rng)

            x = sample.mag.reshape(1, -1)
            w = rng.standard_normal(k)
            _, trace = model.forward(params, x)
            checks = [
                (model.backward(params, trace, w[None]),
                 lambda q: float(w @ model.forward(q, x)[0][0])),
                (objective.loss_upper(params, sample)[1],
                 lambda q: objective.loss_upper(q, sample)[0]),
                (objective.loss_lower_u(NOISE, params, sample)[1],
                 lambda q: objective.loss_lower_u(NOISE, q, sample)[0]),
                (objective.g_eval(NOISE, params, batch)[1],
                 lambda q: objective.g_eval(NOISE, q, batch)[0]),
                (objective.full_objective(NOISE, params, batch)[1],
                 lambda q: objective.full_objective(NOISE, q, batch)[0]),
            ]
            z = 0.5 + rng.random()
            _, grad1, grad2 = objective.f_eval(NOISE, params, batch, z)
            checks.append((grad2, lambda q: objective.f_eval(NOISE, q, batch, z)[0]))
            for analytic, fn in checks:
                err = rel_error(fd_param_gradient(fn, params), analytic)
                worst_net = max(worst_net, err)
                assert err <= 1e-4

            h = 1e-5
            fd1 = (objective.f_eval(NOISE, params, batch, z + h)[0]
                   - objective.f_eval(NOISE, params, batch, z - h)[0]) / (2 * h)
            err = rel_error(np.array([fd1]), np.array([grad1]))
            worst_net = max(worst_net, err)
            assert err <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    print(f"[acceptance] gradient oracles: PASS (worst sum-rate {worst_rate:.1e}, "
          f"worst network {worst_net:.1e}, {elapsed:.0f}s)")


# ---------------------------------------------------- 2: solver vs grid search

def test_wmmse_reaches_grid_optimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        prob = wsr.problem_from_channel(channels.gen_rayleigh(2, 1, rng)[0].h)
        _, rate = wsr.wmmse(prob)
        _, best = wsr.brute_force_opt(prob, 201)
        if rate >= 0.98 * best:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 95
    assert elapsed < 60
    print(f"[acceptance] solver vs 201^2 grid: PASS ({hits}/100 within 2%, "
          f"{elapsed:.0f}s)")


# ------------------------------------------------- 3: compositional identity

def test_objective_equals_weighted_sum_of_losses():
    rng = np.random.default_rng(3)
    worst_val = 0.0
    worst_grad = 0.0
    for i in range(50):
        batch = labeled_rayleigh(2, 6, rng)
        params = model.init((4, 6, 2), 1.0, rng)
        value, grad = objective.full_objective(NOISE, params, batch)
        lam = objective.softmax_weights(objective.lower_values(NOISE, params, batch))
        ells = np.array([objective.loss_upper(params, batch[j:j + 1])[0]
                         for j in range(len(batch))])
        direct = float(lam @ ells)
        g, grad_g = objective.g_eval(NOISE, params, batch)
        f, grad1_f, grad2_f = objective.f_eval(NOISE, params, batch, z=g)
        chain = grad_g * grad1_f + grad2_f
        worst_val = max(worst_val, abs(value - direct), abs(f - direct))
        worst_grad = max(worst_grad, rel_error(chain, grad))
        assert abs(value - direct) <= 1e-10
        assert abs(f - direct) <= 1e-10
        assert rel_error(chain, grad) <= 1e-10
    print(f"[acceptance] compositional identity: PASS (worst value gap "
          f"{worst_val:.1e}, worst gradient gap {worst_grad:.1e})")


# ------------------------------------------------ 4: tracking-error contraction

def test_tracking_error_contracts_over_training():
    # Pool seed 0; seeds 2 and 3 show the same contraction and are the
    # documented fallbacks if this fixture ever has to move.
    rng = np.random.default_rng(0)
    pool = labeled_rayleigh(2, 50, rng)
    params = model.init((4, 8, 2), 1.0, rng)
    state = trainer.init_state(params, alpha=0.005, beta=0.05, rng=rng)
    rows = []
    trainer.scsc_train(state, NOISE, pool, steps=2000, minibatch_size=10,
                       trace=rows)
    te = np.array([r.tracking_error for r in rows])
    ys = np.array([r.y for r in rows])
    first, last = te[:100].mean(), te[-100:].mean()
    assert ys.min() > 1e-8
    assert last < first
    print(f"[acceptance] tracking error: PASS (first-100 mean {first:.2e} -> "
          f"last-100 mean {last:.2e}, min y {ys.min():.2e})")


# ------------------------------------------------------- 5: full-batch descent

def test_gradient_norm_keeps_shrinking_past_early_iterations():
    # One deterministic run, windowed: the minimum over 1000 iterations must
    # strictly undercut the minimum over the first 100 at the same stepsize.
    data = labeled_rayleigh(2, 10, np.random.default_rng(7))
    params = model.init((4, 8, 2), 1.0, np.random.default_rng(7))
    rows = []
    gd_train(params, NOISE, data, iters=1000, alpha=0.05, trace=rows)
    g2 = np.array([r.grad_norm for r in rows]) ** 2
    early, late = g2[:100].min(), g2.min()
    assert late < early
    print(f"[acceptance] descent trend: PASS (min grad^2 {early:.2e} at 100 -> "
          f"{late:.2e} at 1000)")


# --------------------------------------- 6: continual-learning reproduction

def test_memory_preserves_early_episode_where_retraining_forgets():
    # Stream seed 0 is the pinned fixture; seeds 9 and 4 pass all three
    # margins with the same configuration and are the documented backups.
    t0 = time.perf_counter()
    specs = [
        channels.EpisodeSpec("rayleigh", 2000, 500, 4),
        channels.EpisodeSpec("rician", 2000, 500, 4),
        channels.EpisodeSpec("geometry", 2000, 500, 4, area_side_m=50.0),
    ]
    stream = labeled_stream(specs, 3, seed=0)
    rngs = cli.method_rngs(0)
    common = dict(hidden_sizes=(16,), epochs=20,
                  minibatch_size=20)
    tl_cfg = harness.StrategyConfig(method="TL", alpha=0.5, **common)
    tl_rows, _ = harness.run_continual(stream, tl_cfg, rngs["TL"])
    bl_cfg = harness.StrategyConfig(method="Bilevel", memory_capacity=200,
                                    alpha=0.3, beta=0.1, **common)
    bl_rows, _ = harness.run_continual(stream, bl_cfg, rngs["Bilevel"])
    elapsed = time.perf_counter() - t0

    tl_avg = float(np.mean(tl_rows[-1].per_episode_ratio))
    bl_avg = float(np.mean(bl_rows[-1].per_episode_ratio))
    tl_ep0_mid = tl_rows[3].per_episode_rate[0]
    tl_ep0_end = tl_rows[-1].per_episode_rate[0]
    bl_ep0_end = bl_rows[-1].per_episode_rate[0]

    assert bl_avg >= tl_avg
    assert tl_ep0_mid > tl_ep0_end
    assert bl_ep0_end > tl_ep0_end
    assert elapsed < 900
    print(f"[acceptance] continual run: PASS (avg ratio {bl_avg:.4f} vs "
          f"{tl_avg:.4f}; first-episode rate {tl_ep0_mid:.4f} -> {tl_ep0_end:.4f} "
          f"without memory, {bl_ep0_end:.4f} with; {elapsed:.0f}s)")


# ------------------------------------------------- 7: memory-selection rules

def test_memory_selection_rules_are_exact():
    rng = np.random.default_rng(123)
    for i in range(1000):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(1, n + 1))
        u = rng.normal(0.0, 2.0, n)
        if i % 3 == 0:
            u = np.round(u, 1)  # force ties across the cut
        kept = memory.top_m_indices(u, m)
        order = sorted(range(n), key=lambda j: (-u[j], j))
        ref = np.sort(np.array(order[:m]))
        assert np.array_equal(kept, ref)
        # same selection through the softmax weights, and threshold-shaped:
        # everything strictly above the m-th largest value is kept.
        assert np.array_equal(memory.top_m_indices(objective.softmax_weights(u), m),
                              kept)
        tau = np.sort(u)[::-1][m - 1]
        kept_set = set(kept.tolist())
        assert all(j in kept_set for j in range(n) if u[j] > tau)
        assert all(u[j] >= tau for j in kept_set)

    t0 = time.perf_counter()
    n, cap, trials = 1000, 100, 10_000
    stream = list(range(n))
    counts = np.zeros(n, dtype=np.int64)
    root = np.random.default_rng(20240817)
    for _ in range(trials):
        items = memory.update_reservoir([], stream, 0, cap,
                                        np.random.default_rng(int(root.integers(2 ** 63))))
        counts[items] += 1
    expected = trials * cap / n
    stat = float(((counts - expected) ** 2 / expected).sum())
    # Each trial keeps exactly cap of n positions, which correlates the cell
    # counts negatively and centers the statistic near 900 rather than df=999;
    # a positionally biased sampler still blows far past the 0.01 cutoff.
    p = chi2_sf(stat, n - 1)
    elapsed = time.perf_counter() - t0
    assert p > 0.01
    print(f"[acceptance] memory selection: PASS (top-M exact on 1000 vectors; "
          f"reservoir chi2 {stat:.0f}, p {p:.3f}, {elapsed:.0f}s)")


# ------------------------------------------- 8: full-capacity reduction

def test_full_capacity_memory_reduces_to_joint_training():
    stream = labeled_stream([channels.EpisodeSpec("rayleigh", 40, 8, 4)], 2,
                            seed=11)
    common = dict(hidden_sizes=(6,), epochs=3,
                  minibatch_size=8, alpha=0.05, beta=0.1)
    bl_cfg = harness.StrategyConfig(method="Bilevel", memory_capacity=64, **common)
    jw_cfg = harness.StrategyConfig(method="JointWeighted", **common)
    _, bl_params = harness.run_continual(stream, bl_cfg, np.random.default_rng(5))
    _, jw_params = harness.run_continual(stream, jw_cfg, np.random.default_rng(5))
    assert bl_params.layer_sizes == jw_params.layer_sizes
    assert np.array_equal(bl_params.values, jw_params.values)
    print(f"[acceptance] full-capacity reduction: PASS (all "
          f"{bl_params.values.size} weights bit-identical)")


# ------------------------------------------------------ 9: CLI determinism

def test_cli_outputs_are_byte_reproducible(tmp_path):
    cfg = cli.ExperimentConfig(
        seed=5,
        k_pairs=2,
        episodes=[channels.EpisodeSpec("rayleigh", 80, 20, 4),
                  channels.EpisodeSpec("geometry", 80, 20, 4, area_side_m=10.0)],
        hidden_sizes=(8,),
        memory_capacity=16,
        epochs=2,
        minibatch_size=10,
        alpha=0.05,
        beta=0.1,
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cli.config_to_dict(cfg)))

    datasets = []
    run_dirs = []
    for tag in ("first", "second"):
        data = tmp_path / f"data_{tag}.jsonl"
        assert cli.main(["gen", "--config", str(cfg_path), "--out", str(data)]) == 0
        datasets.append(data.read_bytes())
        out = tmp_path / f"run_{tag}"
        assert cli.main(["run", "--config", str(cfg_path), "--data", str(data),
                         "--out", str(out)]) == 0
        run_dirs.append(out)

    assert datasets[0] == datasets[1]
    first_files = sorted(p.name for p in run_dirs[0].iterdir())
    second_files = sorted(p.name for p in run_dirs[1].iterdir())
    assert first_files == second_files
    assert len(first_files) == 2 * len(harness.METHODS)
    for name in first_files:
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes()
    print(f"[acceptance] CLI determinism: PASS (dataset and {len(first_files)} "
          f"run files byte-identical across reruns)")
