import numpy as np
import pytest
from numpy.testing import assert_allclose

from faircl import channels, memory, model, objective, trainer
from faircl.objective import TrackingCollapseError
from faircl.trainer import DivergenceError

from oracles import gda_train_lists, lower_values_lists, rel_error, scsc_step_unfused, sgd_train_lists

K = 2
SIZES = (K * K, 6, K)
NOISE = 1.0  # the noise power the labels are solved at


def zero_params(p_max=1.0):
    return model.ModelParams(SIZES, np.zeros(model.param_count(SIZES)), p_max)


def labeled_batch(rng, n, k=K):
    batch = channels.gen_rayleigh(k, n, rng)
    channels.add_wmmse_labels(batch)
    return batch


def zero_gain_set(n, p_label=None, rbar=None):
    # n zero-gain samples that share one label and one rbar, or have none
    labels = None if p_label is None else np.tile(np.asarray(p_label, dtype=float), (n, 1))
    return channels.SampleSet(np.zeros((n, K, K), dtype=complex), labels, None if rbar is None else np.full(n, rbar))


def constant_pool(n=4):
    # zero channel gains: rates and their gradients vanish identically, so
    # u = -0/rbar is 0 and g exactly 1 at any params; the labels are the
    # zero network's outputs, so ell and its gradient vanish there too
    return zero_gain_set(n, np.full(K, 0.5), rbar=1.0)


def fresh_state(params, alpha=0.1, beta=0.5, seed=0, y=None, step=0):
    return trainer.TrainerState(params, params, y, step, alpha, beta, np.random.default_rng(seed))


# ---------------------------------------------------------------- scsc_step

def test_beta_one_sets_y_to_batch_g():
    rng = np.random.default_rng(1)
    params = model.init(SIZES, 1.0, rng)
    batch = labeled_batch(rng, 3)
    state = fresh_state(params, beta=1.0, y=0.123)
    out = trainer.scsc_step(state, NOISE, batch, batch)
    assert out.y == objective.g_value(NOISE, params, batch)


def test_y_update_arithmetic():
    # unit direct gains and no crosstalk: the zero net's powers (0.5, 0.5)
    # reach a sum rate of 2 ln 1.5, so rbar = 2 ln 1.5 / ln 2 makes u = -ln 2
    # and g = 1/2; y=1, g_cur = g_prev = 1/2, beta = 0.5 gives
    # y' = 0.5*(1 + 1/2 - 1/2) + 0.5*1/2
    n = 3
    rbar = np.full(n, 2.0 * np.log(1.5) / np.log(2.0))
    pool = channels.SampleSet(np.tile(np.eye(K, dtype=complex), (n, 1, 1)), np.full((n, K), 0.5), rbar)
    state = fresh_state(zero_params(), beta=0.5, y=1.0)
    out = trainer.scsc_step(state, NOISE, pool, pool)
    assert out.y == pytest.approx(0.75, abs=1e-12)
    assert out.step == 1
    assert out.params_prev is state.params


def test_constant_losses_fix_params():
    pool = constant_pool()
    state = fresh_state(zero_params(), y=1.0)
    out = trainer.scsc_step(state, NOISE, pool, pool)
    assert np.array_equal(out.params.values, state.params.values)
    assert out.y == 1.0


def test_uninitialized_y_rejected():
    pool = constant_pool()
    with pytest.raises(ValueError, match="not initialized"):
        trainer.scsc_step(fresh_state(zero_params()), NOISE, pool, pool)


def test_collapse_raises_with_step():
    pool = constant_pool()
    state = fresh_state(zero_params(), y=1e-9, step=7)
    with pytest.raises(TrackingCollapseError, match="step 7"):
        trainer.scsc_step(state, NOISE, pool, pool)


# ---------------------------------------------------------------- scsc_train

def test_zero_iters_returns_state_unchanged():
    pool = constant_pool()
    state = fresh_state(zero_params())
    out = trainer.scsc_train(state, NOISE, pool, iters=0, minibatch_size=2)
    assert out is state


def test_y_converges_geometrically_on_fixture():
    # constant g = 1: starting from y = 0.5, y_k - 1 shrinks by (1 - beta)
    pool = constant_pool()
    beta = 0.25
    state = fresh_state(zero_params(), beta=beta, y=0.5)
    for k in range(1, 11):
        state = trainer.scsc_train(state, NOISE, pool, iters=1, minibatch_size=2)
        assert state.y - 1.0 == pytest.approx(-0.5 * (1 - beta) ** k, rel=1e-12)


def test_y_initialized_from_first_minibatch():
    rng = np.random.default_rng(2)
    params = model.init(SIZES, 1.0, rng)
    pool = labeled_batch(rng, 8)
    state = trainer.init_state(params, alpha=1e-3, beta=0.2, rng=np.random.default_rng(3))
    out = trainer.scsc_train(state, NOISE, pool, iters=1, minibatch_size=4)
    # replay the draws: y0 = g on the phi batch, and one step leaves y at y0
    r = np.random.default_rng(3)
    r.integers(0, 8, 4)
    phi = pool.take(r.integers(0, 8, 4))
    assert out.y == pytest.approx(objective.g_value(NOISE, params, phi), rel=1e-12)


def test_scsc_deterministic():
    rng = np.random.default_rng(4)
    params = model.init(SIZES, 1.0, rng)
    pool = labeled_batch(rng, 12)

    def run():
        state = trainer.init_state(params, alpha=0.01, beta=0.2, rng=np.random.default_rng(9))
        return trainer.scsc_train(state, NOISE, pool, iters=40, minibatch_size=4)

    a, b = run(), run()
    assert np.array_equal(a.params.values, b.params.values)
    assert a.y == b.y and a.step == b.step == 40


def test_tracking_error_contracts():
    rng = np.random.default_rng(5)
    params = model.init(SIZES, 1.0, rng)
    pool = labeled_batch(rng, 20)
    state = trainer.init_state(params, alpha=0.005, beta=0.05, rng=np.random.default_rng(6))
    rows = []
    trainer.scsc_train(state, NOISE, pool, iters=400, minibatch_size=5, trace=rows)
    errs = np.array([r.tracking_error for r in rows])
    assert errs[-50:].mean() < errs[:50].mean()
    assert min(r.y for r in rows) >= 1e-8


# ---------------------------------------------------------------- gd_train

def test_gd_zero_gradient_fixture():
    pool = constant_pool()
    params = zero_params()
    out = trainer.gd_train(params, NOISE, pool, iters=5, alpha=0.1)
    assert np.array_equal(out.values, params.values)


def test_gd_zero_alpha():
    rng = np.random.default_rng(7)
    params = model.init(SIZES, 1.0, rng)
    out = trainer.gd_train(params, NOISE, labeled_batch(rng, 4), iters=3, alpha=0.0)
    assert np.array_equal(out.values, params.values)


def test_gd_descends_and_trend():
    rng = np.random.default_rng(8)
    params = model.init(SIZES, 1.0, rng)
    pool = labeled_batch(rng, 8)
    rows = []
    trainer.gd_train(params, NOISE, pool, iters=300, alpha=0.05, trace=rows)
    norms2 = np.array([r.grad_norm for r in rows]) ** 2
    assert rows[-1].objective < rows[0].objective
    assert norms2.min() < norms2[:30].min()


def test_gd_divergence_error():
    # distant labels give gradients ~1e4; this alpha overflows the update
    pool = zero_gain_set(2, [1e4, 0.5], rbar=1.0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError, match="alpha"):
        trainer.gd_train(zero_params(), NOISE, pool, iters=2, alpha=1e306)


# ---------------------------------------------------------------- sgd_train

def test_sgd_zero_upstream_fixture():
    params = zero_params()
    pool = zero_gain_set(4, np.full(K, 0.5))
    out = trainer.sgd_train(params, pool, 5, 2, 0.5, np.random.default_rng(0))
    assert np.array_equal(out.values, params.values)


def test_sgd_zero_epochs():
    rng = np.random.default_rng(10)
    params = model.init(SIZES, 1.0, rng)
    out = trainer.sgd_train(params, labeled_batch(rng, 4), 0, 2, 0.1, rng)
    assert out is params


def test_sgd_overfits_tiny_set():
    rng = np.random.default_rng(11)
    params = model.init((K * K, 8, K), 1.0, rng)
    pool = channels.gen_rayleigh(K, 4, rng)
    pool.labels[:] = rng.uniform(0.2, 0.8, size=(4, K))
    out = trainer.sgd_train(params, pool, 500, 2, 0.5, np.random.default_rng(12))
    final = np.mean([objective.loss_upper(out, pool[i : i + 1])[0] for i in range(len(pool))])
    assert final < 1e-3


# ---------------------------------------------------------------- gda_train

def test_gda_identical_losses_keep_uniform_dual():
    rng = np.random.default_rng(13)
    pool = labeled_batch(rng, 1).take([0] * 5)
    params = model.init(SIZES, 1.0, rng)
    _, lam = trainer.gda_train(params, pool, 20, 0.01, 0.1)
    assert_allclose(lam, np.full(5, 0.2), rtol=0, atol=0)


def test_gda_single_sample_dual_stays_one():
    rng = np.random.default_rng(14)
    pool = labeled_batch(rng, 1)
    params = model.init(SIZES, 1.0, rng)
    _, lam = trainer.gda_train(params, pool, 10, 0.01, 0.1)
    assert lam.tolist() == [1.0]


def test_gda_dual_follows_closed_form():
    # frozen theta (alpha_theta = 0): ell_1 = 0.25, ell_2 = 0 are constants,
    # so lam_1 after k steps from the uniform dual is 1 / (1 + c^k) with
    # c = exp(-alpha_lambda/4)
    pool = channels.SampleSet(np.zeros((2, K, K), dtype=complex), np.array([[1.0, 0.5], [0.5, 0.5]]))
    params = zero_params()
    alpha_lambda = 0.8
    c = np.exp(-alpha_lambda * 0.25)
    prev = 0.5
    for k in range(1, 12):
        _, lam = trainer.gda_train(params, pool, k, 0.0, alpha_lambda)
        assert lam[0] == pytest.approx(1.0 / (1.0 + c**k), rel=1e-12)
        assert lam[0] > prev
        assert lam.sum() == pytest.approx(1.0, abs=1e-12)
        prev = lam[0]


def test_gda_validation():
    rng = np.random.default_rng(15)
    pool = labeled_batch(rng, 3)
    params = model.init(SIZES, 1.0, rng)
    with pytest.raises(ValueError, match="alpha_lambda"):
        trainer.gda_train(params, pool, 1, 0.1, 0.1)
    with pytest.raises(ValueError, match="nonnegative"):
        trainer.gda_train(params, pool, 1, -0.1, 0.1)
    with pytest.raises(ValueError, match="empty"):
        trainer.gda_train(params, pool.take(np.arange(0)), 1, 0.01, 0.1)


# ---------------------------------------------------------------- plumbing

def test_state_validation():
    p = zero_params()
    with pytest.raises(ValueError, match="alpha"):
        trainer.TrainerState(p, p, None, 0, 0.0, 0.5, np.random.default_rng(0))
    with pytest.raises(ValueError, match="beta"):
        trainer.TrainerState(p, p, None, 0, 0.1, 1.5, np.random.default_rng(0))


# ------------------------------- array-backed against per-call references

# (K, hidden sizes, minibatch): a tiny, the small and the stock network
SHAPES = ((2, (6,), 4), (3, (16,), 20), (10, (200, 80), 50))


def reference_case(k, hidden, draw, n=60):
    rng = np.random.default_rng(100 * k + draw)
    pool = labeled_batch(rng, n, k)
    sizes = (k * k, *hidden, k)
    return rng, pool, model.init(sizes, 1.0, rng), model.init(sizes, 1.0, rng)


@pytest.mark.parametrize("k, hidden, mb", SHAPES)
@pytest.mark.parametrize("draw", range(4))
def test_fused_step_matches_unfused_reference(k, hidden, mb, draw):
    rng, pool, params, prev = reference_case(k, hidden, draw)
    batch = objective.as_batch(pool)
    for _ in range(5):
        xi_idx = rng.integers(0, len(pool), mb)
        phi_idx = rng.integers(0, len(pool), mb)
        xi = pool.take(xi_idx)
        phi = pool.take(phi_idx)
        state = trainer.TrainerState(params, prev, 0.5 + rng.random(), 3, 0.1, 0.2, np.random.default_rng(0))
        want = scsc_step_unfused(state, NOISE, xi, phi)
        for got in (
            trainer.scsc_step(state, NOISE, xi, phi),
            trainer.scsc_step(state, NOISE, batch.take(xi_idx), batch.take(phi_idx)),
        ):
            # y reads only g's values, whose arithmetic is unchanged
            assert got.y == want.y
            assert got.step == want.step and got.params_prev is state.params
            # one backward over [phi; xi] sums the two pull-backs in another order
            assert rel_error(got.params.values, want.params.values) <= 1e-12
            step = want.params.values - params.values
            assert np.linalg.norm(got.params.values - want.params.values) <= 1e-12 * np.linalg.norm(step)


@pytest.mark.parametrize("k, hidden, mb", SHAPES)
@pytest.mark.parametrize("draw", range(4))
def test_sgd_and_gda_bitwise_equal_list_reference(k, hidden, mb, draw):
    _, pool, params, _ = reference_case(k, hidden, draw)
    got = trainer.sgd_train(params, pool, 2, mb, 0.1, np.random.default_rng(1))
    want = sgd_train_lists(params, pool, 2, mb, 0.1, np.random.default_rng(1))
    assert np.array_equal(got.values, want.values)

    got_params, got_lam = trainer.gda_train(params, pool, 5, 0.05, 0.5)
    want_params, want_lam = gda_train_lists(params, np.full(len(pool), 1 / len(pool)), pool, 5, 0.05, 0.5)
    assert np.array_equal(got_params.values, want_params.values)
    assert np.array_equal(got_lam, want_lam)
    # Minimax keeps the largest final dual weights
    assert np.array_equal(memory.top_m_indices(got_lam, 10), memory.top_m_indices(want_lam, 10))


@pytest.mark.parametrize("k, hidden, mb", SHAPES)
@pytest.mark.parametrize("draw", range(4))
def test_lower_values_and_bilevel_selection_bitwise_equal_list_reference(k, hidden, mb, draw):
    rng, pool, params, _ = reference_case(k, hidden, draw)
    want = lower_values_lists(NOISE, params, pool)
    idx = rng.permutation(len(pool))[:mb]
    batch = objective.as_batch(pool, need_ell=False)
    for got in (
        objective.lower_values(NOISE, params, pool),
        objective.lower_values(NOISE, params, batch),
    ):
        assert np.array_equal(got, want)
    assert np.array_equal(
        objective.lower_values(NOISE, params, batch.take(idx)),
        lower_values_lists(NOISE, params, pool.take(idx)),
    )
    kept = memory.update_bilevel(range(len(pool)), objective.lower_values(NOISE, params, pool), 10)
    assert kept == memory.top_m_indices(want, 10).tolist()


def test_pool_checks_raise_once_per_pool():
    # a sample without a label anywhere in the pool stops the run before a
    # step, whichever minibatches would have drawn it; a SampleSet marks it
    # with NaN
    rng = np.random.default_rng(16)
    params = model.init(SIZES, 1.0, rng)
    pool = labeled_batch(rng, 6)
    pool.labels[4] = np.nan
    with pytest.raises(ValueError, match="sample 4 has no p_label"):
        trainer.sgd_train(params, pool, 1, 2, 0.1, rng)
    with pytest.raises(ValueError, match="sample 4 has no p_label"):
        trainer.scsc_train(trainer.init_state(params, rng=rng), NOISE, pool, 1, 2)
    pool = labeled_batch(rng, 6)
    pool.rbar[2] = np.nan
    with pytest.raises(ValueError, match="sample 2 is degenerate: rbar must be positive, got None"):
        trainer.scsc_train(trainer.init_state(params, rng=rng), NOISE, pool, 1, 2)
    # SGD reads no rbar
    trainer.sgd_train(params, pool, 1, 2, 0.1, rng)


def _bits(values):
    return values.tobytes()


@pytest.mark.parametrize("k, hidden, mb", SHAPES)
@pytest.mark.parametrize("draw", range(4))
def test_scsc_train_equals_steps_on_separate_takes(k, hidden, mb, draw):
    # scsc_train takes phi's and xi's rows in one take; a loop of scsc_step
    # on two takes of the same draws gives the same bits
    _, pool, params, _ = reference_case(k, hidden, draw)
    got = trainer.scsc_train(trainer.init_state(params, 0.05, 0.2, rng=np.random.default_rng(7)), NOISE, pool, 5, mb)
    rng = np.random.default_rng(7)
    want = trainer.init_state(params, 0.05, 0.2, rng=rng)
    for _ in range(5):
        xi = pool.take(rng.integers(0, len(pool), mb))
        phi = pool.take(rng.integers(0, len(pool), mb))
        if want.y is None:
            want = trainer.TrainerState(params, params, objective.g_value(NOISE, params, phi), 0, 0.05, 0.2, rng)
        want = trainer.scsc_step(want, NOISE, xi, phi)
    assert got.y == want.y and got.step == want.step == 5
    assert _bits(got.params.values) == _bits(want.params.values)
    assert _bits(got.params_prev.values) == _bits(want.params_prev.values)


@pytest.mark.parametrize("draw", range(4))
def test_updates_never_write_a_live_parameter_vector(draw):
    # every trainer builds its next parameters in the gradient that
    # model.backward returned: the vectors a step reads stay as they were
    rng, pool, params, prev = reference_case(3, (16,), draw)
    kept, kept_prev = _bits(params.values), _bits(prev.values)

    state = trainer.TrainerState(params, prev, 1.0, 3, 0.1, 0.2, np.random.default_rng(0))
    out = trainer.scsc_step(state, NOISE, pool.take(np.arange(0, 20)), pool.take(np.arange(20, 40)))
    assert _bits(state.params.values) == kept and _bits(state.params_prev.values) == kept_prev
    assert out.params_prev is params and not np.shares_memory(out.params.values, params.values)
    trained = trainer.scsc_train(state, NOISE, pool, 3, 20)
    assert _bits(params.values) == kept and _bits(prev.values) == kept_prev
    assert not np.shares_memory(trained.params.values, params.values)

    got = trainer.sgd_train(params, pool, 2, 20, 0.1, np.random.default_rng(1))
    assert _bits(params.values) == kept and not np.shares_memory(got.values, params.values)
    got, _ = trainer.gda_train(params, pool, 3, 0.05, 0.5)
    assert _bits(params.values) == kept and not np.shares_memory(got.values, params.values)

    _, trace = model.forward(params, pool.mag.reshape(len(pool), -1))
    grad = model.backward(params, trace, rng.standard_normal(trace.outputs.shape))
    assert not np.shares_memory(grad, params.values)
    assert not any(np.shares_memory(grad, a) for a in trace.inputs)
