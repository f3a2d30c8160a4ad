import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from faircl import channels, model, objective, wsr

from oracles import fd_gradient, rel_error

K = 2
SIZES = (K * K, 5, K)
NOISE = 1.0  # the noise power the labels are solved at


def zero_params(sizes=SIZES, p_max=1.0):
    return model.ModelParams(sizes, np.zeros(model.param_count(sizes)), p_max)


def rand_params(rng, sizes=SIZES, p_max=1.0):
    return model.init(sizes, p_max, rng)


def labeled_batch(rng, n, k=K):
    batch = channels.gen_rayleigh(k, n, rng)
    channels.add_wmmse_labels(batch)
    return batch


def zero_gain_set(n=1, k=K, p_label=None, rbar=None):
    # n zero-gain samples that share one label and one rbar, or have none
    labels = None if p_label is None else np.tile(np.asarray(p_label, dtype=float), (n, 1))
    return channels.SampleSet(np.zeros((n, k, k), dtype=complex), labels, None if rbar is None else np.full(n, rbar))


def rows(samples):
    # each sample of a set as a one-row set
    return [samples[i : i + 1] for i in range(len(samples))]


# ---------------------------------------------------------------- losses

def test_mse_loss_zero_at_label():
    params = zero_params()
    sample = zero_gain_set(p_label=np.full(K, 0.5))
    value, grad = objective.loss_upper(params, sample)
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_mse_loss_closed_form():
    params = zero_params()
    sample = zero_gain_set(p_label=np.array([1.5, 0.5]))
    value, _ = objective.loss_upper(params, sample)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_u_ratio_mode_divides_by_rbar():
    # u is minus the policy's sum rate, at the noise given, over the sample's rbar
    rng = np.random.default_rng(9)
    params = rand_params(rng)
    sample = labeled_batch(rng, 1)
    u, _ = objective.loss_lower_u(NOISE, params, sample)
    assert -1.5 < u < 0.0  # policy can't beat the solver label by 50%
    p, _ = model.forward(params, sample.mag.reshape(1, -1))
    for noise in (NOISE, 0.5):
        rate = wsr.sum_rate(wsr.problem_from_channel(sample.h[0], noise=noise), p[0])
        assert objective.loss_lower_u(noise, params, sample)[0] == pytest.approx(-rate / sample.rbar[0], rel=1e-12)


def test_missing_label_raises():
    sample = channels.gen_rayleigh(K, 1, np.random.default_rng(0))
    with pytest.raises(ValueError, match="p_label"):
        objective.loss_upper(zero_params(), sample)


def test_degenerate_rbar_raises():
    sample = zero_gain_set(p_label=np.full(K, 0.5))
    sample.rbar[0] = 0.0
    with pytest.raises(ValueError, match="rbar"):
        objective.loss_lower_u(NOISE, zero_params(), sample)


def test_empty_batch_raises():
    with pytest.raises(ValueError, match="empty"):
        objective.full_objective(NOISE, zero_params(), zero_gain_set(0))


def test_u_guard_raises():
    # an rbar at 1e-3 of the solver's puts the rate ratio, and so |u|, far past the guard
    sample = labeled_batch(np.random.default_rng(10), 1)
    sample.rbar[:] *= 1e-3
    with pytest.raises(ValueError, match="guard"):
        objective.loss_lower_u(NOISE, zero_params(), sample)
    # a NaN u elsewhere in the batch does not hide the violation
    nan_sample = channels.SampleSet(np.full((1, K, K), np.nan, dtype=complex), np.full((1, K), 0.5), np.ones(1))
    with pytest.raises(ValueError, match="guard"):
        objective.lower_values(NOISE, zero_params(), channels.SampleSet.concat([nan_sample, sample]))


# ---------------------------------------------------------------- weights

def test_softmax_equal_inputs():
    assert_allclose(objective.softmax_weights([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=0)


def test_softmax_known_pair():
    w = objective.softmax_weights([1.0, 0.0])
    assert_allclose(w, [0.7310585786300049, 0.2689414213699951], atol=1e-15)


def test_softmax_simplex_and_order():
    rng = np.random.default_rng(11)
    u = rng.uniform(-5, 5, size=40)
    w = objective.softmax_weights(u)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)
    assert_allclose(np.argsort(w), np.argsort(u))


def test_softmax_shift_invariant():
    u = np.array([0.3, -1.2, 2.5, 0.0])
    assert_allclose(
        objective.softmax_weights(u), objective.softmax_weights(u + 37.0), atol=1e-15
    )


def test_softmax_guard_and_shape():
    with pytest.raises(ValueError, match="guard"):
        objective.softmax_weights([51.0, 0.0])
    with pytest.raises(ValueError):
        objective.softmax_weights([])
    with pytest.raises(ValueError):
        objective.softmax_weights(np.zeros((2, 2)))


# ---------------------------------------------------------------- g and f

def test_g_is_one_when_u_zero():
    # zero gains make every rate 0, so u = -0/rbar = 0
    batch = zero_gain_set(4, p_label=np.full(K, 0.5), rbar=1.0)
    value, grad = objective.g_eval(NOISE, zero_params(), batch)
    assert value == 1.0
    assert np.all(grad == 0.0)


def test_f_closed_form():
    # u = 0 and ell = 2 on every sample: f(z=1) = 2, df/dz = -2
    label = np.array([1.5, 1.5])  # outputs are (0.5, 0.5), so ||p - pi||^2 = 2
    batch = zero_gain_set(3, p_label=label, rbar=1.0)
    value, grad1, _ = objective.f_eval(NOISE, zero_params(), batch, z=1.0)
    assert value == pytest.approx(2.0, abs=1e-15)
    assert grad1 == pytest.approx(-2.0, abs=1e-15)
    value2, grad1_2, _ = objective.f_eval(NOISE, zero_params(), batch, z=2.0)
    assert value2 == pytest.approx(1.0, abs=1e-15)
    assert grad1_2 == pytest.approx(-0.5, abs=1e-15)


def test_f_floor_raises():
    batch = zero_gain_set(p_label=np.full(K, 0.5), rbar=1.0)
    with pytest.raises(objective.TrackingCollapseError):
        objective.f_eval(NOISE, zero_params(), batch, z=1e-9)
    with pytest.raises(objective.TrackingCollapseError):
        objective.f_eval(NOISE, zero_params(), batch, z=float("nan"))


def test_g_value_matches_g_eval():
    rng = np.random.default_rng(12)
    params = rand_params(rng)
    batch = labeled_batch(rng, 6)
    value, _ = objective.g_eval(NOISE, params, batch)
    assert objective.g_value(NOISE, params, batch) == value


def test_lower_values_match_single_sample_op():
    rng = np.random.default_rng(13)
    params = rand_params(rng)
    batch = labeled_batch(rng, 5)
    us = objective.lower_values(NOISE, params, batch)
    singles = [objective.loss_lower_u(NOISE, params, s)[0] for s in rows(batch)]
    assert_allclose(us, singles, rtol=1e-13)


# ---------------------------------------------------------------- gradients

def test_full_objective_gradient():
    rng = np.random.default_rng(14)
    params = rand_params(rng)
    batch = labeled_batch(rng, 6)
    _, grad = objective.full_objective(NOISE, params, batch)

    def value_at(v):
        p = model.ModelParams(params.layer_sizes, v, params.p_max)
        return objective.full_objective(NOISE, p, batch)[0]

    fd = fd_gradient(value_at, params.values)
    assert rel_error(grad, fd) < 1e-6


def test_single_sample_loss_gradients():
    rng = np.random.default_rng(15)
    params = rand_params(rng)
    sample = labeled_batch(rng, 1)
    for op in (objective.loss_upper, functools.partial(objective.loss_lower_u, NOISE)):
        _, grad = op(params, sample)

        def value_at(v, op=op):
            return op(model.ModelParams(params.layer_sizes, v, params.p_max), sample)[0]

        assert rel_error(grad, fd_gradient(value_at, params.values)) < 1e-6


def test_g_eval_gradient():
    rng = np.random.default_rng(16)
    params = rand_params(rng)
    batch = labeled_batch(rng, 5)
    _, grad = objective.g_eval(NOISE, params, batch)

    def value_at(v):
        return objective.g_value(NOISE, model.ModelParams(params.layer_sizes, v, params.p_max), batch)

    assert rel_error(grad, fd_gradient(value_at, params.values)) < 1e-6


def test_f_eval_gradients():
    rng = np.random.default_rng(17)
    params = rand_params(rng)
    batch = labeled_batch(rng, 5)
    z0 = 0.9
    _, grad1, grad2 = objective.f_eval(NOISE, params, batch, z=z0)

    def value_at_theta(v):
        p = model.ModelParams(params.layer_sizes, v, params.p_max)
        return objective.f_eval(NOISE, p, batch, z=z0)[0]

    def value_at_z(z):
        return objective.f_eval(NOISE, params, batch, z=z[0])[0]

    assert rel_error(grad2, fd_gradient(value_at_theta, params.values)) < 1e-6
    assert rel_error(np.array([grad1]), fd_gradient(value_at_z, np.array([z0]))) < 1e-8


# ---------------------------------------------------------------- identity

def test_chain_rule_matches_weighted_form():
    # the compositional pieces at z = g(theta) must rebuild F and grad F
    rng = np.random.default_rng(18)
    for _ in range(5):
        params = rand_params(rng)
        batch = labeled_batch(rng, 8)
        ev = objective.eval_composition(NOISE, params, batch)
        value, grad = objective.full_objective(NOISE, params, batch)
        chain = ev.grad_g * ev.grad1_f + ev.grad2_f
        assert abs(ev.f_value - value) <= 1e-10 * max(1.0, abs(value))
        assert rel_error(chain, grad) <= 1e-10


def test_eval_composition_matches_parts():
    rng = np.random.default_rng(19)
    params = rand_params(rng)
    batch = labeled_batch(rng, 4)
    ev = objective.eval_composition(NOISE, params, batch, z=1.7)
    gv, gg = objective.g_eval(NOISE, params, batch)
    fv, g1, g2 = objective.f_eval(NOISE, params, batch, z=1.7)
    assert ev.g_value == gv
    assert ev.f_value == fv
    assert ev.grad1_f == g1
    assert_allclose(ev.grad_g, gg, rtol=0, atol=0)
    assert_allclose(ev.grad2_f, g2, rtol=0, atol=0)


def test_full_objective_matches_per_sample_reference():
    # independent reconstruction from single-sample ops
    rng = np.random.default_rng(20)
    params = rand_params(rng)
    batch = labeled_batch(rng, 6)
    ells, gells, us, gus = [], [], [], []
    for s in rows(batch):
        e, ge = objective.loss_upper(params, s)
        u, gu = objective.loss_lower_u(NOISE, params, s)
        ells.append(e), gells.append(ge), us.append(u), gus.append(gu)
    lam = objective.softmax_weights(us)
    f_ref = float(lam @ np.array(ells))
    g_ref = sum(
        l * (ge + (e - f_ref) * gu) for l, e, ge, gu in zip(lam, ells, gells, gus)
    )
    value, grad = objective.full_objective(NOISE, params, batch)
    assert value == pytest.approx(f_ref, rel=1e-12)
    assert rel_error(grad, g_ref) < 1e-10


def test_weighted_upper_matches_singles():
    rng = np.random.default_rng(22)
    params = rand_params(rng)
    batch = labeled_batch(rng, 5)
    w = rng.uniform(0.1, 1.0, size=5)
    ells, grad = objective.weighted_upper(params, batch, w)
    singles = [objective.loss_upper(params, s) for s in rows(batch)]
    assert_allclose(ells, [v for v, _ in singles], rtol=1e-13)
    ref = sum(wi * gi for wi, (_, gi) in zip(w, singles))
    assert rel_error(grad, ref) < 1e-12


def test_weighted_upper_gradient_and_shape_check():
    rng = np.random.default_rng(23)
    params = rand_params(rng)
    batch = labeled_batch(rng, 4)
    w = np.array([0.4, 0.1, 0.3, 0.2])
    _, grad = objective.weighted_upper(params, batch, w)

    def value_at(v):
        p = model.ModelParams(params.layer_sizes, v, params.p_max)
        ells, _ = objective.weighted_upper(p, batch, w)
        return float(w @ ells)

    assert rel_error(grad, fd_gradient(value_at, params.values)) < 1e-6
    with pytest.raises(ValueError):
        objective.weighted_upper(params, batch, w[:3])


def test_value_only_paths_skip_rate_gradients(monkeypatch):
    rng = np.random.default_rng(24)
    params = rand_params(rng)
    batch = labeled_batch(rng, 6)
    g_ref = objective.g_eval(NOISE, params, batch)[0]
    u_ref = objective._batch_terms(NOISE, params, batch).u
    f_ref = objective.full_objective(NOISE, params, batch)[0]

    def no_gradients(*args, **kwargs):
        raise AssertionError("value-only path asked for rate gradients")

    monkeypatch.setattr(wsr, "rate_and_grad_many", no_gradients)
    assert objective.g_value(NOISE, params, batch) == g_ref
    assert np.array_equal(objective.lower_values(NOISE, params, batch), u_ref)
    assert objective.pool_stats(NOISE, params, batch) == (f_ref, g_ref)


def test_pool_stats_matches_full_objective():
    rng = np.random.default_rng(21)
    params = rand_params(rng)
    batch = labeled_batch(rng, 6)
    f_val, g_val = objective.pool_stats(NOISE, params, batch)
    assert f_val == objective.full_objective(NOISE, params, batch)[0]
    assert g_val == objective.g_value(NOISE, params, batch)
