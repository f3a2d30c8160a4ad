"""Rate objective, analytic gradient, WMMSE, and grid-search oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from faircl import channels, wsr
from oracles import fd_gradient, rel_error, wmmse_sequential


def rayleigh_problem(k, rng, noise=1.0, p_max=1.0):
    h = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) / np.sqrt(2.0)
    return wsr.problem_from_channel(h, noise=noise, p_max=p_max)


# ---------------------------------------------------------------- sum_rate


def test_sum_rate_decoupled_closed_form():
    # no cross links: R = sum_k log(1 + g_kk p_k / sigma^2)
    prob = wsr.RateProblem(np.diag([1.0, 3.0]), 1.0, 1.0, p_max=1.0)
    got = wsr.sum_rate(prob, np.array([1.0, 1.0]))
    assert got == pytest.approx(math.log(2.0) + math.log(4.0), abs=1e-12)


def test_sum_rate_symmetric_two_user():
    # unit direct and cross gains at full power: SINR = 1/(1+1) = 0.5 each
    prob = wsr.RateProblem(np.ones((2, 2)), 1.0, 1.0, p_max=1.0)
    got = wsr.sum_rate(prob, np.array([1.0, 1.0]))
    assert got == pytest.approx(2.0 * math.log(1.5), abs=1e-12)


def test_sum_rate_zero_power_is_zero():
    rng = np.random.default_rng(0)
    prob = rayleigh_problem(4, rng)
    assert wsr.sum_rate(prob, np.zeros(4)) == 0.0


def test_sum_rate_weights_scale_terms():
    prob_unit = wsr.RateProblem(np.diag([1.0, 1.0]), 1.0, 1.0, p_max=1.0)
    prob_wtd = wsr.RateProblem(np.diag([1.0, 1.0]), [2.0, 5.0], 1.0, p_max=1.0)
    p = np.array([1.0, 0.5])
    r1 = wsr.sum_rate(prob_unit, p)
    r2 = wsr.sum_rate(prob_wtd, p)
    assert r2 == pytest.approx(2.0 * math.log(2.0) + 5.0 * math.log(1.5), abs=1e-12)
    assert r2 != pytest.approx(r1)


def test_sum_rate_invariant_to_row_scaling():
    # scaling row k of the gains and noise_k together leaves every SINR fixed
    rng = np.random.default_rng(3)
    prob = rayleigh_problem(3, rng)
    scale = np.array([2.0, 0.5, 7.0])
    scaled = wsr.RateProblem(prob.gains * scale[:, None], prob.weights, prob.noise * scale, prob.p_max)
    for _ in range(5):
        p = rng.uniform(0.0, 1.0, size=3)
        assert wsr.sum_rate(scaled, p) == pytest.approx(wsr.sum_rate(prob, p), rel=1e-12)


def test_sum_rate_rejects_out_of_box():
    prob = wsr.RateProblem(np.eye(2), 1.0, 1.0, p_max=1.0)
    with pytest.raises(ValueError):
        wsr.sum_rate(prob, np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        wsr.sum_rate(prob, np.array([-0.1, 0.5]))
    # a NaN entry does not hide an out-of-box one
    with pytest.raises(ValueError):
        wsr.sum_rate(prob, np.array([np.nan, 1.5]))
    with pytest.raises(ValueError):
        wsr.sum_rate(prob, np.array([-0.1, np.nan]))


def test_rate_problem_validation():
    with pytest.raises(ValueError):
        wsr.RateProblem(np.ones((2, 3)), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        wsr.RateProblem(-np.eye(2), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        wsr.RateProblem(np.eye(2), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        wsr.RateProblem(np.eye(2), 1.0, 1.0, 0.0)


# ---------------------------------------------------------------- gradient


def test_grad_decoupled_closed_form():
    prob = wsr.RateProblem(np.diag([2.0, 1.0]), 1.0, 1.0, p_max=2.0)
    p = np.array([0.5, 1.0])
    got = wsr.grad_sum_rate(prob, p)
    want = np.array([2.0 / (1.0 + 2.0 * 0.5), 1.0 / (1.0 + 1.0)])
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("k", [2, 5, 10])
def test_grad_matches_finite_differences(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(20):
        prob = rayleigh_problem(k, rng)
        p = rng.uniform(0.05, 0.95, size=k)
        fd = fd_gradient(lambda q: wsr.sum_rate(prob, q), p)
        assert rel_error(fd, wsr.grad_sum_rate(prob, p)) <= 1e-6


def test_grad_cross_term_sign():
    # raising an interferer's power can only hurt the victim's rate term
    rng = np.random.default_rng(7)
    prob = rayleigh_problem(3, rng)
    p = np.full(3, 0.5)
    grad = wsr.grad_sum_rate(prob, p)
    direct = np.diag(prob.gains)
    tot = prob.gains @ p + prob.noise
    own = prob.weights * direct / tot
    assert np.all(grad <= own + 1e-15)


# ---------------------------------------------------------------- wmmse


def test_wmmse_single_user_full_power():
    prob = wsr.RateProblem(np.array([[4.0]]), 1.0, 1.0, p_max=1.0)
    p, rate = wmmse_checked(prob)
    np.testing.assert_allclose(p, [1.0], atol=1e-9)
    assert rate == pytest.approx(math.log(5.0), abs=1e-9)


def test_wmmse_decoupled_full_power():
    prob = wsr.RateProblem(np.diag([1.0, 2.0, 0.3]), 1.0, 1.0, p_max=1.0)
    p, rate = wmmse_checked(prob)
    np.testing.assert_allclose(p, np.ones(3), atol=1e-6)


def wmmse_checked(prob, **kw):
    p, rate = wsr.wmmse(prob, **kw)
    assert np.all(p >= 0.0) and np.all(p <= prob.p_max + 1e-12)
    assert rate == pytest.approx(wsr.sum_rate(prob, p), abs=1e-12)
    return p, rate


def test_wmmse_never_below_full_power_start():
    rng = np.random.default_rng(11)
    for _ in range(50):
        prob = rayleigh_problem(4, rng)
        _, rate = wmmse_checked(prob)
        assert rate >= wsr.sum_rate(prob, np.full(4, prob.p_max)) - 1e-9
    # budgets whose np.sqrt(p_max) ** 2 rounds above p_max
    for p_max in (0.5, 2.0, 10.0):
        for _ in range(10):
            prob = rayleigh_problem(4, rng, p_max=p_max)
            _, rate = wmmse_checked(prob)
            assert rate >= wsr.sum_rate(prob, np.full(4, p_max))


def test_wmmse_dominant_interference_shuts_one_user_off():
    # overwhelming cross gain: optimal play is one active link
    gains = np.array([[1.0, 100.0], [100.0, 1.0]])
    prob = wsr.RateProblem(gains, 1.0, 1.0, p_max=1.0)
    p, rate = wmmse_checked(prob)
    assert np.min(p) < 1e-3
    assert np.max(p) > 1.0 - 1e-3


def test_wmmse_near_grid_optimum_small_sample():
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(20):
        prob = rayleigh_problem(2, rng)
        _, rate = wmmse_checked(prob)
        _, grid_rate = wsr.brute_force_opt(prob, 101)
        if rate >= 0.98 * grid_rate:
            hits += 1
    assert hits >= 19


def test_wmmse_rejects_bad_iters():
    prob = wsr.RateProblem(np.eye(2), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        wsr.wmmse(prob, max_iters=0)


# ------------------------------------------------------- batched wmmse


def stock_gains(k, n, rng):
    """n samples from each of the four stock families, stacked as |h|^2."""
    draws = channels.SampleSet.concat([
        channels.gen_rayleigh(k, n, rng),
        channels.gen_rician(k, n, rng),
        channels.gen_geometry(k, n, 10.0, rng),
        channels.gen_geometry(k, n, 50.0, rng),
    ])
    return np.abs(np.array([s.h for s in draws])) ** 2


def assert_matches_sequential(gains, noise, p_max, weights, max_iters):
    powers, rates = wsr.wmmse_many(gains, noise, p_max, weights, max_iters)
    assert powers.shape == gains.shape[:2] and rates.shape == gains.shape[:1]
    for i, g in enumerate(gains):
        p, rate = wmmse_sequential(wsr.RateProblem(g, weights, noise, p_max), max_iters)
        assert np.array_equal(powers[i], p) and rates[i] == rate, (i, rates[i], rate)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
def test_wmmse_many_bitwise_equal_sequential_reference(k):
    rng = np.random.default_rng(100 + k)
    for p_max in (0.5, 1.0, 2.0, 10.0):
        for noise, weights in ((1.0, 1.0), (0.7, rng.uniform(0.5, 2.0, k))):
            for max_iters in (1, 500):
                assert_matches_sequential(stock_gains(k, 2, rng), noise, p_max, weights, max_iters)


def test_wmmse_many_blocks_bitwise_equal_sequential_reference(monkeypatch):
    rng = np.random.default_rng(31)
    # K=10 blocks of 14750 // (100 + 15 * 10) = 59 samples, so 3 blocks, the
    # last ragged (a stock K=10 block is 655 samples)
    monkeypatch.setattr(wsr, "_BLOCK_ENTRIES", 14750)
    gains = stock_gains(10, 33, rng)[:130]
    assert_matches_sequential(gains, 0.7, 2.0, rng.uniform(0.5, 2.0, 10), 500)
    # small blocks at K=3: 270 // (9 + 15 * 3) = 5 samples per block
    monkeypatch.setattr(wsr, "_BLOCK_ENTRIES", 270)
    gains = stock_gains(3, 6, rng)[:23]
    for max_iters in (1, 500):
        assert_matches_sequential(gains, 1.3, 0.5, 1.0, max_iters)


def test_wmmse_many_corner_cases_bitwise_equal_sequential_reference():
    # wmmse_many scores the corner starts in closed form; the reference
    # sweeps them, so these draws pin the two to the same bits
    zero_direct = np.array([[[0.0, 1.0], [3.0, 2.0]], [[0.0, 2.0], [2.0, 0.0]]])
    # 1 - u a v rounds to 0 at user 0's corner, whose sweep goes NaN; the
    # last draw's user 0 signal overflows at p_max = 2, where its rate is NaN
    huge = np.array([[[1e20, 1.0], [1.0, 1.0]], [[1e20, 1e30], [1e30, 1e20]],
                     [[1.7e308, 1.0], [1.0, 1.0]]])
    one_user = np.array([[[4.0]], [[0.0]], [[1e20]]])
    # at p_max = 1 the full-power sweep ends at rate 0.0197, and user 0's
    # corner has log(2)
    corner_won = np.array([[[1.0, 100.0], [100.0, 1.0]]])
    for p_max in (0.5, 1.0, 2.0):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for gains in (zero_direct, huge, one_user, corner_won):
                assert_matches_sequential(gains, 1.0, p_max, 1.0, 500)
        powers, _ = wsr.wmmse_many(corner_won, p_max=p_max)
        assert np.array_equal(powers[0], [min(np.sqrt(p_max) ** 2, p_max), 0.0])


def test_wmmse_many_sweeps_only_full_power_rows(monkeypatch):
    # the first rates wmmse_many asks for are its starts: one row per
    # sample, as the corners are never swept
    rows = []
    rate_many = wsr.sum_rate_many

    def spy(gains, powers, *args):
        rows.append(len(powers))
        return rate_many(gains, powers, *args)

    monkeypatch.setattr(wsr, "sum_rate_many", spy)
    gains = stock_gains(4, 3, np.random.default_rng(47))
    wsr.wmmse_many(gains)
    assert rows[0] == len(gains) == 12 and max(rows) == len(gains)


def test_wmmse_is_one_row_of_wmmse_many():
    rng = np.random.default_rng(37)
    gains = stock_gains(4, 3, rng)
    powers, rates = wsr.wmmse_many(gains, 0.7, 2.0)
    for i, g in enumerate(gains):
        p, rate = wsr.wmmse(wsr.RateProblem(g, 1.0, 0.7, 2.0))
        assert np.array_equal(p, powers[i]) and rate == rates[i] and type(rate) is float


def test_wmmse_many_ignores_memory_layout():
    # a strided or Fortran-ordered stack gives the bits of its C-ordered copy
    gains = stock_gains(4, 20, np.random.default_rng(53))[::2]
    want = wsr.wmmse_many(np.ascontiguousarray(gains), 0.7, 2.0)
    for view in (gains, np.asfortranarray(gains)):
        got = wsr.wmmse_many(view, 0.7, 2.0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_wmmse_many_ties_keep_the_first_start():
    # symmetric strong interference: every corner reaches the same rate
    gains = np.full((1, 3, 3), 50.0)
    gains[0][np.diag_indices(3)] = 2.0
    assert_matches_sequential(gains, 1.0, 1.0, 1.0, 500)
    powers, _ = wsr.wmmse_many(gains)
    assert np.array_equal(powers[0], [1.0, 0.0, 0.0])


def test_wmmse_many_empty_stack():
    powers, rates = wsr.wmmse_many(np.zeros((0, 3, 3)))
    assert powers.shape == (0, 3) and rates.shape == (0,)


def test_wmmse_many_rejects_what_rate_problem_rejects():
    good = np.ones((2, 3, 3))

    def with_gain(x):
        gains = good.copy()
        gains[1, 0, 2] = x
        return gains

    bad_cases = [
        (-good, 1.0, 1.0),
        (with_gain(np.nan), 1.0, 1.0),
        (with_gain(np.inf), 1.0, 1.0),
        (with_gain(-np.inf), 1.0, 1.0),
        (good, 0.0, 1.0),
        (good, -1.0, 1.0),
        (good, 1.0, 0.0),
        (good, 1.0, -2.0),
    ]
    for gains, noise, p_max in bad_cases:
        with pytest.raises(ValueError) as want:
            wsr.RateProblem(gains[1], 1.0, noise, p_max)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            wsr.wmmse_many(gains, noise, p_max)
    with pytest.raises(ValueError, match="max_iters must be >= 1"):
        wsr.wmmse_many(good, max_iters=0)
    with pytest.raises(ValueError, match="square"):
        wsr.wmmse_many(np.ones((2, 3, 2)))


def wmmse_peak_bytes(rng, n, k):
    """tracemalloc peak of one wmmse_many call on n random K x K gain matrices."""
    gains = np.abs(rng.standard_normal((n, k, k))) ** 2
    tracemalloc.start()
    try:
        wsr.wmmse_many(gains)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wmmse_many_working_set_does_not_grow_with_n():
    rng = np.random.default_rng(41)
    small, large = wmmse_peak_bytes(rng, 2000, 10), wmmse_peak_bytes(rng, 8000, 10)
    # one unblocked batch of 8000 K=10 samples peaks at 21.6 MB
    assert large < 4e6
    assert large < 1.5 * small


def test_wmmse_many_working_set_at_small_k_does_not_grow_with_n():
    # at K=3 a sample's K-vectors outweigh its 9 gains; a budget of gains
    # alone would let one block grow to 18204 samples
    rng = np.random.default_rng(43)
    small, large = wmmse_peak_bytes(rng, 4000, 3), wmmse_peak_bytes(rng, 8000, 3)
    assert large < 2e6
    assert large < 1.25 * small


# ---------------------------------------------------------------- grid oracle


def test_brute_force_decoupled_picks_corner():
    prob = wsr.RateProblem(np.diag([1.0, 5.0]), 1.0, 1.0, p_max=1.0)
    p, rate = wsr.brute_force_opt(prob, 21)
    np.testing.assert_allclose(p, [1.0, 1.0], atol=0)
    assert rate == pytest.approx(math.log(2.0) + math.log(6.0), abs=1e-12)


def test_brute_force_strong_interference_picks_single_user():
    gains = np.array([[1.0, 50.0], [50.0, 1.0]])
    prob = wsr.RateProblem(gains, 1.0, 1.0, p_max=1.0)
    p, _ = wsr.brute_force_opt(prob, 51)
    assert sorted(p) == [0.0, 1.0]


def test_brute_force_beats_random_points():
    rng = np.random.default_rng(5)
    prob = rayleigh_problem(2, rng)
    _, best = wsr.brute_force_opt(prob, 101)
    for _ in range(200):
        p = rng.uniform(0.0, 1.0, size=2)
        assert best >= wsr.sum_rate(prob, p) - 0.05  # grid resolution slack


def test_brute_force_k_guard():
    prob = wsr.RateProblem(np.eye(4), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="K <= 3"):
        wsr.brute_force_opt(prob, 11)


# ---------------------------------------------------------------- batch helpers


def test_batched_rate_and_grad_match_scalar_paths():
    rng = np.random.default_rng(17)
    k = 3
    gains = np.abs(rng.standard_normal((8, k, k))) ** 2
    powers = rng.uniform(0.0, 1.0, size=(8, k))
    rates = wsr.sum_rate_many(gains, powers, noise=0.7, weights=1.0)
    grads = wsr.grad_sum_rate_many(gains, powers, noise=0.7, weights=1.0)
    for i in range(8):
        prob = wsr.RateProblem(gains[i], 1.0, 0.7, p_max=1.0)
        assert rates[i] == pytest.approx(wsr.sum_rate(prob, powers[i]), rel=1e-12)
        np.testing.assert_allclose(grads[i], wsr.grad_sum_rate(prob, powers[i]), rtol=1e-12)


def test_fused_rate_and_grad_bitwise_equal_separate_paths():
    rng = np.random.default_rng(23)
    for k, n in ((2, 1), (3, 8), (5, 3), (10, 50)):
        gains = np.abs(rng.standard_normal((n, k, k))) ** 2
        powers = rng.uniform(0.0, 1.0, size=(n, k))
        powers[0, 0] = 0.0
        powers[-1, -1] = 1.0
        rates, grads = wsr.rate_and_grad_many(gains, powers, noise=0.7)
        assert np.array_equal(rates, wsr.sum_rate_many(gains, powers, noise=0.7))
        assert np.array_equal(grads, wsr.grad_sum_rate_many(gains, powers, noise=0.7))
