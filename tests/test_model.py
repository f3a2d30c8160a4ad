"""Policy network: shapes, init, forward/backward, checkpoints."""

import json

import numpy as np
import pytest

from faircl import model
from conftest import through_fifo
from oracles import bad_checkpoints, checkpoint_bytes, fd_gradient, rel_error


def test_param_count():
    assert model.param_count((4, 2)) == 10
    assert model.param_count((4, 5, 2)) == 4 * 5 + 5 + 5 * 2 + 2


def test_init_shapes_and_bounds():
    rng = np.random.default_rng(0)
    params = model.init((4, 5, 2), 1.0, rng)
    assert params.values.shape == (model.param_count((4, 5, 2)),)
    layers = params.layers
    for (w, b), (fi, fo) in zip(layers, [(4, 5), (5, 2)]):
        a = np.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(w) < a)
        assert np.all(b == 0.0)


def test_init_deterministic():
    p1 = model.init((4, 5, 2), 1.0, np.random.default_rng(9))
    p2 = model.init((4, 5, 2), 1.0, np.random.default_rng(9))
    np.testing.assert_array_equal(p1.values, p2.values)


def test_forward_zero_params_gives_half_pmax():
    params = model.ModelParams((4, 3, 2), np.zeros(model.param_count((4, 3, 2))), 2.0)
    p, _ = model.forward(params, np.ones((1, 4)))
    np.testing.assert_allclose(p, [[1.0, 1.0]])


def test_forward_saturates_toward_pmax():
    n = model.param_count((2, 2))
    vals = np.zeros(n)
    vals[-2:] = 50.0  # output biases
    params = model.ModelParams((2, 2), vals, 1.0)
    p, _ = model.forward(params, np.zeros((1, 2)))
    np.testing.assert_allclose(p, [[1.0, 1.0]], atol=1e-6)


def test_forward_outputs_strictly_inside_box():
    rng = np.random.default_rng(4)
    params = model.init((9, 6, 3), 1.0, rng)
    x = rng.uniform(0.0, 2.0, size=(50, 9))
    p, _ = model.forward(params, x)
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(5)
    params = model.init((4, 5, 2), 1.0, rng)
    xs = rng.standard_normal((6, 4))
    batch, _ = model.forward(params, xs)
    for i in range(6):
        single, _ = model.forward(params, xs[i : i + 1])
        np.testing.assert_allclose(batch[i], single[0], rtol=1e-14, atol=0)


def test_forward_shape_mismatch():
    params = model.init((4, 2), 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.forward(params, np.ones((1, 5)))
    with pytest.raises(ValueError):  # one sample is a one-row batch
        model.forward(params, np.ones(4))


def test_backward_zero_upstream():
    rng = np.random.default_rng(1)
    params = model.init((4, 5, 2), 1.0, rng)
    _, trace = model.forward(params, rng.standard_normal((1, 4)))
    grad = model.backward(params, trace, np.zeros((1, 2)))
    np.testing.assert_array_equal(grad, np.zeros(params.values.size))


def test_backward_linearity():
    rng = np.random.default_rng(2)
    params = model.init((4, 5, 2), 1.0, rng)
    _, trace = model.forward(params, rng.standard_normal((1, 4)))
    up = rng.standard_normal((1, 2))
    g1 = model.backward(params, trace, up)
    g2 = model.backward(params, trace, 2.0 * up)
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-13)


@pytest.mark.parametrize("sizes", [(4, 5, 2), (4, 8, 2), (9, 6, 4, 3)])
def test_backward_matches_finite_differences(sizes):
    rng = np.random.default_rng(hash(sizes) % 2**32)
    for _ in range(5):
        params = model.init(sizes, 1.0, rng)
        x = rng.uniform(0.0, 1.5, size=(1, sizes[0]))
        up = rng.standard_normal(sizes[-1])

        def scalar(vals):
            p, _ = model.forward(model.ModelParams(sizes, vals, 1.0), x)
            return float(up @ p[0])

        _, trace = model.forward(params, x)
        got = model.backward(params, trace, up[None])
        fd = fd_gradient(scalar, params.values)
        assert rel_error(fd, got) <= 1e-4


def test_backward_batch_sums_per_sample_grads():
    rng = np.random.default_rng(3)
    params = model.init((4, 5, 2), 1.0, rng)
    xs = rng.standard_normal((3, 4))
    ups = rng.standard_normal((3, 2))
    _, trace = model.forward(params, xs)
    total = model.backward(params, trace, ups)
    parts = np.zeros_like(total)
    for i in range(3):
        _, tr = model.forward(params, xs[i : i + 1])
        parts += model.backward(params, tr, ups[i : i + 1])
    np.testing.assert_allclose(total, parts, rtol=1e-12, atol=1e-14)


def test_backward_upstream_shape_check():
    rng = np.random.default_rng(6)
    params = model.init((4, 5, 2), 1.0, rng)
    _, trace = model.forward(params, rng.standard_normal((3, 4)))
    with pytest.raises(ValueError):
        model.backward(params, trace, np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"upstream shape \(2,\)"):
        model.backward(params, model.forward(params, np.ones((1, 4)))[1], [0.0, 0.0])
    # same input and output widths, other hidden width
    other = model.init((4, 7, 2), 1.0, rng)
    with pytest.raises(ValueError, match="trace does not match params"):
        model.backward(other, trace, np.zeros((3, 2)))


def _checkpoint_cases():
    # +-0, subnormals, +-max float, and a p_max of 1e-300
    rng = np.random.default_rng(9)
    extreme = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1e16, 0.1, 1 / 3, -2.5e-7, 123456789.0])
    return [
        model.init((100, 200, 80, 10), 1.0, rng),
        model.ModelParams((3, 2, 2), rng.standard_normal(14) * 10.0 ** rng.integers(-300, 300, 14), 1e-300),
        model.ModelParams((3, 3, 1), np.resize(extreme, 16), 1.7976931348623157e308),
    ]


def test_checkpoint_round_trip_exact(tmp_path):
    path = tmp_path / "ckpt.json"
    for params in [model.init((4, 5, 2), 0.75, np.random.default_rng(8)), *_checkpoint_cases()]:
        model.save_params(params, path)
        back = model.load_params(path)
        assert back.layer_sizes == params.layer_sizes
        assert back.p_max == params.p_max
        assert back.values.tobytes() == params.values.tobytes()  # bit for bit: -0.0 is not 0.0


def test_checkpoint_bytes_pin_raw_layout(tmp_path):
    path = tmp_path / "ckpt.json"
    for params in _checkpoint_cases():
        model.save_params(params, path)
        data = path.read_bytes()
        assert data == checkpoint_bytes(params)
        # the first line is one JSON object; the values are 8 bytes each after it
        head = data.index(b"\n") + 1
        assert json.loads(data[:head])["arrays"] == [["values", "<f8", [params.values.size]]]
        assert len(data) - head == 8 * params.values.size


def test_checkpoint_loads_through_a_fifo(tmp_path):
    path = tmp_path / "ckpt.json"
    params = model.init((4, 5, 2), 0.75, np.random.default_rng(12))
    model.save_params(params, path)
    back = through_fifo(model.load_params, path)
    assert back.layer_sizes == params.layer_sizes and back.p_max == params.p_max
    assert back.values.tobytes() == params.values.tobytes()
    # a short and a long checkpoint read through a FIFO fail as read from disk
    data = path.read_bytes()
    for bad, match in ((data[:-1], "file ends inside array 'values'"), (data + data[:1], "bytes after the last array")):
        path.write_bytes(bad)
        with pytest.raises(ValueError, match=match):
            through_fifo(model.load_params, path)


def test_checkpoint_saves_are_byte_identical(tmp_path):
    params = model.init((100, 200, 80, 10), 1.0, np.random.default_rng(10))
    model.save_params(params, tmp_path / "a.json")
    model.save_params(model.load_params(tmp_path / "a.json"), tmp_path / "b.json")
    model.save_params(params, tmp_path / "c.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "c.json").read_bytes()


BAD_CHECKPOINTS = bad_checkpoints(model.init((4, 5, 2), 1.0, np.random.default_rng(11)))


@pytest.mark.parametrize("name,data,match", BAD_CHECKPOINTS, ids=[c[0] for c in BAD_CHECKPOINTS])
def test_checkpoint_rejects_malformed(tmp_path, name, data, match):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        model.load_params(path)


def test_checkpoint_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 3, "layer_sizes": [2, 2]}\n')
    with pytest.raises(ValueError, match="^checkpoint: missing field 'p_max'$"):
        model.load_params(path)


def test_checkpoint_write_that_fails_leaves_the_old_file(tmp_path):
    path = tmp_path / "ckpt.json"
    model.save_params(model.init((2, 3, 1), 1.0, np.random.default_rng(0)), path)
    before = path.read_bytes()
    with pytest.raises(OSError, match="disk full"):
        with model.replacing(path) as fh:
            fh.write('{"layer_sizes": [2,')
            raise OSError("disk full")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_params_validation():
    with pytest.raises(ValueError):
        model.ModelParams((4,), np.zeros(1), 1.0)
    with pytest.raises(ValueError):
        model.ModelParams((4, 2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        model.ModelParams((4, 2), np.full(10, np.nan), 1.0)
    with pytest.raises(ValueError):
        model.ModelParams((4, 2), np.r_[np.ones(9), -np.inf], 1.0)
    # huge but finite values are valid
    model.ModelParams((4, 2), np.full(10, 1e308), 1.0)


def _sigmoid_two_branch(z):
    # reference: the boolean-mask form, each branch on its own half
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bitwise_equal_to_two_branch_form():
    rng = np.random.default_rng(12)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 709.8, -709.8, 745.0, -745.0]
    z = np.concatenate([rng.uniform(-745.0, 745.0, 3000), 5.0 * rng.standard_normal(3000), edges])
    z = z.reshape(-1, 3)
    assert np.array_equal(model._sigmoid(z), _sigmoid_two_branch(z))


def _forward_reference(params, x):
    # reference: @ products and the two-branch sigmoid
    a = x
    for w, b in params.layers[:-1]:
        a = np.maximum(a @ w.T + b, 0.0)
    w, b = params.layers[-1]
    return params.p_max * _sigmoid_two_branch(a @ w.T + b)


def _backward_concatenated(params, trace, upstream, relu_grad=lambda z: z > 0.0):
    # reference: per-layer gradients joined with np.concatenate, ReLU
    # derivative as the boolean mask z > 0 unless relu_grad says otherwise,
    # on each pre-activation z made again from the layer's input
    u = np.atleast_2d(upstream)
    s = trace.outputs / params.p_max
    dz = u * params.p_max * s * (1.0 - s)
    grads = [None] * len(params.layers)
    for i in reversed(range(len(params.layers))):
        grads[i] = (dz.T @ trace.inputs[i], dz.sum(axis=0))
        if i > 0:
            w, b = params.layers[i - 1]
            dz = (dz @ params.layers[i][0]) * relu_grad(trace.inputs[i - 1] @ w.T + b)
    return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])


def _heaviside_grad(z):
    # the float step, 0 at z = +-0 and NaN at a NaN z
    return np.heaviside(z, 0.0)


@pytest.mark.parametrize("sizes", [(4, 2), (4, 5, 2), (9, 6, 4, 3)])
def test_forward_backward_bitwise_equal_to_reference_forms(sizes):
    rng = np.random.default_rng(13)
    params = model.init(sizes, 0.7, rng)
    for n in (1, 3, 20):
        x = rng.standard_normal((n, sizes[0]))
        x[0] = 0.0  # zero input row: hidden pre-activations exactly at the kink
        out, trace = model.forward(params, x)
        assert np.array_equal(out, _forward_reference(params, x))
        up = rng.standard_normal((n, sizes[-1]))
        got = model.backward(params, trace, up)
        assert np.array_equal(got, _backward_concatenated(params, trace, up))
        for act in trace.inputs[1:]:
            act[0, ::2] = -0.0  # both zeros sit at the kink; neither passes
        got = model.backward(params, trace, up)
        assert np.array_equal(got, _backward_concatenated(params, trace, up, _heaviside_grad))


@pytest.mark.parametrize("sizes", [(4, 5, 2), (9, 6, 4, 3)])
def test_relu_mask_matches_heaviside_at_nan_pre_activations(sizes):
    # a NaN input row makes its hidden pre-activations NaN; the mask gives 0
    # there and the float step NaN, but the row's dz is NaN from the top down
    rng = np.random.default_rng(14)
    params = model.init(sizes, 0.7, rng)
    x = rng.standard_normal((4, sizes[0]))
    x[1] = np.nan
    x[2] = 0.0
    _, trace = model.forward(params, x)
    assert np.isnan(trace.inputs[1][1]).all()
    up = rng.standard_normal((4, sizes[-1]))
    got = model.backward(params, trace, up)
    want = _backward_concatenated(params, trace, up, _heaviside_grad)
    assert np.array_equal(got, want, equal_nan=True)
