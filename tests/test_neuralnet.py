"""Layer-level forward/backward checks against hand-worked values and a
central finite-difference oracle."""

import os
import re

import numpy as np
import pytest

from esgan.neuralnet import (
    Autoencoder,
    DivergenceError,
    MLP,
    OptimizerState,
    ShapeError,
    StateError,
    adam_step,
    cosine_lr,
    load_checkpoint,
    make_dense,
    maxpool_backward,
    maxpool_forward,
    save_checkpoint,
    upsample_backward,
    upsample_forward,
    _dense_bwd,
    _dense_fwd_cached,
)
from fdcheck import fd_gradient, max_rel_error


def identity_layer(n, activation="identity"):
    layer = make_dense(np.random.default_rng(0), n, n, activation)
    layer.W[...] = np.eye(n)
    layer.b[...] = 0.0
    return layer


# ----------------------------------------------------------------- dense

def test_dense_identity_passthrough():
    x = np.array([0.3, -1.2, 2.0])
    out = MLP([identity_layer(3)]).forward(x)
    assert np.array_equal(out, x)


def test_dense_relu_clips_negative():
    out = MLP([identity_layer(2, "relu")]).forward(np.array([-1.0, 2.0]))
    assert np.array_equal(out, [0.0, 2.0])


def test_dense_tanh_saturates():
    out = MLP([identity_layer(2, "tanh")]).forward(np.array([25.0, -25.0]))
    assert abs(out[0] - 1.0) < 1e-6 and abs(out[1] + 1.0) < 1e-6


@pytest.mark.parametrize("batch", [1, 16, 32, 53, 121])
@pytest.mark.parametrize("n_in, n_out", [(64, 64), (32, 32), (16, 8), (8, 16), (64, 32), (32, 1)])
def test_dense_dot_products_equal_matmul(batch, n_in, n_out):
    # the layers call ndarray.dot, which skips np.matmul's per-call
    # overhead; at the detector's shapes they must give matmul's bits
    rng = np.random.default_rng(batch * 100 + n_in + n_out)
    layer = make_dense(rng, n_in, n_out, "tanh")
    layer.b[:] = rng.standard_normal(n_out)
    layer.dW, layer.db = np.empty_like(layer.W), np.empty_like(layer.b)
    x = rng.standard_normal((batch, n_in))
    a, cache = _dense_fwd_cached(layer, x)
    z = x @ layer.W.T + layer.b
    assert np.array_equal(cache[1], z) and np.array_equal(a, np.tanh(z))
    g = rng.standard_normal((batch, n_out))
    gx = _dense_bwd(layer, g, cache)
    gz = g * (1.0 - a * a)
    assert np.array_equal(gx, gz @ layer.W)
    assert np.array_equal(layer.dW, gz.T @ x) and np.array_equal(layer.db, gz.sum(axis=0))


def test_dense_shape_mismatch():
    net = MLP([make_dense(np.random.default_rng(0), 4, 2, "relu")])
    with pytest.raises(ShapeError):
        net.forward(np.zeros(3))


# ------------------------------------------------------------------ pool

def test_maxpool_values_and_indices():
    pooled, idx = maxpool_forward(np.array([0.9, 0.1, 0.3, 0.4]), 2)
    assert np.array_equal(pooled, [0.9, 0.4])
    g = maxpool_backward(np.array([1.0, 2.0]), idx, 2)
    assert np.array_equal(g, [1.0, 0.0, 0.0, 2.0])


def test_maxpool_tie_takes_first_index():
    pooled, idx = maxpool_forward(np.full(6, 0.5), 2)
    assert np.array_equal(pooled, [0.5, 0.5, 0.5])
    g = maxpool_backward(np.ones(3), idx, 2)
    assert np.array_equal(g, [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def test_maxpool_window_one_is_identity():
    x = np.array([3.0, 1.0, 2.0])
    pooled, _ = maxpool_forward(x, 1)
    assert np.array_equal(pooled, x)


def test_maxpool_indivisible_length():
    with pytest.raises(ShapeError):
        maxpool_forward(np.zeros(5), 2)


def _maxpool_by_take_along_axis(x, window):
    # the gather/scatter pair the pooling layer used before it picked
    # entries by flat position: the reference for bit-identity
    blocks = x.reshape(x.shape[:-1] + (x.shape[-1] // window, window))
    idx = blocks.argmax(axis=-1)
    pooled = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        out = np.zeros(g.shape[:-1] + (g.shape[-1], window))
        np.put_along_axis(out, idx[..., None], g[..., None], axis=-1)
        return out.reshape(g.shape[:-1] + (g.shape[-1] * window,))

    return pooled, idx, backward


@pytest.mark.parametrize("shape, window", [((12,), 2), ((5, 12), 3), ((2, 3, 8), 4)])
def test_maxpool_matches_take_along_axis_bitwise(shape, window):
    rng = np.random.default_rng(7)
    x = np.maximum(rng.standard_normal(shape), 0.0)  # relu output: ties at 0
    flat = x.reshape(-1)
    flat[1] = flat[0] = -0.0  # a signed-zero tie
    flat[window + 1] = np.nan  # a NaN second in its window
    flat[-1] = flat[-2] = 0.75
    pooled, idx = maxpool_forward(x, window)
    want, want_idx, backward = _maxpool_by_take_along_axis(x, window)
    assert np.array_equal(idx, want_idx)
    assert pooled.tobytes() == want.tobytes()
    g = rng.standard_normal(pooled.shape)
    g.reshape(-1)[0] = -0.0
    assert maxpool_backward(g, idx, window).tobytes() == backward(g).tobytes()


# -------------------------------------------------------------- upsample

def test_upsample_repeats_entries():
    out = upsample_forward(np.array([1.5, -2.0]), 2)
    assert np.array_equal(out, [1.5, 1.5, -2.0, -2.0])


def test_upsample_factor_one_is_identity():
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(upsample_forward(x, 1), x)


def test_upsample_backward_sums_copies():
    g = upsample_backward(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.array_equal(g, [3.0, 7.0])


# -------------------------------------------------------------- backward

def test_identity_layer_bias_gradient_is_residual():
    net = MLP([identity_layer(3)])
    x = np.array([[0.2, 0.7, -0.4]])
    target = np.array([[0.0, 1.0, 0.0]])
    xhat = net.forward(x)
    net.backward(xhat - target)  # dL/dxhat of 0.5*||xhat-t||^2
    layer = net.layers[0]
    assert np.allclose(layer.db, (xhat - target)[0])
    assert np.allclose(layer.dW, np.outer(xhat - target, x))


def test_zero_weight_relu_net_has_dead_deep_gradients():
    rng = np.random.default_rng(3)
    net = MLP.build(rng, [4, 4, 4, 2], ["relu", "relu", "identity"])
    for layer in net.layers:
        layer.W[...] = 0.0
        layer.b[...] = 0.0
    out = net.forward(np.array([[1.0, -2.0, 0.5, 3.0]]))
    net.backward(np.ones_like(out))
    for layer in net.layers[1:]:
        assert np.all(layer.dW == 0.0)


def test_backward_without_forward_raises():
    net = MLP.build(np.random.default_rng(0), [3, 2], ["relu"])
    with pytest.raises(StateError):
        net.backward(np.ones((1, 2)))


@pytest.mark.parametrize("acts", [
    ["relu", "identity"],
    ["tanh", "sigmoid"],
    ["sigmoid", "relu"],
])
def test_small_mlp_matches_finite_differences(acts):
    rng = np.random.default_rng(hash(tuple(acts)) % 2**32)
    net = MLP.build(rng, [8, 4, 2], acts)
    x = rng.normal(size=(1, 8))
    target = rng.uniform(size=(1, 2))

    def loss():
        out = net.forward(x, cache=False)
        return 0.5 * float(np.sum((out - target) ** 2))

    out = net.forward(x)
    net.backward(out - target)
    # every parameter is a view into theta, so bumping theta bumps them
    assert max_rel_error(net.grad, fd_gradient(loss, net.theta)) < 1e-4


def test_autoencoder_skip_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    ae = Autoencoder.build(rng, n_feat=8)
    x = rng.uniform(size=(1, 8))

    def loss():
        xhat = ae.forward(x, cache=False)
        return float(np.linalg.norm(xhat - x))

    xhat = ae.forward(x)
    resid = xhat - x
    ae.backward(resid / np.linalg.norm(resid))
    assert max_rel_error(ae.grad, fd_gradient(loss, ae.theta)) < 1e-4


def test_autoencoder_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    ae = Autoencoder.build(rng, n_feat=8)
    x = rng.uniform(size=(1, 8))
    target = rng.uniform(size=(1, 8))

    def loss():
        return 0.5 * float(np.sum((ae.forward(x, cache=False) - target) ** 2))

    xhat = ae.forward(x)
    gx = ae.backward(xhat - target)
    numeric = fd_gradient(loss, x)
    assert max_rel_error(gx, numeric) < 1e-4


# ------------------------------------------------------------------ adam

def _net_of(theta):
    """A one-layer network whose flat parameter vector holds ``theta``."""
    net = MLP([make_dense(np.random.default_rng(0), len(theta) - 1, 1, "identity")])
    net.theta[:] = theta
    return net


def test_adam_first_step_is_signed_lr():
    state = OptimizerState()
    net = _net_of([1.0, -1.0, 2.0])
    g = np.array([0.3, -0.7, 0.1])
    net.grad[:] = g
    before = net.theta.copy()
    adam_step(state, net, lr=0.01)
    # bias-corrected first step: m_hat = g, v_hat = g^2, update = lr*sign(g)
    assert np.allclose(before - net.theta, 0.01 * np.sign(g), atol=1e-6)


def test_adam_zero_gradient_keeps_parameters():
    state = OptimizerState()
    net = _net_of([0.5, -0.5])
    adam_step(state, net, lr=0.1)
    assert np.array_equal(net.theta, [0.5, -0.5])
    assert state.t == 1


def test_adam_second_identical_step_no_larger():
    state = OptimizerState()
    net = _net_of([1.0, 1.0])
    net.grad[:] = 0.4
    adam_step(state, net, lr=0.01)
    first = 1.0 - net.theta[0]
    before = net.theta[0]
    adam_step(state, net, lr=0.01)
    second = before - net.theta[0]
    assert second <= first + 1e-9


def test_adam_rejects_nonfinite_gradient():
    state = OptimizerState()
    net = _net_of([1.0, 1.0])
    net.grad[0] = np.nan
    with pytest.raises(DivergenceError):
        adam_step(state, net, lr=0.01)


def _adam_per_array(state, params, grads, lr):
    # the update as written per parameter array, with a dict of moments
    # per name: the reference the flat update must match bit for bit
    state["t"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    corr1 = 1.0 - b1**state["t"]
    corr2 = 1.0 - b2**state["t"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"].setdefault(name, np.zeros_like(p))
        v = state["v"].setdefault(name, np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)


def _mixed_shape_net(rng):
    # parameters 0.W (5, 3), 0.b (5,), 1.W (2, 5), 1.b (2,)
    net = MLP.build(rng, [3, 5, 2], ["relu", "identity"])
    net.theta[:] = rng.standard_normal(net.theta.size)
    return net


def _by_name(params, flat):
    """Views of ``flat`` shaped like ``params``, in their order."""
    ends = np.cumsum([p.size for p in params.values()])[:-1]
    return {
        name: part.reshape(p.shape)
        for (name, p), part in zip(params.items(), np.split(flat, ends))
    }


def test_adam_flat_update_matches_per_array_formula_bitwise():
    rng = np.random.default_rng(11)
    net = _mixed_shape_net(rng)
    params = net.parameters()
    ref = {name: p.copy() for name, p in params.items()}
    state, ref_state = OptimizerState(), {"t": 0, "m": {}, "v": {}}
    for step in range(25):
        scale = 10.0 ** rng.integers(-8, 3)
        net.grad[:] = scale * rng.standard_normal(net.grad.size)
        grads = _by_name(params, net.grad)
        grads["1.b"][0] = 0.0
        lr = 0.01 * (1.0 + np.cos(step / 7.0))
        adam_step(state, net, lr)
        _adam_per_array(ref_state, ref, grads, lr)
        for name in params:
            assert params[name].tobytes() == ref[name].tobytes(), (step, name)
    assert state.t == ref_state["t"]
    for flat, per_array in ((state.m, ref_state["m"]), (state.v, ref_state["v"])):
        assert flat.tobytes() == b"".join(a.tobytes() for a in per_array.values())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_nonfinite_gradient_changes_nothing(bad):
    rng = np.random.default_rng(3)
    net = _mixed_shape_net(rng)
    state = OptimizerState()
    net.grad[:] = rng.standard_normal(net.grad.size)
    adam_step(state, net, 0.01)
    before = net.theta.copy()
    m, v = state.m.copy(), state.v.copy()
    grads = _by_name(net.parameters(), net.grad)
    # two bad entries, the first at the start of 1.W: 1.W is named
    grads["1.W"][0, 0] = grads["1.b"][0] = bad
    with pytest.raises(DivergenceError, match="non-finite gradient in 1.W"):
        adam_step(state, net, 0.01)
    assert state.t == 1
    assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
    assert net.theta.tobytes() == before.tobytes()


# ---------------------------------------------------------------- cosine

def test_cosine_lr_anchors():
    # the floor is LR_FLOOR = 1e-2 of the start
    assert cosine_lr(0.01, 250, 0) == pytest.approx(0.01)
    assert cosine_lr(0.01, 250, 250) == pytest.approx(0.0001)
    assert cosine_lr(0.01, 250, 125) == pytest.approx((0.01 + 0.0001) / 2)
    assert cosine_lr(0.01, 250, 400) == pytest.approx(0.0001)  # clamped past T


def test_cosine_lr_rejects_negative_epoch():
    with pytest.raises(ValueError):
        cosine_lr(0.01, 10, -1)


# ----------------------------------------------------------- shape algebra

@pytest.mark.parametrize("n_feat", [8, 16, 32, 64])
def test_encoder_width_algebra(n_feat):
    rng = np.random.default_rng(n_feat)
    ae = Autoencoder.build(rng, n_feat=n_feat)
    assert ae.enc3.in_width == n_feat // 4
    assert ae.enc3.out_width == max(1, n_feat // 8)
    assert ae.dec3.out_width == n_feat
    xhat = ae.forward(np.random.default_rng(1).uniform(size=(2, n_feat)))
    assert xhat.shape == (2, n_feat)
    latent = ae._cache[4][2]  # enc3's activation
    assert latent.shape == (2, max(1, n_feat // 8))


def test_forward_determinism():
    rng = np.random.default_rng(9)
    ae = Autoencoder.build(rng, n_feat=16)
    x = np.random.default_rng(2).uniform(size=16)
    a = ae.forward(x, cache=False)
    b = ae.forward(x, cache=False)
    assert np.array_equal(a, b)


# ------------------------------------------------------------- checkpoint

def test_checkpoint_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(21)
    meta = {
        "seed": 21,
        "n_feat": 16,
        "skip": True,
        "rate": 0.12345678901234567,
        "label": "round trip",
    }
    arrays = {
        "W": rng.normal(size=(4, 3)),
        "b": rng.normal(size=4),
        "x": np.array(2.0),  # 0-d: a header without shape tokens
    }
    path1 = str(tmp_path / "a.ckpt")
    path2 = str(tmp_path / "b.ckpt")
    save_checkpoint(path1, meta, arrays)
    with open(path1) as fh:
        lines = fh.read().splitlines()
    assert "array W 2 4 3" in lines and "array x 0" in lines
    meta2, arrays2 = load_checkpoint(path1)
    assert meta2 == meta
    for k in arrays:
        assert arrays2[k].shape == arrays[k].shape
        assert np.array_equal(arrays[k], arrays2[k])
    save_checkpoint(path2, meta2, arrays2)
    with open(path1, "rb") as f1, open(path2, "rb") as f2:
        assert f1.read() == f2.read()


def test_checkpoint_rejects_malformed_lines_naming_path_and_line(tmp_path):
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(
        good, {"label": "x", "seed": 3},
        {"W": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
    )
    assert sorted(os.listdir(tmp_path)) == ["good.ckpt"]  # no temp file left
    with open(good) as fh:
        lines = fh.read().splitlines()
    # 1 magic, 2-3 meta, 4 array W header, 5 values, 6 array b header, 7 values
    assert lines[3].startswith("array W") and lines[5].startswith("array b")
    bad_hex = lines[4].split()
    bad_hex[2] = "0x1.zzp+0"
    cases = {
        "blank": (lines[:2] + [""] + lines[2:], 3),
        "ends_after_header": (lines[:4], 4),
        "bad_hex": (lines[:4] + [" ".join(bad_hex)] + lines[5:], 5),
        "short_array": (lines[:6] + [" ".join(lines[6].split()[:-1])], 7),
        "bad_meta": (lines[:2] + ["meta seed int three"] + lines[3:], 3),
    }
    for name, (text, line) in cases.items():
        path = str(tmp_path / f"{name}.ckpt")
        with open(path, "w") as fh:
            fh.write("\n".join(text) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
            load_checkpoint(path)


def test_checkpoint_rejects_foreign_file(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_text("not a checkpoint\n")
    with pytest.raises(ValueError):
        load_checkpoint(str(p))
