"""Adversarial training protocol: losses, window handling, training
behavior on synthetic spectra, checkpointing."""

import re

import numpy as np
import pytest

from esgan.gan import (
    ConfigError,
    StateError,
    TrainConfig,
    adv_loss,
    anomaly_score,
    build_gan,
    default_train_config,
    leftmost_crossing,
    load_detector,
    rec_loss,
    reconstruct,
    save_detector,
    scan,
    split_windows,
    train,
)
from esgan.neuralnet import OptimizerState, adam_step, load_checkpoint, save_checkpoint
from esgan.spectra import FeatureVector


def synthetic_features(n=40, width=8, lo=-1.0, hi=0.0, seed=5, bump=0.0):
    """Smooth control-dependent vectors in [0,1]; ``bump`` adds a sharp
    feature change below the midpoint, mimicking a phase boundary."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=width)
    slope = rng.uniform(-0.1, 0.1, size=width)
    controls = np.linspace(lo, hi, n)
    out = []
    for c in controls:
        v = base + slope * c
        if bump and c < (lo + hi) / 2:
            v = v + bump * np.sin(np.arange(width) + 10 * c)
        out.append(
            FeatureVector(
                values=np.clip(v, 0.0, 1.0),
                control_value=float(c),
                L=8,
                model_id="xxz",
            )
        )
    return out


def quick_config(**overrides):
    kw = dict(
        epochs_max=30,
        batch_size=8,
        threshold_train=1e-12,  # unreachable: run the full epoch budget
        threshold_val=1e-12,
        seed=3,
    )
    kw.update(overrides)
    return default_train_config("xxz", **kw)


# ------------------------------------------------------------------ losses

def test_rec_loss_worked_examples():
    assert rec_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert rec_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2))
    got = rec_loss(np.array([0.6, 0.3, 0.1]), np.array([0.5, 0.3, 0.2]))
    assert got == pytest.approx(np.sqrt(0.02), abs=1e-12)


def test_adv_loss_worked_examples():
    assert adv_loss(0.0, 0.5) == pytest.approx(np.log(2))
    assert adv_loss(1.0, 0.5) == pytest.approx(np.log(2))
    assert adv_loss(1.0, 1.0 - 1e-7) == pytest.approx(1e-7, rel=1e-3)
    # clamp keeps the loss finite at the codomain edges
    assert np.isfinite(adv_loss(1.0, 0.0))
    assert np.isfinite(adv_loss(0.0, 1.0))


def test_discriminator_output_in_unit_interval():
    model = build_gan(n_feat=8, seed=1)
    x = np.random.default_rng(0).uniform(size=(64, 8))
    y = model.discriminator.forward(x, cache=False)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def test_reconstruct_codomain_and_shape_check():
    model = build_gan(n_feat=8, seed=2)
    x = np.random.default_rng(1).uniform(size=8)
    xhat = reconstruct(model, x)
    assert xhat.shape == (8,)
    assert np.all(xhat >= 0.0) and np.all(xhat <= 1.0)
    from esgan.neuralnet import ShapeError

    with pytest.raises(ShapeError):
        reconstruct(model, np.zeros(6))


# ----------------------------------------------------------------- windows

def test_split_windows_shared_endpoint_goes_to_training():
    controls = np.linspace(-0.8, 0.0, 65)
    train_idx, val_idx = split_windows(controls, (-0.65, 0.0), (-0.8, -0.65))
    assert set(train_idx) & set(val_idx) == set()
    boundary = int(np.argmin(np.abs(controls + 0.65)))
    assert boundary in train_idx and boundary not in val_idx


def test_split_windows_tolerates_accumulated_float_offsets():
    controls = -0.8 + 0.0125 * np.arange(65)  # -0.65 lands at an offset
    train_idx, _ = split_windows(controls, (-0.65, 0.0), (-0.8, -0.65))
    assert train_idx.size == 53


def test_split_windows_rejects_overlap():
    controls = np.linspace(-1.0, 0.0, 11)
    with pytest.raises(ConfigError):
        split_windows(controls, (-0.6, 0.0), (-0.8, -0.5))


def test_split_windows_rejects_empty_and_degenerate():
    controls = np.linspace(-1.0, 0.0, 11)
    with pytest.raises(ConfigError):
        split_windows(controls, (-0.6, 0.0), (-2.0, -1.5))  # empty val
    with pytest.raises(ConfigError):
        split_windows(controls, (-0.6, -0.6), (-1.0, -0.8))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=7)
    with pytest.raises(ConfigError):
        TrainConfig(lr_G=-1.0)
    with pytest.raises(ConfigError):
        default_train_config("unknown-model")


# ---------------------------------------------------------------- training

def test_generator_step_decreases_batch_loss():
    """One small-lr generator step lowers its own batch loss in at least
    95 of 100 seeded trials."""
    wins = 0
    for seed in range(100):
        model = build_gan(n_feat=8, seed=seed)
        gen, disc = model.generator, model.discriminator
        rng = np.random.default_rng(1000 + seed)
        x = rng.uniform(size=(4, 8))
        lam, eps = 0.1, 10.0

        def total_loss():
            xhat = gen.forward(x, cache=False)
            rec = np.linalg.norm(xhat - x, axis=1)
            yhat = disc.forward(xhat, cache=False)[:, 0]
            return eps * float(np.mean(rec)) + lam * float(
                np.mean(adv_loss(1.0, yhat))
            )

        before = total_loss()
        xhat = gen.forward(x)
        resid = xhat - x
        rec = np.linalg.norm(resid, axis=1)
        safe = np.where(rec > 0, rec, 1.0)
        g_xhat = eps * resid / (safe[:, None] * x.shape[0])
        yhat = disc.forward(xhat)[:, 0]
        from esgan.gan import _adv_loss_grad

        g_y = (lam * _adv_loss_grad(1.0, yhat) / x.shape[0])[:, None]
        gen.backward(g_xhat + disc.backward(g_y, weights=False))
        adam_step(OptimizerState(), gen, lr=1e-3)
        if total_loss() < before:
            wins += 1
    assert wins >= 95


def test_training_reduces_reconstruction_loss():
    feats = synthetic_features(n=40, width=8)
    cfg = quick_config()
    det = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    first = det.history[0]["train_loss"]
    last = det.history[-1]["train_loss"]
    assert last < first
    assert det.mean_train_loss == last
    assert not det.converged  # thresholds were unreachable
    assert det.model_id == "xxz" and det.L == 8


def test_convergence_flag_implies_thresholds_hold():
    feats = synthetic_features(n=40, width=8)
    cfg = quick_config(threshold_train=0.5, threshold_val=0.6, epochs_max=60)
    det = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    assert det.converged
    idx_t, idx_v = split_windows(
        [f.control_value for f in feats], (-0.5, 0.0), (-1.0, -0.5)
    )
    X = np.stack([f.values for f in feats])
    gen = det.model.generator
    rec = lambda A: float(np.mean(np.linalg.norm(A - gen.forward(A, cache=False), axis=1)))
    assert rec(X[idx_t]) <= 0.5
    assert rec(X[idx_v]) <= 0.6


def test_training_is_deterministic():
    feats = synthetic_features(n=24, width=8)
    cfg = quick_config(epochs_max=10)
    det1 = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    det2 = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    p1 = det1.model.generator.parameters()
    p2 = det2.model.generator.parameters()
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    assert det1.history == det2.history


def test_non_adversarial_mode_shares_initialization():
    feats = synthetic_features(n=24, width=8)
    base = quick_config(epochs_max=1)
    cfg_adv = base
    cfg_rec = quick_config(epochs_max=1, adversarial=False)
    det_a = train(feats, cfg_adv, (-0.5, 0.0), (-1.0, -0.5))
    det_r = train(feats, cfg_rec, (-0.5, 0.0), (-1.0, -0.5))
    # same seed substream: untouched discriminators are identical, and the
    # plain run leaves its discriminator at initialization
    d_a = build_gan(n_feat=8, seed=base.seed).discriminator.parameters()
    d_r = det_r.model.discriminator.parameters()
    for k in d_a:
        assert np.array_equal(d_a[k], d_r[k])
    assert det_a.history[0]["train_loss"] != det_r.history[0]["train_loss"]


def test_mean_score_over_training_set_vanishes():
    feats = synthetic_features(n=32, width=8)
    cfg = quick_config(epochs_max=15)
    det = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    idx_t, _ = split_windows(
        [f.control_value for f in feats], (-0.5, 0.0), (-1.0, -0.5)
    )
    scores = [anomaly_score(det, feats[i]) for i in idx_t]
    assert abs(np.mean(scores)) < 1e-12


def test_untrained_detector_refuses_to_score():
    from esgan.gan import TrainedDetector

    det = TrainedDetector(
        model=build_gan(n_feat=8, seed=0),
        mean_train_loss=0.0,
        sequence=None,
        train_window=(-0.5, 0.0),
        val_window=(-1.0, -0.5),
    )
    with pytest.raises(StateError):
        anomaly_score(det, np.zeros(8))


def test_scan_orders_rows_and_normalizes():
    feats = synthetic_features(n=20, width=8)
    cfg = quick_config(epochs_max=5)
    det = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    rows = scan(det, list(reversed(feats)))
    controls = [r["control_value"] for r in rows]
    assert controls == sorted(controls)
    for r, f in zip(rows, feats):
        norm = np.linalg.norm(f.values)
        assert r["score_percent"] == pytest.approx(100 * r["anomaly_score"] / norm)


def test_anomalous_region_scores_above_training_band():
    feats = synthetic_features(n=60, width=8, bump=0.35, seed=9)
    cfg = quick_config(epochs_max=120, seed=1)
    det = train(feats, cfg, (-0.45, 0.0), (-0.5, -0.45))
    rows = scan(det, feats)
    inside = [r["anomaly_score"] for r in rows if r["control_value"] >= -0.45]
    outside = [r["anomaly_score"] for r in rows if r["control_value"] < -0.55]
    assert max(outside) > 5 * max(abs(s) for s in inside)


# ------------------------------------------------------------------ curves

def test_leftmost_crossing_picks_first_descent():
    controls = [-1.0, -0.9, -0.8, -0.7, -0.6]
    scores = [9.0, 4.0, 6.0, 2.0, 1.0]
    assert leftmost_crossing(controls, scores, 5.0) == -1.0
    assert leftmost_crossing(controls, scores, 3.0) == -0.8
    assert leftmost_crossing(controls, scores, 100.0) is None


def test_leftmost_crossing_handles_unsorted_input():
    controls = [-0.6, -1.0, -0.8]
    scores = [1.0, 9.0, 6.0]
    assert leftmost_crossing(controls, scores, 5.0) == -0.8


# -------------------------------------------------------------- checkpoint

def test_detector_checkpoint_round_trip(tmp_path):
    feats = synthetic_features(n=24, width=8)
    cfg = quick_config(epochs_max=8)
    det = train(feats, cfg, (-0.5, 0.0), (-1.0, -0.5))
    path = str(tmp_path / "det.ckpt")
    save_detector(path, det)
    det2 = load_detector(path)
    assert det2.mean_train_loss == det.mean_train_loss
    assert det2.train_window == det.train_window
    assert det2.val_window == det.val_window
    assert det2.converged == det.converged
    assert det2.config == det.config
    assert det2.model_id == det.model_id and det2.L == det.L
    for f in feats:
        assert anomaly_score(det2, f) == anomaly_score(det, f)
    # byte-stable under save -> load -> save
    path2 = str(tmp_path / "det2.ckpt")
    save_detector(path2, det2)
    with open(path, "rb") as f1, open(path2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize(
    "damage, extra, message",
    [
        (lambda meta, arrays: meta.pop("mean_train_loss"), [],
         "checkpoint lacks meta key 'mean_train_loss'"),
        (lambda meta, arrays: arrays.pop("G.enc1.b"), [],
         "checkpoint lacks array 'G.enc1.b'"),
        (lambda meta, arrays: arrays.update({"D.0.b": np.zeros(3)}), [],
         r"array 'D.0.b' has shape \(3,\), the network needs \(8,\)"),
        (lambda meta, arrays: meta.update({"skip": False}), [],
         "checkpoint of a network without the skip connection"),
        (lambda meta, arrays: None, ["meta seed int 3"], "repeated meta key 'seed'"),
        (lambda meta, arrays: None, ["array D.0.b 1 8", " ".join(["0x0.0p+0"] * 8)],
         "repeated array 'D.0.b'"),
    ],
    ids=["meta-key", "array", "array-shape", "skip-off", "repeated-meta-key",
         "repeated-array"],
)
def test_load_detector_names_path_and_key(tmp_path, damage, extra, message):
    """``extra`` lines appended to the saved file are refused at the first
    of them."""
    det = train(synthetic_features(n=24, width=8), quick_config(epochs_max=2),
                (-0.5, 0.0), (-1.0, -0.5))
    path = str(tmp_path / "det.ckpt")
    save_detector(path, det)
    meta, arrays = load_checkpoint(path)
    damage(meta, arrays)
    save_checkpoint(path, meta, arrays)
    with open(path) as fh:
        n_lines = len(fh.read().splitlines())
    with open(path, "a") as fh:
        fh.write("".join(line + "\n" for line in extra))
    where = f"{path}:{n_lines + 1}" if extra else path
    with pytest.raises(ValueError, match=f"^{re.escape(where)}: {message}$"):
        load_detector(path)


def test_loaded_weights_are_views_that_adam_moves(tmp_path):
    det = train(synthetic_features(n=24, width=8), quick_config(epochs_max=2),
                (-0.5, 0.0), (-1.0, -0.5))
    path = str(tmp_path / "det.ckpt")
    save_detector(path, det)
    model = load_detector(path).model
    for net, trained in ((model.generator, det.model.generator),
                         (model.discriminator, det.model.discriminator)):
        params = net.parameters()
        assert all(np.shares_memory(p, net.theta) for p in params.values())
        assert net.theta.tobytes() == trained.theta.tobytes()
        net.grad[:] = 1.0
        adam_step(OptimizerState(), net, lr=1e-3)
        for name, p in params.items():
            assert np.all(p < trained.parameters()[name]), name
