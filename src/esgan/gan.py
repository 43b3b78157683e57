"""Adversarial autoencoder for anomaly detection on aligned spectra.

The generator is the skip-connected autoencoder from ``neuralnet``; a
small dense discriminator tries to tell its reconstructions from real
feature vectors.  Training alternates one discriminator half-batch with
one generator half-batch per batch, anneals both learning rates on a
cosine schedule, and early-stops once the mean reconstruction loss drops
below per-model thresholds inside both the training and the validation
window.  The anomaly score of a sample is its reconstruction loss minus
the mean training loss, which zeroes the curve inside the window the
detector was fit on.
"""

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .models import ConfigError, model_row
from .neuralnet import (
    Autoencoder,
    DivergenceError,
    MLP,
    OptimizerState,
    ShapeError,
    StateError,
    adam_step,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
)
from .spectra import FeatureVector, SectorSequence


CLAMP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    lambda_adv: float = 0.1
    epsilon_rec: float = 10.0
    lr_G: float = 0.01
    lr_D: float = 0.0001
    epochs_max: int = 250
    batch_size: int = 32
    threshold_train: float = 5e-5
    threshold_val: float = 1e-4
    seed: int = 0
    adversarial: bool = True

    def __post_init__(self):
        for name in (
            "lambda_adv", "epsilon_rec", "lr_G", "lr_D",
            "threshold_train", "threshold_val",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.epochs_max < 1 or self.batch_size < 2:
            raise ConfigError("need epochs_max >= 1 and batch_size >= 2")
        if self.batch_size % 2:
            raise ConfigError("batch_size must be even (half-batch protocol)")


def default_train_config(model_id, **overrides):
    threshold_train, threshold_val = model_row(model_id).thresholds
    cfg = TrainConfig(threshold_train=threshold_train, threshold_val=threshold_val)
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class GanModel:
    """Generator autoencoder plus discriminator, seeded and flagged."""

    generator: Autoencoder
    discriminator: MLP
    seed: int
    trained_flag: bool = False

    @property
    def n_feat(self):
        return self.generator.n_feat


def build_gan(n_feat=64, seed=0):
    """Fresh GAN; generator and discriminator draw from separate seeded
    substreams so dropping one leaves the other's initialization intact."""
    rng_g = np.random.default_rng([seed, 0])
    ae = Autoencoder.build(rng_g, n_feat=n_feat)
    rng_d = np.random.default_rng([seed, 1])
    disc = MLP.build(
        rng_d,
        widths=[n_feat, n_feat, n_feat // 2, 1],
        activations=["relu", "relu", "sigmoid"],
    )
    return GanModel(
        generator=ae,
        discriminator=disc,
        seed=seed,
    )


def reconstruct(model, x):
    """x̂ = g(f(x)) of a feature array, one row per sample or a single one."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.n_feat:
        raise ShapeError(f"feature width {x.shape[-1]} != model {model.n_feat}")
    return model.generator.forward(x, cache=False)


def rec_loss(x, xhat):
    """Euclidean norm of the residual; per sample on (batch, n) arrays."""
    x = np.asarray(x, dtype=float)
    xhat = np.asarray(xhat, dtype=float)
    if x.shape != xhat.shape:
        raise ShapeError(f"shape mismatch {x.shape} vs {xhat.shape}")
    d = np.linalg.norm(x - xhat, axis=-1)
    return float(d) if d.ndim == 0 else d


def adv_loss(y, yhat):
    """Binary cross-entropy with the prediction clamped away from {0,1}."""
    yc = np.clip(yhat, CLAMP, 1.0 - CLAMP)
    out = -(y * np.log(yc) + (1.0 - y) * np.log(1.0 - yc))
    return float(out) if np.ndim(out) == 0 else out


def _adv_loss_grad(y, yhat):
    """d adv_loss / d yhat, zero where the clamp is active."""
    yc = np.clip(yhat, CLAMP, 1.0 - CLAMP)
    g = -y / yc + (1.0 - y) / (1.0 - yc)
    return np.where((yhat > CLAMP) & (yhat < 1.0 - CLAMP), g, 0.0)


@dataclass
class TrainedDetector:
    model: GanModel
    mean_train_loss: float
    sequence: SectorSequence
    train_window: tuple
    val_window: tuple
    converged: bool = False
    history: list = field(default_factory=list)
    config: TrainConfig = None
    model_id: str = None
    L: int = None


def split_windows(controls, train_window, val_window):
    """Index sets for the two windows; shared endpoints go to training.

    Both windows are closed intervals; a config error is raised when
    their interiors overlap or either set of points comes out empty.
    """
    lo_t, hi_t = train_window
    lo_v, hi_v = val_window
    if lo_t >= hi_t or lo_v >= hi_v:
        raise ConfigError("windows must be nondegenerate intervals (lo < hi)")
    tol = 1e-9  # grid points sit at accumulated float offsets
    if min(hi_t, hi_v) - max(lo_t, lo_v) > tol:
        raise ConfigError(
            f"windows overlap: [{lo_t}, {hi_t}] and [{lo_v}, {hi_v}]"
        )
    controls = np.asarray(controls, dtype=float)
    in_train = (controls >= lo_t - tol) & (controls <= hi_t + tol)
    in_val = (controls >= lo_v - tol) & (controls <= hi_v + tol) & ~in_train
    train_idx = np.nonzero(in_train)[0]
    val_idx = np.nonzero(in_val)[0]
    if train_idx.size == 0:
        raise ConfigError("training window holds no dataset points")
    if val_idx.size == 0:
        raise ConfigError("validation window holds no dataset points")
    return train_idx, val_idx


def _mean_rec(gen, X):
    return float(np.mean(rec_loss(X, gen.forward(X, cache=False))))


def train(features, cfg, train_window, val_window, sequence=None):
    """Alternating adversarial training over the windowed dataset.

    Per batch the discriminator sees one half (real vs reconstructed,
    generator frozen) and the generator fits the other half against
    lambda * adv + epsilon * rec with the discriminator frozen.  With
    ``cfg.adversarial`` false, the generator trains on epsilon * rec
    alone under the identical batch schedule and initialization.
    """
    if not features:
        raise ConfigError("empty dataset")
    controls = [f.control_value for f in features]
    X = np.stack([np.asarray(f.values, dtype=float) for f in features])
    train_idx, val_idx = split_windows(controls, train_window, val_window)
    X_train, X_val = X[train_idx], X[val_idx]

    model = build_gan(n_feat=X.shape[1], seed=cfg.seed)
    gen = model.generator
    disc = model.discriminator
    adam_g, adam_d = OptimizerState(), OptimizerState()
    rng = np.random.default_rng([cfg.seed, 2])

    n = X_train.shape[0]
    history = []
    converged = False
    for epoch in range(cfg.epochs_max):
        lr_g = cosine_lr(cfg.lr_G, cfg.epochs_max, epoch)
        lr_d = cosine_lr(cfg.lr_D, cfg.epochs_max, epoch)
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if idx.size % 2:
                idx = idx[:-1]
            if idx.size < 2:
                continue
            half = idx.size // 2
            d_idx, g_idx = idx[:half], idx[half:]

            if cfg.adversarial:
                x_real = X_train[d_idx]
                x_fake = gen.forward(x_real, cache=False)
                batch = np.concatenate([x_real, x_fake])
                targets = np.concatenate([np.ones(half), np.zeros(half)])
                yhat = disc.forward(batch)[:, 0]
                loss_d = float(np.mean(adv_loss(targets, yhat)))
                if not np.isfinite(loss_d):
                    raise DivergenceError(
                        f"discriminator loss diverged at epoch {epoch}, "
                        f"batch {start // cfg.batch_size}"
                    )
                disc.backward((_adv_loss_grad(targets, yhat) / yhat.size)[:, None])
                adam_step(adam_d, disc, lr_d)

            x_in = X_train[g_idx]
            xhat = gen.forward(x_in)
            resid = xhat - x_in
            rec = np.linalg.norm(resid, axis=1)
            loss_g = cfg.epsilon_rec * float(np.mean(rec))
            safe = np.where(rec > 0.0, rec, 1.0)
            g_xhat = cfg.epsilon_rec * resid / (safe[:, None] * half)
            g_xhat[rec == 0.0] = 0.0
            if cfg.adversarial:
                yhat_g = disc.forward(xhat)[:, 0]
                loss_g += cfg.lambda_adv * float(np.mean(adv_loss(1.0, yhat_g)))
                g_y = (cfg.lambda_adv * _adv_loss_grad(1.0, yhat_g) / half)[:, None]
                g_xhat = g_xhat + disc.backward(g_y, weights=False)
            if not np.isfinite(loss_g):
                raise DivergenceError(
                    f"generator loss diverged at epoch {epoch}, "
                    f"batch {start // cfg.batch_size}"
                )
            gen.backward(g_xhat)
            adam_step(adam_g, gen, lr_g)

        train_mean = _mean_rec(gen, X_train)
        val_mean = _mean_rec(gen, X_val)
        history.append(
            {
                "epoch": epoch,
                "train_loss": train_mean,
                "val_loss": val_mean,
                "lr_G": lr_g,
                "lr_D": lr_d,
            }
        )
        if train_mean <= cfg.threshold_train and val_mean <= cfg.threshold_val:
            converged = True
            break

    model.trained_flag = True
    return TrainedDetector(
        model=model,
        mean_train_loss=train_mean,
        sequence=sequence,
        train_window=tuple(train_window),
        val_window=tuple(val_window),
        converged=converged,
        history=history,
        config=cfg,
        model_id=features[0].model_id,
        L=features[0].L,
    )


def anomaly_score(det, x):
    """Reconstruction loss minus the detector's mean training loss."""
    if not det.model.trained_flag:
        raise StateError("detector model is untrained")
    values = x.values if isinstance(x, FeatureVector) else np.asarray(x, float)
    xhat = reconstruct(det.model, values)
    return float(rec_loss(values, xhat) - det.mean_train_loss)


def scan(det, features):
    """Score every feature vector; rows sorted by control value.

    Each row carries the raw anomaly score and the percentage score
    100 * score / ||x||_2.
    """
    if not det.model.trained_flag:
        raise StateError("detector model is untrained")
    rows = []
    for f in sorted(features, key=lambda f: f.control_value):
        if f.values.shape[-1] != det.model.n_feat:
            raise ShapeError(
                f"feature width {f.values.shape[-1]} != model {det.model.n_feat}"
            )
        score = anomaly_score(det, f)
        norm = float(np.linalg.norm(f.values))
        percent = 100.0 * score / norm if norm > 0 else 0.0
        rows.append(
            {
                "control_value": f.control_value,
                "anomaly_score": score,
                "score_percent": percent,
            }
        )
    return rows


def leftmost_crossing(controls, scores, level):
    """Smallest control value where the curve sits at or above ``level``
    and drops below it at the next grid point (None when it never does).

    The inputs are taken in ascending control order.
    """
    controls = np.asarray(controls, dtype=float)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(controls)
    c, s = controls[order], scores[order]
    hits = [c[i] for i in range(len(c) - 1) if s[i] >= level > s[i + 1]]
    return min(hits) if hits else None


# ----------------------------------------------------------------- checkpoint

DETECTOR_VERSION = 1


def _sequence_to_meta(seq):
    meta = {
        "seq.n": len(seq.slots),
        "seq.origin_control_value": float(seq.origin_control_value),
    }
    for i, ((dn), k) in enumerate(seq.slots):
        label = " ".join(f"{f.numerator}/{f.denominator}" for f in dn)
        meta[f"seq.slot.{i:03d}"] = f"{label} k={k} syn={int(seq.synthetic[i])}"
    return meta


def _sequence_from_meta(meta):
    from fractions import Fraction

    n = meta["seq.n"]
    slots, synthetic = [], []
    for i in range(n):
        raw = meta[f"seq.slot.{i:03d}"]
        parts = raw.split()
        dn = tuple(Fraction(p) for p in parts[:-2])
        slots.append((dn, int(parts[-2].split("=")[1])))
        synthetic.append(bool(int(parts[-1].split("=")[1])))
    return SectorSequence(
        slots=tuple(slots),
        origin_control_value=meta["seq.origin_control_value"],
        synthetic=tuple(synthetic),
    )


def save_detector(path, det):
    """Single-file checkpoint: network weights, mean training loss,
    sector sequence, window metadata, and the training configuration."""
    model = det.model
    gen = model.generator
    arrays = {}
    for name, p in gen.parameters().items():
        arrays[f"G.{name}"] = p
    for name, p in model.discriminator.parameters().items():
        arrays[f"D.{name}"] = p
    meta = {
        "detector_version": DETECTOR_VERSION,
        "n_feat": model.n_feat,
        "skip": True,  # part of the checkpoint format; load_detector requires it
        "seed": model.seed,
        "trained_flag": model.trained_flag,
        "converged": det.converged,
        "mean_train_loss": float(det.mean_train_loss),
        "train_window_lo": float(det.train_window[0]),
        "train_window_hi": float(det.train_window[1]),
        "val_window_lo": float(det.val_window[0]),
        "val_window_hi": float(det.val_window[1]),
        "disc_widths": " ".join(
            str(l.in_width) for l in model.discriminator.layers
        )
        + f" {model.discriminator.layers[-1].out_width}",
    }
    if det.model_id is not None:
        meta["model_id"] = det.model_id
    if det.L is not None:
        meta["L"] = det.L
    if det.config is not None:
        for f in fields(TrainConfig):  # the field's type sets its meta tag
            meta[f"cfg.{f.name}"] = f.type(getattr(det.config, f.name))
    if det.sequence is not None:
        meta.update(_sequence_to_meta(det.sequence))
    save_checkpoint(path, meta, arrays)


def load_detector(path):
    """The detector saved at ``path``; a missing meta key or array, an
    array of the wrong shape, or a ``skip`` other than true raises
    ValueError naming the path."""
    meta, arrays = load_checkpoint(path)
    if meta.get("detector_version") != DETECTOR_VERSION:
        raise ValueError(f"{path}: unsupported detector checkpoint")

    def load_weights(prefix, params):
        for name, p in params.items():
            key = prefix + name
            if key not in arrays:
                raise ValueError(f"{path}: checkpoint lacks array {key!r}")
            if arrays[key].shape != p.shape:
                raise ValueError(
                    f"{path}: array {key!r} has shape {arrays[key].shape}, "
                    f"the network needs {p.shape}"
                )
            p[...] = arrays[key]

    try:
        if meta["skip"] is not True:
            raise ValueError(f"{path}: checkpoint of a network without the skip connection")
        model = build_gan(n_feat=meta["n_feat"], seed=meta["seed"])
        load_weights("G.", model.generator.parameters())
        load_weights("D.", model.discriminator.parameters())
        model.trained_flag = meta["trained_flag"]
        cfg = None
        if "cfg.seed" in meta:
            cfg = TrainConfig(**{f.name: meta[f"cfg.{f.name}"] for f in fields(TrainConfig)})
        sequence = _sequence_from_meta(meta) if "seq.n" in meta else None
        return TrainedDetector(
            model=model,
            mean_train_loss=meta["mean_train_loss"],
            sequence=sequence,
            train_window=(meta["train_window_lo"], meta["train_window_hi"]),
            val_window=(meta["val_window_lo"], meta["val_window_hi"]),
            converged=meta["converged"],
            config=cfg,
            model_id=meta.get("model_id"),
            L=meta.get("L"),
        )
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks meta key {exc.args[0]!r}") from None
