"""Dense-network substrate: layers, pooling, backprop, ADAM, LR annealing.

Everything runs in 64-bit numpy on (batch, width) arrays.  The layer set
is deliberately small (dense + max-pool + nearest-neighbor upsample) but
each backward pass is exact, so analytic gradients can be checked against
finite differences to tight tolerances.  Each network keeps its weights
and biases in one flat vector, and their gradients in another of the same
layout, so an ADAM step is one vectorized update whatever the number of
parameter arrays.  Checkpoints are structured text with hex-encoded floats
and round-trip byte-identically.
"""

import math
import os
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    pass


class StateError(RuntimeError):
    """Backward called without a cached forward pass."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


# ---------------------------------------------------------------- activations

def act_forward(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {name!r}")


def act_backward(name, z, a, g):
    """dL/dz from dL/da, using whichever of z or a is cheaper."""
    if name == "identity":
        return g
    if name == "relu":
        return g * (z > 0.0)
    if name == "tanh":
        return g * (1.0 - a * a)
    if name == "sigmoid":
        return g * a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


# --------------------------------------------------------------------- layers

@dataclass
class DenseLayer:
    W: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str = "identity"
    dW: np.ndarray = None  # gradients, set once the layer joins a network
    db: np.ndarray = None

    @property
    def in_width(self):
        return self.W.shape[1]

    @property
    def out_width(self):
        return self.W.shape[0]


def glorot_uniform(rng, out_width, in_width):
    lim = math.sqrt(6.0 / (in_width + out_width))
    return rng.uniform(-lim, lim, (out_width, in_width))


def make_dense(rng, in_width, out_width, activation):
    return DenseLayer(
        W=glorot_uniform(rng, out_width, in_width),
        b=np.zeros(out_width),
        activation=activation,
    )


def _dense_fwd_cached(layer, x):
    z = x.dot(layer.W.T) + layer.b
    a = act_forward(layer.activation, z)
    return a, (x, z, a)


def _dense_bwd(layer, g, cache, weights=True):
    """dL/dx for the upstream gradient dL/da, a (batch, out) array; with
    ``weights`` the layer's dW and db are written too."""
    x, z, a = cache
    gz = act_backward(layer.activation, z, a, g)
    if weights:
        gz.T.dot(x, out=layer.dW)
        gz.sum(axis=0, out=layer.db)
    return gz.dot(layer.W)


def _selected(idx, window):
    """Flat positions, in the row-major unpooled array, of the entries
    that the per-window offsets ``idx`` select."""
    return np.arange(0, idx.size * window, window).reshape(idx.shape) + idx


def maxpool_forward(x, window):
    """Non-overlapping max pooling along the last axis.

    Returns (pooled, argmax offsets); ties resolve to the first index of
    the window and a NaN is selected, as ``argmax`` has it, which keeps
    the backward pass deterministic.  The pooled values are the selected
    entries themselves, picked by flat position.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if window < 1 or n % window:
        raise ShapeError(f"length {n} not divisible by window {window}")
    idx = x.reshape(x.shape[:-1] + (n // window, window)).argmax(axis=-1)
    return x.ravel()[_selected(idx, window)], idx


def maxpool_backward(g, idx, window):
    g = np.asarray(g, dtype=float)
    out = np.zeros(g.size * window)
    out[_selected(idx, window)] = g
    return out.reshape(g.shape[:-1] + (g.shape[-1] * window,))


def upsample_forward(x, factor):
    """Nearest-neighbor repetition along the last axis."""
    if factor < 1:
        raise ShapeError(f"upsample factor must be >= 1, got {factor}")
    return np.repeat(np.asarray(x, dtype=float), factor, axis=-1)


def upsample_backward(g, factor):
    g = np.asarray(g, dtype=float)
    return g.reshape(g.shape[:-1] + (g.shape[-1] // factor, factor)).sum(axis=-1)


# ------------------------------------------------------------------- networks

class _FlatNetwork:
    """Dense layers whose weights and biases are views into one flat
    parameter vector ``theta``, laid end to end in ``parameters()`` order,
    and whose gradients are views into a flat vector ``grad`` of the same
    layout, so that ``adam_step`` updates every parameter at once."""

    def _flatten(self, named_layers):
        self._named = dict(named_layers)
        self.theta = np.concatenate(
            [p.ravel() for p in self.parameters().values()], dtype=float
        )
        self.grad = np.zeros_like(self.theta)
        start = 0
        for layer in self._named.values():
            for attr in ("W", "b"):
                shape = getattr(layer, attr).shape
                window = slice(start, start + math.prod(shape))
                setattr(layer, attr, self.theta[window].reshape(shape))
                setattr(layer, "d" + attr, self.grad[window].reshape(shape))
                start = window.stop

    def parameters(self):
        return {
            f"{name}.{attr}": getattr(layer, attr)
            for name, layer in self._named.items()
            for attr in ("W", "b")
        }


class MLP(_FlatNetwork):
    """Plain chain of dense layers with cached forward for backprop."""

    def __init__(self, layers):
        self.layers = list(layers)
        self._flatten((str(i), layer) for i, layer in enumerate(self.layers))
        self._cache = None

    @classmethod
    def build(cls, rng, widths, activations):
        if len(activations) != len(widths) - 1:
            raise ShapeError("need one activation per layer")
        layers = [
            make_dense(rng, widths[i], widths[i + 1], activations[i])
            for i in range(len(widths) - 1)
        ]
        return cls(layers)

    def forward(self, x, cache=True):
        caches = []
        a = np.asarray(x, dtype=float)
        for layer in self.layers:
            if a.shape[-1] != layer.in_width:
                raise ShapeError(
                    f"width {a.shape[-1]} != layer input {layer.in_width}"
                )
            a, c = _dense_fwd_cached(layer, a)
            caches.append(c)
        self._cache = caches if cache else None
        return a

    def backward(self, g, weights=True):
        """dL/dx from the upstream dL/d(output), a (batch, out) array.  The
        weight gradients go into ``grad``; with ``weights`` false (a
        frozen network) they are not formed."""
        if self._cache is None:
            raise StateError("no cached forward pass")
        for layer, cache in zip(self.layers[::-1], self._cache[::-1]):
            g = _dense_bwd(layer, g, cache, weights)
        return g


class Autoencoder(_FlatNetwork):
    """Encoder-decoder pair with two pool/upsample stages and one skip.

    Encoder: dense(n->n) relu, pool 2, dense(n/2->n/2) relu, pool 2,
    dense(n/4->n/8, at least 1) relu.  Decoder mirrors it with tanh hidden
    layers and a sigmoid output; the encoder activation after the first
    pool is always added to the pre-activation of the matching-width
    decoder layer.
    """

    def __init__(self, enc1, enc2, enc3, dec1, dec2, dec3):
        self.enc1, self.enc2, self.enc3 = enc1, enc2, enc3
        self.dec1, self.dec2, self.dec3 = dec1, dec2, dec3
        self._flatten(
            (name, getattr(self, name))
            for name in ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3")
        )
        self._cache = None

    @classmethod
    def build(cls, rng, n_feat=64):
        """Glorot-initialized network of width ``n_feat``, a multiple of 4."""
        if n_feat % 4:
            raise ShapeError("feature width must be divisible by 4")
        latent = max(1, n_feat // 8)
        half, quarter = n_feat // 2, n_feat // 4
        net = cls(
            enc1=make_dense(rng, n_feat, n_feat, "relu"),
            enc2=make_dense(rng, half, half, "relu"),
            enc3=make_dense(rng, quarter, latent, "relu"),
            dec1=make_dense(rng, latent, quarter, "tanh"),
            dec2=make_dense(rng, half, half, "tanh"),
            dec3=make_dense(rng, n_feat, n_feat, "sigmoid"),
        )
        # Start the sigmoid output near the small-probability regime that
        # dominates Schmidt spectra instead of at 0.5.  Without this the
        # first epochs of mean fitting drive the decoder weights large
        # enough to saturate the tanh stages, after which the tiny
        # sample-to-sample variation of the spectra cannot pass through
        # and training settles on a constant-output predictor.
        net.dec3.b[:] = -3.0
        return net

    @property
    def n_feat(self):
        return self.enc1.in_width

    def forward(self, x, cache=True):
        x = np.asarray(x, dtype=float)
        a1, c1 = _dense_fwd_cached(self.enc1, x)
        p1, i1 = maxpool_forward(a1, 2)
        a2, c2 = _dense_fwd_cached(self.enc2, p1)
        p2, i2 = maxpool_forward(a2, 2)
        z, c3 = _dense_fwd_cached(self.enc3, p2)

        d1, c4 = _dense_fwd_cached(self.dec1, z)
        u1 = upsample_forward(d1, 2)
        z2 = u1.dot(self.dec2.W.T) + self.dec2.b + p1
        a5 = act_forward(self.dec2.activation, z2)
        c5 = (u1, z2, a5)
        u2 = upsample_forward(a5, 2)
        xhat, c6 = _dense_fwd_cached(self.dec3, u2)
        self._cache = (c1, i1, c2, i2, c3, c4, c5, c6) if cache else None
        return xhat

    def backward(self, g):
        """dL/dx of a scalar loss from dL/dxhat, a (batch, n_feat) array;
        the weight gradients go into ``grad``."""
        if self._cache is None:
            raise StateError("no cached forward pass")
        c1, i1, c2, i2, c3, c4, c5, c6 = self._cache
        g = upsample_backward(_dense_bwd(self.dec3, g, c6), 2)
        u1, z2, a5 = c5
        gz = act_backward(self.dec2.activation, z2, a5, g)
        gz.T.dot(u1, out=self.dec2.dW)
        gz.sum(axis=0, out=self.dec2.db)
        g = upsample_backward(gz.dot(self.dec2.W), 2)
        g = _dense_bwd(self.enc3, _dense_bwd(self.dec1, g, c4), c3)
        g = _dense_bwd(self.enc2, maxpool_backward(g, i2, 2), c2)
        g = g + gz  # the skip lands on p1
        return _dense_bwd(self.enc1, maxpool_backward(g, i1, 2), c1)


# ---------------------------------------------------------------------- adam

# ADAM's moment decay rates and denominator guard (Kingma & Ba's defaults)
BETA1 = 0.9
BETA2 = 0.999
EPS_ADAM = 1e-8


@dataclass
class OptimizerState:
    """ADAM moments of one network, flat, in the layout of its ``theta``."""

    m: np.ndarray = None
    v: np.ndarray = None
    t: int = 0


def adam_step(state, net, lr):
    """One bias-corrected ADAM update of ``net.theta`` from ``net.grad``,
    with decay rates BETA1, BETA2 and guard EPS_ADAM.

    Both are flat, so the moments and the step are each one vectorized
    update in place.  Every entry sees the same operations in the same
    order as a per-array update would, so the results are bit-identical
    to it.  A non-finite gradient raises DivergenceError naming its
    parameter before anything changes.
    """
    g = net.grad
    if not np.isfinite(g).all():
        params = net.parameters()
        ends = np.cumsum([p.size for p in params.values()])
        first = np.flatnonzero(~np.isfinite(g))[0]
        bad = list(params)[np.searchsorted(ends, first, side="right")]
        raise DivergenceError(f"non-finite gradient in {bad}")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.t += 1
    corr1 = 1.0 - BETA1**state.t
    corr2 = 1.0 - BETA2**state.t
    m, v = state.m, state.v
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * g * g
    net.theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + EPS_ADAM)


# the learning rate cosine_lr anneals to, as a fraction of its start
LR_FLOOR = 1e-2


def cosine_lr(eta_max, T, epoch):
    """Cosine annealing from eta_max to LR_FLOOR * eta_max over T epochs,
    held there after T."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    eta_min = LR_FLOOR * eta_max
    if epoch > T:
        return eta_min
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(math.pi * epoch / T))


# ----------------------------------------------------------------- checkpoint

CHECKPOINT_MAGIC = "network checkpoint v1"


def write_atomic(path, text):
    """Write ``text`` to ``path`` through a temp file and os.replace, so an
    interrupted write never leaves a partial file under ``path``."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_checkpoint(path, meta, arrays):
    """Structured-text checkpoint: metadata lines + hex-float arrays.

    Scalars in ``meta`` keep their type tag; arrays are written row-major
    as float hex, one ``array`` block per entry, keys sorted, so the file
    round-trips byte-identically.
    """
    lines = [f"# {CHECKPOINT_MAGIC}"]
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, bool):
            lines.append(f"meta {key} bool {int(val)}")
        elif isinstance(val, int):
            lines.append(f"meta {key} int {val}")
        elif isinstance(val, float):
            lines.append(f"meta {key} float {float(val).hex()}")
        else:
            lines.append(f"meta {key} str {val}")
    for key in sorted(arrays):
        a = np.asarray(arrays[key], dtype=float)
        lines.append(" ".join(["array", key, str(a.ndim), *map(str, a.shape)]))
        lines.append(" ".join(x.hex() for x in a.ravel()))
    write_atomic(path, "\n".join(lines) + "\n")


def _parse_meta(kind, raw):
    if kind == "bool":
        return bool(int(raw))
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float.fromhex(raw)
    return raw


def load_checkpoint(path):
    """(meta, arrays) of a checkpoint; malformed input, a repeated meta key
    or array included, raises ValueError naming ``path:line``."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# {CHECKPOINT_MAGIC}":
        raise ValueError(f"{path} is not a network checkpoint")
    meta, arrays = {}, {}
    i = 1
    while i < len(lines):
        where = f"{path}:{i + 1}"
        parts = lines[i].split(None, 3)
        if len(parts) == 4 and parts[0] == "meta":
            _, key, kind, raw = parts
            if key in meta:
                raise ValueError(f"{where}: repeated meta key {key!r}")
            try:
                meta[key] = _parse_meta(kind, raw)
            except ValueError:
                raise ValueError(f"{where}: bad {kind} value {raw!r}") from None
            i += 1
        elif len(parts) >= 3 and parts[0] == "array":
            _, key, ndim, *dims = lines[i].split()  # a 0-d array has no dims
            if key in arrays:
                raise ValueError(f"{where}: repeated array {key!r}")
            if not all(x.isdigit() for x in [ndim, *dims]) or len(dims) != int(ndim):
                raise ValueError(f"{where}: bad shape for array {key!r}")
            shape = tuple(int(x) for x in dims)
            if i + 1 == len(lines):
                raise ValueError(f"{where}: file ends before the values of array {key!r}")
            try:
                values = np.array([float.fromhex(x) for x in lines[i + 1].split()])
            except ValueError:
                raise ValueError(f"{path}:{i + 2}: bad hex value in array {key!r}") from None
            if values.size != math.prod(shape):
                raise ValueError(
                    f"{path}:{i + 2}: array {key!r} holds {values.size} values, "
                    f"shape {shape} needs {math.prod(shape)}"
                )
            arrays[key] = values.reshape(shape)
            i += 2
        else:
            raise ValueError(f"{where}: unrecognized checkpoint line {lines[i]!r}")
    return meta, arrays
