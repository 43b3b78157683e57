"""Layer tracing for the benchmark, from outside the package.

Each wrapper replaces a name in the module (or class) where the caller
looks it up, and records a span around the original: name, start, end,
parent span and point id.  Counts (bytes, epochs, sweeps, restarts) are
taken at the same boundaries from the arguments and results.  Spans stay
in memory until the run ends.  A name that no longer exists is reported
as a missing layer, and the run goes on without it.
"""

import functools
import itertools
import os
import statistics
import time

import numpy as np

_ABSENT = object()

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "heff.calls": ("count", "lower"),
    "heff.busy_s": ("s", "lower"),
    "heff.us_per_call": ("us", "lower"),
    "heff.allowed_fraction": ("ratio", "higher"),
    "lanczos.calls": ("count", "lower"),
    "lanczos.busy_s": ("s", "lower"),
    "lanczos.self_s": ("s", "lower"),
    "lanczos.matvecs_per_call": ("count", "lower"),
    "lanczos.restarts": ("count", "lower"),
    "lanczos.unconverged": ("count", "lower"),
    "dmrg.points": ("count", "higher"),
    "dmrg.busy_s": ("s", "lower"),
    "dmrg.self_s": ("s", "lower"),
    "dmrg.point_s_p50": ("s", "lower"),
    "dmrg.sweeps_per_point": ("count", "lower"),
    "dmrg.matvecs_per_point": ("count", "lower"),
    "dmrg.unconverged": ("count", "lower"),
    "dmrg.split.calls": ("count", "lower"),
    "dmrg.split.busy_s": ("s", "lower"),
    "dmrg.expectation.busy_s": ("s", "lower"),
    "schmidt.calls": ("count", "lower"),
    "schmidt.busy_s": ("s", "lower"),
    "dataset.write.calls": ("count", "lower"),
    "dataset.write.busy_s": ("s", "lower"),
    "dataset.write.bytes": ("bytes", "lower"),
    "dataset.read.calls": ("count", "lower"),
    "dataset.read.busy_s": ("s", "lower"),
    "dataset.read.bytes": ("bytes", "lower"),
    "features.calls": ("count", "lower"),
    "features.busy_s": ("s", "lower"),
    "features.records": ("count", "higher"),
    "kl.calls": ("count", "lower"),
    "kl.busy_s": ("s", "lower"),
    "gan.train.calls": ("count", "lower"),
    "gan.train.busy_s": ("s", "lower"),
    "gan.train.epochs": ("count", "lower"),
    "gan.train.s_per_epoch": ("s", "lower"),
    "gan.scan.calls": ("count", "lower"),
    "gan.scan.busy_s": ("s", "lower"),
    "gan.scan.rows": ("count", "higher"),
    "gan.checkpoint.busy_s": ("s", "lower"),
    "gan.checkpoint.bytes": ("bytes", "lower"),
    "nn.forward.calls": ("count", "lower"),
    "nn.forward.busy_s": ("s", "lower"),
    "nn.backward.calls": ("count", "lower"),
    "nn.backward.busy_s": ("s", "lower"),
    "nn.adam.calls": ("count", "lower"),
    "nn.adam.busy_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# counts that must repeat exactly for the same workload and seed
REPEATABLE = (
    "heff.calls",
    "lanczos.calls",
    "lanczos.matvecs_per_call",
    "lanczos.restarts",
    "lanczos.unconverged",
    "dmrg.sweeps_per_point",
    "dataset.write.bytes",
    "dataset.read.bytes",
    "gan.train.epochs",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, point]
        self.point = None
        self.missing = []
        self.tally = {}
        self._stack = []
        self._patched = []

    def add(self, key, value):
        self.tally[key] = self.tally.get(key, 0) + value

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` inside a span.  ``before(args, kwargs)`` runs first and
        returns the arguments to pass on; ``after(args, kwargs, result)``
        takes counts from the result.  A hook that fails is reported with
        the missing layers, and the call goes on untouched."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                try:
                    args, kwargs = before(args, kwargs)
                except Exception as exc:  # noqa: BLE001 - tracing must not break the call
                    self._lost(name, exc)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.point]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - tracing must not break the call
                    self._lost(name, exc)
            return result

        return traced

    def _lost(self, name, exc):
        note = f"{name} counts ({type(exc).__name__}: {exc})"
        if note not in self.missing:
            self.missing.append(note)

    def patch(self, module, path, name, before=None, after=None):
        """Wrap ``module.path`` in place; ``path`` may name a class
        attribute, as in ``Autoencoder.forward``."""
        *outer, attr = path.split(".")
        owner = module
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if not callable(fn):
            self.missing.append(f"{name} ({module.__name__}.{path})")
            return False
        self._patched.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, self.wrap(fn, name, before, after))
        return True

    def restore(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            if orig is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    def write_spans(self, path):
        with open(path + ".tmp", "w") as fh:
            fh.write("name,start,end,parent,point\n")
            for name, t0, t1, parent, point in self.spans:
                fh.write(f"{name},{t0!r},{t1!r},{parent},{'' if point is None else point}\n")
        os.replace(path + ".tmp", path)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def install(tr, pipeline, dmrg, gan):
    """Wrap every layer boundary named in the README's layer table."""
    points = itertools.count()

    def next_point(args, kwargs):
        tr.point = next(points)
        return args, kwargs

    def solved(args, kwargs, psi):
        stats = getattr(psi, "stats", None) or {}
        sweeps = stats.get("sweeps", len(getattr(psi, "sweep_energies", ())))
        tr.add("dmrg.sweeps", sweeps)
        tr.add("dmrg.unconverged", 0 if getattr(psi, "converged", True) else 1)

    tr.patch(pipeline, "dmrg_ground_state", "dmrg", before=next_point, after=solved)

    def wrap_matvec(args, kwargs):
        args = list(args)
        if args:
            args[0] = tr.wrap(args[0], "heff")
        else:
            kwargs["matvec"] = tr.wrap(kwargs["matvec"], "heff")
        v0 = _arg(args, kwargs, 1, "v0")
        if isinstance(v0, np.ndarray):
            tr.add("heff.nonzero", int(np.count_nonzero(v0)))
            tr.add("heff.entries", v0.size)
        return tuple(args), kwargs

    def lanczos_info(args, kwargs, result):
        info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
        if isinstance(info, dict):
            tr.add("lanczos.restarts", max(int(info.get("restarts", 1)) - 1, 0))
            tr.add("lanczos.unconverged", 0 if info.get("converged", True) else 1)

    if not tr.patch(dmrg, "lowest_eigenpair", "lanczos", before=wrap_matvec, after=lanczos_info):
        tr.missing.append("heff (matvec passed to lowest_eigenpair)")
    tr.patch(dmrg, "split_two_site", "dmrg.split")
    tr.patch(dmrg, "expectation_value", "dmrg.expectation")
    tr.patch(pipeline, "schmidt_decompose", "schmidt")

    def file_size(args, kwargs):
        path = _arg(args, kwargs, 0, "path")
        return os.path.getsize(path) if path and os.path.exists(path) else 0

    def bytes_after(key):
        return lambda a, k, result: tr.add(key, file_size(a, k))

    def bytes_before(key):
        def before(a, k):
            tr.add(key, file_size(a, k))
            return a, k

        return before

    tr.patch(pipeline, "write_dataset", "dataset.write", after=bytes_after("dataset.write.bytes"))
    tr.patch(pipeline, "read_dataset", "dataset.read", before=bytes_before("dataset.read.bytes"))
    tr.patch(
        pipeline, "dataset_features", "features",
        after=lambda a, k, r: tr.add("features.records", len(r[0])),
    )
    tr.patch(pipeline, "kl_divergence", "kl")

    tr.patch(
        gan, "train", "gan.train",
        after=lambda a, k, det: tr.add("gan.train.epochs", len(det.history)),
    )
    tr.patch(gan, "scan", "gan.scan", after=lambda a, k, rows: tr.add("gan.scan.rows", len(rows)))
    tr.patch(gan, "save_detector", "gan.checkpoint", after=bytes_after("gan.checkpoint.bytes"))
    tr.patch(gan, "load_detector", "gan.checkpoint", before=bytes_before("gan.checkpoint.bytes"))

    for cls in ("Autoencoder", "MLP"):
        tr.patch(gan, f"{cls}.forward", "nn.forward")
        tr.patch(gan, f"{cls}.backward", "nn.backward")
    tr.patch(gan, "adam_step", "nn.adam")


def layer_metrics(tr):
    """Per-layer metrics of one traced pass (trace.overhead_ratio aside).

    A layer's self time is its busy time minus the time its child spans
    cover; calls are always on one thread, so children never overlap.
    """
    calls, busy, self_s = {}, {}, {}
    covered = [0.0] * len(tr.spans)
    for name, t0, t1, parent, _ in tr.spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    for (name, t0, t1, _, _), child in zip(tr.spans, covered):
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child
    point_s = [t1 - t0 for name, t0, t1, _, _ in tr.spans if name == "dmrg"]

    def n(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    def per(x, y):
        return x / y if y else 0.0

    t = tr.tally.get
    return {
        "heff.calls": n("heff"),
        "heff.busy_s": b("heff"),
        "heff.us_per_call": 1e6 * per(b("heff"), n("heff")),
        "heff.allowed_fraction": per(t("heff.nonzero", 0), t("heff.entries", 0)),
        "lanczos.calls": n("lanczos"),
        "lanczos.busy_s": b("lanczos"),
        "lanczos.self_s": self_s.get("lanczos", 0.0),
        "lanczos.matvecs_per_call": per(n("heff"), n("lanczos")),
        "lanczos.restarts": t("lanczos.restarts", 0),
        "lanczos.unconverged": t("lanczos.unconverged", 0),
        "dmrg.points": n("dmrg"),
        "dmrg.busy_s": b("dmrg"),
        "dmrg.self_s": self_s.get("dmrg", 0.0),
        "dmrg.point_s_p50": statistics.median(point_s) if point_s else 0.0,
        "dmrg.sweeps_per_point": per(t("dmrg.sweeps", 0), n("dmrg")),
        "dmrg.matvecs_per_point": per(n("heff"), n("dmrg")),
        "dmrg.unconverged": t("dmrg.unconverged", 0),
        "dmrg.split.calls": n("dmrg.split"),
        "dmrg.split.busy_s": b("dmrg.split"),
        "dmrg.expectation.busy_s": b("dmrg.expectation"),
        "schmidt.calls": n("schmidt"),
        "schmidt.busy_s": b("schmidt"),
        "dataset.write.calls": n("dataset.write"),
        "dataset.write.busy_s": b("dataset.write"),
        "dataset.write.bytes": t("dataset.write.bytes", 0),
        "dataset.read.calls": n("dataset.read"),
        "dataset.read.busy_s": b("dataset.read"),
        "dataset.read.bytes": t("dataset.read.bytes", 0),
        "features.calls": n("features"),
        "features.busy_s": b("features"),
        "features.records": t("features.records", 0),
        "kl.calls": n("kl"),
        "kl.busy_s": b("kl"),
        "gan.train.calls": n("gan.train"),
        "gan.train.busy_s": b("gan.train"),
        "gan.train.epochs": t("gan.train.epochs", 0),
        "gan.train.s_per_epoch": per(b("gan.train"), t("gan.train.epochs", 0)),
        "gan.scan.calls": n("gan.scan"),
        "gan.scan.busy_s": b("gan.scan"),
        "gan.scan.rows": t("gan.scan.rows", 0),
        "gan.checkpoint.busy_s": b("gan.checkpoint"),
        "gan.checkpoint.bytes": t("gan.checkpoint.bytes", 0),
        "nn.forward.calls": n("nn.forward"),
        "nn.forward.busy_s": b("nn.forward"),
        "nn.backward.calls": n("nn.backward"),
        "nn.backward.busy_s": b("nn.backward"),
        "nn.adam.calls": n("nn.adam"),
        "nn.adam.busy_s": b("nn.adam"),
    }
