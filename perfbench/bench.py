"""Benchmark worker: one workload in one fresh process.

run.py starts this file with the BLAS/OpenMP thread variables already set
to 1 and passes the moment it spawned the process.  The worker imports
the package from the checkout's src/, loads inputs and references, and
takes setup time right before the first workload call.  It then repeats
the workload body, each pass in a fresh temp dir, checks every output
after its pass, and prints one JSON object as its last line of output.

With --setup-only it stops where the first workload call would be; run.py
starts it that way several times to take the median set-up time.
With --trace 1 it runs one untraced pass and then one traced pass.
"""

import argparse
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from esgan import gan, pipeline  # noqa: E402
from esgan.gan import default_train_config  # noqa: E402
from esgan.models import build_model  # noqa: E402
from esgan.pipeline import ConvergenceError, SweepConfig  # noqa: E402
from esgan.solver import dmrg, ed_ground_state, schmidt_decompose  # noqa: E402

import layers  # noqa: E402

FLOOR = 1e-10  # levels below this weight are not compared


@dataclass(frozen=True)
class Workload:
    sweep: dict = None  # SweepConfig fields other than seed and out_path
    reference: str = None  # "ed", or a JSON file under references/
    tolerance: float = None  # largest |p - p_ref| allowed above FLOOR
    flows: tuple = ()  # (dataset or None for the sweep's output, model, train window, val window)
    stability: tuple = None  # (dataset, model, training windows)
    epochs: int = 500


XXZ_DEMO = "demo_output/xxz_L16_sweep.ds"
BH_DEMO = "demo_output/bh_L12_sweep.ds"

WORKLOADS = {
    "sweep-bh": Workload(
        sweep=dict(model_id="bh", L=8, control_min=1.0, control_max=5.0, count=5),
        reference="sweep-bh.json",
        tolerance=1e-8,
    ),
    "sweep-xxz": Workload(
        sweep=dict(model_id="xxz", L=16, control_min=-1.1, control_max=-0.9, step=0.025),
        reference="sweep-xxz.json",
        tolerance=1e-8,
    ),
    # svd_cutoff 0, as in acceptance item 3: the 1e-9 gate against ED holds
    # for untruncated solves; the default cutoff of 1e-10 discards about
    # 1e-9 of weight per solve and moves p by twice that.  The 151-point
    # grid makes the per-point dataset rewrite and re-read quadratic.
    "sweep-dense": Workload(
        sweep=dict(model_id="xxz", L=8, control_min=-1.5, control_max=0.0, step=0.01,
                   svd_cutoff=0.0),
        reference="ed",
        tolerance=1e-9,
    ),
    # the three demo flows, read-only, with the demos' windows and epochs
    "detect": Workload(
        flows=(
            (XXZ_DEMO, "xxz", (-0.65, 0.0), (-0.8, -0.65)),
            (BH_DEMO, "bh", (0.0, 2.5), (2.5, 3.0)),
        ),
        stability=(XXZ_DEMO, "xxz", ((-0.65, 0.0), (-0.5, 0.0), (-0.65, -0.15), (-0.4, 0.0))),
    ),
    # toy size for the bench's own test: every layer, in seconds
    "smoke": Workload(
        sweep=dict(model_id="xxz", L=6, control_min=-1.0, control_max=-0.5, count=3),
        reference="ed",
        tolerance=1e-9,
        flows=((None, "xxz", (-0.8, -0.4), (-1.0, -0.8)),),
        epochs=5,
    ),
}


# ------------------------------------------------------------- references

def spectrum_table(spectrum):
    return {(tuple(e.charge), e.k): float(e.p) for e in spectrum.entries}


def load_reference(name):
    """{control value: {(charge, k): p}} from references/<name>."""
    with open(os.path.join(HERE, "references", name)) as fh:
        raw = json.load(fh)
    return {
        float.fromhex(c): {(tuple(q), k): float.fromhex(p) for q, k, p in levels}
        for c, levels in raw["points"].items()
    }


class EdReference(dict):
    """Spectra from exact diagonalization, computed on first use."""

    def __init__(self, model_id, L):
        super().__init__()
        self.model_id, self.L = model_id, L

    def __missing__(self, control):
        _, state = ed_ground_state(build_model(self.model_id, self.L, control))
        self[control] = spectrum_table(schmidt_decompose(state))
        return self[control]


def mismatch(got, want):
    """Largest |p - p_ref| over levels above FLOOR in either table; inf when
    such a level is missing from the other."""
    worst = 0.0
    for key in got.keys() | want.keys():
        if max(got.get(key, 0.0), want.get(key, 0.0)) > FLOOR:
            if key not in got or key not in want:
                return math.inf
            worst = max(worst, abs(got[key] - want[key]))
    return worst


# ------------------------------------------------------------ one pass

def run_body(wl, seed, tmp):
    """One pass of the workload through the library calls the CLI makes.

    Returns (wall seconds, records written, outcome for ``check``).  A
    sweep writes records to its dataset; the detector flows write score
    rows.  ConvergenceError after train_cmd is the CLI's exit 3: the
    checkpoint is written and the flow goes on to scan.
    """
    out = {"sweep": None, "train": [], "scan": [], "stability": None}
    written = 0
    t0 = time.perf_counter()
    sweep_path = None
    if wl.sweep is not None:
        cfg = SweepConfig(**wl.sweep, seed=seed, out_path=os.path.join(tmp, "sweep.ds"))
        sweep_path = cfg.out_path
        try:
            ds, _ = pipeline.generate(cfg, log=io.StringIO())
            written += len(ds.records)
        except Exception as exc:  # noqa: BLE001 - counted as failed points
            ds = exc
        out["sweep"] = (cfg, ds)
    for i, (path, model, train_win, val_win) in enumerate(wl.flows):
        path = os.path.join(ROOT, path) if path else sweep_path
        cfg = default_train_config(model, seed=seed, epochs_max=wl.epochs)
        ckpt = os.path.join(tmp, f"detector{i}.ckpt")
        try:
            det, _ = pipeline.train_cmd(path, train_win, val_win, cfg=cfg, out_path=ckpt)
        except ConvergenceError:
            det = None
        except Exception as exc:  # noqa: BLE001 - counted as a failed step
            det = exc
        out["train"].append((path, cfg, train_win, val_win, det))
        try:
            curve, _ = pipeline.scan_cmd(
                ckpt, path, out_path=os.path.join(tmp, f"scan{i}.csv"), with_kl=True
            )
            written += len(curve.rows)
        except Exception as exc:  # noqa: BLE001 - counted as a failed step
            curve = exc
        out["scan"].append(curve)
    if wl.stability is not None:
        path, model, windows = wl.stability
        path = os.path.join(ROOT, path)
        cfg = default_train_config(model, seed=seed, epochs_max=wl.epochs)
        try:
            curve, _ = pipeline.stability_cmd(
                path, list(windows), cfg=cfg,
                out_path=os.path.join(tmp, "stability.csv"), log=io.StringIO(),
            )
            written += len(curve.rows)
        except Exception as exc:  # noqa: BLE001 - counted as a failed step
            curve = exc
        out["stability"] = (path, curve)
    return time.perf_counter() - t0, written, out


def _finite_rows(curve, n_records):
    return len(curve.rows) == n_records and all(
        math.isfinite(v) for row in curve.rows for v in row.values()
    )


_rebuilt = {}  # (path, windows, config) -> detector retrained after a ConvergenceError


def _detector_rows(path, cfg, train_win, val_win, det):
    """Rows train_cmd's own detector gives; when train_cmd raised
    ConvergenceError, the same seeded training is run again here, once
    per run: every pass trains the same detector."""
    ds = pipeline.read_dataset(path)
    if det is None:
        key = (path, train_win, val_win, repr(cfg))
        if key not in _rebuilt:
            features, sequence = pipeline.dataset_features(ds)
            _rebuilt[key] = gan.train(features, cfg, train_win, val_win, sequence=sequence)
        det = _rebuilt[key]
    features, _ = pipeline.dataset_features(ds, sequence=det.sequence)
    return gan.scan(det, features)


def check(wl, out, reference, n_records):
    """(attempted, failed, notes) for one pass.

    A sweep point fails when it raised or its spectrum misses the
    reference.  A detector step fails when it raised anything but
    ConvergenceError, or when its output fails its check: one finite row
    per record, and scan_cmd's curve from the reloaded checkpoint equal
    to the curve of the detector train_cmd built.
    """
    attempted = failed = 0
    notes = []
    if out["sweep"] is not None:
        cfg, ds = out["sweep"]
        grid = [float(c) for c in cfg.grid()]
        attempted += len(grid)
        if isinstance(ds, Exception):
            notes.append(f"sweep: {ds!r}")
            records = {}
        else:
            records = {r.control_value: r for r in ds.records}
        for c in grid:
            if c not in records:
                failed += 1
                notes.append(f"point {c!r}: no record")
                continue
            err = mismatch(spectrum_table(records[c]), reference[c])
            if not err <= wl.tolerance:
                failed += 1
                notes.append(f"point {c!r}: spectrum off its reference by {err:.3e}")
    for (path, cfg, train_win, val_win, det), curve in zip(out["train"], out["scan"]):
        attempted += 2
        name = os.path.basename(path)
        if isinstance(det, Exception):
            failed += 1
            notes.append(f"train {name}: {det!r}")
        if isinstance(curve, Exception):
            failed += 1
            notes.append(f"scan {name}: {curve!r}")
            continue
        n = n_records.get(path) or len(pipeline.read_dataset(path).records)
        ok = _finite_rows(curve, n)
        if ok and not isinstance(det, Exception):
            want = _detector_rows(path, cfg, train_win, val_win, det)
            ok = len(want) == len(curve.rows) and all(
                row.get(key) == w[key] for row, w in zip(curve.rows, want) for key in w
            )
        if not ok:
            failed += 1
            notes.append(f"scan {name}: rows fail their check")
    if out["stability"] is not None:
        path, curve = out["stability"]
        attempted += 1
        if isinstance(curve, Exception) or not _finite_rows(curve, n_records[path]):
            failed += 1
            notes.append(f"stability {os.path.basename(path)}: {curve!r}")
    return attempted, failed, notes


# ------------------------------------------------------------------ main

def conditions():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "python": sys.version.split()[0],
    }


def setup(wl):
    """Inputs and references: the part of set-up after the imports."""
    if wl.reference == "ed":
        reference = EdReference(wl.sweep["model_id"], wl.sweep["L"])
    elif wl.reference is not None:
        reference = load_reference(wl.reference)
    else:
        reference = None
    inputs = {flow[0] for flow in wl.flows if flow[0]}
    if wl.stability is not None:
        inputs.add(wl.stability[0])
    n_records = {}
    for path in sorted(inputs):
        path = os.path.join(ROOT, path)
        n_records[path] = len(pipeline.read_dataset(path).records)
    return reference, n_records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in run.py just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    reference, n_records = setup(wl)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(WORK, exist_ok=True)
    walls, written, notes = [], [], []
    attempted = failed = 0
    traced = None

    def one_pass(tracer=None):
        nonlocal attempted, failed
        tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
        try:
            if tracer is not None:
                layers.install(tracer, pipeline, dmrg, gan)
            try:
                wall, written, out = run_body(wl, args.seed, tmp)
            finally:
                if tracer is not None:
                    tracer.restore()
            a, f, n = check(wl, out, reference, n_records)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        attempted += a
        failed += f
        notes.extend(n)
        return wall, written

    if args.trace:
        untraced, _ = one_pass()
        traced = layers.Tracer()
        wall, _ = one_pass(traced)
        metrics = layers.layer_metrics(traced)
        metrics["trace.overhead_ratio"] = wall / untraced - 1.0
        traced.write_spans(os.path.join(WORK, f"spans-{args.workload}.csv"))
    else:
        # another pass while at least half of one is left of --seconds, so
        # the timed total ends within half a pass of it
        while True:
            wall, records = one_pass()
            walls.append(wall)
            written.append(records)
            if args.seconds - sum(walls) < wall / 2:
                break
        metrics = None

    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "written": written,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "layers": metrics,
        "missing": traced.missing if traced else [],
        "conditions": conditions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
