"""Sweep an XXZ chain across its BKT point and flag it by anomaly score.

The ground state of H = -J sum [ (S+S- + h.c.)/2 + Delta Sz Sz ] is
critical for -1 <= Delta/J <= 1 and gaps out below Delta/J = -1.  The
detector never sees a label: it learns to reconstruct entanglement
spectra deep in the critical phase and is then asked to score the whole
sweep.  The reconstruction error stays flat where the physics looks
like the training data and climbs steeply once the gap opens.

Runs in about half a minute; writes its artifacts to demo_output/.
"""

import os

import numpy as np

from esgan.gan import default_train_config, leftmost_crossing, scan, split_windows, train
from esgan.pipeline import (
    ScoreCurve,
    SweepConfig,
    dataset_features,
    generate,
    read_dataset,
    write_curve,
)

L = 16
STEP = 0.0125  # ~53 training records; coarser sweeps starve the optimizer
TRAIN_WIN = (-0.65, 0.0)
VAL_WIN = (-0.8, -0.65)
SEED = 0
OUT_DIR = "demo_output"
DATASET = os.path.join(OUT_DIR, f"xxz_L{L}_sweep.ds")


def main():
    os.makedirs(OUT_DIR, exist_ok=True)

    if os.path.exists(DATASET):
        ds = read_dataset(DATASET)
        print(f"reusing {DATASET} ({len(ds.records)} records)")
    else:
        print(f"sweeping Delta/J in [-1.5, 0] at step {STEP} (L = {L}) ...")
        cfg = SweepConfig(
            model_id="xxz", L=L, control_min=-1.5, control_max=0.0,
            step=STEP, out_path=DATASET,
        )
        ds, _ = generate(cfg)
        print(f"{len(ds.records)} ground states -> {DATASET}")

    features, _ = dataset_features(ds)

    # 500 epochs: the sweep holds ~27 training records, so one epoch is a
    # single optimizer step and the default budget is too lean here
    tcfg = default_train_config("xxz", seed=SEED, epochs_max=500)
    det = train(features, tcfg, TRAIN_WIN, VAL_WIN)
    final = det.history[-1]["train_loss"]
    print(f"trained {len(det.history)} epochs, final rec loss {final:.2e}")

    rows = scan(det, features)
    c = np.array([r["control_value"] for r in rows])
    s = np.array([r["anomaly_score"] for r in rows])
    train_idx, _ = split_windows(list(c), TRAIN_WIN, VAL_WIN)
    p95 = float(np.percentile(s[train_idx], 95))
    cross = leftmost_crossing(list(c), list(s), 5.0 * p95)

    print(f"\ntraining-window p95 = {p95:.2e};"
          f" score crosses 5x p95 at Delta/J = {cross}")
    print(f"{'Delta/J':>8s} {'score':>10s}  (one # per 4x p95, capped)")
    for i in range(0, len(c), 2):
        bar = "#" * min(40, int(s[i] / (4.0 * p95)))
        mark = " <- crossing" if cross is not None and abs(c[i] - cross) < STEP else ""
        print(f"{c[i]:8.3f} {s[i]:10.2e}  {bar}{mark}")

    out = os.path.join(OUT_DIR, f"xxz_L{L}_scores.csv")
    write_curve(out, ScoreCurve(rows=rows))
    print(f"\nscore curve -> {out}")


if __name__ == "__main__":
    main()
