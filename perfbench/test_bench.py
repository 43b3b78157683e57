"""Smoke test of the benchmark at toy size (XXZ L=6, 3 points, 5 epochs).

    python3 -m pytest perfbench/test_bench.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402


def run_bench(trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    lines = run_bench(trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(
            line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"])
            for line in lines
        ), m["name"]
    if trace == 0:
        assert "fail_ratio 0.0 ratio" in lines


def test_counts_repeat_for_the_same_seed():
    run_bench(1, seed=5)
    lines = run_bench(1, seed=5)
    assert "counts: same as the last run with this seed" in lines
    assert not [line for line in lines if line.startswith("count differs")]


def test_perturbed_reference_raises_fail_ratio(tmp_path):
    wl = bench.WORKLOADS["smoke"]
    reference, n_records = bench.setup(wl)
    _, _, out = bench.run_body(wl, seed=3, tmp=str(tmp_path))
    attempted, failed, notes = bench.check(wl, out, reference, n_records)
    assert attempted > 0 and failed == 0, notes

    cfg, _ = out["sweep"]
    control = float(cfg.grid()[1])
    perturbed = {c: dict(reference[c]) for c in map(float, cfg.grid())}
    level = max(perturbed[control], key=perturbed[control].get)
    perturbed[control][level] += 1e-6
    attempted, failed, notes = bench.check(wl, out, perturbed, n_records)
    assert failed / attempted > 0
    assert any("spectrum off its reference" in note for note in notes)
