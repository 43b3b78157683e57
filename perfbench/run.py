"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts bench.py in fresh
processes with one BLAS/OpenMP thread: one process that measures the
workload and, with --trace 0, three set-up-only processes before it and
three after it (set-up time is the median of those and the measuring
one).  Timings are means over the run's passes.  It prints
every metric by name, value and unit, then the run conditions, and as
its last line one JSON object: correct, attempted, failed and metrics
(end-to-end with --trace 0, per-layer with --trace 1).

With --trace 1 the counts that must repeat for the same seed are kept in
.perfbench_work/counts.json and compared with the previous traced run of
that workload and seed; a count that differs is reported.

It exits with status 2, printing no result, when the checkout holds no
package source, and with status 1 when the workload process fails or
runs out of time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from layers import PER_LAYER, REPEATABLE  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 6
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def spawn(args, env, deadline, setup_only=False):
    """Start bench.py, wait for it, and return its last output line as JSON."""
    cmd = [
        sys.executable, os.path.join(HERE, "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the workload started")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"bench.py ran past {DEADLINE_S:.0f} s and was stopped") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"bench.py exited with status {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def compare_counts(workload, seed, metrics):
    """Differences from the last traced run of this workload and seed."""
    path = os.path.join(WORK, "counts.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    key = f"{workload}/seed{seed}"
    counts = {name: metrics[name] for name in REPEATABLE}
    before = store.get(key)
    diffs = [
        f"{name}: {before[name]!r} then {counts[name]!r}"
        for name in REPEATABLE
        if before is not None and name in before and before[name] != counts[name]
    ]
    store[key] = counts
    with open(path + ".tmp", "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return before is not None, diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description="esgan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "esgan")):
        print(f"error: no package source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    load_start = os.getloadavg()
    try:
        # half the set-up probes before the measuring process and half
        # after it, so that their median spans the whole run
        probes = 0 if args.trace else SETUP_PROBES // 2
        setups = [spawn(args, env, deadline, setup_only=True)["setup_s"]
                  for _ in range(probes)]
        res = spawn(args, env, deadline)
        setups += [spawn(args, env, deadline, setup_only=True)["setup_s"]
                   for _ in range(probes)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()

    os.makedirs(WORK, exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        values = res["layers"]
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        repeated, diffs = compare_counts(args.workload, args.seed, values)
        for name in res["missing"]:
            print(f"missing layer: {name}")
        if not repeated:
            print("counts: first traced run of this workload and seed")
        for diff in diffs:
            print(f"count differs from the last run with this seed: {diff}")
        if repeated and not diffs:
            print("counts: same as the last run with this seed")
    else:
        # means over the whole run, not medians of its passes: the host's
        # speed switches between two levels up to 1.45x apart for spells of
        # ten seconds to minutes, so a median of a few passes jumps between
        # the levels
        walls = res["walls"]
        values = {
            "setup_s": statistics.median(setups + [res["setup_s"]]),
            "wall_s": sum(walls) / len(walls),
            "points_per_s": sum(res["written"]) / sum(walls),
            "fail_ratio": res["failed"] / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
        print(f"passes {len(walls)}: wall_s {walls}")
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    for note in res["notes"]:
        print(f"failed: {note}")
    cond = {
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "threads": {var: env[var] for var in THREAD_VARS},
        "platform": platform.platform(),
        **res["conditions"],
    }
    print("conditions " + json.dumps(cond, sort_keys=True))

    # fail_ratio is carried by attempted/failed; it is 0 on a good run
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in values.items()
        if name != "fail_ratio"
    }
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
