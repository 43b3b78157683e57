"""Record the reference spectra of the sweeps checked against a file.

    python3 perfbench/record_references.py [--seed N] [workload ...]

Runs each sweep once through pipeline.generate and writes every level of
every point, p as a hex float, to perfbench/references/<workload>.json.
Record only from a commit whose spectra are trusted: the bench fails a
point whose spectrum moves by more than the workload's tolerance.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

import bench


def record(name, seed):
    wl = bench.WORKLOADS[name]
    os.makedirs(bench.WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=bench.WORK)
    try:
        cfg = bench.SweepConfig(**wl.sweep, seed=seed, out_path=os.path.join(tmp, "sweep.ds"))
        ds, _ = bench.pipeline.generate(cfg, log=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    points = {
        float(r.control_value).hex(): [[list(e.charge), e.k, float(e.p).hex()] for e in r.entries]
        for r in ds.records
    }
    path = os.path.join(bench.HERE, "references", wl.reference)
    with open(path, "w") as fh:
        json.dump({"workload": name, "sweep": wl.sweep, "seed": seed, "points": points}, fh)
        fh.write("\n")
    print(f"{len(points)} points -> {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    file_refs = [n for n, wl in bench.WORKLOADS.items() if wl.reference not in (None, "ed")]
    for name in args.workloads or file_refs:
        if name not in file_refs:
            parser.error(f"{name} is not checked against a reference file")
        record(name, args.seed)


if __name__ == "__main__":
    main()
