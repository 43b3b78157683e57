"""File formats, sweep resume semantics, command orchestration, CLI
behavior and exit codes, all at toy sizes."""

import io
import itertools
import multiprocessing
import os
import re
import shlex
import signal
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from esgan import cli, pipeline
from esgan.gan import ConfigError, default_train_config
from esgan.models import build_model, control_value
from esgan.pipeline import (
    CHUNK,
    ConvergenceError,
    ScoreCurve,
    SolverError,
    SpectrumDataset,
    SweepConfig,
    dataset_features,
    generate,
    kl_cmd,
    read_curve,
    read_dataset,
    scan_cmd,
    stability_cmd,
    towers_cmd,
    train_cmd,
    write_curve,
    write_dataset,
)
from esgan.solver import ed_ground_state, schmidt_decompose
from esgan.spectra import make_labeled_spectrum


def tiny_sweep(tmp_path, count=5, L=6, lo=-1.0, hi=0.0, name="t.ds", **kwargs):
    cfg = SweepConfig(
        model_id="xxz",
        L=L,
        control_min=lo,
        control_max=hi,
        count=count,
        chi_max=16,
        out_path=str(tmp_path / name),
    )
    return generate(cfg, **kwargs)


DEMO = os.path.join(os.path.dirname(os.path.dirname(__file__)), "demo_output")


# ----------------------------------------------------------------- formats

def test_dataset_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    p = rng.uniform(0.01, 1.0, size=6)
    p /= p.sum()
    rec = make_labeled_spectrum(
        p,
        [(c,) for c in [2, 2, 3, 3, 4, 1]],
        model_id="xxz",
        L=8,
        bipartition=4,
        filling=(Fraction(1, 2),),
        control_value=-0.123456789123456789,
        truncation_error=1.25e-13,
    )
    ds = SpectrumDataset(
        model_id="xxz",
        L=8,
        filling=rec.filling,
        bipartition=4,
        chi_max=16,
        svd_cutoff=1e-10,
        seed=7,
        records=[rec],
    )
    path = str(tmp_path / "rt.ds")
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.model_id == ds.model_id and back.L == ds.L
    assert back.filling == ds.filling
    assert back.svd_cutoff == ds.svd_cutoff
    r = back.records[0]
    assert r.control_value == rec.control_value
    assert r.truncation_error == rec.truncation_error
    for a, b in zip(r.entries, rec.entries):
        assert a.p == b.p and a.charge == b.charge and a.k == b.k
    # second write is byte-identical
    path2 = str(tmp_path / "rt2.ds")
    write_dataset(path2, back)
    with open(path, "rb") as f1, open(path2, "rb") as f2:
        assert f1.read() == f2.read()


def test_dataset_rejects_duplicate_controls(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=3)
    ds.records.append(ds.records[0])
    with pytest.raises(ValueError):
        write_dataset(path, ds)


def test_read_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.ds"
    p.write_text("hello\n")
    with pytest.raises(ValueError):
        read_dataset(str(p))


def _two_record_file(tmp_path):
    recs = [
        make_labeled_spectrum(
            [0.75, 0.25 - 1e-9], [(2,), (3,)], model_id="xxz", L=4,
            bipartition=2, filling=(Fraction(1, 2),), control_value=c,
        )
        for c in (-0.5, 0.0)
    ]
    ds = SpectrumDataset(
        model_id="xxz", L=4, filling=(Fraction(1, 2),), bipartition=2,
        chi_max=16, svd_cutoff=1e-10, seed=7, records=recs,
    )
    path = str(tmp_path / "two.ds")
    write_dataset(path, ds)
    with open(path) as fh:
        return path, fh.read().splitlines()


@pytest.mark.parametrize(
    "cut, edit, line",
    [
        (-1, None, 22),  # ends inside the second record's entries
        (-6, None, 17),  # ends after whole records, short of n_records
        (None, (18, "contrl 0x0.0p+0"), 19),  # record field misnamed
        (None, (21, "entry 2 0 0xzz"), 22),  # probability garbled
        (None, (3, "L four"), 4),  # header value garbled
        (None, (17, "record"), 18),  # record marker garbled
        (None, (1, "format_version 7"), 2),  # unknown format version
        (None, (6, "chi_max 16\nchi_max 8"), 8),  # a second chi_max line
        (None, (8, "boundary periodic"), 9),  # a chain other than open
        (None, (18, "control -0x1.0000000000000p-1"), 19),  # the first record's control again
        (None, (15, "entry 2 1 0x1.8000000000000p-1"), 16),  # rank 1 in a one-level sector
    ],
)
def test_read_rejects_truncated_and_garbled_files(tmp_path, cut, edit, line):
    path, lines = _two_record_file(tmp_path)
    assert read_dataset(path).records  # the intact file reads
    if cut is not None:
        lines = lines[:cut]
    if edit is not None:
        lines[edit[0]] = edit[1]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: "):
        read_dataset(path)


def test_curve_round_trip(tmp_path):
    curve = ScoreCurve(
        rows=[
            {"control_value": -1.0, "anomaly_score": 0.25},
            {"control_value": 0.0, "anomaly_score": -0.125},
        ],
        metadata={"dataset": "d.ds"},
    )
    path = str(tmp_path / "c.csv")
    write_curve(path, curve)
    back = read_curve(path)
    assert back.metadata["dataset"] == "d.ds"
    assert back.rows == curve.rows


def _run_config_file(path):
    cli.run(["generate", "xxz", "-L", "6", "--count", "3", "--config", path])


def _run_train_config_file(path):
    # the config file is read before the dataset, which need not exist
    cli.run([
        "train", "missing.ds", "--train-window", "-0.5", "0",
        "--val-window", "-1", "-0.5", "--config", path,
    ])


@pytest.mark.parametrize(
    "read, text, line",
    [
        (read_curve, "# k v\na,b\n1.0,2.0\n1.0,x\n", 4),  # bad value
        (read_curve, "a,b\n1.0\n", 2),  # too few fields
        (read_curve, "a,b\n1.0,2.0\n1.0,2.0,3.0\n", 3),  # too many fields
        (read_curve, "# k v\n", 2),  # no header line
        (read_curve, "", 1),  # empty file
        (_run_config_file, "count 3\n\nchi-max  # no value\n", 3),
        (_run_train_config_file, "seed 1\nno-adversarial yes\n", 2),
        (_run_config_file, "count 3\ncolour blue\n", 2),
    ],
    ids=["bad-value", "short-row", "long-row", "no-header", "empty",
         "config-no-value", "config-switch-value", "config-unknown-key"],
)
def test_readers_name_path_and_line(tmp_path, read, text, line):
    path = str(tmp_path / "input.txt")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: "):
        read(path)


# ------------------------------------------------------------------ sweeps

def test_generate_produces_one_record_per_grid_point(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=5)
    assert len(ds.records) == 5
    assert np.allclose(ds.controls(), np.linspace(-1.0, 0.0, 5))
    total = [sum(e.p for e in r.entries) for r in ds.records]
    assert all(t >= 1 - 1e-6 for t in total)


def test_generate_resume_skips_existing_points(tmp_path):
    import time

    ds, path = tiny_sweep(tmp_path, count=5)
    with open(path, "rb") as fh:
        before = fh.read()
    t0 = time.time()
    ds2, _ = tiny_sweep(tmp_path, count=5)
    assert time.time() - t0 < 0.5  # no recomputation
    with open(path, "rb") as fh:
        assert fh.read() == before


def _head_of_grid(tmp_path, monkeypatch, name, count):
    # a shorter sweep over the first two points of the grid
    generate(SweepConfig(
        model_id="xxz", L=6, control_min=-1.0, control_max=-0.75,
        count=2, chi_max=16, out_path=str(tmp_path / name),
    ))


def _stopped_in_second_chunk(tmp_path, monkeypatch, name, count):
    # the full sweep, interrupted by the third solve of its second chunk
    solves = itertools.count()
    solve = pipeline.dmrg_ground_state

    def interrupted(*args, **kwargs):
        if next(solves) == CHUNK + 2:
            raise KeyboardInterrupt
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "dmrg_ground_state", interrupted)
        m.setattr(pipeline, "_sweep_workers", lambda: 1)
        with pytest.raises(KeyboardInterrupt):
            tiny_sweep(tmp_path, count=count, name=name)
    # the chunk in flight is lost, the finished one kept
    assert len(read_dataset(str(tmp_path / name)).records) == CHUNK


def _fan_out_stopped_at_second_write(tmp_path, monkeypatch, name, count):
    # three chunks in two worker processes; the parent is interrupted at
    # its second file write, while the third chunk may be in flight
    writes = itertools.count()
    write = pipeline.write_dataset

    def interrupted(*args, **kwargs):
        if next(writes) == 1:
            raise KeyboardInterrupt
        return write(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(pipeline, "write_dataset", interrupted)
        m.setattr(pipeline, "_sweep_workers", lambda: 2)
        with pytest.raises(KeyboardInterrupt):
            tiny_sweep(tmp_path, count=count, name=name)
    assert multiprocessing.active_children() == []
    assert len(read_dataset(str(tmp_path / name)).records) == CHUNK


@pytest.mark.parametrize(
    "count, partial",
    [
        (5, _head_of_grid),
        (CHUNK + 4, _stopped_in_second_chunk),
        (2 * CHUNK + 3, _fan_out_stopped_at_second_write),
    ],
    ids=["head", "second_chunk", "fan_out"],
)
def test_generate_interrupted_then_resumed_equals_uninterrupted(
    tmp_path, monkeypatch, count, partial
):
    # straight run
    full, path_a = tiny_sweep(tmp_path, count=count, name="a.ds")
    # the same grid after a partial run
    partial(tmp_path, monkeypatch, "b.ds", count)
    tiny_sweep(tmp_path, count=count, name="b.ds")
    with open(path_a, "rb") as fa, open(tmp_path / "b.ds", "rb") as fb:
        a, b = fa.read(), fb.read()
    # headers record each sweep's grid origin; records must match exactly
    a_rec = a[a.index(b"[record]"):]
    b_rec = b[b.index(b"[record]"):]
    assert a_rec == b_rec


def _sweep_bytes(monkeypatch, cfg, path, workers):
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_sweep_workers", lambda: workers)
        generate(replace(cfg, out_path=str(path)), log=io.StringIO())
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize(
    "model_id, L, lo, hi, count",
    [("xxz", 6, -1.0, 0.0, 2 * CHUNK + 3), ("bh2s", 4, -0.4, 0.0, CHUNK + 2)],
    ids=["xxz", "bh2s"],
)
def test_generate_bytes_do_not_depend_on_worker_count(
    tmp_path, monkeypatch, model_id, L, lo, hi, count
):
    cfg = SweepConfig(model_id=model_id, L=L, control_min=lo, control_max=hi,
                      count=count, chi_max=16)
    serial = _sweep_bytes(monkeypatch, cfg, tmp_path / "serial.ds", workers=1)
    assert _sweep_bytes(monkeypatch, cfg, tmp_path / "fan_out.ds", workers=2) == serial
    ds = read_dataset(str(tmp_path / "serial.ds"))
    assert len(ds.records) == count
    assert {len(e.charge) for r in ds.records for e in r.entries} == {len(ds.filling)}


def test_resume_over_holes_in_two_chunks_is_worker_count_independent(
    tmp_path, monkeypatch
):
    cfg = SweepConfig(model_id="xxz", L=6, control_min=-1.0, control_max=0.0,
                      count=2 * CHUNK + 3, chi_max=16)
    full = _sweep_bytes(monkeypatch, cfg, tmp_path / "full.ds", workers=1)
    holed = read_dataset(str(tmp_path / "full.ds"))
    holes = {3, 4, 2 * CHUNK + 1}  # in the first and the third chunk
    holed.records = [r for n, r in enumerate(holed.records) if n not in holes]
    for workers in (1, 2):
        path = tmp_path / f"resumed{workers}.ds"
        write_dataset(str(path), holed)
        assert _sweep_bytes(monkeypatch, cfg, path, workers) == full


def test_failing_point_is_logged_and_skipped_in_any_worker(tmp_path, monkeypatch):
    count = 2 * CHUNK
    bad = float(np.linspace(-1.0, 0.0, count)[CHUNK + 1])  # in the second chunk
    solve = pipeline.dmrg_ground_state

    def failing(spec, *args, **kwargs):
        if control_value(spec) == bad:
            raise RuntimeError("no ground state")
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(pipeline, "dmrg_ground_state", failing)
    files = []
    for workers in (1, 2):
        log = io.StringIO()
        monkeypatch.setattr(pipeline, "_sweep_workers", lambda: workers)
        ds, path = tiny_sweep(tmp_path, count=count, name=f"w{workers}.ds", log=log)
        assert log.getvalue().splitlines() == [
            f"[generate] {bad:g} failed: no ground state"
        ]
        assert len(ds.records) == count - 1 and bad not in ds.controls()
        with open(path, "rb") as fh:
            files.append(fh.read())
    assert files[0] == files[1]


def test_killed_worker_raises_instead_of_hanging(tmp_path, monkeypatch):
    # a worker killed from outside loses its chunk; the pool would wait
    # for that chunk forever
    count = 2 * CHUNK
    doomed = float(np.linspace(-1.0, 0.0, count)[CHUNK + 1])  # second chunk
    parent = os.getpid()
    solve = pipeline.dmrg_ground_state

    def killed(spec, *args, **kwargs):
        if control_value(spec) == doomed and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(spec, *args, **kwargs)

    monkeypatch.setattr(pipeline, "dmrg_ground_state", killed)
    monkeypatch.setattr(pipeline, "_sweep_workers", lambda: 2)
    with pytest.raises(SolverError, match="exit code -9"):
        tiny_sweep(tmp_path, count=count, log=io.StringIO())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "env, workers",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
        ({"MKL_NUM_THREADS": "8"}, 1),
    ],
    ids=["unset", "openblas-1", "omp-2", "openblas-first", "mkl-8"],
)
def test_sweep_workers_share_the_cpus_with_blas_threads(monkeypatch, env, workers):
    for var in pipeline.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
    assert pipeline._sweep_workers() == workers


def _fresh_python(code, *args, **env):
    """Last stdout line of ``code`` run in a new interpreter that imports
    esgan from this checkout, with ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return out.stdout.strip().splitlines()[-1]


def test_importing_pipeline_loads_no_process_pool():
    # the pool's modules load only when a sweep fans out, which keeps
    # them out of every command's start-up time
    code = (
        "import sys, esgan.pipeline; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    assert _fresh_python(code) == "[]"


SCIPY = "[m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules]"

DETECTION_WITHOUT_SCIPY = f"""
import io, os, sys
import esgan, esgan.cli
from esgan import cli, pipeline
from esgan.gan import default_train_config
demo, out = sys.argv[1:]
bh, xxz = (os.path.join(demo, n) for n in ("bh_L12_sweep.ds", "xxz_L16_sweep.ds"))
ckpt = os.path.join(out, "det.json")
codes = [cli.main(argv) for argv in (
    ["train", bh, "--train-window", "0", "2.5", "--val-window", "2.5", "3",
     "--epochs-max", "3", "--out", ckpt],
    ["scan", ckpt, bh, "--kl", "--out", os.path.join(out, "scan.csv")],
    ["kl", xxz, "--out", os.path.join(out, "kl.csv")],
    ["towers", xxz, "--control", "-0.5", "--out", os.path.join(out, "towers.csv")],
)]
pipeline.stability_cmd(xxz, [(-0.65, 0.0), (-0.5, 0.0)],
                       cfg=default_train_config("xxz", epochs_max=2),
                       out_path=os.path.join(out, "stability.csv"), log=io.StringIO())
detection = {SCIPY}
from esgan.models import build_model
from esgan.solver import DmrgConfig, dmrg_ground_state, ed_ground_state, schmidt_decompose
schmidt_decompose(dmrg_ground_state(build_model("xxz", 4, -0.5), DmrgConfig(chi_max=4)))
sweep = {SCIPY}
ed_ground_state(build_model("xxz", 4, -0.5))
print(codes, detection, sweep, {SCIPY})
"""


def test_detection_commands_load_no_scipy(tmp_path):
    # scipy serves only exact diagonalization; loading it would double
    # the start-up time of every command that reads a dataset, and add
    # its import to every sweep (train stops after 3 epochs unconverged:
    # exit code 3)
    assert _fresh_python(DETECTION_WITHOUT_SCIPY, DEMO, tmp_path) == (
        "[3, 0, 0, 0] [] [] ['scipy.linalg', 'scipy.sparse']"
    )


FAN_OUT_WITHOUT_SCIPY = f"""
import multiprocessing, sys
from esgan import pipeline
workers, out = int(sys.argv[1]), sys.argv[2]
pipeline._sweep_workers = lambda: workers
before = {SCIPY}
pipeline.generate(pipeline.SweepConfig(
    model_id="xxz", L=6, control_min=-1.0, control_max=0.0, count=20,
    chi_max=16, out_path=out))
print(before, {SCIPY}, multiprocessing.active_children())
"""


def test_fan_out_from_a_parent_without_scipy(tmp_path):
    # a sweep runs on numpy alone, whether the parent solves both chunks
    # or two forked workers solve one each, and the files are equal
    runs = {}
    for workers in (1, 2):
        path = tmp_path / f"w{workers}.ds"
        runs[workers] = _fresh_python(FAN_OUT_WITHOUT_SCIPY, workers, path,
                                      OPENBLAS_NUM_THREADS="1")
    assert runs == {1: "[] [] []", 2: "[] [] []"}
    assert (tmp_path / "w2.ds").read_bytes() == (tmp_path / "w1.ds").read_bytes()


def _spectrum_table(spectrum):
    return {(e.charge, e.k): e.p for e in spectrum.entries}


@pytest.mark.parametrize(
    "model_id, L, lo, hi, step",
    [("xxz", 8, -1.1, -0.9, 0.025), ("bh", 6, 3.0, 3.8, 0.1)],
    ids=["xxz_bkt", "bh_bkt"],
)
def test_warm_started_chains_match_ed_across_transitions(tmp_path, model_id, L, lo, hi, step):
    cfg = SweepConfig(
        model_id=model_id, L=L, control_min=lo, control_max=hi, step=step,
        svd_cutoff=0.0, out_path=str(tmp_path / "chain.ds"),
    )
    assert 1 < cfg.grid().size <= CHUNK  # one chunk: every later point is warm
    ds, _ = generate(cfg)
    assert len(ds.records) == cfg.grid().size
    for rec in ds.records:
        _, state = ed_ground_state(build_model(model_id, L, rec.control_value))
        got, want = _spectrum_table(rec), _spectrum_table(schmidt_decompose(state))
        for key in got.keys() | want.keys():
            if max(got.get(key, 0.0), want.get(key, 0.0)) > 1e-10:
                assert abs(got.get(key, 0.0) - want.get(key, 0.0)) < 1e-9, (
                    rec.control_value, key
                )


def test_generate_logs_unconverged_points_and_keeps_them(tmp_path, monkeypatch):
    # cold solves get a tolerance of zero, which no change of the sweep
    # energy is below, so every point ends unconverged; a warm solve keeps
    # the default tolerance and would converge, so the log also shows that
    # no unconverged state seeds the next point
    solve = pipeline.dmrg_ground_state
    monkeypatch.setattr(
        pipeline, "dmrg_ground_state",
        lambda spec, config, psi0=None: solve(
            spec, replace(config, energy_tol=0.0) if psi0 is None else config, psi0
        ),
    )
    cfg = SweepConfig(
        model_id="xxz", L=6, control_min=-1.0, control_max=0.0, count=3,
        chi_max=16, max_sweeps=4, out_path=str(tmp_path / "u.ds"),
    )
    log = io.StringIO()
    ds, path = generate(cfg, log=log)
    assert len(read_dataset(path).records) == len(ds.records) == 3
    assert log.getvalue().splitlines() == [
        f"[generate] {c:g} not converged in 4 sweeps" for c in (-1.0, -0.5, 0.0)
    ]


def test_generate_returns_what_the_file_holds(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=3, name="f.ds")
    assert ds == read_dataset(path)
    # resume around existing points: new records land on both sides
    cfg_tail = SweepConfig(
        model_id="xxz", L=6, control_min=-0.5, control_max=0.0,
        count=2, chi_max=16, out_path=str(tmp_path / "r.ds"),
    )
    generate(cfg_tail)
    ds, path = tiny_sweep(tmp_path, count=5, name="r.ds")
    back = read_dataset(path)
    assert list(ds.controls()) == sorted(ds.controls())
    assert len(ds.records) == len(back.records) == 5
    for a, b in zip(ds.records, back.records):
        assert a == b
    assert ds == back


def test_generate_rejects_mismatched_existing_file(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=3)
    with open(path, "rb") as fh:
        before = fh.read()
    base = dict(model_id="xxz", L=6, control_min=-1.0, control_max=0.0, count=4,
                chi_max=16, out_path=path)
    for key, value in [("L", 8), ("chi_max", 32), ("svd_cutoff", 1e-12), ("seed", 7)]:
        with pytest.raises(ConfigError, match=f"holds {key}="):
            generate(SweepConfig(**{**base, key: value}))
    with open(path, "rb") as fh:
        assert fh.read() == before


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(model_id="xxz", L=6, control_min=0.0, control_max=-1.0, count=5)
    with pytest.raises(ConfigError):
        SweepConfig(model_id="xxz", L=6, control_min=-1.0, control_max=0.0)
    with pytest.raises(ConfigError):
        SweepConfig(model_id="xxz", L=6, control_min=-1.0, control_max=0.0,
                    count=5, step=0.1)
    with pytest.raises(ConfigError):
        SweepConfig(model_id="nope", L=6, control_min=-1.0, control_max=0.0, count=5)
    # two warm-up sweeps and no full-size sweep: no convergence test
    with pytest.raises(ConfigError, match="can never converge"):
        SweepConfig(model_id="xxz", L=6, control_min=-1.0, control_max=0.0,
                    count=5, max_sweeps=2)


def test_step_grid_point_count():
    cfg = SweepConfig(model_id="xxz", L=6, control_min=-1.5, control_max=0.0,
                      step=0.01)
    grid = cfg.grid()
    assert grid.size == 151
    assert grid[0] == -1.5 and abs(grid[-1]) < 1e-12


# ---------------------------------------------------------------- commands

def test_train_scan_kl_towers_end_to_end(tmp_path):
    # L = 8: the half chain holds an integer particle count at half
    # filling, so the delta_n = 0 sector needed by the towers exists
    ds, path = tiny_sweep(tmp_path, count=9, L=8)
    cfg = default_train_config(
        "xxz", epochs_max=15, batch_size=4, seed=1,
        threshold_train=10.0, threshold_val=10.0,  # stop immediately
    )
    det, ckpt = train_cmd(
        path, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg,
        out_path=str(tmp_path / "det.ckpt"),
    )
    assert det.converged and os.path.exists(ckpt)
    log = read_curve(ckpt + ".log.csv")
    assert list(log.rows[0].keys()) == [
        "epoch", "train_loss", "val_loss", "lr_G", "lr_D"
    ]

    curve, csv_path = scan_cmd(
        ckpt, path, out_path=str(tmp_path / "scan.csv"), with_kl=True
    )
    assert len(curve.rows) == 9
    controls = curve.column("control_value")
    assert np.all(np.diff(controls) > 0)
    assert "kl_value" in curve.rows[0]
    origin_row = curve.rows[-1]  # control 0 = reference
    assert origin_row["kl_value"] == 0.0

    kl_curve, _ = kl_cmd(path, out_path=str(tmp_path / "kl.csv"))
    assert [r["kl_value"] for r in kl_curve.rows] == [
        r["kl_value"] for r in curve.rows
    ]

    towers, _ = towers_cmd(path, -0.5, out_path=str(tmp_path / "tow.csv"))
    zero_rows = [r for r in towers.rows if r["delta_n"] == 0 and r["k"] == 0]
    assert zero_rows and zero_rows[0]["rescaled"] == 0.0


def test_train_cmd_reproduces_the_demo_detector_byte_for_byte(tmp_path):
    # the committed BH demo detector (demos/bose_hubbard_detection.py):
    # any change to the arithmetic of training moves a bit of it
    cfg = default_train_config("bh", seed=0, epochs_max=500)
    ckpt = str(tmp_path / "det.json")
    train_cmd(os.path.join(DEMO, "bh_L12_sweep.ds"), (0.0, 2.5), (2.5, 3.0),
              cfg=cfg, out_path=ckpt)
    for produced, committed in ((ckpt, "bh_L12_detector.json"),
                                (ckpt + ".log.csv", "bh_L12_detector.json.log.csv")):
        with open(produced, "rb") as fh, open(os.path.join(DEMO, committed), "rb") as ref:
            assert fh.read() == ref.read(), committed


def test_train_cmd_nonconvergence_still_writes_checkpoint(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=9, L=6)
    cfg = default_train_config("xxz", epochs_max=2, batch_size=4, seed=1)
    ckpt = str(tmp_path / "det.ckpt")
    with pytest.raises(ConvergenceError):
        train_cmd(path, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg, out_path=ckpt)
    assert os.path.exists(ckpt)
    from esgan.gan import load_detector

    assert load_detector(ckpt).converged is False


def test_scan_cmd_rejects_model_mismatch(tmp_path, monkeypatch):
    ds, path = tiny_sweep(tmp_path, count=9, L=6)
    cfg = default_train_config(
        "xxz", epochs_max=2, batch_size=4, seed=1,
        threshold_train=10.0, threshold_val=10.0,
    )
    det, ckpt = train_cmd(
        path, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg,
        out_path=str(tmp_path / "det.ckpt"),
    )
    other = read_dataset(path)
    other.model_id = "bh"
    from esgan.pipeline import write_dataset

    bad = str(tmp_path / "bad.ds")
    write_dataset(bad, other)
    with pytest.raises(ConfigError, match="bh"):
        scan_cmd(ckpt, bad, out_path=str(tmp_path / "x.csv"))


def test_cross_size_scan_uses_datasets_own_sequence(tmp_path):
    ds6, path6 = tiny_sweep(tmp_path, count=9, L=6, name="L6.ds")
    ds8, path8 = tiny_sweep(tmp_path, count=9, L=8, name="L8.ds")
    cfg = default_train_config(
        "xxz", epochs_max=5, batch_size=4, seed=1,
        threshold_train=10.0, threshold_val=10.0,
    )
    det, ckpt = train_cmd(
        path6, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg,
        out_path=str(tmp_path / "det.ckpt"),
    )
    curve, _ = scan_cmd(ckpt, path8, out_path=str(tmp_path / "cross.csv"))
    assert len(curve.rows) == 9
    assert all(np.isfinite(r["anomaly_score"]) for r in curve.rows)


def test_scan_cmd_takes_the_width_from_the_checkpoint(tmp_path):
    from esgan import gan

    ds6, path6 = tiny_sweep(tmp_path, count=9, L=6, name="L6.ds")
    ds8, path8 = tiny_sweep(tmp_path, count=9, L=8, name="L8.ds")
    cfg = default_train_config(
        "xxz", epochs_max=2, batch_size=4, seed=1,
        threshold_train=10.0, threshold_val=10.0,
    )
    features, sequence = dataset_features(ds6, n_feat=16)
    det = gan.train(features, cfg, (-0.5, 0.0), (-1.0, -0.5), sequence=sequence)
    ckpt = str(tmp_path / "det16.ckpt")
    gan.save_detector(ckpt, det)
    curve, _ = scan_cmd(ckpt, path6, out_path=str(tmp_path / "same.csv"))
    assert curve.rows == gan.scan(det, features)
    curve, _ = scan_cmd(ckpt, path8, out_path=str(tmp_path / "cross.csv"))
    assert curve.rows == gan.scan(det, dataset_features(ds8, n_feat=16)[0])


def test_stability_cmd_multi_window(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=21, L=6)
    cfg = default_train_config(
        "xxz", epochs_max=3, batch_size=4, seed=2,
        threshold_train=10.0, threshold_val=10.0,
    )
    curve, out = stability_cmd(
        path, [(-0.5, 0.0), (-0.4, 0.0)], cfg=cfg,
        out_path=str(tmp_path / "stab.csv"),
    )
    assert set(curve.rows[0].keys()) == {"control_value", "score_w0", "score_w1"}
    assert len(curve.rows) == 21
    with pytest.raises(ConfigError):
        stability_cmd(path, [(-0.5, 0.0)], cfg=cfg)


def _stability_run(tmp_path, monkeypatch, workers, name):
    """(file bytes, log) of a three-window stability run in ``workers``
    forked workers."""
    ds, path = tiny_sweep(tmp_path, count=21, L=6, name="stab.ds")
    cfg = default_train_config(
        "xxz", epochs_max=3, batch_size=4, seed=2,
        threshold_train=10.0, threshold_val=10.0,
    )
    log = io.StringIO()
    with monkeypatch.context() as m:
        m.setattr(pipeline, "_sweep_workers", lambda: workers)
        stability_cmd(path, [(-0.5, 0.0), (-0.4, 0.0), (-0.6, -0.1)], cfg=cfg,
                      out_path=str(tmp_path / name), log=log)
    assert multiprocessing.active_children() == []
    with open(tmp_path / name, "rb") as fh:
        return fh.read(), log.getvalue()


def test_stability_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    serial = _stability_run(tmp_path, monkeypatch, 1, "serial.csv")
    assert _stability_run(tmp_path, monkeypatch, 2, "fan_out.csv") == serial


def test_stability_window_failing_in_a_worker_is_a_nan_column(tmp_path, monkeypatch):
    train, parent = pipeline.gan.train, os.getpid()

    def failing(features, cfg, *args, **kwargs):
        if cfg.seed == 3:  # the second window
            where = "worker" if os.getpid() != parent else "parent"
            raise RuntimeError(f"window broke in {where}")
        return train(features, cfg, *args, **kwargs)

    monkeypatch.setattr(pipeline.gan, "train", failing)
    _, log = _stability_run(tmp_path, monkeypatch, 2, "stab.csv")
    assert log == "[stability] window 1 failed: window broke in worker\n"
    curve = read_curve(str(tmp_path / "stab.csv"))
    assert curve.metadata["score_w1"] == "window=[-0.4,0.0] FAILED: window broke in worker"
    assert "converged=True" in curve.metadata["score_w2"]
    assert np.all(np.isnan(curve.column("score_w1")))
    assert np.all(np.isfinite(curve.column("score_w0")))
    assert np.all(np.isfinite(curve.column("score_w2")))


def test_stability_killed_worker_raises_instead_of_hanging(tmp_path, monkeypatch):
    train, parent = pipeline.gan.train, os.getpid()

    def killed(features, cfg, *args, **kwargs):
        if cfg.seed == 3 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return train(features, cfg, *args, **kwargs)

    monkeypatch.setattr(pipeline.gan, "train", killed)
    with pytest.raises(SolverError, match=r"^worker \d+ ended with exit code -9$"):
        _stability_run(tmp_path, monkeypatch, 2, "stab.csv")
    assert multiprocessing.active_children() == []


def test_commands_name_an_empty_dataset(tmp_path):
    ds, path = tiny_sweep(tmp_path, count=9, L=6)
    cfg = default_train_config(
        "xxz", epochs_max=2, batch_size=4, seed=1,
        threshold_train=10.0, threshold_val=10.0,
    )
    _, ckpt = train_cmd(
        path, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg,
        out_path=str(tmp_path / "det.ckpt"),
    )
    ds.records = []
    empty = str(tmp_path / "empty.ds")
    write_dataset(empty, ds)
    out = str(tmp_path / "out.csv")
    commands = [
        lambda: train_cmd(empty, (-0.5, 0.0), (-1.0, -0.5), cfg=cfg,
                          out_path=str(tmp_path / "e.ckpt")),
        lambda: scan_cmd(ckpt, empty, out_path=out),
        lambda: stability_cmd(empty, [(-0.5, 0.0), (-0.4, 0.0)], cfg=cfg,
                              out_path=out),
        lambda: kl_cmd(empty, out_path=out),
        lambda: towers_cmd(empty, -0.5, out_path=out),
    ]
    for command in commands:
        with pytest.raises(ConfigError, match=f"^{re.escape(empty)} holds no records"):
            command()
    assert not os.path.exists(out)


def test_dataset_features_alignment_width(tmp_path):
    ds, _ = tiny_sweep(tmp_path, count=3, L=6)
    features, seq = dataset_features(ds, n_feat=16)
    assert all(f.values.shape == (16,) for f in features)
    assert seq.origin_control_value == 0.0


# --------------------------------------------------------------------- cli

def test_cli_generate_and_scan_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setenv("ESGAN_DATA_DIR", str(tmp_path))
    rc = cli.main([
        "generate", "xxz", "-L", "8", "--min", "-1", "--max", "0",
        "--count", "5", "--chi-max", "16",
    ])
    assert rc == 0
    ds_path = tmp_path / "xxz_L8.ds"
    assert ds_path.exists()

    # config error: overlapping windows
    rc = cli.main([
        "train", str(ds_path),
        "--train-window", "-0.6", "0",
        "--val-window", "-0.8", "-0.3",
    ])
    assert rc == 2

    # non-convergence: tiny epoch budget, default thresholds unreachable
    rc = cli.main([
        "train", str(ds_path),
        "--train-window", "-0.5", "0",
        "--val-window", "-1.0", "-0.5",
        "--epochs-max", "2", "--batch-size", "4",
    ])
    assert rc == 3
    ckpt = tmp_path / "xxz_L8_detector.ckpt"
    assert ckpt.exists()

    rc = cli.main(["scan", str(ckpt), str(ds_path), "--kl"])
    assert rc == 0
    assert (tmp_path / "xxz_L8_scan.csv").exists()

    rc = cli.main(["kl", str(ds_path)])
    assert rc == 0
    rc = cli.main(["towers", str(ds_path), "--control", "-0.5"])
    assert rc == 0


def _header_only(tmp_path):
    path = str(tmp_path / "cut.ds")
    with open(os.path.join(DEMO, "xxz_L16_sweep.ds")) as fh:
        head = fh.readlines()[:2]
    with open(path, "w") as fh:
        fh.writelines(head)
    return ["kl", path], path


def _missing_checkpoint(tmp_path):
    path = str(tmp_path / "missing.ckpt")
    return ["scan", path, os.path.join(DEMO, "xxz_L16_sweep.ds")], path


def _channel_of_single_charge(tmp_path):
    path = os.path.join(DEMO, "xxz_L16_sweep.ds")
    return ["towers", path, "--control", "-0.5", "--channel", "spin"], "channel"


@pytest.mark.parametrize(
    "command", [_header_only, _missing_checkpoint, _channel_of_single_charge],
    ids=["kl-header-only", "scan-missing-checkpoint", "towers-channel"],
)
def test_cli_bad_input_file_exits_2_with_the_error(tmp_path, monkeypatch, capsys, command):
    monkeypatch.setenv("ESGAN_DATA_DIR", str(tmp_path))
    argv, named = command(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def _must_not_run(*args, **kwargs):
    raise AssertionError("ran before its output path was checked")


@pytest.mark.parametrize(
    "command",
    [
        lambda path, missing: generate(SweepConfig(
            model_id="xxz", L=8, control_min=-1.0, control_max=-0.5, count=3,
            out_path=os.path.join(missing, "x.ds"))),
        lambda path, missing: train_cmd(path, (-0.5, 0.0), (-1.0, -0.5),
                                        out_path=os.path.join(missing, "d.ckpt")),
        lambda path, missing: train_cmd(path, (-0.5, 0.0), (-1.0, -0.5),
                                        log_path=os.path.join(missing, "log.csv")),
        lambda path, missing: stability_cmd(path, [(-0.5, 0.0), (-0.4, 0.0)],
                                            out_path=os.path.join(missing, "s.csv")),
    ],
    ids=["generate", "train", "train-log", "stability"],
)
def test_missing_output_directory_is_refused_before_any_work(tmp_path, monkeypatch, command):
    monkeypatch.setenv("ESGAN_DATA_DIR", str(tmp_path))
    monkeypatch.setattr(pipeline, "dmrg_ground_state", _must_not_run)
    monkeypatch.setattr(pipeline.gan, "train", _must_not_run)
    missing = str(tmp_path / "missing")
    path = os.path.join(DEMO, "xxz_L16_sweep.ds")
    with pytest.raises(ConfigError, match=f"output directory {re.escape(missing)} does not exist"):
        command(path, missing)
    assert not os.path.exists(missing)


@pytest.mark.parametrize(
    "flags, given",
    [
        (["--count", "3"], dict(count=3, step=None)),
        (["--min", "-0.04"], dict(control_min=-0.04)),
        (["--min", "-0.3", "--max", "-0.26"], dict(control_min=-0.3, control_max=-0.26)),
        (
            ["--min", "1", "--max", "2", "--step", "0.5", "--chi-max", "8",
             "--svd-cutoff", "1e-12", "--max-sweeps", "9", "--n-max", "2",
             "--seed", "5"],
            dict(control_min=1.0, control_max=2.0, step=0.5, chi_max=8,
                 svd_cutoff=1e-12, max_sweeps=9, n_max=2, seed=5),
        ),
    ],
    ids=["count", "min", "min-max", "every-flag"],
)
def test_cli_generate_writes_default_sweep(tmp_path, monkeypatch, flags, given):
    model = "bh" if "--n-max" in flags else "xxz"
    out = str(tmp_path / "sweep.ds")
    want = pipeline.default_sweep(model, 4, out_path=out, **given)
    seen = []
    real = pipeline.generate

    def spy(cfg):
        seen.append(cfg)
        return real(cfg, log=io.StringIO())

    monkeypatch.setattr(pipeline, "generate", spy)
    assert cli.main(["generate", model, "-L", "4", *flags, "--out", out]) == 0
    assert seen == [want]
    ds = read_dataset(out)
    assert (ds.model_id, ds.L, ds.chi_max, ds.svd_cutoff, ds.seed) == (
        model, 4, want.chi_max, want.svd_cutoff, want.seed,
    )
    assert ds.controls().tolist() == want.grid().tolist()


def test_cli_config_file_fills_defaults(tmp_path, monkeypatch):
    monkeypatch.setenv("ESGAN_DATA_DIR", str(tmp_path))
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text("count 3\nchi-max 16  # comment\n")
    rc = cli.main([
        "generate", "xxz", "-L", "6", "--min", "-1", "--max", "0",
        "--config", str(cfg_file),
    ])
    assert rc == 0
    ds = read_dataset(str(tmp_path / "xxz_L6.ds"))
    assert len(ds.records) == 3
    assert ds.chi_max == 16


@pytest.mark.parametrize(
    "flags, text, field, want",
    [
        (["-L", "4"], "length 8\n", "L", 4),
        (["-L", "4", "--chi", "8"], "chi_max 64\n", "chi_max", 8),
    ],
    ids=["short-flag", "abbreviated-flag"],
)
def test_cli_flag_wins_over_config_file_in_any_spelling(
    tmp_path, monkeypatch, flags, text, field, want,
):
    cfg_file = tmp_path / "sweep.cfg"
    cfg_file.write_text(text)
    seen = []

    def spy(cfg):
        seen.append(cfg)
        return SpectrumDataset("xxz", cfg.L, (Fraction(1, 2),), cfg.L // 2,
                               cfg.chi_max, cfg.svd_cutoff, cfg.seed), "-"

    monkeypatch.setattr(pipeline, "generate", spy)
    assert cli.main(["generate", "xxz", *flags, "--config", str(cfg_file)]) == 0
    assert getattr(seen[0], field) == want


@pytest.mark.parametrize(
    "flags",
    [
        ["xxz", "-L", "1"],
        ["bh", "-L", "4", "--n-max", "1"],
        ["bh2s", "-L", "5"],
        ["xxz", "-L", "4", "--chi-max", "0"],
        ["xxz", "-L", "4", "--svd-cutoff=-1e-10"],
    ],
    ids=["xxz-L1", "bh-n-max-1", "bh2s-odd-L", "chi-max-0", "negative-cutoff"],
)
def test_cli_rejects_settings_that_no_run_can_use(tmp_path, monkeypatch, flags):
    monkeypatch.setenv("ESGAN_DATA_DIR", str(tmp_path))
    assert cli.main(["generate", *flags, "--count", "3"]) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, key, dest, want",
    [
        (["train", "d.ds", "--train-window", "-0.5", "0", "--val-window", "-1", "-0.5"],
         "no-adversarial", "adversarial", False),
        (["scan", "det.ckpt", "d.ds"], "kl", "kl", True),
    ],
    ids=["no-adversarial", "kl"],
)
def test_cli_config_file_sets_flags_without_value(tmp_path, argv, key, dest, want):
    cfg_file = tmp_path / "flags.cfg"
    cfg_file.write_text(f"{key}  # takes no value\n")
    parser = cli.build_parser()
    argv = argv + ["--config", str(cfg_file)]
    assert getattr(parser.parse_args(argv), dest) is not want
    args = cli._apply_config_file(parser, parser.parse_args(argv), argv)
    assert getattr(args, dest) is want


@pytest.mark.parametrize("command", ["train", "stability"])
def test_cli_reads_the_dataset_once(tmp_path, monkeypatch, command):
    ds, path = tiny_sweep(tmp_path, count=9, L=6)
    reads = []
    read = pipeline.read_dataset

    def counted(*args):
        reads.append(args)
        return read(*args)

    monkeypatch.setattr(pipeline, "read_dataset", counted)
    ckpt = str(tmp_path / "det.ckpt")
    if command == "train":
        rc = cli.main([
            "train", path, "--train-window", "-0.5", "0",
            "--val-window", "-1", "-0.5", "--epochs-max", "2",
            "--batch-size", "4", "--out", ckpt,
        ])
        assert rc == 3  # two epochs miss the thresholds
        assert len(read_curve(ckpt + ".log.csv").rows) == 2  # flags reach train
    else:
        rc = cli.main([
            "stability", path, "--window", "-0.5", "0", "--window", "-0.4", "0",
            "--seed", "3", "--out", str(tmp_path / "stab.csv"),
        ])
        assert rc == 0
    assert reads == [(path,)]


def test_cli_rejects_bad_config_file(tmp_path):
    rc = cli.main([
        "generate", "xxz", "-L", "6", "--min", "-1", "--max", "0",
        "--count", "3", "--config", str(tmp_path / "missing.cfg"),
    ])
    assert rc == 2


def _readme_commands():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [
        shlex.split(cmd)[1:]
        for cmd in block.replace("\\\n", " ").splitlines()
        if cmd.startswith("esgan ")
    ]


def test_readme_names_every_cli_flag():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    flags = {
        flag
        for sub in cli.build_parser().commands.values()
        for action in sub._actions
        if action.dest != "help"
        for flag in action.option_strings
    }
    # a flag must not count as named inside a longer one (--max, --max-sweeps)
    missing = [f for f in flags if not re.search(rf"{re.escape(f)}(?![\w-])", text)]
    assert sorted(missing) == []


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "generate", "train", "scan", "kl", "stability", "towers",
    }
    parser = cli.build_parser()
    for argv in commands:
        args = parser.parse_args(argv)  # argparse exits on a bad line
        assert args.command == argv[0]
    # then run the block in order, on a 9-point L=8 grid; the formal
    # training thresholds are out of reach at this size, so train may
    # exit 3 after writing its checkpoint
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[0] == "generate":
            argv = argv + ["--length", "8", "--step", "0.1875"]
        rc = cli.main(argv)
        assert rc in ((0, 3) if argv[0] == "train" else (0,)), argv
        out = argv[argv.index("--out") + 1]
        assert os.path.exists(out), argv
    assert len(read_dataset("sweep.ds").records) == 9
