"""Sweep orchestration, dataset/curve/checkpoint persistence, commands.

Datasets are self-describing structured text: a header block followed by
one record block per control-parameter value, every float hex-encoded so
write -> read round-trips exactly.  Every file is written whole to a
temp file and renamed into place (``neuralnet.write_atomic``), which
makes interrupted sweeps resumable: grid points whose control value
already sits in the file are not recorded again on rerun.

The command functions (generate, train_cmd, scan_cmd, stability_cmd,
kl_cmd, towers_cmd) hold the orchestration logic; the CLI in ``cli`` is a
thin argument-parsing shell around them.
"""

import bisect
import contextlib
import os
import sys
import time
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial

import numpy as np

from . import gan
from .gan import ConfigError, default_train_config
from .models import build_model
from .neuralnet import write_atomic
from .solver import DmrgConfig, dmrg_ground_state, schmidt_decompose
from .spectra import (
    LabeledSpectrum,
    SpectrumEntry,
    align_to_reference,
    build_reference_sequence,
    conformal_rescale,
    entry_order,
    kl_from_aligned,
)


class ConvergenceError(RuntimeError):
    """Training finished without meeting its thresholds."""


class SolverError(RuntimeError):
    """A ground-state computation failed outright."""


N_FEAT = 64

DEFAULT_GRIDS = {
    "xxz": (-1.5, 0.0, 0.01),
    "bh": (0.0, 6.0, 0.02),
    "bh2s": (-0.4, 0.0, 0.005),
}

# side of the training window on which stability_cmd places validation
# bands: the gapped phase lies left of the window for xxz/bh2s, right
# of it for bh
VAL_SIDE = {"xxz": "left", "bh": "right", "bh2s": "left"}


def data_dir():
    return os.environ.get("ESGAN_DATA_DIR", ".")


def _output_path(out_path, model_id, L, suffix):
    """``out_path``, or ``<data_dir>/<model_id>_L<L><suffix>`` when None.

    Commands call it before they solve or train: a path whose directory
    does not exist raises ConfigError naming the directory.
    """
    if out_path is None:
        out_path = os.path.join(data_dir(), f"{model_id}_L{L}{suffix}")
    directory = os.path.dirname(out_path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"{out_path}: output directory {directory} does not exist")
    return out_path


# ------------------------------------------------------------------ sweeps

@dataclass(frozen=True)
class SweepConfig:
    model_id: str
    L: int
    control_min: float
    control_max: float
    step: float = None
    count: int = None
    chi_max: int = DmrgConfig.chi_max
    svd_cutoff: float = DmrgConfig.svd_cutoff
    max_sweeps: int = DmrgConfig.max_sweeps
    n_max: int = None
    seed: int = 1234
    out_path: str = None

    def __post_init__(self):
        if self.model_id not in DEFAULT_GRIDS:
            raise ConfigError(f"unknown model {self.model_id!r}")
        if not self.control_min < self.control_max:
            raise ConfigError("need control_min < control_max")
        if (self.step is None) == (self.count is None):
            raise ConfigError("give exactly one of step or count")
        if self.count is not None and self.count < 2:
            raise ConfigError("count must be >= 2")
        if self.step is not None and self.step <= 0:
            raise ConfigError("step must be positive")
        self.dmrg_config()  # raises ConfigError on settings the solver rejects
        try:  # and on a chain that no model accepts
            build_model(self.model_id, self.L, self.control_min, n_max=self.n_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def grid(self):
        if self.count is not None:
            return np.linspace(self.control_min, self.control_max, self.count)
        n = int(
            np.floor((self.control_max - self.control_min) / self.step + 1 + 1e-9)
        )
        return self.control_min + self.step * np.arange(n)

    def dmrg_config(self):
        return DmrgConfig(
            chi_max=self.chi_max,
            svd_cutoff=self.svd_cutoff,
            max_sweeps=self.max_sweeps,
            seed=self.seed,
        )


def default_sweep(model_id, L, **overrides):
    lo, hi, step = DEFAULT_GRIDS[model_id]
    kw = dict(model_id=model_id, L=L, control_min=lo, control_max=hi, step=step)
    kw.update(overrides)
    return SweepConfig(**kw)


# ----------------------------------------------------------- dataset format

DATASET_MAGIC = "spectrum dataset v1"

# header values every dataset holds: write_dataset writes them and
# read_dataset rejects any other
FIXED_HEADER = {"format_version": 1, "boundary": "open"}


@dataclass
class SpectrumDataset:
    """Header metadata plus one labeled spectrum per control value; the
    format version and the open boundary are FIXED_HEADER, not fields."""

    model_id: str
    L: int
    filling: tuple
    bipartition: int
    chi_max: int
    svd_cutoff: float
    seed: int
    records: list = field(default_factory=list)

    def controls(self):
        return np.array([r.control_value for r in self.records])

    def origin_record(self):
        """Record nearest the phase-diagram origin (control = 0)."""
        if not self.records:
            raise ConfigError("dataset holds no records")
        return min(self.records, key=lambda r: (abs(r.control_value), r.control_value))

    def header_line(self):
        return (
            f"{self.model_id} L={self.L} chi={self.chi_max} "
            f"cutoff={self.svd_cutoff:g} seed={self.seed}"
        )


def _fractions_str(filling):
    return " ".join(f"{f.numerator}/{f.denominator}" for f in filling)


def _control(record):
    return record.control_value


def write_dataset(path, ds):
    """Atomic write: header block, then records sorted by control value."""
    records = sorted(ds.records, key=_control)
    for a, b in zip(records, records[1:]):
        if a.control_value == b.control_value:
            raise ValueError(f"duplicate control value {a.control_value!r}")
    lines = [
        f"# {DATASET_MAGIC}",
        f"format_version {FIXED_HEADER['format_version']}",
        f"model_id {ds.model_id}",
        f"L {ds.L}",
        f"filling {_fractions_str(ds.filling)}",
        f"bipartition {ds.bipartition}",
        f"chi_max {ds.chi_max}",
        f"svd_cutoff {float(ds.svd_cutoff).hex()}",
        f"boundary {FIXED_HEADER['boundary']}",
        f"seed {ds.seed}",
        f"n_records {len(records)}",
    ]
    for r in records:
        lines.append("[record]")
        lines.append(f"control {float(r.control_value).hex()}")
        lines.append(f"truncation_error {float(r.truncation_error).hex()}")
        lines.append(f"n_entries {len(r.entries)}")
        for e in r.entries:
            charge = " ".join(str(c) for c in e.charge)
            lines.append(f"entry {charge} {e.k} {float(e.p).hex()}")
    write_atomic(path, "\n".join(lines) + "\n")


# the header fields in the order write_dataset writes them, each with the
# converter of its value; DmrgConfig refuses a chi_max or cutoff no run takes
_HEADER_FIELDS = {
    "format_version": int,
    "model_id": str,
    "L": int,
    "filling": lambda v: tuple(Fraction(tok) for tok in v.split()),
    "bipartition": int,
    "chi_max": lambda v: DmrgConfig(chi_max=int(v)).chi_max,
    "svd_cutoff": lambda v: DmrgConfig(svd_cutoff=float.fromhex(v)).svd_cutoff,
    "boundary": str,
    "seed": int,
    "n_records": int,
}


def read_dataset(path):
    """Parse a dataset file in one pass, in the order write_dataset writes
    it; malformed input raises ValueError naming ``path:line``.  Refused
    are header fields missing, unknown, out of place or out of the range a
    run writes; record fields misnamed or garbled; controls that do not
    ascend; records without entries; entries with p <= 0, out of
    ``entry_order`` or misranked in their sector; and a record count other
    than the header's."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != f"# {DATASET_MAGIC}":
        raise ValueError(f"{path} is not a spectrum dataset")
    pos = 0  # index of the line read last

    def refuse(fault):
        raise ValueError(f"{path}:{min(pos + 1, len(lines))}: {fault}")

    def field(name, convert):
        """The value on the next line, which must be ``<name> <value>``."""
        nonlocal pos
        pos += 1
        if pos == len(lines):
            refuse(f"file ends where {name} belongs")
        key, _, val = lines[pos].partition(" ")
        if key != name:
            refuse(f"expected {name}, found {lines[pos]!r}")
        try:
            return convert(val)
        except (ValueError, ZeroDivisionError) as exc:
            refuse(f"bad {name} {val!r}: {exc}")

    head = {}
    for name, convert in _HEADER_FIELDS.items():
        value = head[name] = field(name, convert)
        if (FIXED_HEADER.get(name, value) != value
                or name == "L" and value < 2
                or name == "n_records" and value < 0
                or name == "bipartition" and not 1 <= value <= head["L"] - 1):
            refuse(f"no run writes {lines[pos]!r}")
    ds = SpectrumDataset(**{k: v for k, v in head.items()
                            if k not in FIXED_HEADER and k != "n_records"})

    def entry(text):  # <charges> <k> <p>
        *charge, k, p = text.split()
        if len(charge) != len(ds.filling):
            raise ValueError(f"{len(charge)} charges, the filling has {len(ds.filling)}")
        return SpectrumEntry(p=float.fromhex(p), charge=tuple(map(int, charge)), k=int(k))

    for _ in range(head["n_records"]):
        if field("[record]", str):
            refuse(f"expected [record], found {lines[pos]!r}")
        control = field("control", float.fromhex)
        if ds.records and not control > ds.records[-1].control_value:
            refuse(f"control {control!r} is not above the one before it")
        trunc = field("truncation_error", float.fromhex)
        n_entries = field("n_entries", int)
        if n_entries < 1:
            refuse("a record holds at least one entry")
        entries, next_k = [], {}
        for _ in range(n_entries):
            e = field("entry", entry)
            if not e.p > 0.0:
                refuse(f"p {e.p!r} is not > 0")
            if entries and not entry_order(e) > entry_order(entries[-1]):
                refuse("entry does not sort after the one before it")
            if e.k != next_k.get(e.charge, 0):
                refuse(f"rank {e.k} does not count up from 0 in sector {e.charge}")
            next_k[e.charge] = e.k + 1
            entries.append(e)
        ds.records.append(LabeledSpectrum(
            tuple(entries), ds.model_id, ds.L, ds.bipartition, ds.filling,
            control_value=control, truncation_error=trunc))
    if pos + 1 < len(lines):
        pos += 1
        refuse(f"header promises {head['n_records']} records, file holds more")
    return ds


def _load(path):
    """The dataset at ``path``; one without records is a ConfigError."""
    ds = read_dataset(path)
    if not ds.records:
        raise ConfigError(f"{path} holds no records")
    return ds


# ---------------------------------------------------------------- generate

# Consecutive grid points are solved in chunks of CHUNK: the first point
# of a chunk starts cold, every later one from its predecessor's converged
# state, and the dataset is written once per chunk.  Longer chunks save
# more warm-up sweeps and file writes; shorter ones lose less work to an
# interruption, since a chunk with a missing record is solved again from
# its first point to rebuild the same chain.
CHUNK = 16


def _solve_point(cfg, control, psi0=None):
    """Ground state MPS of one grid point, warm-started from ``psi0``."""
    spec = build_model(cfg.model_id, cfg.L, control, n_max=cfg.n_max)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # generate logs non-convergence
        return dmrg_ground_state(spec, cfg.dmrg_config(), psi0=psi0)


def _solve_chunk(cfg, controls, new):
    """Solve the chain ``controls`` in order, each point warm-started from
    the one before it.  Returns, in grid order, one tuple
    (control, record, converged, stats, error) per control in ``new``,
    ``stats`` being the solved state's (see dmrg_ground_state): ``error``
    is the message of a solver run that raised (the other fields are then
    None), else None."""
    results = []
    psi = None
    for control in controls:
        try:
            psi = _solve_point(cfg, control, psi)
        except Exception as exc:  # noqa: BLE001 - sweep must survive a point
            psi = None
            if control in new:
                results.append((control, None, None, None, str(exc)))
            continue
        if control in new:
            results.append((control, schmidt_decompose(psi), psi.converged,
                            psi.stats, None))
        if not psi.converged:
            psi = None  # an unconverged state seeds nothing
    return results


# the variables that set the BLAS thread count, in the order OpenBLAS and
# MKL read them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _sweep_workers():
    """How many forked workers ``_fanned_out`` may start: the usable CPUs
    divided by the BLAS threads of each process.

    BLAS runs one thread per CPU unless one of BLAS_THREAD_VARS says
    otherwise, and forked workers that each do so oversubscribe the CPUs:
    a two-chunk BH L=16 sweep took 71 s in two such workers on two CPUs
    against 57 s in one process, and 31 s in two one-thread workers.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        threads = os.environ.get(var, "").strip()
        if threads.isdigit() and int(threads) > 0:
            return max(1, cpus // int(threads))
    return 1


_worker_jobs = None  # (fn, jobs) of the fan-out that forked this worker


def _start_worker(fn, jobs):
    """Pool initializer: ignore SIGINT and keep the fan-out's function and
    jobs.  The pool forks, so they are inherited, not pickled."""
    global _worker_jobs
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _worker_jobs = fn, jobs


def _run_job(n):
    fn, jobs = _worker_jobs
    return fn(*jobs[n])


def _fanned_out(fn, jobs):
    """Yield ``fn(*job)`` for each job, in order.

    With more than one job and worker (``_sweep_workers``) and the fork
    start method at hand, the jobs run in a pool of min(workers, jobs)
    forked processes that ignore SIGINT.  The workers inherit ``fn``,
    the jobs and the loaded modules, so only job numbers and results
    cross between processes, and ``fn`` may be a closure.  Closing the
    generator early, as an exception in the caller does through
    ``contextlib.closing``, kills the pool without waiting for the jobs
    in flight.  A worker that dies, say at the hands of the OOM killer,
    takes its job with it, so SolverError is raised rather than waiting
    for that job forever.  Otherwise the jobs run here, one after
    another.
    """
    workers = min(_sweep_workers(), len(jobs))
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            others = set(multiprocessing.active_children())
            with ctx.Pool(workers, _start_worker, (fn, jobs)) as pool:
                started = set(multiprocessing.active_children()) - others
                pending = [pool.apply_async(_run_job, (n,)) for n in range(len(jobs))]
                for result in pending:
                    while not result.ready():
                        for worker in started:
                            if worker.exitcode is not None:
                                raise SolverError(
                                    f"worker {worker.pid} ended with exit "
                                    f"code {worker.exitcode}"
                                )
                        result.wait(1.0)
                    yield result.get()
            return
    for job in jobs:
        yield fn(*job)


def generate(cfg, log=None):
    """Run the sweep, appending to an existing dataset file if present.

    The grid is walked in chunks of CHUNK consecutive points.  The first
    point of a chunk starts from a product state, every later one from the
    converged state of the point before it; a point whose predecessor
    failed or did not converge starts cold as well.  A chunk that lacks a
    record is solved from its first point through its last missing one:
    points that already have a record are solved again only to carry the
    chain, and their records stay as they are, so rerunning the same grid
    after an interruption writes the same bytes as an uninterrupted run.
    Chunk boundaries and chain predecessors follow ``cfg.grid()``, so
    points added to a file by a different grid are seeded from that
    grid's neighbours.  A point whose solver run raises is logged and
    skipped, and the sweep continues; a point whose solver did not
    converge is logged and kept.  Unless the file already holds every
    grid point, the log ends with one summary line: the points written,
    failed and not converged, the sweeps, matvecs, dense and Lanczos
    solves and Lanczos restarts their solves took (summed ``stats`` of
    dmrg_ground_state, over the points written; points solved again only
    to carry a chain are not counted), and the wall seconds.

    Chunks are independent of each other, so they are solved in
    min(usable CPUs / BLAS threads, chunks to solve) forked worker
    processes; with one, or where fork is unavailable, they are solved in
    this process.  BLAS runs one thread per CPU unless
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS or OMP_NUM_THREADS sets fewer,
    so the fan-out needs one of them set to 1.  Either way this process
    merges the chunks in grid order, prints the log lines and rewrites the
    file on disk atomically once per chunk that added a record, so the
    file is byte-identical for any worker count, and interrupting and
    rerunning loses at most the chunks in flight.  The returned dataset keeps its
    records sorted by control value, as the file does, and equals what
    reading the file back gives.
    """
    t_start = time.perf_counter()
    log = log if log is not None else sys.stderr
    path = _output_path(cfg.out_path, cfg.model_id, cfg.L, ".ds")
    if os.path.exists(path):
        ds = read_dataset(path)
        # every header field a sweep sets: records solved with another
        # cutoff or seed would be misdescribed by the header
        for key, want in (
            ("model_id", cfg.model_id),
            ("L", cfg.L),
            ("chi_max", cfg.chi_max),
            ("svd_cutoff", cfg.svd_cutoff),
            ("seed", cfg.seed),
        ):
            have = getattr(ds, key)
            if have != want:
                raise ConfigError(
                    f"{path} holds {key}={have!r}, sweep wants {want!r}"
                )
    else:
        spec = build_model(cfg.model_id, cfg.L, cfg.control_min, n_max=cfg.n_max)
        ds = SpectrumDataset(
            model_id=cfg.model_id,
            L=cfg.L,
            filling=spec.filling,
            bipartition=cfg.L // 2,
            chi_max=cfg.chi_max,
            svd_cutoff=cfg.svd_cutoff,
            seed=cfg.seed,
        )
    have = {r.control_value for r in ds.records}
    grid = [float(c) for c in cfg.grid()]
    n_todo = sum(c not in have for c in grid)
    if not n_todo:
        return ds, path

    jobs = []
    for start in range(0, len(grid), CHUNK):
        chunk = grid[start:start + CHUNK]
        missing = [n for n, c in enumerate(chunk) if c not in have]
        if missing:
            jobs.append((chunk[:missing[-1] + 1],
                         frozenset(chunk[n] for n in missing)))

    failures = unconverged = 0
    work = dict.fromkeys(("sweeps", "matvecs", "dense_solves", "lanczos_solves", "restarts"), 0)
    with contextlib.closing(_fanned_out(partial(_solve_chunk, cfg), jobs)) as chunks:
        for results in chunks:
            n_records = len(ds.records)
            for control, record, converged, stats, error in results:
                if error is not None:
                    failures += 1
                    print(f"[generate] {control:g} failed: {error}", file=log)
                    continue
                if not converged:
                    unconverged += 1
                    print(f"[generate] {control:g} not converged in {stats['sweeps']} sweeps",
                          file=log)
                for key in work:
                    work[key] += stats[key]
                bisect.insort(ds.records, record, key=_control)
            if len(ds.records) > n_records:
                write_dataset(path, ds)
    print(
        f"[generate] {n_todo - failures} points written, {failures} failed, "
        f"{unconverged} not converged; {work['sweeps']} sweeps, {work['matvecs']} matvecs, "
        f"{work['dense_solves']} dense and {work['lanczos_solves']} Lanczos solves, "
        f"{work['restarts']} restarts; {time.perf_counter() - t_start:.2f} s",
        file=log,
    )
    if failures == n_todo:
        raise SolverError(f"all {failures} grid points failed")
    return ds, path


# ---------------------------------------------------------------- features

def dataset_features(ds, n_feat=N_FEAT, sequence=None):
    """Aligned feature vectors for every record; the sequence defaults to
    the one built from the record nearest the phase-diagram origin."""
    if sequence is None:
        sequence = build_reference_sequence(ds.origin_record(), n_feat)
    features = [align_to_reference(r, sequence) for r in ds.records]
    return features, sequence


# ------------------------------------------------------------------- train

def train_cmd(dataset_path, train_window, val_window, cfg=None, out_path=None,
              log_path=None, overrides=None):
    """Train a detector of width N_FEAT; write checkpoint + training log.

    ``cfg`` defaults to the dataset model's default TrainConfig with the
    TrainConfig fields in ``overrides`` replaced.
    Returns (detector, checkpoint path).  A detector that misses its
    thresholds is still checkpointed, then ConvergenceError is raised so
    the caller can exit with the dedicated status code.
    """
    ds = _load(dataset_path)
    if cfg is None:
        cfg = default_train_config(ds.model_id, **(overrides or {}))
    out_path = _output_path(out_path, ds.model_id, ds.L, "_detector.ckpt")
    # the log defaults to the checkpoint's path plus .log.csv
    log_path = _output_path(out_path + ".log.csv" if log_path is None else log_path,
                            ds.model_id, ds.L, ".log.csv")
    features, sequence = dataset_features(ds)
    det = gan.train(features, cfg, train_window, val_window, sequence=sequence)
    gan.save_detector(out_path, det)
    write_curve(log_path, ScoreCurve(rows=det.history))
    if not det.converged:
        raise ConvergenceError(
            f"thresholds not met within {cfg.epochs_max} epochs "
            f"(final train {det.mean_train_loss:.3e}); checkpoint at {out_path}"
        )
    return det, out_path


# -------------------------------------------------------------------- scan

@dataclass
class ScoreCurve:
    rows: list
    metadata: dict = field(default_factory=dict)

    def column(self, name):
        return np.array([row[name] for row in self.rows])


def write_curve(path, curve):
    if not curve.rows:
        raise ValueError("refusing to write an empty curve")
    columns = list(curve.rows[0].keys())
    lines = [f"# {k} {v}" for k, v in sorted(curve.metadata.items())]
    lines.append(",".join(columns))
    for row in curve.rows:  # ints (epoch numbers) stay ints, the rest floats
        values = [row[c] if isinstance(row[c], int) else float(row[c]) for c in columns]
        lines.append(",".join(map(repr, values)))
    write_atomic(path, "\n".join(lines) + "\n")


def read_curve(path):
    """Parse a curve file; a repeated metadata key or column, a bad value,
    a row whose field count differs from the header's, or a missing header
    raises ValueError naming ``path:line``."""
    metadata, rows, columns = {}, [], None
    with open(path) as fh:
        lines = fh.read().splitlines()
    for n, line in enumerate(lines, 1):
        if line.startswith("# "):
            key, _, val = line[2:].partition(" ")
            if key in metadata:
                raise ValueError(f"{path}:{n}: repeated key {key}")
            metadata[key] = val
        elif columns is None:
            columns = line.split(",")
            if len(set(columns)) < len(columns):
                raise ValueError(f"{path}:{n}: repeated column in {line!r}")
        else:
            tokens = line.split(",")
            if len(tokens) != len(columns):
                raise ValueError(f"{path}:{n}: {len(tokens)} fields, header has {len(columns)}")
            try:
                rows.append(dict(zip(columns, map(float, tokens))))
            except ValueError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None
    if columns is None:
        raise ValueError(f"{path}:{len(lines) + 1}: file ends before the header line")
    return ScoreCurve(rows=rows, metadata=metadata)


def _write_output(out_path, dataset_path, rows, **metadata):
    """Write ``rows`` to ``out_path`` as a curve whose metadata names
    ``dataset_path``; returns (curve, path)."""
    curve = ScoreCurve(rows=rows, metadata={"dataset": dataset_path, **metadata})
    write_curve(out_path, curve)
    return curve, out_path


def _kl_from_origin(ds, features):
    """KL divergence of every record's feature vector from the origin
    record's, by control value; ``features`` come from dataset_features."""
    origin = ds.origin_record().control_value
    q = next(f.values for f in features if f.control_value == origin)
    return {f.control_value: kl_from_aligned(f.values, q) for f in features}


def scan_cmd(checkpoint_path, dataset_path, out_path=None, with_kl=False):
    """Score a dataset with a trained detector; returns (curve, path).

    The feature width and the sector sequence come from the checkpoint.
    Same-size data aligns on the detector's own sector sequence; data at
    a different system size gets its own origin-built sequence of the
    detector's width (the cross-size protocol).  ``with_kl`` appends the
    KL divergence of each record from the origin record.  Rows come
    sorted by control value.
    """
    det = gan.load_detector(checkpoint_path)
    ds = _load(dataset_path)
    if det.model_id is not None and det.model_id != ds.model_id:
        raise ConfigError(
            "incompatible checkpoint/dataset: detector trained on "
            f"{det.model_id!r} L={det.L}, dataset is {ds.header_line()}"
        )
    out_path = _output_path(out_path, ds.model_id, ds.L, "_scan.csv")
    same_size = det.L is None or det.L == ds.L
    features, _ = dataset_features(
        ds, det.model.n_feat, det.sequence if same_size else None
    )
    rows = gan.scan(det, features)
    if with_kl:
        kl = _kl_from_origin(ds, features)
        for row in rows:
            row["kl_value"] = kl[row["control_value"]]
    return _write_output(out_path, dataset_path, rows, detector=checkpoint_path)


# --------------------------------------------------------------- stability

def stability_cmd(dataset_path, windows, cfg=None, out_path=None, log=None,
                  overrides=None):
    """Train one detector per training window, score the full sweep with
    each, and write all score columns into a single CSV.  ``cfg`` and
    ``overrides`` act as in train_cmd.

    Validation bands are placed adjacent to each window on the side away
    from the transition (left for xxz/bh2s, right for bh), 20% of the
    window width.  Each window trains with a fresh seed offset.  A window
    whose training raises is noted in the header and its column is NaN.

    The windows are independent of each other, so they train in the
    forked workers ``generate`` solves its chunks in (``_fanned_out``),
    or here, one after another, with one worker or without fork.  This
    process writes the log lines and the file in window order, so the
    file is byte-identical for any worker count.
    """
    log = log if log is not None else sys.stderr
    if len(windows) < 2:
        raise ConfigError("stability needs at least two training windows")
    ds = _load(dataset_path)
    out_path = _output_path(out_path, ds.model_id, ds.L, "_stability.csv")
    if cfg is None:
        cfg = default_train_config(ds.model_id, **(overrides or {}))
    features, sequence = dataset_features(ds)

    def one_window(i, train_window, val_window):
        """(score by control, converged) of one window, or (None, the
        message) when its training raised."""
        try:
            det = gan.train(features, replace(cfg, seed=cfg.seed + i),
                            train_window, val_window, sequence=sequence)
            rows = gan.scan(det, features)
        except Exception as exc:  # noqa: BLE001 - partial output contract
            return None, str(exc)
        return {r["control_value"]: r["anomaly_score"] for r in rows}, det.converged

    jobs = []
    for i, (lo, hi) in enumerate(windows):
        width = 0.2 * (hi - lo)
        val = (lo - width, lo) if VAL_SIDE[ds.model_id] == "left" else (hi, hi + width)
        jobs.append((i, (lo, hi), val))
    columns = {}
    notes = {}
    with contextlib.closing(_fanned_out(one_window, jobs)) as results:
        for (i, (lo, hi), (v_lo, v_hi)), (scores, outcome) in zip(jobs, results):
            name = f"score_w{i}"
            if scores is None:
                print(f"[stability] window {i} failed: {outcome}", file=log)
                notes[name] = f"window=[{lo},{hi}] FAILED: {outcome}"
            else:
                notes[name] = f"window=[{lo},{hi}] val=[{v_lo},{v_hi}] converged={outcome}"
            columns[name] = scores or {}
    rows = []
    for c in sorted(float(f.control_value) for f in features):
        row = {"control_value": c}
        for name, scores in columns.items():
            row[name] = scores.get(c, float("nan"))
        rows.append(row)
    return _write_output(out_path, dataset_path, rows, **notes)


# ---------------------------------------------------------------------- kl

def kl_cmd(dataset_path, out_path=None):
    """KL divergence of every record from the origin record, as a CSV."""
    ds = _load(dataset_path)
    out_path = _output_path(out_path, ds.model_id, ds.L, "_kl.csv")
    features, sequence = dataset_features(ds)
    rows = [
        {"control_value": control, "kl_value": kl}
        for control, kl in sorted(_kl_from_origin(ds, features).items())
    ]
    return _write_output(
        out_path, dataset_path, rows,
        reference_control=repr(float(sequence.origin_control_value)),
    )


# ------------------------------------------------------------------ towers

def towers_cmd(dataset_path, control, channel=None, out_path=None):
    """Rescaled conformal-tower table at one control value.

    Picks the record nearest the requested control; columns are the
    sector label, level rank, raw xi, and the rescaled level.
    """
    ds = _load(dataset_path)
    out_path = _output_path(out_path, ds.model_id, ds.L, "_towers.csv")
    record = min(ds.records, key=lambda r: abs(r.control_value - control))
    table = conformal_rescale(record, channel=channel)
    rows = [
        {
            "delta_n": float(r["delta_n"]),
            "k": float(r["k"]),
            "xi": r["xi"],
            "rescaled": r["rescaled"],
        }
        for r in table
    ]
    return _write_output(
        out_path, dataset_path, rows,
        control_value=repr(float(record.control_value)),
        channel=channel or "none",
    )
