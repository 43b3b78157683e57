"""Shared fixtures: cached spectrum datasets for the slow end-to-end tests.

The acceptance tests need DMRG sweeps over full control-parameter grids,
which take minutes per system size.  Datasets are generated once into
tests/.cache/ and reused on subsequent runs; delete the directory to force
regeneration.  generate skips the grid points a file already holds, so a
complete cache costs one read per segment and an interrupted one resumes
from the chunks of 16 grid points it was solving (generate warm-starts
each point of a chunk from the one before, solves the chunks in forked
worker processes, one per usable CPU when BLAS runs one thread (for
example under OPENBLAS_NUM_THREADS=1), and writes the file once per
chunk, byte-identical for any worker count).
Grids are denser inside the training/validation windows than in the far
gapped region, which keeps generation affordable without starving the
detector of training points.
"""

import os

import pytest

from esgan.pipeline import SweepConfig, generate, read_dataset

CACHE = os.path.join(os.path.dirname(__file__), ".cache")

# two segments per dataset: coarse far region, fine window region
GRIDS = {
    "xxz_L16.ds": ("xxz", 16, [(-1.5, -0.825, 0.025), (-0.8, 0.0, 0.0125)]),
    "xxz_L32.ds": ("xxz", 32, [(-1.5, -0.825, 0.025), (-0.8, 0.0, 0.0125)]),
    "xxz_L64.ds": ("xxz", 64, [(-1.5, -0.85, 0.05), (-0.8, 0.0, 0.02)]),
    "bh_L16.ds": ("bh", 16, [(0.0, 2.95, 0.05), (3.0, 6.0, 0.2)]),
}


def _ensure(name):
    path = os.path.join(CACHE, name)
    os.makedirs(CACHE, exist_ok=True)
    model_id, L, segments = GRIDS[name]
    for lo, hi, step in segments:
        cfg = SweepConfig(
            model_id=model_id, L=L,
            control_min=lo, control_max=hi, step=step,
            out_path=path,
        )
        generate(cfg)
    return path


@pytest.fixture(scope="session")
def xxz_l16():
    return read_dataset(_ensure("xxz_L16.ds"))


@pytest.fixture(scope="session")
def xxz_l32():
    return read_dataset(_ensure("xxz_L32.ds"))


@pytest.fixture(scope="session")
def xxz_l64():
    return read_dataset(_ensure("xxz_L64.ds"))


@pytest.fixture(scope="session")
def bh_l16():
    return read_dataset(_ensure("bh_L16.ds"))


@pytest.fixture(scope="session")
def xxz_l32_path():
    return _ensure("xxz_L32.ds")
