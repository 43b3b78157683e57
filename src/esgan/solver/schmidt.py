"""Charge-resolved Schmidt decomposition for both solver backends.

schmidt_decompose takes an exact StateVector or an MPSState and returns
the LabeledSpectrum of the requested bipartition.  For an MPS the Schmidt
values fall out of moving the canonical center; for a dense state the
amplitude matrix is cut at the bond and SVDed one left-charge block at a
time (charge conservation makes it block diagonal).
"""

import numpy as np

from ..models import control_value
from ..spectra import make_labeled_spectrum
from .ed import StateVector
from .mps import MPSState, schmidt_values


def _statevector_schmidt(state, bond):
    """(p, left charges) of a dense sector state cut after site ``bond``."""
    from scipy.linalg import svd  # local: sweeps and detection run without scipy

    spec = state.spec
    basis = state.basis
    left, left_inv = np.unique(basis[:, :bond], axis=0, return_inverse=True)
    right, right_inv = np.unique(basis[:, bond:], axis=0, return_inverse=True)
    M = np.zeros((left.shape[0], right.shape[0]))
    M[left_inv, right_inv] = state.amplitudes
    qsite = spec.site_charge_array()
    left_q = qsite[left].sum(axis=1)
    p_out, q_out = [], []
    for q in np.unique(left_q, axis=0):
        rows = np.nonzero(np.all(left_q == q, axis=1))[0]
        sub = M[rows]
        cols = np.nonzero(np.any(sub != 0.0, axis=0))[0]
        if cols.size == 0:
            continue
        s = svd(sub[:, cols], compute_uv=False)
        s = s[s > 0.0]
        p_out.append(s**2)
        q_out.append(np.repeat(q[None, :], s.size, axis=0))
    return np.concatenate(p_out), np.concatenate(q_out)


def schmidt_decompose(state, bond=None):
    """LabeledSpectrum of a ground state at a bipartition.

    ``bond`` is the left-block size (default L // 2).  Exact zeros are
    dropped; ranks within each charge sector follow decreasing p; the
    recorded truncation error is the weight missing from the kept levels.
    """
    spec = state.spec
    if bond is None:
        bond = spec.L // 2
    if not 1 <= bond <= spec.L - 1:
        raise IndexError(f"bond {bond} out of range for L = {spec.L}")
    if isinstance(state, MPSState):
        p, charges = schmidt_values(state, bond)
    elif isinstance(state, StateVector):
        p, charges = _statevector_schmidt(state, bond)
    else:
        raise TypeError(f"cannot decompose {type(state).__name__}")
    return make_labeled_spectrum(
        p,
        charges,
        model_id=spec.model_id,
        L=spec.L,
        bipartition=bond,
        filling=spec.filling,
        control_value=control_value(spec),
    )
