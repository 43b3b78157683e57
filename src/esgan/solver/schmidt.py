"""Charge-resolved Schmidt decomposition for both solver backends.

schmidt_decompose takes an exact StateVector or an MPSState and returns
the LabeledSpectrum of the central bipartition, the one every dataset
records.  For an MPS the Schmidt values fall out of moving the canonical
center; for a dense state the amplitude matrix is cut at the bond and
laid out as the solver's ChargeBlocks (charge conservation makes it
block diagonal), whose block SVD gives the levels.
"""

import numpy as np

from ..models import control_value
from ..spectra import make_labeled_spectrum
from .ed import StateVector
from .mps import ChargeBlocks, MPSState, schmidt_values


def _statevector_schmidt(state, bond):
    """(p, left charges) of a dense sector state cut after site ``bond``.

    Rows of the amplitude matrix carry the left-block charge, columns the
    target sector minus the right-block charge, so its charge blocks are
    the ChargeBlocks of those labels.
    """
    basis = state.basis
    left, left_inv = np.unique(basis[:, :bond], axis=0, return_inverse=True)
    right, right_inv = np.unique(basis[:, bond:], axis=0, return_inverse=True)
    M = np.zeros((left.shape[0], right.shape[0]))
    M[left_inv, right_inv] = state.amplitudes
    qsite = state.spec.site_charge_array()
    target = np.asarray(state.spec.target_sector)
    blocks = ChargeBlocks(qsite[left].sum(axis=1), target - qsite[right].sum(axis=1))
    return blocks.levels(blocks.gather(M))


def schmidt_decompose(state):
    """LabeledSpectrum of a ground state cut after its first L // 2 sites.

    Exact zeros are dropped; ranks within each charge sector follow
    decreasing p; the recorded truncation error is the weight missing
    from the kept levels.
    """
    spec = state.spec
    bond = spec.L // 2
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
