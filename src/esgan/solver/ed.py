"""Exact diagonalization in a fixed U(1) charge sector.

The sector basis is enumerated site by site with charge-window pruning, so
only configurations that can still reach the target total charge survive.
Configurations are encoded as mixed-radix int64 keys for O(log n) lookup
when scattering Hamiltonian matrix elements.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..models import expanded_terms, initial_product_configuration
from .lanczos import lowest_eigenpair

DENSE_DIM_CAP = 4000
LANCZOS_DIM_CAP = 2_000_000
# residual tolerance and start-vector seed of the Lanczos path
ED_TOL = 1e-10
ED_SEED = 1234


@dataclass
class StateVector:
    """Ground state in a charge sector: amplitudes over an explicit basis.

    ``basis`` has one row per configuration (local indices per site), in
    the deterministic enumeration order of :func:`sector_basis`.
    """

    amplitudes: np.ndarray
    basis: np.ndarray
    sector: tuple
    spec: object
    energy: float
    info: dict = field(default_factory=dict)


def sector_basis(spec):
    """All configurations with total charge equal to the target sector.

    Returns an int8 array (n_states, L), rows in lexicographic order with
    site 0 most significant.
    """
    charges = spec.site_charge_array()
    target = np.asarray(spec.target_sector, dtype=np.int64)
    qmin = charges.min(axis=0)
    qmax = charges.max(axis=0)
    configs = np.zeros((1, 0), dtype=np.int8)
    totals = np.zeros((1, spec.n_charges), dtype=np.int64)
    d = spec.local_dim
    for i in range(spec.L):
        rem = spec.L - i - 1
        n = configs.shape[0]
        ext = np.repeat(configs, d, axis=0)
        occ = np.tile(np.arange(d, dtype=np.int8), n)
        tot = np.repeat(totals, d, axis=0) + charges[occ]
        ok = np.all(tot + rem * qmin <= target, axis=1) & np.all(
            tot + rem * qmax >= target, axis=1
        )
        configs = np.column_stack([ext[ok], occ[ok]])
        totals = tot[ok]
    return configs


def _encode(configs, local_dim):
    L = configs.shape[1]
    weights = local_dim ** np.arange(L - 1, -1, -1, dtype=np.int64)
    if local_dim**L > 2**62:
        raise ValueError("configuration key overflows int64; system too large for ED")
    return configs.astype(np.int64).dot(weights)


def build_sector_hamiltonian(spec, basis=None):
    """Sparse symmetric Hamiltonian restricted to the target charge sector."""
    import scipy.sparse as sp  # local: sweeps and detection run without scipy

    if basis is None:
        basis = sector_basis(spec)
    n = basis.shape[0]
    keys = _encode(basis, spec.local_dim)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]

    def lookup(cfgs):
        k = _encode(cfgs, spec.local_dim)
        pos = np.searchsorted(keys_sorted, k)
        if np.any(pos >= n) or np.any(keys_sorted[np.minimum(pos, n - 1)] != k):
            raise RuntimeError("matrix element leaves the charge sector")
        return order[pos]

    rows, cols, vals = [], [], []
    src = np.arange(n)
    for sites, mats, coeff in expanded_terms(spec):
        local = basis[:, sites]
        # one nonzero entry (a, b) per operator, the last operator innermost
        for entries in itertools.product(*(zip(*np.nonzero(O)) for O in mats)):
            a, b = zip(*entries)
            mask = (local == b).all(axis=1)
            if not mask.any():
                continue
            amp = coeff
            for O, ab in zip(mats, entries):
                amp = amp * O[ab]
            if a == b:
                idx = src[mask]
                rows.append(idx)
                cols.append(idx)
            else:
                new = basis[mask]
                new[:, sites] = a
                rows.append(lookup(new))
                cols.append(src[mask])
            vals.append(np.full(int(mask.sum()), amp))
    H = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return H


def ed_ground_state(spec):
    """Sector ground state: dense below DENSE_DIM_CAP, else Lanczos to ED_TOL.

    The Lanczos start vector is the sector's reference product state plus
    a random perturbation seeded with ED_SEED, which makes runs
    reproducible while keeping the overlap with the ground state generic.
    """
    from scipy.linalg import eigh  # local: sweeps and detection run without scipy

    basis = sector_basis(spec)
    n = basis.shape[0]
    if n == 0:
        raise ValueError("target charge sector is empty")
    if n <= DENSE_DIM_CAP:
        H = build_sector_hamiltonian(spec, basis).toarray()
        evals, evecs = eigh(H, subset_by_index=[0, 0])
        energy = float(evals[0])
        amp = evecs[:, 0]
        info = {"method": "dense", "dim": n}
    else:
        if n > LANCZOS_DIM_CAP:
            raise ValueError(f"sector dimension {n} exceeds the solver cap")
        H = build_sector_hamiltonian(spec, basis)
        rng = np.random.default_rng(ED_SEED)
        v0 = rng.standard_normal(n)
        occ = initial_product_configuration(spec)
        ref = np.where(np.all(basis == np.array(occ, dtype=np.int8), axis=1))[0]
        if ref.size:
            v0[ref[0]] += 10.0 * np.linalg.norm(v0) / np.sqrt(n)
        energy, amp, info = lowest_eigenpair(
            H.dot, v0, tol=ED_TOL, krylov_dim=20, max_restarts=500
        )
        info = dict(info, method="lanczos", dim=n)
        if not info["converged"]:
            raise RuntimeError(
                f"Lanczos did not reach tol={ED_TOL} in {info['restarts']} restarts "
                f"(residual {info['residual']:.3e})"
            )
        energy = float(energy)
    # fix the overall sign for reproducibility
    k = int(np.argmax(np.abs(amp)))
    if amp[k] < 0:
        amp = -amp
    state = StateVector(
        amplitudes=amp,
        basis=basis,
        sector=spec.target_sector,
        spec=spec,
        energy=energy,
        info=info,
    )
    return energy, state
