"""Matrix-product states with explicit U(1) charge labels on every bond.

Site tensors are dense float64 arrays of shape (chi_left, d, chi_right).
Bond b carries an integer label per index: the total charge of the left
block accumulated up to that bond.  An entry (l, s, r) of site tensor i may
be nonzero only when

    bond_charges[i][l] + site_charge[s] == bond_charges[i+1][r]

componentwise; all other entries are exactly 0.0, kept that way by doing
every decomposition per charge block and scattering the factors back into
zero-initialized arrays.  Gauge moves (canonical-center shifts) use
block-diagonal SVDs without truncation, so they are exact up to rounding.

Only the sweep solver's local eigenproblem leaves this dense form: there
the two-site block lives as its charge blocks alone (dmrg.TwoSiteBlocks),
and split_two_site writes the factors back into dense site tensors.
"""

import copy as _copy
from dataclasses import dataclass, field

import numpy as np

from ..models import initial_product_configuration


def group_rows(charges):
    """Group identical integer rows: {charge tuple: index array}, keys sorted."""
    groups = {}
    for i, row in enumerate(map(tuple, np.asarray(charges))):
        groups.setdefault(row, []).append(i)
    return {q: np.asarray(ix, dtype=np.intp) for q, ix in sorted(groups.items())}


@dataclass
class MPSState:
    """Open-boundary MPS with charge bookkeeping and solver metadata.

    ``bond_charges`` has L + 1 entries; entry b is an int64 array
    (chi_b, n_charges).  Bond 0 is the trivial left vacuum and bond L pins
    the total charge to the target sector.
    """

    site_tensors: list
    bond_charges: list
    canonical_center: int
    spec: object
    energy: float = None
    truncation_error: float = 0.0
    sweep_energies: list = field(default_factory=list)
    converged: bool = False
    seed: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def L(self):
        return len(self.site_tensors)

    def bond_dimensions(self):
        return [bc.shape[0] for bc in self.bond_charges]

    def max_bond_dimension(self):
        return max(self.bond_dimensions())


def copy_mps(mps):
    return MPSState(
        site_tensors=[t.copy() for t in mps.site_tensors],
        bond_charges=[q.copy() for q in mps.bond_charges],
        canonical_center=mps.canonical_center,
        spec=mps.spec,
        energy=mps.energy,
        truncation_error=mps.truncation_error,
        sweep_energies=list(mps.sweep_energies),
        converged=mps.converged,
        seed=mps.seed,
    )


def product_mps(spec, occ=None, seed=0):
    """Product state MPS from one local basis index per site."""
    if occ is None:
        occ = initial_product_configuration(spec)
    charges = spec.site_charge_array()
    d = spec.local_dim
    tensors = []
    bond_charges = [np.zeros((1, spec.n_charges), dtype=np.int64)]
    running = np.zeros(spec.n_charges, dtype=np.int64)
    for s in occ:
        T = np.zeros((1, d, 1))
        T[0, s, 0] = 1.0
        tensors.append(T)
        running = running + charges[s]
        bond_charges.append(running[None, :].copy())
    if tuple(int(c) for c in running) != spec.target_sector:
        raise ValueError("product configuration lies outside the target sector")
    return MPSState(site_tensors=tensors, bond_charges=bond_charges, canonical_center=0, spec=spec, seed=seed)


def allowed_mask_site(qL, qsite, qR):
    """Boolean (chi_l, d, chi_r) mask of charge-allowed tensor entries."""
    lhs = qL[:, None, None, :] + qsite[None, :, None, :]
    return np.all(lhs == qR[None, None, :, :], axis=-1)


def blockwise_svd(M, row_charges, col_charges):
    """SVD of a charge-block matrix, block by block.

    Returns (q, row_idx, col_idx, U, s, Vt) tuples in ascending charge
    order.  Rows or columns whose charge has no partner on the other side
    carry no weight in a consistent state and are skipped.
    """
    rg = group_rows(row_charges)
    cg = group_rows(col_charges)
    blocks = []
    for q in sorted(set(rg) & set(cg)):
        ri, ci = rg[q], cg[q]
        U, s, Vt = np.linalg.svd(M[np.ix_(ri, ci)], full_matrices=False)
        blocks.append((q, ri, ci, U, s, Vt))
    return blocks


def _split_site_right(T, qL, qsite, qR):
    """Factor T = A . carry with A left-isometric per block.

    Returns (A, carry, new_bond_charges, singular_values); no truncation,
    every block keeps min(rows, cols) directions.  The singular values are
    the Schmidt coefficients of the bond to the right of this site when
    the rest of the chain is canonical.
    """
    l, d, r = T.shape
    nq = qL.shape[1]
    M = T.reshape(l * d, r)
    row_q = (qL[:, None, :] + qsite[None, :, :]).reshape(l * d, nq)
    blocks = blockwise_svd(M, row_q, qR)
    k_total = sum(b[4].size for b in blocks)
    A = np.zeros((l * d, k_total))
    carry = np.zeros((k_total, r))
    q_new = np.zeros((k_total, nq), dtype=np.int64)
    s_all = np.empty(k_total)
    ofs = 0
    for q, ri, ci, U, s, Vt in blocks:
        k = s.size
        A[ri, ofs : ofs + k] = U
        carry[np.ix_(np.arange(ofs, ofs + k), ci)] = s[:, None] * Vt
        q_new[ofs : ofs + k] = q
        s_all[ofs : ofs + k] = s
        ofs += k
    return A.reshape(l, d, k_total), carry, q_new, s_all


def _split_site_left(T, qL, qsite, qR):
    """Factor T = carry . B with B right-isometric per block.

    Returns (B, carry, new_bond_charges, singular_values); the new bond is
    the one to the left of this site.
    """
    l, d, r = T.shape
    nq = qL.shape[1]
    M = T.reshape(l, d * r)
    col_q = (qR[None, :, :] - qsite[:, None, :]).reshape(d * r, nq)
    blocks = blockwise_svd(M, qL, col_q)
    k_total = sum(b[4].size for b in blocks)
    B = np.zeros((k_total, d * r))
    carry = np.zeros((l, k_total))
    q_new = np.zeros((k_total, nq), dtype=np.int64)
    s_all = np.empty(k_total)
    ofs = 0
    for q, ri, ci, U, s, Vt in blocks:
        k = s.size
        B[np.ix_(np.arange(ofs, ofs + k), ci)] = Vt
        carry[ri, ofs : ofs + k] = U * s[None, :]
        q_new[ofs : ofs + k] = q
        s_all[ofs : ofs + k] = s
        ofs += k
    return B.reshape(k_total, d, r), carry, q_new, s_all


def shift_center_right(mps, collect=None):
    i = mps.canonical_center
    qsite = mps.spec.site_charge_array()
    A, carry, q_new, s = _split_site_right(
        mps.site_tensors[i], mps.bond_charges[i], qsite, mps.bond_charges[i + 1]
    )
    mps.site_tensors[i] = A
    mps.bond_charges[i + 1] = q_new
    mps.site_tensors[i + 1] = np.tensordot(carry, mps.site_tensors[i + 1], axes=([1], [0]))
    mps.canonical_center = i + 1
    if collect is not None:
        collect.append((i + 1, s, q_new))


def shift_center_left(mps):
    i = mps.canonical_center
    qsite = mps.spec.site_charge_array()
    B, carry, q_new, _ = _split_site_left(
        mps.site_tensors[i], mps.bond_charges[i], qsite, mps.bond_charges[i + 1]
    )
    mps.site_tensors[i] = B
    mps.bond_charges[i] = q_new
    mps.site_tensors[i - 1] = np.tensordot(mps.site_tensors[i - 1], carry, axes=([2], [0]))
    mps.canonical_center = i - 1


def move_center(mps, site):
    if not 0 <= site < mps.L:
        raise IndexError(f"center site {site} out of range for L = {mps.L}")
    while mps.canonical_center < site:
        shift_center_right(mps)
    while mps.canonical_center > site:
        shift_center_left(mps)


def schmidt_values(mps, bond):
    """Schmidt probabilities and left-block charges at a bond of the MPS.

    ``bond`` = size of the left block, 1..L-1.  Returns (p, charges) with
    p = s^2 in block order; exact zeros are dropped.
    """
    if not 1 <= bond <= mps.L - 1:
        raise IndexError(f"bond {bond} out of range for L = {mps.L}")
    work = copy_mps(mps)
    move_center(work, bond)
    qsite = work.spec.site_charge_array()
    T = work.site_tensors[bond]
    _, _, q_new, s = _split_site_left(
        T, work.bond_charges[bond], qsite, work.bond_charges[bond + 1]
    )
    keep = s > 0.0
    return s[keep] ** 2, q_new[keep]


def entropy_profile(mps):
    """Von Neumann entropy (natural log) at every bond, one canonical pass."""
    work = copy_mps(mps)
    move_center(work, 0)
    collected = []
    for _ in range(work.L - 1):
        shift_center_right(work, collect=collected)
    out = np.zeros(work.L - 1)
    for bond, s, _ in collected:
        p = s[s > 0.0] ** 2
        p = p / p.sum()
        out[bond - 1] = float(-(p * np.log(p)).sum())
    return out


def mps_norm(mps):
    """Exact norm by a transfer-matrix contraction (no canonical assumption)."""
    E = np.ones((1, 1))
    for T in mps.site_tensors:
        X = np.tensordot(E, T, axes=([1], [0]))  # (bra_l, d, ket_r)
        E = np.tensordot(T, X, axes=([0, 1], [0, 1]))  # (bra_r, ket_r)
    return float(np.sqrt(abs(E[0, 0])))


def to_dense(mps):
    """Full state vector over the complete local product basis (small L only)."""
    d = mps.spec.local_dim
    if d**mps.L > 4_000_000:
        raise ValueError("state too large to densify")
    psi = np.ones((1, 1))
    for T in mps.site_tensors:
        psi = np.tensordot(psi, T, axes=([1], [0]))
        psi = psi.reshape(psi.shape[0] * d, T.shape[2])
    return psi[:, 0]


def check_charge_consistency(mps, atol=0.0):
    """Largest absolute weight found on a charge-forbidden entry (0.0 when
    the bookkeeping is exact)."""
    qsite = mps.spec.site_charge_array()
    worst = 0.0
    for i, T in enumerate(mps.site_tensors):
        mask = allowed_mask_site(mps.bond_charges[i], qsite, mps.bond_charges[i + 1])
        bad = np.abs(T[~mask])
        if bad.size:
            worst = max(worst, float(bad.max()))
    return worst
