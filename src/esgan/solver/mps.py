"""Matrix-product states with explicit U(1) charge labels on every bond.

Site tensors are dense float64 arrays of shape (chi_left, d, chi_right).
Bond b carries an integer label per index: the total charge of the left
block accumulated up to that bond.  An entry (l, s, r) of site tensor i may
be nonzero only when

    bond_charges[i][l] + site_charge[s] == bond_charges[i+1][r]

componentwise; all other entries are exactly 0.0.  Every decomposition
goes through one layout, ChargeBlocks: a tensor read as a matrix whose
rows and columns carry charges is block diagonal in that charge, each
block is SVDed on its own, and the factors have no entry outside the
blocks.  Gauge moves (canonical-center shifts) keep every direction of
every block, so they are exact up to rounding; the sweep solver's
two-site split (dmrg.TwoSiteBlocks) uses the same layout and truncates.
"""

from dataclasses import dataclass, field

import numpy as np

from ..models import initial_product_configuration


# one int64 per charge vector: linear, and ordered like the charge tuples
_KEY_BASE = np.array([1 << 40, 1 << 20, 1], dtype=np.int64)


def charge_keys(q):
    """Integer key of each row of an (n, n_charges) charge array.

    The key is linear, key(q + delta) = key(q) + key(delta), and sorts like
    the charge tuples, for up to three charges of magnitude below 2**19.
    """
    q = np.asarray(q, dtype=np.int64)
    return q @ _KEY_BASE[_KEY_BASE.size - q.shape[1]:]


def _first_of_runs(a):
    """Start of every run of equal values in ``a``."""
    new = np.empty(a.size, dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


class ChargeBlocks:
    """Charge-block layout of a matrix whose rows and columns carry charges.

    Entry (i, j) is allowed only where row_q[i] == col_q[j].  Sorting rows
    and columns by charge key (``row_order``, ``col_order``, stable) makes
    the allowed entries diagonal blocks: block n, of charge ``charges[n]``,
    holds the sorted rows ``row_lo[n]:row_hi[n]`` and columns
    ``col_lo[n]:col_hi[n]``, in ascending charge.  A row or column whose
    charge has no partner on the other side lies in no block.  A block
    vector holds the blocks row-major, one after the other, from
    ``offsets[n]`` to ``offsets[n + 1]``.
    """

    def __init__(self, row_q, col_q):
        row_key, col_key = charge_keys(row_q), charge_keys(col_q)
        self.row_order = np.argsort(row_key, kind="stable")
        self.col_order = np.argsort(col_key, kind="stable")
        self.row_key = row_key[self.row_order]
        self.col_key = col_key[self.col_order]
        # allowed entries of the sorted matrix, row-major: block by block
        i, j = np.nonzero(self.row_key[:, None] == self.col_key)
        if i.size == 0:
            raise RuntimeError("matrix has no charge-allowed entry")
        self.index = self.row_order[i] * col_key.size + self.col_order[j]
        first = _first_of_runs(self.row_key[i])
        last = np.append(first[1:], i.size) - 1
        self.keys = self.row_key[i[first]]
        self.row_lo, self.row_hi = i[first], i[last] + 1
        self.col_lo, self.col_hi = j[first], j[last] + 1
        self.offsets = np.append(first, i.size)
        self.size = i.size
        self.charges = np.asarray(row_q)[self.row_order[self.row_lo]]
        self._plan = None

    def gather(self, M):
        """Block vector of the allowed entries of M (any shape whose
        row-major ravel is the matrix)."""
        return M.ravel()[self.index]

    def svd(self, x):
        """Thin SVD (U, s, Vt) of every block of a block vector.

        Blocks of one shape are SVDed in one stacked call, which runs the
        same LAPACK routine on each and gives the same bits as one call
        per block.
        """
        out = [None] * self.keys.size
        singles, stacks = self._svd_plan()
        for n, lo, hi, r, c in singles:
            out[n] = np.linalg.svd(x[lo:hi].reshape(r, c), full_matrices=False)
        for blocks, index in stacks:
            U, s, Vt = np.linalg.svd(x[index], full_matrices=False)
            for j, n in enumerate(blocks):
                out[n] = U[j], s[j], Vt[j]
        return out

    def _svd_plan(self):
        """(singles, stacks): each block alone in its shape as (block, lo,
        hi, rows, cols) in Python ints, and each shape shared by several
        blocks as (blocks, index) with the (blocks, rows, cols) positions
        of their entries in a block vector."""
        if self._plan is None:
            nr, nc = self.row_hi - self.row_lo, self.col_hi - self.col_lo
            shape = nr * (nc.max() + 1) + nc
            order = np.argsort(shape, kind="stable")
            runs = np.append(_first_of_runs(shape[order]), order.size)
            singles, stacks = [], []
            for lo, hi in zip(runs[:-1], runs[1:]):
                blocks = order[lo:hi].tolist()
                r, c = int(nr[blocks[0]]), int(nc[blocks[0]])
                ofs = self.offsets[blocks]
                if len(blocks) == 1:
                    singles.append((blocks[0], int(ofs[0]), int(ofs[0]) + r * c, r, c))
                else:
                    stacks.append((blocks, ofs[:, None, None] + np.arange(r * c).reshape(r, c)))
            self._plan = singles, stacks
        return self._plan

    def factors(self, svds, kept=None):
        """Dense factors from the leading ``kept[n]`` vectors of block n.

        Returns (U, s, Vt, charges): U of shape (rows, k) and Vt of shape
        (k, cols), zero outside the blocks, the k kept singular values
        and the charge of each new index, all in block order.  ``kept``
        defaults to every vector of every block.
        """
        if kept is None:
            kept = [sv[1].size for sv in svds]
        kept = np.asarray(kept)
        k = int(kept.sum())
        # filled by slices with rows and columns in sorted order, then put
        # in place; Python ints make the slices cheap
        Us = np.zeros((self.row_order.size, k))
        Vts = np.zeros((k, self.col_order.size))
        s = np.empty(k)
        ofs = 0
        bounds = zip(kept.tolist(), self.row_lo.tolist(), self.row_hi.tolist(),
                     self.col_lo.tolist(), self.col_hi.tolist())
        for (Ub, sb, Vtb), (kb, r0, r1, c0, c1) in zip(svds, bounds):
            Us[r0:r1, ofs:ofs + kb] = Ub[:, :kb]
            Vts[ofs:ofs + kb, c0:c1] = Vtb[:kb]
            s[ofs:ofs + kb] = sb[:kb]
            ofs += kb
        U = np.empty_like(Us)
        U[self.row_order] = Us
        Vt = np.empty_like(Vts)
        Vt[:, self.col_order] = Vts
        return U, s, Vt, np.repeat(self.charges, kept, axis=0)


@dataclass
class MPSState:
    """Open-boundary MPS with charge bookkeeping and solver metadata.

    ``bond_charges`` has L + 1 entries; entry b is an int64 array
    (chi_b, n_charges).  Bond 0 is the trivial left vacuum and bond L pins
    the total charge to the target sector.  ``layouts`` holds the sweep
    solver's per-bond H_eff layouts (dmrg.TwoSiteHeff) for a warm start
    to take over; it takes no part in comparisons, and copies leave it out.
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
    layouts: list = field(default=None, compare=False, repr=False)

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


def _split_site_right(T, qL, qsite, qR):
    """Factor T = A . carry with A left-isometric per block.

    Returns (A, carry, new_bond_charges, singular_values); no truncation,
    every block keeps min(rows, cols) directions.  The singular values are
    the Schmidt coefficients of the bond to the right of this site when
    the rest of the chain is canonical.
    """
    l, d, _ = T.shape
    blocks = ChargeBlocks((qL[:, None] + qsite).reshape(l * d, -1), qR)
    A, s, Vt, q_new = blocks.factors(blocks.svd(blocks.gather(T)))
    return A.reshape(l, d, -1), s[:, None] * Vt, q_new, s


def _split_site_left(T, qL, qsite, qR):
    """Factor T = carry . B with B right-isometric per block.

    Returns (B, carry, new_bond_charges, singular_values); the new bond is
    the one to the left of this site.
    """
    _, d, r = T.shape
    blocks = ChargeBlocks(qL, (qR - qsite[:, None]).reshape(d * r, -1))
    U, s, B, q_new = blocks.factors(blocks.svd(blocks.gather(T)))
    return B.reshape(-1, d, r), U * s, q_new, s


def shift_center_right(mps, collect=None):
    i = mps.canonical_center
    qsite = mps.spec.site_charge_array()
    A, carry, q_new, s = _split_site_right(
        mps.site_tensors[i], mps.bond_charges[i], qsite, mps.bond_charges[i + 1]
    )
    mps.site_tensors[i] = A
    mps.bond_charges[i + 1] = q_new
    T = mps.site_tensors[i + 1]
    mps.site_tensors[i + 1] = np.dot(carry, T.reshape(T.shape[0], -1)).reshape(-1, *T.shape[1:])
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
    T = mps.site_tensors[i - 1]
    mps.site_tensors[i - 1] = np.dot(T.reshape(-1, T.shape[2]), carry).reshape(*T.shape[:2], -1)
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
