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
blocks.  Gauge moves keep every direction of every block, so they are
exact up to rounding; the sweep solver's two-site split
(dmrg.TwoSiteBlocks) uses the same layout and truncates.

Every state the package builds has its canonical center at site 0: the
product state, and the solver's result, whose last half-sweep ends
there.  Readers that need another center (schmidt_values,
entropy_profile) carry it rightward from site 0 on the side, one gauge
move per site, and leave the state as it is; they, and the solver's warm
start, refuse a state whose center lies elsewhere.
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
        for blocks, index in self._svd_plan():
            U, s, Vt = np.linalg.svd(x[index], full_matrices=False)
            for j, n in enumerate(blocks):
                out[n] = U[j], s[j], Vt[j]
        return out

    def _svd_plan(self):
        """One (blocks, index) per block shape: the blocks of that shape
        and the (blocks, rows, cols) positions of their entries in a block
        vector."""
        if self._plan is None:
            nr, nc = self.row_hi - self.row_lo, self.col_hi - self.col_lo
            shape = nr * (nc.max() + 1) + nc
            order = np.argsort(shape, kind="stable")
            runs = np.append(_first_of_runs(shape[order]), order.size)
            self._plan = []
            for lo, hi in zip(runs[:-1], runs[1:]):
                blocks = order[lo:hi].tolist()
                r, c = int(nr[blocks[0]]), int(nc[blocks[0]])
                self._plan.append(
                    (blocks, self.offsets[blocks][:, None, None] + np.arange(r * c).reshape(r, c))
                )
        return self._plan

    def levels(self, x):
        """Squared singular values s**2 > 0 of a block vector and the
        charge of each, in block order: the Schmidt levels of a cut."""
        s = [sv[1] for sv in self.svd(x)]
        charges = np.repeat(self.charges, [sb.size for sb in s], axis=0)
        s = np.concatenate(s)
        keep = s > 0.0
        return s[keep] ** 2, charges[keep]

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
    )


def product_mps(spec):
    """Product state MPS of the model's initial configuration
    (``models.initial_product_configuration``), in the target sector."""
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
    return MPSState(site_tensors=tensors, bond_charges=bond_charges, canonical_center=0, spec=spec)


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


def require_center_at_0(mps):
    """Raise ValueError unless the canonical center of ``mps`` is at site 0."""
    if mps.canonical_center != 0:
        raise ValueError(
            f"canonical center at site {mps.canonical_center}; it must be at site 0"
        )


def _walk_right(mps):
    """Carry the canonical center of ``mps`` from site 0 to the right.

    Yields (T, q, s) for sites 1..L-1 in turn: the center tensor at the
    site, the charges of its left bond, and the singular values of that
    bond, which are its Schmidt coefficients.  Each step splits the
    previous center with _split_site_right and multiplies the carry into
    the next site; ``mps`` itself is neither copied nor changed.
    """
    require_center_at_0(mps)
    qsite = mps.spec.site_charge_array()
    T, q = mps.site_tensors[0], mps.bond_charges[0]
    for i in range(1, mps.L):
        _, carry, q, s = _split_site_right(T, q, qsite, mps.bond_charges[i])
        T = mps.site_tensors[i]
        T = np.dot(carry, T.reshape(T.shape[0], -1)).reshape(-1, *T.shape[1:])
        yield T, q, s


def schmidt_values(mps, bond):
    """Schmidt probabilities and left-block charges at a bond of the MPS.

    ``bond`` = size of the left block, 1..L-1.  Returns (p, charges) with
    p = s^2 in block order; exact zeros are dropped.  The canonical center
    must be at site 0 (ValueError otherwise); the walk to ``bond`` leaves
    ``mps`` unchanged.
    """
    if not 1 <= bond <= mps.L - 1:
        raise IndexError(f"bond {bond} out of range for L = {mps.L}")
    walk = _walk_right(mps)
    for _ in range(bond):
        T, qL, _ = next(walk)
    # the center tensor as a matrix whose rows are its left bond
    qR = mps.bond_charges[bond + 1] - mps.spec.site_charge_array()[:, None]
    blocks = ChargeBlocks(qL, qR.reshape(-1, qR.shape[-1]))
    return blocks.levels(blocks.gather(T))


def entropy_profile(mps):
    """Von Neumann entropy (natural log) at every bond, one canonical pass.

    The canonical center must be at site 0 (ValueError otherwise); the
    pass leaves ``mps`` unchanged.
    """
    out = np.zeros(mps.L - 1)
    for bond, (_, _, s) in enumerate(_walk_right(mps)):
        p = s[s > 0.0] ** 2
        p = p / p.sum()
        out[bond] = float(-(p * np.log(p)).sum())
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


def check_charge_consistency(mps):
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
