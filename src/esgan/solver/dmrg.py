"""Two-site DMRG ground-state search with U(1) charge bookkeeping.

The Hamiltonian is encoded as a finite-state-machine MPO: virtual state 0
means nothing placed yet, the last state means the term is complete, and
one in-flight state per two-site term lives on the bond it straddles
(bond dimension 5 for the spin chain, 4 for single-species bosons, 6 for
two species).  Each MPO state carries a charge: 0 for the first and last
state, the charge of the pending operator for an in-flight one.  Sweeps
optimize two adjacent sites at a time with the restarted Lanczos solver,
split the optimized block by a charge-resolved SVD, and truncate to
chi_max, never splitting a degenerate multiplet.

The local eigenproblem works on charge blocks only.  The two-site block
theta[a, s1, s2, b] is a matrix with rows (a, s1), of charge
qL[a] + q[s1], and columns (s2, b), of charge qR[b] - q[s2]; an entry is
allowed only where the two agree, so the matrix is block diagonal in this
middle charge.  TwoSiteBlocks is that layout: the ChargeBlocks of mps.py,
which the gauge moves use as well.  The Lanczos vector holds the blocks,
row-major, in ascending charge order, and nothing else.  H_eff acts as
sum_v LW_v . Theta . RW_v^T, with LW_v the left environment contracted
with the left MPO tensor and RW_v the right MPO tensor contracted with the
right environment, v running over the MPO states of the middle bond.
State v shifts the middle charge by its own charge, so H_eff maps block q
to the blocks q + delta_v only, and only those pieces of LW_v and RW_v
are gathered (TwoSiteHeff).  The split SVDs each block where it lies and
truncates across all of them; the kept vectors become dense site tensors
with charge labels, as are the environments (see mps.py).

A cold search starts from a product state in the target sector; the
first ``warmup_sweeps`` sweeps run at a reduced bond dimension and add a
small seeded random perturbation to each two-site block, so charge sectors
absent from the product start become reachable.  A warm search starts
from a given MPS, typically the converged state of a nearby control value,
which already spans the sectors that matter: it skips the warm-up sweeps
and the noise and sweeps at full bond dimension from the first sweep.  It
also takes over that state's TwoSiteHeff layouts, one per bond, which
depend on the bond charges and the MPO channels' charges only; a bond
whose charges still match keeps its layout and just loads the new
control's MPO tensors.

A search converges after a full-size sweep whose two halves agree (two
half-sweeps that agree, Schollwoeck, Ann. Phys. 326, 96 (2011)): the
energy at the end of its left half-sweep is within ``energy_tol`` of the
energy at the end of its right half-sweep, and the central bond's Schmidt
weights, which the dataset records, moved by less than SCHMIDT_TOL from
one half to the other.  The energy alone would not do: its error is
quadratic in the state's, so halves within 1e-9 in energy leave the
weights moving at 1e-8 on long chains.  A search also converges when its
energy agrees with the previous full-size sweep's within ``energy_tol``,
which stops a truncation cycle whose halves never agree.  Testing after
a left half-sweep only leaves the canonical center at site 0, where a
warm start expects it.  A warm search from a close neighbour converges
in one sweep when the central bond update is exact (short chains), in
two otherwise.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..models import ConfigError, expanded_terms
from .lanczos import lowest_eigenpair
from .mps import ChargeBlocks, MPSState, charge_keys, move_center, mps_norm, product_mps


# Local eigensolver (Krylov dimension, residual tolerance) and warm-up
# phase (bond dimension, scale of the noise added to each two-site block)
LANCZOS_DIM = 20
LANCZOS_TOL = 1e-12
WARMUP_CHI = 16
NOISE_SCALE = 1e-6
# Largest change of the central bond's Schmidt weights s^2 between the two
# halves of a sweep whose halves count as agreeing (see the module docstring)
SCHMIDT_TOL = 1e-10


@dataclass(frozen=True)
class DmrgConfig:
    """Knobs of the sweep solver.

    ``max_sweeps`` must exceed ``warmup_sweeps``, or a cold run would end
    without a full-size sweep and could never converge; the rule holds for
    warm-started runs too, which skip the warm-up and can converge in one
    sweep, so that one config serves both.
    """

    chi_max: int = 64
    svd_cutoff: float = 1e-10
    energy_tol: float = 1e-9
    max_sweeps: int = 12
    seed: int = 0
    warmup_sweeps: int = 2

    def __post_init__(self):
        # convergence is tested on full-size sweeps only, which a cold run
        # reaches after its warm-up sweeps
        if self.max_sweeps <= self.warmup_sweeps:
            raise ConfigError(
                f"max_sweeps {self.max_sweeps} leaves no full-size sweep after "
                f"{self.warmup_sweeps} warm-up sweeps, so a cold run can never "
                "converge"
            )


class ConvergenceWarning(UserWarning):
    pass


def build_mpo(spec):
    """Finite-state-machine MPO tensors W[i] of shape (Dl, d, d, Dr).

    Index convention: W[w, s_out, s_in, v].  Virtual state 0 = nothing
    placed yet, last state = finished, states 1..m = in-flight two-site
    terms of the bond between this site and the next.
    """
    d = spec.local_dim
    L = spec.L
    onsite = [np.zeros((d, d)) for _ in range(L)]
    bond_terms = [[] for _ in range(L - 1)]
    for sites, mats, coeff in expanded_terms(spec):
        if len(sites) == 1:
            onsite[sites[0]] = onsite[sites[0]] + coeff * mats[0]
        else:
            j1, j2 = sites
            if j2 != j1 + 1:
                raise ValueError("only nearest-neighbor terms are supported")
            bond_terms[j1].append((coeff * mats[0], mats[1]))
    dims = [1] + [2 + len(bt) for bt in bond_terms] + [1]
    eye = np.eye(d)
    mpo = []
    for i in range(L):
        Dl, Dr = dims[i], dims[i + 1]
        W = np.zeros((Dl, d, d, Dr))
        done_out = Dr - 1
        W[0, :, :, done_out] += onsite[i]
        if i < L - 1:
            W[0, :, :, 0] = eye
            for t, (left_mat, _) in enumerate(bond_terms[i]):
                W[0, :, :, 1 + t] = left_mat
        if i > 0:
            for t, (_, right_mat) in enumerate(bond_terms[i - 1]):
                W[1 + t, :, :, done_out] += right_mat
            W[Dl - 1, :, :, done_out] += eye
        mpo.append(W)
    return mpo


def _contract_left(E, A, W):
    """Grow a left environment (bra_r, v, ket_r) past one site."""
    X = np.tensordot(E, A, axes=([0], [0]))  # (w, ket_l, s_out, bra_r)
    X = np.tensordot(X, W, axes=([0, 2], [0, 1]))  # (ket_l, bra_r, s_in, v)
    return np.tensordot(X, A, axes=([0, 2], [0, 1]))  # (bra_r, v, ket_r)


def _contract_right(E, A, W):
    """Grow a right environment (bra_l, w, ket_l) past one site."""
    X = np.tensordot(A, E, axes=([2], [0]))  # (bra_l, s_out, v, ket_r)
    X = np.tensordot(X, W, axes=([1, 2], [1, 3]))  # (bra_l, ket_r, w, s_in)
    return np.tensordot(X, A, axes=([3, 1], [1, 2]))  # (bra_l, w, ket_l)


def expectation_value(mps, mpo):
    """Exact <psi|H|psi> / <psi|psi> by a full-chain contraction."""
    E = np.ones((1, 1, 1))
    for A, W in zip(mps.site_tensors, mpo):
        E = _contract_left(E, A, W)
    nrm = mps_norm(mps)
    return float(E[0, 0, 0]) / nrm**2


def mpo_charges(mpo, qsite):
    """Charge of every MPO state, one (D_b, n_charges) array per MPO bond.

    W[w, s_out, s_in, v] may be nonzero only where
    c_b[w] + q[s_out] - q[s_in] == c_{b+1}[v].  The charges follow from
    the nonzero pattern, left to right from the charge-0 boundary state;
    a state no nonzero entry reaches keeps charge 0.
    """
    charges = [np.zeros((1, qsite.shape[1]), dtype=np.int64)]
    reached = np.ones(1, dtype=bool)
    for W in mpo:
        w, s_out, s_in, v = np.nonzero(W)
        live = reached[w]
        w, s_out, s_in, v = w[live], s_out[live], s_in[live], v[live]
        step = charges[-1][w] + qsite[s_out] - qsite[s_in]
        c = np.zeros((W.shape[3], qsite.shape[1]), dtype=np.int64)
        c[v] = step
        if not np.array_equal(c[v], step):
            raise ValueError("MPO does not conserve the charges")
        charges.append(c)
        reached = np.zeros(W.shape[3], dtype=bool)
        reached[v] = True
    return charges


def bond_channels(W1, W2, c):
    """MPO states of the bond between W1 and W2, sorted by charge.

    Returns (W1', W2', keys): the two tensors restricted to the states
    both reach, ordered by ascending charge key (then state), and those
    keys.
    """
    live = np.flatnonzero(np.any(W1, axis=(0, 1, 2)) & np.any(W2, axis=(1, 2, 3)))
    keys = charge_keys(c[live])
    order = np.argsort(keys, kind="stable")
    live = live[order]
    return W1[..., live], W2[live], keys[order]


class TwoSiteBlocks(ChargeBlocks):
    """Charge blocks of a two-site block theta[a, s1, s2, b].

    As a matrix, rows (a, s1) carry qL[a] + q[s1] and columns (s2, b)
    carry qR[b] - q[s2]; a block's charge is the middle bond's.
    """

    def __init__(self, qL, qsite, qR):
        l, d, r = qL.shape[0], qsite.shape[0], qR.shape[0]
        self.shape = (l, d, d, r)
        self.qL, self.qR = qL.copy(), qR.copy()
        super().__init__(
            (qL[:, None] + qsite).reshape(l * d, -1),
            (qR - qsite[:, None]).reshape(d * r, -1),
        )

    def matches(self, qL, qR):
        """Whether bonds of charges qL and qR have this layout."""
        return np.array_equal(self.qL, qL) and np.array_equal(self.qR, qR)


def _ragged_arange(lengths):
    """Concatenation of arange(n) for every n in ``lengths``."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


class TwoSiteHeff:
    """H_eff of one two-site problem, acting on block vectors.

    MPO state v of the middle bond carries block k (key q) to the block of
    key q + dk[v]; each such (k, v) is a path.  ``matvec`` first multiplies
    every block by its right pieces side by side,
    Z_k = Theta_k . [RW_v^T]_(paths from k), then gathers for every
    target t the Z pieces that reach it, stacked, into S_t, and applies
    the left pieces side by side, Y_t = [LW_v]_(paths to t) . S_t.  Paths
    are ordered by (v, row) on both sides.

    The index arithmetic depends on the charges only (the blocks and the
    channels' charge steps ``dk``) and happens here; ``load`` fills in the
    pieces of one pair of environments from ``W1`` and ``W2``, so a bond
    whose charges did not change since its last visit reuses the whole
    layout, even under another MPO with the same ``dk``.  Every matvec
    reuses the same buffers.
    """

    def __init__(self, blocks, channels):
        self.blocks = blocks
        self.W1, self.W2, dk = channels
        self.dk = dk
        l, d, _, r = blocks.shape
        D = dk.size
        keys, nb = blocks.keys, blocks.keys.size
        nr = blocks.row_hi - blocks.row_lo
        nc = blocks.col_hi - blocks.col_lo
        rk, ck = blocks.row_key, blocks.col_key
        # offsets into LW as X[a', a, s1', s1, v] and RW as Y[v, s2', s2, b', b]
        a, s = np.divmod(blocks.row_order, d)
        row_out, row_in = a * (l * d * d * D) + s * (d * D), a * (d * d * D) + s * D
        s, b = np.divmod(blocks.col_order, r)
        col_out, col_in = s * (d * r * r) + b * r, s * (r * r) + b

        def block_of(k):
            n = np.minimum(np.searchsorted(keys, k), nb - 1)
            return n, keys[n] == k

        # left: L_t has a column per path (v, sorted row p) into t, by (v, p)
        src, ok_src = block_of(rk)
        dst, ok_dst = block_of(rk + dk[:, None])
        pv, pp = np.nonzero(ok_src & ok_dst)
        order = np.argsort(dst[pv, pp], kind="stable")
        pv, pp = pv[order], pp[order]
        pt = dst[pv, pp]
        i, c = np.nonzero(rk[:, None] == keys[pt])
        self._L_index = row_out[i] + pv[c] + row_in[pp[c]]
        # right: R_k has a column per (v, sorted column q) that a path from
        # k reaches, by (v, q)
        qsrc, ok_q = block_of(ck - dk[:, None])
        qv, qq = np.nonzero(ok_q & block_of(ck)[1])
        order = np.argsort(qsrc[qv, qq], kind="stable")
        qv, qq = qv[order], qq[order]
        qk = qsrc[qv, qq]
        i, c = np.nonzero(ck[:, None] == keys[qk])
        self._R_index = col_in[i] + qv[c] * (d * d * r * r) + col_out[qq[c]]
        # S_t stacks, for every path (v, p) into t, row p of Z_src[p]
        # restricted to the run of columns of state v
        r_start = np.searchsorted(qk, np.arange(nb + 1))
        width = np.diff(r_start)
        depth = np.diff(np.searchsorted(pt, np.arange(nb + 1)))
        k = src[pp]
        z_ofs = np.cumsum(nr * width) - nr * width
        run = np.searchsorted(qk * D + qv, k * D + pv) - r_start[k]
        s_rows = z_ofs[k] + (pp - blocks.row_lo[k]) * width[k] + run
        n = nc[pt]
        self._s_index = np.repeat(s_rows, n) + _ragged_arange(n)

        self._L = np.empty(self._L_index.size)
        self._R = np.empty(self._R_index.size)
        self._x = np.empty(blocks.size)
        self._y = np.zeros(blocks.size)
        self._z = np.empty(int((nr * width).sum()))
        self._s = np.empty(self._s_index.size)
        self._right, self._left = [], []
        r_ofs = l_ofs = s_ofs = 0
        for t in range(nb):
            lo, hi = blocks.offsets[t], blocks.offsets[t + 1]
            if width[t]:
                self._right.append((
                    self._x[lo:hi].reshape(nr[t], nc[t]),
                    self._R[r_ofs:r_ofs + nc[t] * width[t]].reshape(nc[t], width[t]),
                    self._z[z_ofs[t]:z_ofs[t] + nr[t] * width[t]].reshape(nr[t], width[t]),
                ))
                r_ofs += nc[t] * width[t]
            if depth[t]:
                self._left.append((
                    self._L[l_ofs:l_ofs + nr[t] * depth[t]].reshape(nr[t], depth[t]),
                    self._s[s_ofs:s_ofs + depth[t] * nc[t]].reshape(depth[t], nc[t]),
                    self._y[lo:hi].reshape(nr[t], nc[t]),
                ))
                l_ofs += nr[t] * depth[t]
                s_ofs += depth[t] * nc[t]

    def load(self, EL, ER):
        """Gather the pieces of LW and RW for environments EL and ER."""
        l, r = EL.shape[0], ER.shape[0]
        X = EL.transpose(0, 2, 1).reshape(l * l, -1) @ self.W1.reshape(self.W1.shape[0], -1)
        np.take(X, self._L_index, out=self._L)
        Y = self.W2.reshape(-1, self.W2.shape[3]) @ ER.transpose(1, 0, 2).reshape(-1, r * r)
        np.take(Y, self._R_index, out=self._R)
        return self

    def matvec(self, x):
        np.copyto(self._x, x)
        for xk, R, zk in self._right:
            np.matmul(xk, R, out=zk)
        np.take(self._z, self._s_index, out=self._s, mode="clip")
        for L, st, yt in self._left:
            np.matmul(L, st, out=yt)
        return self._y.copy()


def select_cut(s, chi_max, cutoff, degeneracy_rtol=1e-12):
    """Which of the concatenated singular values survive truncation.

    Values are ranked globally; weights p = s^2 / sum(s^2) below ``cutoff``
    are dropped, then the bond is capped at ``chi_max``.  If the resulting
    boundary falls inside a multiplet degenerate to ``degeneracy_rtol``,
    the whole multiplet is dropped; if that would empty the bond, the cap
    is applied as-is and a warning is issued.

    Returns (keep_mask over the input order, discarded weight fraction).
    """
    total = float((s * s).sum())
    if total <= 0.0:
        raise ValueError("cannot truncate a zero block")
    order = np.argsort(-s, kind="stable")
    ss = s[order]
    n = ss.size
    n_keep = int(np.sum(ss * ss >= cutoff * total))
    n_keep = max(1, min(n_keep, chi_max))
    nk = n_keep
    while 0 < nk < n and (ss[nk - 1] - ss[nk]) <= degeneracy_rtol * ss[nk - 1]:
        nk -= 1
    if nk == 0:
        warnings.warn(
            "degenerate multiplet wider than chi_max; splitting it",
            ConvergenceWarning,
        )
        nk = n_keep
    keep = np.zeros(n, dtype=bool)
    keep[order[:nk]] = True
    kept_weight = float((ss[:nk] ** 2).sum())
    return keep, 1.0 - kept_weight / total


def split_two_site(blocks, x, chi_max, cutoff):
    """Charge-resolved truncated SVD of a two-site block vector.

    ``x`` holds the charge blocks of ``blocks`` (a TwoSiteBlocks); each is
    SVDed where it lies.  Returns (U3, s, Vt3, bond_charges, discarded)
    with U3 (l, d1, k) left-isometric, Vt3 (k, d2, r) right-isometric, and
    s renormalized so sum(s^2) = 1.  Entries outside charge blocks stay
    exactly zero.
    """
    l, d1, d2, r = blocks.shape
    svds = blocks.svd(x)
    keep, discarded = select_cut(np.concatenate([sv[1] for sv in svds]), chi_max, cutoff)
    # the kept values of a block lead it, since each block is sorted
    starts = np.cumsum([0] + [sv[1].size for sv in svds[:-1]])
    U, s, Vt, q_new = blocks.factors(svds, np.add.reduceat(keep, starts))
    s = s / np.sqrt((s**2).sum())
    return U.reshape(l, d1, -1), s, Vt.reshape(-1, d2, r), q_new, discarded


def _warm_start(spec, psi0):
    """Copy of ``psi0`` as the initial state of a search for ``spec``,
    with its canonical center at site 0.

    A solve leaves its center at site 0 already, so its final state needs
    no gauge move.  The copy takes over ``psi0``'s layouts, which
    ``psi0`` then no longer holds.  Raises ValueError when ``psi0`` has
    another length, local basis or charge sector than ``spec``.
    """
    if psi0.L != spec.L:
        raise ValueError(f"psi0 has {psi0.L} sites, the model has {spec.L}")
    if not np.array_equal(psi0.spec.site_charge_array(), spec.site_charge_array()):
        raise ValueError("psi0 has another local basis than the model")
    sector = tuple(int(c) for c in psi0.bond_charges[-1].ravel())
    if sector != tuple(spec.target_sector):
        raise ValueError(
            f"psi0 lies in sector {sector}, the model targets {tuple(spec.target_sector)}"
        )
    psi = MPSState(
        site_tensors=[T.copy() for T in psi0.site_tensors],
        bond_charges=[q.copy() for q in psi0.bond_charges],
        canonical_center=psi0.canonical_center,
        spec=spec,
        layouts=psi0.layouts,
    )
    psi0.layouts = None
    move_center(psi, 0)
    return psi


def dmrg_ground_state(spec, config=None, psi0=None):
    """Ground state of the target charge sector as a charge-labeled MPS.

    Runs up to ``config.max_sweeps`` full (right + left) sweeps and stops
    after the first full-size sweep whose halves agree in energy (within
    ``config.energy_tol``) and in the central Schmidt weights (within
    SCHMIDT_TOL), or whose energy is within ``config.energy_tol`` of the
    previous full-size sweep's (see the module docstring).  Without
    ``psi0`` the search starts cold from a product state with
    ``config.warmup_sweeps`` noisy warm-up sweeps; with it, the search
    starts from a copy of ``psi0`` (say the converged state of a
    neighbouring control value) and runs full sweeps only, so it can stop
    after one (``config`` still needs ``max_sweeps`` above
    ``warmup_sweeps``, see DmrgConfig).  ``psi0``'s tensors are left
    untouched, but its H_eff layouts pass to the new state, which reuses
    those that still fit; one of another length, local basis or sector
    raises ValueError.  The returned state carries the exact variational
    energy <H>, the accumulated truncated weight, per-sweep energies, a
    ``converged`` flag and ``stats`` (matvecs, sweeps, layouts built);
    non-convergence also raises a ConvergenceWarning but still returns
    the state.
    """
    if config is None:
        config = DmrgConfig()
    if psi0 is None:
        psi = product_mps(spec, seed=config.seed)
        n_warmup = config.warmup_sweeps
    else:
        psi = _warm_start(spec, psi0)
        n_warmup = 0
    mpo = build_mpo(spec)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    qsite = spec.site_charge_array()
    L = spec.L
    c_mpo = mpo_charges(mpo, qsite)
    channels = [bond_channels(mpo[i], mpo[i + 1], c_mpo[i + 1]) for i in range(L - 1)]
    if psi.layouts is None:
        psi.layouts = [None] * (L - 1)
    # per bond: the last TwoSiteHeff built there, here or by the solve
    # psi0 came from; an inherited one fits while its channels carry the
    # same charges (zero couplings drop channels, see bond_channels)
    layouts = psi.layouts
    for i, heff in enumerate(layouts):
        if heff is not None and np.array_equal(heff.dk, channels[i][2]):
            heff.W1, heff.W2 = channels[i][:2]
        else:
            layouts[i] = None
    n_built = 0
    EL = [None] * (L + 1)
    ER = [None] * (L + 1)
    EL[0] = np.ones((1, 1, 1))
    ER[L] = np.ones((1, 1, 1))
    for j in range(L - 1, 0, -1):
        ER[j] = _contract_right(ER[j + 1], psi.site_tensors[j], mpo[j])
    total_discard = 0.0
    n_matvec = 0
    sweep_energy_prev = None
    converged = False
    for sweep in range(config.max_sweeps):
        warmup = sweep < n_warmup
        chi = min(WARMUP_CHI, config.chi_max) if warmup else config.chi_max
        max_restarts = 2 if warmup else 12
        energy = None
        p_mid = {}
        for direction in ("right", "left"):
            bonds = range(L - 1) if direction == "right" else range(L - 2, -1, -1)
            for i in bonds:
                theta = np.tensordot(psi.site_tensors[i], psi.site_tensors[i + 1], axes=([2], [0]))
                qL, qR = psi.bond_charges[i], psi.bond_charges[i + 2]
                heff = layouts[i]
                if heff is None or not heff.blocks.matches(qL, qR):
                    heff = layouts[i] = TwoSiteHeff(TwoSiteBlocks(qL, qsite, qR), channels[i])
                    n_built += 1
                heff.load(EL[i], ER[i + 2])
                blocks = heff.blocks
                if warmup:
                    theta = theta + NOISE_SCALE * rng.standard_normal(theta.shape)
                x = blocks.gather(theta)
                nrm = np.linalg.norm(x)
                if nrm == 0.0:
                    raise RuntimeError("two-site block vanished during sweep")
                x /= nrm
                energy, vec, info = lowest_eigenpair(
                    heff.matvec,
                    x,
                    tol=LANCZOS_TOL,
                    krylov_dim=LANCZOS_DIM,
                    max_restarts=max_restarts,
                )
                n_matvec += info["matvecs"]
                U3, s, Vt3, q_new, discarded = split_two_site(
                    blocks, vec, chi, config.svd_cutoff
                )
                total_discard += discarded
                psi.bond_charges[i + 1] = q_new
                if i == L // 2 - 1:
                    p_mid[direction] = np.sort(s**2)
                if direction == "right":
                    psi.site_tensors[i] = U3
                    psi.site_tensors[i + 1] = s[:, None, None] * Vt3
                    psi.canonical_center = i + 1
                    EL[i + 1] = _contract_left(EL[i], U3, mpo[i])
                else:
                    psi.site_tensors[i] = U3 * s[None, None, :]
                    psi.site_tensors[i + 1] = Vt3
                    psi.canonical_center = i
                    ER[i + 1] = _contract_right(ER[i + 2], Vt3, mpo[i + 1])
            if direction == "right":
                energy_right = energy
        psi.sweep_energies.append(float(energy))
        if not warmup:
            if sweep_energy_prev is not None and energy > sweep_energy_prev + config.energy_tol:
                warnings.warn(
                    f"sweep energy rose by {energy - sweep_energy_prev:.3e}; "
                    "truncation is fighting the optimization",
                    ConvergenceWarning,
                )
            # the two halves agree in energy and in the central Schmidt
            # weights, or this sweep's energy agrees with the last one's
            # (a truncation cycle can keep the halves apart for good)
            p_r, p_l = p_mid["right"], p_mid["left"]
            n = max(p_r.size, p_l.size)
            drift = np.abs(np.pad(p_r, (n - p_r.size, 0)) - np.pad(p_l, (n - p_l.size, 0))).max()
            halves_agree = abs(energy - energy_right) < config.energy_tol and drift < SCHMIDT_TOL
            sweeps_agree = (
                sweep_energy_prev is not None
                and abs(energy - sweep_energy_prev) < config.energy_tol
            )
            if halves_agree or sweeps_agree:
                converged = True
                break
            sweep_energy_prev = energy
    psi.converged = converged
    psi.truncation_error = total_discard
    psi.seed = config.seed
    psi.energy = expectation_value(psi, mpo)
    psi.stats = {
        "matvecs": n_matvec,
        "sweeps": len(psi.sweep_energies),
        "layouts_built": n_built,
    }
    if not converged:
        warnings.warn(
            f"energy not converged to {config.energy_tol} within "
            f"{config.max_sweeps} sweeps",
            ConvergenceWarning,
        )
    return psi
