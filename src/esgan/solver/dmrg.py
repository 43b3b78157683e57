"""Two-site DMRG ground-state search with U(1) charge bookkeeping.

The Hamiltonian is encoded as a finite-state-machine MPO: virtual state 0
means nothing placed yet, the last state means the term is complete, and
one in-flight state per two-site term lives on the bond it straddles
(bond dimension 5 for the spin chain, 4 for single-species bosons, 6 for
two species), whose charges build_mpo assigns as it places the terms: 0
for the first and last state, that of the pending operator for an in-flight
one.  It checks every nonzero entry against them and hands the sweep each
bond's channels, the states both sites reach; a zero coupling drops its
state.  Sweeps optimize two adjacent sites at a time, split the optimized
block by a charge-resolved SVD, and truncate to chi_max, never splitting a
degenerate multiplet.

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

The local eigenproblem is solved one of two ways.  A problem of at most
N_DENSE entries is assembled as a dense matrix from the same gathered
pieces (TwoSiteHeff.dense) and diagonalized by np.linalg.eigh; on short
chains most bond updates are this small, and for them a dense solve costs
less than the Python overhead of a Lanczos run.  A larger one, or one
whose two lowest eigenvalues are degenerate to DEGENERATE_TOL, goes to
the restarted Lanczos solver from the current block, which picks the
ground state nearest it.

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

The final energy needs no extra pass over the chain.  A search ends after
a left half-sweep, whose last update leaves sites 1..L-1 right-isometric
and their right environment built, so <H> is site 0 contracted against
that environment, divided by the squared norm of site 0 (standard DMRG
practice, Schollwoeck 2011); it agrees with the full-chain
expectation_value to rounding.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ..models import ConfigError, expanded_terms
from .lanczos import lowest_eigenpair
from .mps import ChargeBlocks, MPSState, charge_keys, mps_norm, product_mps, require_center_at_0


# Local eigensolver (Krylov dimension, residual tolerance) and warm-up
# phase (bond dimension, scale of the noise added to each two-site block)
LANCZOS_DIM = 20
LANCZOS_TOL = 1e-12
# Largest local problem (charge-allowed entries) solved by a dense eigh, and
# the gap below which its ground state counts as degenerate and goes to
# Lanczos (see the module docstring).  Crossover, one BLAS thread, per solve
# on the XXZ L=8 and BH L=8 perfbench chains: dense 70 us at n <= 8, 150 us
# at n <= 24, 430 us at n = 41-48, 865 us at n = 70; Lanczos 140-320 us on
# warm XXZ problems up to n = 24, 387 us at XXZ's n = 70 and 970-1 340 us
# on BH's n = 41-56.  Serial sweep-dense chain, median of 6 interleaved
# runs against Lanczos alone: 0.85-0.89x for N_DENSE 24-48, 0.92x at 64,
# 1.21x at 96.
N_DENSE = 48
DEGENERATE_TOL = 1e-12
WARMUP_CHI = 16
NOISE_SCALE = 1e-6
# Largest change of the central bond's Schmidt weights s^2 between the two
# halves of a sweep whose halves count as agreeing (see the module docstring)
SCHMIDT_TOL = 1e-10
# Relative gap within which select_cut keeps neighbouring values together
# (rounding can still part a symmetry pair: CHANGES, FOUND on select_cut)
DEGENERACY_RTOL = 1e-12


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
        if self.chi_max < 1:
            raise ConfigError(f"chi_max must be >= 1, got {self.chi_max}")
        if not self.svd_cutoff >= 0:  # NaN too
            raise ConfigError(f"svd_cutoff must be >= 0, got {self.svd_cutoff}")
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
    """Finite-state-machine MPO of ``spec`` and the channels of its bonds.

    Returns (mpo, channels).  mpo[i] is W[w, s_out, s_in, v] of shape
    (Dl, d, d, Dr): state 0 = nothing placed yet, last state = finished,
    states 1..m = in-flight two-site terms of the bond to the next site.
    The first and last state carry charge 0, an in-flight state the charge
    its left operator adds, and a nonzero entry that breaks
    c[w] + q[s_out] - q[s_in] == c'[v] (c, c' the charges of the bonds
    either side of the site) raises ValueError.

    channels[i] is (W1, W2, keys): mpo[i] and mpo[i + 1] restricted to the
    states of their bond that both reach, by ascending charge key (then
    state), and those keys.  A zero coupling leaves its state unreached.
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
            bond_terms[j1].append((coeff, mats[0], mats[1]))
    dims = [1] + [2 + len(bt) for bt in bond_terms] + [1]
    eye = np.eye(d)
    # charges as charge_keys (linear): the key entry (s_out, s_in) adds, and an
    # in-flight state's, added by the first nonzero entry of its left operator
    kq = charge_keys(spec.site_charge_array())
    step = kq[:, None] - kq
    lefts = np.array([left for bt in bond_terms for _, left, _ in bt]).reshape(-1, d * d)
    pending = step.ravel()[(lefts != 0).argmax(axis=1)]
    mpo, keys = [], [np.zeros(1, dtype=np.int64)]
    for i in range(L):
        Dl, Dr = dims[i], dims[i + 1]
        W = np.zeros((Dl, d, d, Dr))
        k = np.zeros(Dr, dtype=np.int64)
        done_out = Dr - 1
        W[0, :, :, done_out] += onsite[i]
        if i < L - 1:
            W[0, :, :, 0] = eye
            for t, (coeff, left_mat, _) in enumerate(bond_terms[i]):
                W[0, :, :, 1 + t] = coeff * left_mat
            k[1:done_out], pending = pending[:done_out - 1], pending[done_out - 1:]
        if i > 0:
            for t, (_, _, right_mat) in enumerate(bond_terms[i - 1]):
                W[1 + t, :, :, done_out] += right_mat
            W[Dl - 1, :, :, done_out] += eye
        w, s_out, s_in, v = W.nonzero()
        if (keys[i][w] + step[s_out, s_in] != k[v]).any():
            raise ValueError("MPO does not conserve the charges")
        mpo.append(W)
        keys.append(k)
    channels = []
    for W1, W2, k in zip(mpo, mpo[1:], keys[1:]):
        live = (W1.any(axis=(0, 1, 2)) & W2.any(axis=(1, 2, 3))).nonzero()[0]
        live = live[k[live].argsort(kind="stable")]
        channels.append((W1.take(live, axis=3), W2.take(live, axis=0), k[live]))
    return mpo, channels


# The environment updates are three matrix products each.  They call np.dot
# on the very transposes and reshapes np.tensordot would build, without its
# argument handling, so they give its bits at a fraction of its cost on the
# small tensors of short chains.  Every other product of the sweep, the
# H_eff matvec's pieces and the Lanczos step's included, calls np.dot or
# ndarray.dot as well, with ``out=`` where a buffer is at hand: it returns
# np.matmul's bits, and on the matvec's small pieces it costs less per call
# (one BLAS thread, numpy 2.4: 0.38-0.72 us against 0.91-1.44 us for
# np.matmul on 5x5.5x20, 20x10.10x40, 1x12.12x30 and 40x1.1x5; both about
# 9 us at 60x60), and a BH L=8 sweep makes about 127 000 such calls.

def _contract_left(E, A, W):
    """Grow a left environment (bra_r, v, ket_r) past one site."""
    l, d, r = A.shape
    X = np.dot(E.transpose(1, 2, 0).reshape(-1, l), A.reshape(l, d * r))  # (w ket_l, s_out bra_r)
    X = X.reshape(-1, l, d, r).transpose(1, 3, 0, 2).reshape(l * r, -1)  # (ket_l bra_r, w s_out)
    X = np.dot(X, W.reshape(-1, d * W.shape[3]))  # (ket_l bra_r, s_in v)
    X = X.reshape(l, r, d, -1).transpose(1, 3, 0, 2).reshape(-1, l * d)  # (bra_r v, ket_l s_in)
    return np.dot(X, A.reshape(l * d, r)).reshape(r, -1, r)


def _contract_right(E, A, W):
    """Grow a right environment (bra_l, w, ket_l) past one site."""
    l, d, r = A.shape
    X = np.dot(A.reshape(l * d, r), E.reshape(r, -1))  # (bra_l s_out, v ket_r)
    X = X.reshape(l, d, -1, r).transpose(0, 3, 1, 2).reshape(l * r, -1)  # (bra_l ket_r, s_out v)
    X = np.dot(X, W.transpose(1, 3, 0, 2).reshape(-1, W.shape[0] * d))  # (bra_l ket_r, w s_in)
    X = X.reshape(l, r, -1, d).transpose(0, 2, 3, 1).reshape(-1, d * r)  # (bra_l w, s_in ket_r)
    return np.dot(X, A.transpose(1, 2, 0).reshape(d * r, l)).reshape(l, -1, l)


def expectation_value(mps, mpo):
    """Exact <psi|H|psi> / <psi|psi> by a full-chain contraction."""
    E = np.ones((1, 1, 1))
    for A, W in zip(mps.site_tensors, mpo):
        E = _contract_left(E, A, W)
    nrm = mps_norm(mps)
    return float(E[0, 0, 0]) / nrm**2


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
        if blocks.size <= N_DENSE:
            # dense(): column j of H_eff is the matvec of unit vector j, whose
            # Z is one row of R; G holds those rows at their S positions, so
            # G[(path, c), (k, a, b)] = R_k[b, run + c] for a path from row a
            # of block k
            path = np.repeat(np.arange(pp.size), n)
            kp = k[path]
            m = nc[kp]
            r_at = np.cumsum(nc * width) - nc * width  # where R_k starts in _R
            col = np.repeat(blocks.offsets[kp] + (pp - blocks.row_lo[k])[path] * m, m)
            b = _ragged_arange(m)
            self._g_dst = np.repeat(np.arange(path.size), m) * blocks.size + col + b
            self._g_src = (np.repeat(r_at[kp] + run[path] + _ragged_arange(n), m)
                           + b * np.repeat(width[kp], m))
        self._right, self._left, self._rows = [], [], []
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
                self._rows.append((int(lo), int(hi), int(s_ofs), int(s_ofs + depth[t] * nc[t])))
                l_ofs += nr[t] * depth[t]
                s_ofs += depth[t] * nc[t]

    def load(self, EL, ER):
        """Gather the pieces of LW and RW for environments EL and ER."""
        l, r = EL.shape[0], ER.shape[0]
        X = EL.transpose(0, 2, 1).reshape(l * l, -1).dot(self.W1.reshape(self.W1.shape[0], -1))
        X.take(self._L_index, out=self._L)
        Y = self.W2.reshape(-1, self.W2.shape[3]).dot(ER.transpose(1, 0, 2).reshape(-1, r * r))
        Y.take(self._R_index, out=self._R)
        return self

    def dense(self):
        """H_eff as an (n, n) matrix over the block vector (n entries of
        at most N_DENSE), from the pieces ``load`` gathered: the matvec
        applied to all n unit vectors in one pass."""
        n = self.blocks.size
        G = np.zeros((self._s.size, n))
        G.flat[self._g_dst] = self._R[self._g_src]
        H = np.zeros((n, n))
        for (L, _, _), (lo, hi, s_lo, s_hi) in zip(self._left, self._rows):
            L.dot(G[s_lo:s_hi].reshape(L.shape[1], -1), out=H[lo:hi].reshape(L.shape[0], -1))
        return H

    def matvec(self, x):
        np.copyto(self._x, x)
        for xk, R, zk in self._right:
            xk.dot(R, out=zk)
        self._z.take(self._s_index, out=self._s, mode="clip")
        for L, st, yt in self._left:
            L.dot(st, out=yt)
        return self._y.copy()


def select_cut(s, chi_max, cutoff):
    """Which of the concatenated singular values survive truncation.

    Values are ranked globally; weights p = s^2 / sum(s^2) below ``cutoff``
    are dropped, then the bond is capped at ``chi_max``.  If the resulting
    boundary falls inside a multiplet degenerate to DEGENERACY_RTOL,
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
    while 0 < nk < n and (ss[nk - 1] - ss[nk]) <= DEGENERACY_RTOL * ss[nk - 1]:
        nk -= 1
    if nk == 0:
        warnings.warn(
            "degenerate multiplet wider than chi_max; splitting it",
            ConvergenceWarning,
        )
        nk = n_keep
    keep = np.zeros(n, dtype=bool)
    keep[order[:nk]] = True
    return keep, float((ss[nk:] ** 2).sum()) / total


def local_ground_state(heff, x, max_restarts):
    """Lowest eigenpair (energy, vector, info) of a loaded TwoSiteHeff from
    the unit start vector ``x``.

    A problem of at most N_DENSE entries whose ground state is not
    degenerate is solved by np.linalg.eigh on ``heff.dense()``, its vector
    signed to overlap ``x`` positively, and ``info`` is None; any other goes
    to lowest_eigenpair, whose info dict is returned.
    """
    if x.size <= N_DENSE:
        evals, evecs = np.linalg.eigh(heff.dense())
        if x.size == 1 or evals[1] - evals[0] > DEGENERATE_TOL * max(1.0, abs(evals[0])):
            vec = evecs[:, 0].copy()
            if vec.dot(x) < 0.0:
                vec *= -1.0
            return evals[0], vec, None
    return lowest_eigenpair(
        heff.matvec, x, tol=LANCZOS_TOL, krylov_dim=LANCZOS_DIM, max_restarts=max_restarts
    )


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
    """Copy of ``psi0`` as the initial state of a search for ``spec``.

    The search starts with its canonical center at site 0, where a solve
    leaves it, so the copy needs no gauge move.  The copy takes over
    ``psi0``'s layouts, which ``psi0`` then no longer holds.  Raises
    ValueError when ``psi0`` has another length, local basis or charge
    sector than ``spec``, or its center at another site than 0.
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
    require_center_at_0(psi0)
    psi = MPSState(
        site_tensors=[T.copy() for T in psi0.site_tensors],
        bond_charges=[q.copy() for q in psi0.bond_charges],
        canonical_center=0,
        spec=spec,
        layouts=psi0.layouts,
    )
    psi0.layouts = None
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
    those that still fit; one of another length, local basis or sector,
    or with its canonical center away from site 0, raises ValueError.
    The returned state, its canonical center at site 0, carries the
    variational energy <H> of the final state, read off the last
    half-sweep's environments (see the module docstring), as
    ``truncation_error`` the largest weight fraction that one split of the
    final sweep discarded (0.0 when that sweep kept every value),
    per-sweep energies, a ``converged`` flag and ``stats``: matvecs,
    sweeps, layouts built, the bond updates solved densely
    (``dense_solves``) and by Lanczos (``lanczos_solves``), which sum to
    all bond updates (see the module docstring), and ``restarts``, the sum
    of the Lanczos solves' restart counts (a solve's first pass counts
    one); non-convergence also raises a ConvergenceWarning but still
    returns the state.
    """
    if config is None:
        config = DmrgConfig()
    mpo, channels = build_mpo(spec)
    if psi0 is None:
        psi = product_mps(spec)
        n_warmup = config.warmup_sweeps
    else:
        psi = _warm_start(spec, psi0)
        n_warmup = 0
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    qsite = spec.site_charge_array()
    L = spec.L
    if psi.layouts is None:
        psi.layouts = [None] * (L - 1)
    # per bond: the last TwoSiteHeff built there, here or by the solve
    # psi0 came from; an inherited one fits while its channels carry the
    # same charges (zero couplings drop channels, see build_mpo)
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
    n_matvec = n_dense = n_lanczos = n_restarts = 0
    sweep_energy_prev = None
    converged = False
    for sweep in range(config.max_sweeps):
        warmup = sweep < n_warmup
        chi = min(WARMUP_CHI, config.chi_max) if warmup else config.chi_max
        max_restarts = 2 if warmup else 12
        energy = None
        max_discard = 0.0
        p_mid = {}
        for direction in ("right", "left"):
            bonds = range(L - 1) if direction == "right" else range(L - 2, -1, -1)
            for i in bonds:
                A, B = psi.site_tensors[i], psi.site_tensors[i + 1]
                theta = np.dot(A.reshape(-1, A.shape[2]), B.reshape(B.shape[0], -1))
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
                nrm = np.sqrt(x.dot(x))
                if nrm == 0.0:
                    raise RuntimeError("two-site block vanished during sweep")
                x /= nrm
                energy, vec, info = local_ground_state(heff, x, max_restarts)
                if info is None:
                    n_dense += 1
                else:
                    n_lanczos += 1
                    n_matvec += info["matvecs"]
                    n_restarts += info["restarts"]
                U3, s, Vt3, q_new, discarded = split_two_site(
                    blocks, vec, chi, config.svd_cutoff
                )
                max_discard = max(max_discard, discarded)
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
    psi.truncation_error = max_discard
    # <H> from the last half-sweep's environments: sites 1..L-1 are right
    # isometries, so site 0 against ER[1] gives <psi|H|psi>
    A = psi.site_tensors[0]
    psi.energy = float(_contract_right(ER[1], A, mpo[0])[0, 0, 0]) / A.ravel().dot(A.ravel())
    psi.stats = {
        "matvecs": n_matvec,
        "sweeps": len(psi.sweep_energies),
        "layouts_built": n_built,
        "dense_solves": n_dense,
        "lanczos_solves": n_lanczos,
        "restarts": n_restarts,
    }
    if not converged:
        warnings.warn(
            f"energy not converged to {config.energy_tol} within "
            f"{config.max_sweeps} sweeps",
            ConvergenceWarning,
        )
    return psi
