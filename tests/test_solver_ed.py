from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from esgan.models import (
    Bh2sParams, BhParams, XxzParams, build_bh, build_bh2s, build_xxz, expanded_terms,
)
from esgan.solver.ed import build_sector_hamiltonian, ed_ground_state, sector_basis
from esgan.solver.lanczos import DGKS_ETA, lowest_eigenpair
from esgan.solver.schmidt import _statevector_schmidt

from oracles import xx_ground_energy


def test_sector_basis_counts_and_charges():
    spec = build_xxz(12)
    basis = sector_basis(spec)
    assert basis.shape == (924, 12)  # C(12, 6)
    charges = spec.site_charge_array()
    totals = charges[basis].sum(axis=1)
    assert np.all(totals[:, 0] == 6)

    spec2 = build_bh2s(4, Bh2sParams(n_max=2))
    basis2 = sector_basis(spec2)
    # 2 bosons on 4 sites with cap 2, independently per species: 10 * 10
    assert basis2.shape[0] == 100


def test_hamiltonian_is_symmetric():
    for spec in (
        build_xxz(8, XxzParams(delta=-0.7)),
        build_bh(5, BhParams(u=2.5, n_max=3)),
        build_bh2s(4, Bh2sParams(u_ab=-0.2)),
    ):
        H = build_sector_hamiltonian(spec)
        d = H - H.T
        assert abs(d).max() < 1e-13


def _product_index(spec, configs):
    """Position of each configuration in the full product basis, site 0
    most significant (the Kronecker-product order)."""
    d = spec.local_dim
    return configs.astype(np.int64) @ (d ** np.arange(spec.L - 1, -1, -1))


def _kronecker_hamiltonian(spec):
    """Sum over the terms of coeff * (one factor per site, the identity
    where the term has no operator), on the full product space."""
    eye = sp.identity(spec.local_dim, format="csr")
    H = 0
    for sites, mats, coeff in expanded_terms(spec):
        ops = dict(zip(sites, mats))
        factors = [sp.csr_matrix(ops[i]) if i in ops else eye for i in range(spec.L)]
        H = H + coeff * reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)
    return H.tocsr()


@pytest.mark.parametrize(
    "spec",
    [
        build_xxz(8, XxzParams(delta=-0.7)),
        build_xxz(7, XxzParams(delta=0.0)),
        build_bh(6, BhParams(u=3.3, n_max=2)),
        build_bh(5, BhParams(u=0.5, n_max=4)),
        build_bh2s(4, Bh2sParams(u_ab=-0.2)),
    ],
    ids=["xxz", "xxz-delta0", "bh-nmax2", "bh-nmax4", "bh2s"],
)
def test_sector_hamiltonian_equals_kronecker_products(spec):
    basis = sector_basis(spec)
    idx = _product_index(spec, basis)
    full = _kronecker_hamiltonian(spec)
    H = build_sector_hamiltonian(spec, basis).toarray()
    assert np.abs(H - full[idx][:, idx].toarray()).max() <= 1e-13
    # no term leaves the sector
    outside = np.setdiff1d(np.arange(full.shape[0]), idx)
    assert full[outside][:, idx].nnz == 0


@pytest.mark.parametrize(
    "spec",
    [
        build_xxz(10, XxzParams(delta=-0.5)),
        build_bh(6, BhParams(u=3.3, n_max=3)),
        build_bh2s(4, Bh2sParams(u_ab=-0.2)),
    ],
    ids=["xxz", "bh", "bh2s"],
)
def test_statevector_schmidt_equals_unblocked_svd(spec):
    _, state = ed_ground_state(spec)
    d = spec.local_dim
    psi = np.zeros(d**spec.L)
    psi[_product_index(spec, state.basis)] = state.amplitudes

    def levels(M):
        return (np.linalg.svd(M, compute_uv=False) ** 2)[: M.shape[0]]

    # the off-centre cut breaks the reflection symmetry that makes the
    # levels of left charge q and N - q equal at the centre
    for bond in (spec.L // 2, spec.L // 2 - 1):
        M = psi.reshape(d**bond, -1)
        p, charges = _statevector_schmidt(state, bond)
        assert p.size == charges.shape[0] > 1
        whole = levels(M)
        assert np.abs(np.sort(p)[::-1] - whole[: p.size]).max() <= 1e-14
        assert np.all(whole[p.size:] <= 1e-14)
        # the levels labelled q are those of the rows whose left block
        # has charge q
        left = np.array(np.unravel_index(np.arange(M.shape[0]), (d,) * bond)).T
        left_q = spec.site_charge_array()[left].sum(axis=1)
        for q in np.unique(charges, axis=0):
            mine = np.all(charges == q, axis=1)
            ref = levels(M[np.all(left_q == q, axis=1)])
            assert np.abs(np.sort(p[mine])[::-1] - ref[: mine.sum()]).max() <= 1e-14
            assert np.all(ref[mine.sum():] <= 1e-14)


def test_lanczos_against_dense_eigh():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((300, 300))
    A = (A + A.T) / 2
    ref = np.linalg.eigvalsh(A)[0]
    theta, x, info = lowest_eigenpair(lambda v: A @ v, rng.standard_normal(300), tol=1e-11)
    assert info["converged"]
    assert abs(theta - ref) < 1e-9
    np.testing.assert_allclose(A @ x, theta * x, atol=1e-8)


def test_lanczos_rejects_zero_start():
    with pytest.raises(ValueError):
        lowest_eigenpair(lambda v: v, np.zeros(5))


def test_lanczos_small_dimension():
    A = np.diag([3.0, -1.0, 2.0])
    theta, x, info = lowest_eigenpair(lambda v: A @ v, np.ones(3), tol=1e-12)
    assert abs(theta + 1.0) < 1e-12


def _per_restart_lanczos(matvec, v0, tol, krylov_dim, max_restarts):
    """lowest_eigenpair as it was when every restart allocated its own
    Krylov basis and projected matrix: the reference its single
    allocation must match."""
    v = np.asarray(v0, dtype=np.float64).ravel().copy()
    n = v.size
    v /= np.linalg.norm(v)
    m_cap = min(krylov_dim, n)
    theta, x, n_matvec, residual, hx = np.inf, v, 0, np.inf, None
    for restart in range(max_restarts):
        V = np.empty((m_cap, n))
        V[0] = v
        T = np.zeros((m_cap, m_cap))
        if hx is None:
            hx = matvec(V[0])
            n_matvec += 1
        w = hx
        m = 0
        exhausted = False
        for j in range(m_cap):
            if j > 0:
                w = matvec(V[j])
                n_matvec += 1
            alpha = V[j] @ w
            T[j, j] = alpha
            m = j + 1
            if j == m_cap - 1:
                break
            w = w - alpha * V[j]
            if j > 0:
                w = w - T[j, j - 1] * V[j - 1]
            before = np.linalg.norm(w)
            w -= V[: j + 1].T @ (V[: j + 1] @ w)
            beta = np.linalg.norm(w)
            if beta < DGKS_ETA * before:
                w -= V[: j + 1].T @ (V[: j + 1] @ w)
                beta = np.linalg.norm(w)
            if beta < 1e-13 * max(1.0, abs(T[0, 0])):
                exhausted = True
                break
            T[j + 1, j] = T[j, j + 1] = beta
            V[j + 1] = w / beta
        if m == 1:
            theta, x = T[0, 0], V[0]
        else:
            evals, evecs = np.linalg.eigh(T[:m, :m])
            theta = evals[0]
            x = V[:m].T @ evecs[:, 0]
            x /= np.linalg.norm(x)
            hx = matvec(x)
            n_matvec += 1
        residual = np.linalg.norm(hx - theta * x)
        if residual <= tol * max(1.0, abs(theta)) or (exhausted and m < m_cap):
            return theta, x, {"converged": True, "residual": float(residual),
                              "restarts": restart + 1, "matvecs": n_matvec}
        v = x
    return theta, x, {"converged": False, "residual": float(residual),
                      "restarts": max_restarts, "matvecs": n_matvec}


def _symmetric(n, seed):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return (A + A.T) / 2


@pytest.mark.parametrize(
    "A, v0, krylov_dim, max_restarts, matvecs",
    [
        # restarts until converged, then runs out of restarts; every
        # restart after the first reuses the last one's residual product
        (_symmetric(60, 3), np.ones(60), 4, 200, None),
        (_symmetric(60, 3), np.ones(60), 4, 5, 5 + 4 * 4),
        # n < krylov_dim, and a start vector in a 3-dimensional
        # invariant subspace: the basis is exhausted after 3 vectors
        (np.diag(np.arange(8.0)), np.r_[1.0, 2.0, 0, 0, 3.0, 0, 0, 0], 20, 200, 3 + 1),
        (_symmetric(6, 4), np.ones(6), 20, 200, 6 + 1),
        # an eigenvector as start: its own product gives the residual
        (np.diag(np.arange(8.0)), np.eye(8)[2], 20, 200, 1),
    ],
    ids=["restarting", "restart-cap", "invariant-subspace", "n-below-krylov",
         "eigenvector-start"],
)
def test_lanczos_matches_per_restart_allocation_bit_for_bit(
    A, v0, krylov_dim, max_restarts, matvecs
):
    def matvec(v):
        return A @ v

    args = (matvec, v0, 1e-12, krylov_dim, max_restarts)
    theta, x, info = lowest_eigenpair(*args)
    ref_theta, ref_x, ref_info = _per_restart_lanczos(*args)
    if matvecs is None:
        assert info["converged"] and info["restarts"] > 1
    else:
        assert info["matvecs"] == matvecs
    assert info == ref_info
    assert np.float64(theta).tobytes() == np.float64(ref_theta).tobytes()
    assert x.tobytes() == ref_x.tobytes()


def _rotated(eigenvalues, seed):
    """Symmetric matrix with the given spectrum and a random eigenbasis."""
    n = len(eigenvalues)
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q @ np.diag(eigenvalues) @ Q.T


# a 3x3 block holding the lowest level, decoupled from the rest
_BLOCKS = np.zeros((40, 40))
_BLOCKS[:3, :3] = _symmetric(3, 5) - 10.0 * np.eye(3)
_BLOCKS[3:, 3:] = _symmetric(37, 5)
_DEGENERATE = _rotated(np.r_[-1.5, -1.5, -1.5, np.linspace(-1.0, 2.0, 47)], 6)


@pytest.mark.parametrize(
    "A, v0, restarts, matvecs",
    [
        (_symmetric(120, 8), np.ones(120), 6, None),
        (_symmetric(9, 9), np.ones(9), 1, 9 + 1),
        (np.array([[2.5]]), np.array([-3.0]), 1, 1),
        # the start vector lies in the block: the basis is exhausted
        # after 3 vectors
        (_BLOCKS, np.r_[1.0, -2.0, 0.5, np.zeros(37)], 1, 3 + 1),
        (_DEGENERATE, np.ones(50), 2, None),
    ],
    ids=["restarting", "n-below-krylov", "n-is-one", "invariant-subspace",
         "degenerate-lowest"],
)
def test_lanczos_matches_dense_eigh(A, v0, restarts, matvecs):
    tol = 1e-12
    theta, x, info = lowest_eigenpair(lambda v: A @ v, v0, tol=tol)
    ref = np.linalg.eigh(A)[0][0]
    scale = max(1.0, abs(theta))
    assert info["converged"] and info["restarts"] == restarts
    assert matvecs is None or info["matvecs"] == matvecs
    assert abs(theta - ref) <= 1e-12 * scale
    assert abs(np.linalg.norm(x) - 1.0) < 1e-14
    assert np.linalg.norm(A @ x - theta * x) <= tol * scale


def test_lanczos_second_pass_keeps_a_graded_basis_orthonormal():
    # the levels span seven decades; the start vector has a 10^-3.5 share
    # in the 10^7 level and 1e-17 in the others, so the first Krylov
    # vectors nearly span an invariant subspace, and the three-term step
    # leaves mostly rounding error of size eps * 1e7 along the basis:
    # one Gram-Schmidt pass removes most of the norm, and only the DGKS
    # second pass keeps the next vector orthogonal to eps
    d = np.r_[-1.0, 1e7, np.linspace(0.0, 1.0, 10)]
    A = np.diag(d)
    v0 = np.r_[1.0, d[1] ** -0.5, np.full(10, 1e-17)]
    inputs = []

    def matvec(v):
        inputs.append(v.copy())
        return A @ v

    tol = 1e-12
    theta, x, info = lowest_eigenpair(matvec, v0, tol=tol)
    assert info["converged"]
    assert abs(theta + 1.0) <= 1e-12
    assert np.linalg.norm(A @ x - theta * x) <= tol
    # a restart's products are its basis vectors, then the Ritz vector,
    # which is the next restart's first vector
    m = A.shape[0]
    for start in range(0, len(inputs) - 1, m):
        Q = np.array(inputs[start:start + m])
        assert np.abs(Q @ Q.T - np.eye(m)).max() < 1e-14


def test_ed_xxz_free_fermion_energies():
    for L in (8, 10, 13):
        spec = build_xxz(L, XxzParams(j=1.0, delta=0.0))
        energy, _ = ed_ground_state(spec)
        ref = xx_ground_energy(L, n_particles=L // 2)
        assert abs(energy - ref) < 1e-10, (L, energy, ref)


def test_ed_bh_two_site_free_limit():
    spec = build_bh(2, BhParams(j=1.0, u=0.0, n_max=2))
    energy, state = ed_ground_state(spec)
    assert abs(energy + 2.0) < 1e-12
    assert state.sector == (2,)


def test_ed_lanczos_branch_matches_scipy():
    # L = 16 at half filling has 12870 states, above the dense cutoff
    spec = build_xxz(16, XxzParams(delta=-0.5))
    energy, state = ed_ground_state(spec)
    assert state.info["method"] == "lanczos"
    H = build_sector_hamiltonian(spec)
    ref = spla.eigsh(H, k=1, which="SA", tol=0)[0][0]
    assert abs(energy - ref) < 1e-9
    # and the delta = 0 point against the closed form
    energy0, _ = ed_ground_state(build_xxz(16, XxzParams(delta=0.0)))
    assert abs(energy0 - xx_ground_energy(16)) < 1e-8


def test_ed_bh_matches_scipy():
    spec = build_bh(6, BhParams(j=1.0, u=3.4, n_max=4))
    energy, _ = ed_ground_state(spec)
    H = build_sector_hamiltonian(spec)
    ref = spla.eigsh(H.toarray() if H.shape[0] < 500 else H, k=1, which="SA")[0][0]
    assert abs(energy - ref) < 1e-9


def test_ed_amplitudes_are_normalized_eigenvector():
    spec = build_bh2s(4, Bh2sParams(u_ab=-0.2))
    energy, state = ed_ground_state(spec)
    H = build_sector_hamiltonian(spec)
    np.testing.assert_allclose(np.linalg.norm(state.amplitudes), 1.0, atol=1e-12)
    np.testing.assert_allclose(
        H @ state.amplitudes, energy * state.amplitudes, atol=1e-8
    )
