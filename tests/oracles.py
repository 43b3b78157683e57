"""Independent reference results used by the test suite.

The isotropic-hopping spin chain (delta = 0) maps to free fermions hopping
on an open chain with amplitude J/2, so single-particle energies are
e_k = -J cos(k pi / (L+1)), k = 1..L.  Ground-state data in the N-particle
sector (energy, subsystem entropy, even the charge-resolved entanglement
spectrum) then follow from the mode functions alone, with no many-body
solver involved.
"""

import itertools

import numpy as np


def xx_mode_energies(L, j=1.0):
    k = np.arange(1, L + 1)
    return -j * np.cos(k * np.pi / (L + 1))


def xx_ground_energy(L, j=1.0, n_particles=None):
    """Ground energy of the delta = 0 chain with a fixed particle number."""
    if n_particles is None:
        n_particles = L // 2
    eps = np.sort(xx_mode_energies(L, j))
    return float(eps[:n_particles].sum())


def xx_correlation_matrix(L, n_particles=None):
    """Two-point function C_ij = <c+_i c_j> in the ground state (0-indexed)."""
    if n_particles is None:
        n_particles = L // 2
    i = np.arange(1, L + 1)
    k = np.arange(1, L + 1)
    phi = np.sqrt(2.0 / (L + 1)) * np.sin(np.outer(i, k) * np.pi / (L + 1))
    eps = xx_mode_energies(L)
    occ = np.argsort(eps, kind="stable")[:n_particles]
    modes = phi[:, occ]
    return modes @ modes.T


def xx_subsystem_entropy(L, ell, n_particles=None):
    """Von Neumann entropy (natural log) of the leftmost ell sites."""
    C = xx_correlation_matrix(L, n_particles)[:ell, :ell]
    nu = np.linalg.eigvalsh(C)
    nu = np.clip(nu, 1e-16, 1 - 1e-16)
    return float(-(nu * np.log(nu) + (1 - nu) * np.log(1 - nu)).sum())


def xx_entropy_profile(L, n_particles=None):
    return np.array([xx_subsystem_entropy(L, ell, n_particles) for ell in range(1, L)])


def xx_charge_resolved_spectrum(L, ell, n_particles=None):
    """Entanglement spectrum of the leftmost ell sites, resolved by particle
    number.  Returns a dict {n_left: sorted descending probabilities}.

    Mode occupations in the subsystem are independent Bernoulli variables
    with means given by the correlation-matrix eigenvalues, so each
    eigenvalue of the reduced density matrix is a product over modes.
    Exponential in ell; keep ell <= 12.
    """
    C = xx_correlation_matrix(L, n_particles)[:ell, :ell]
    nu = np.clip(np.linalg.eigvalsh(C), 0.0, 1.0)
    out = {}
    for occ in itertools.product((0, 1), repeat=ell):
        p = 1.0
        for o, v in zip(occ, nu):
            p *= v if o else (1.0 - v)
        out.setdefault(sum(occ), []).append(p)
    return {n: np.sort(np.array(ps))[::-1] for n, ps in sorted(out.items())}


def allowed_mask_two_site(qL, q1, q2, qR):
    """Boolean (chi_l, d1, d2, chi_r) mask of the charge-allowed entries of
    a two-site block: qL[a] + q1[s1] + q2[s2] == qR[b] componentwise."""
    lhs = (
        qL[:, None, None, None, :]
        + q1[None, :, None, None, :]
        + q2[None, None, :, None, :]
    )
    return np.all(lhs == qR[None, None, None, :, :], axis=-1)


def apply_h_eff_dense(theta, EL, W1, W2, ER, mask):
    """Two-site H_eff on a dense block by four tensordots, then masked.

    EL is (bra, w, ket), W1 and W2 are (w, s_out, s_in, v), ER is
    (bra, u, ket); the reference for the charge-blocked matvec.
    """
    X = np.tensordot(EL, theta, axes=([2], [0]))  # (a, w, s1, s2, br)
    X = np.tensordot(X, W1, axes=([1, 2], [0, 2]))  # (a, s2, br, s1', v)
    X = np.tensordot(X, W2, axes=([4, 1], [0, 2]))  # (a, br, s1', s2', u)
    X = np.tensordot(X, ER, axes=([1, 4], [2, 1]))  # (a, s1', s2', ar)
    return X * mask


def mpo_charges(mpo, qsite):
    """Charge of every MPO state, one (D_b, n_charges) array per MPO bond,
    inferred from the nonzero pattern alone.

    W[w, s_out, s_in, v] may be nonzero only where
    c_b[w] + q[s_out] - q[s_in] == c_{b+1}[v].  The charges follow left to
    right from the charge-0 boundary state; a state no nonzero entry from a
    reached state reaches keeps charge 0.
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


def mpo_channels(mpo, qsite):
    """Per MPO bond, (live, charges): the states both neighbouring tensors
    reach, ordered by charge tuple (then state), and their charges."""
    c = mpo_charges(mpo, qsite)
    out = []
    for i in range(len(mpo) - 1):
        live = np.flatnonzero(np.any(mpo[i], axis=(0, 1, 2)) & np.any(mpo[i + 1], axis=(1, 2, 3)))
        q = c[i + 1][live]
        order = np.lexsort(q.T[::-1])  # stable, first charge first
        out.append((live[order], q[order]))
    return out
