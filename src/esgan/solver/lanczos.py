"""Restarted Lanczos for the lowest eigenpair of a symmetric operator.

Used both for exact diagonalization in large symmetry sectors and for the
local two-site eigenproblems inside the sweep solver.  The operator is
given as a matvec closure; the Krylov basis is kept fully reorthogonalized
(one classical Gram-Schmidt pass against all stored vectors, and a second
one when the DGKS test of Daniel, Gragg, Kaufman & Stewart, Math. Comp.
30, 772 (1976), finds the first one cancelled too much), so the projected
matrix stays tridiagonal to machine precision and restarts are cheap.
The projected problem is at most krylov_dim x krylov_dim and is solved
densely with numpy.
"""

import math

import numpy as np

# DGKS threshold: a second Gram-Schmidt pass runs when the first one left
# less than this share of the vector's norm
DGKS_ETA = 1.0 / np.sqrt(2.0)


def lowest_eigenpair(matvec, v0, tol=1e-10, krylov_dim=20, max_restarts=200):
    """Smallest eigenvalue and eigenvector of a symmetric linear operator.

    Parameters
    ----------
    matvec : callable
        Maps a 1D float64 array to H @ v of the same shape.  The returned
        array is kept and reused, and every Lanczos step after the first
        overwrites it in place, so it must be a fresh array.
    v0 : ndarray
        Starting vector, any nonzero norm.
    tol : float
        Convergence criterion on the residual norm ||H x - theta x||
        relative to max(1, |theta|).
    krylov_dim : int
        Krylov subspace size per restart.
    max_restarts : int
        Cap on restarts; returns the best estimate with converged=False
        when exceeded.

    Returns
    -------
    theta : float
    x : ndarray, unit norm
    info : dict with keys converged, residual, restarts, matvecs (the
        products actually computed)
    """
    v = np.asarray(v0, dtype=np.float64).ravel().copy()
    n = v.size
    nrm = np.sqrt(v.dot(v))
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("starting vector must be finite and nonzero")
    v /= nrm
    m_cap = min(krylov_dim, n)
    theta = np.inf
    x = v
    n_matvec = 0
    residual = np.inf
    # one basis and one projected matrix for every restart: a restart reads
    # only the rows it wrote, and T[:m, :m] only its tridiagonal
    V = np.empty((m_cap, n))
    T = np.zeros((m_cap, m_cap))
    hx = None  # H @ V[0]: a restart starts at the last one's Ritz vector
    for restart in range(max_restarts):
        V[0] = v
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
            alpha = V[j].dot(w)
            T[j, j] = alpha
            m = j + 1
            if j == m_cap - 1:
                break
            if j > 0:
                w -= alpha * V[j]
                w -= T[j, j - 1] * V[j - 1]
            else:
                w = w - alpha * V[0]  # hx stays H @ V[0]
            basis = V[: j + 1]
            before = math.sqrt(w.dot(w))
            w -= basis.T.dot(basis.dot(w))
            beta = math.sqrt(w.dot(w))
            if beta < DGKS_ETA * before:
                w -= basis.T.dot(basis.dot(w))
                beta = math.sqrt(w.dot(w))
            if beta < 1e-13 * max(1.0, abs(T[0, 0])):
                exhausted = True  # invariant subspace found
                break
            T[j + 1, j] = T[j, j + 1] = beta
            np.divide(w, beta, out=V[j + 1])
        if m == 1:
            theta, x = T[0, 0], V[0]  # hx is already H @ x
        else:
            evals, evecs = np.linalg.eigh(T[:m, :m])
            theta = evals[0]
            x = V[:m].T.dot(evecs[:, 0])
            x /= np.sqrt(x.dot(x))
            hx = matvec(x)
            n_matvec += 1
        r = hx - theta * x
        residual = np.sqrt(r.dot(r))
        if residual <= tol * max(1.0, abs(theta)) or (exhausted and m < m_cap):
            return theta, x, {
                "converged": True,
                "residual": float(residual),
                "restarts": restart + 1,
                "matvecs": n_matvec,
            }
        v = x
    return theta, x, {
        "converged": False,
        "residual": float(residual),
        "restarts": max_restarts,
        "matvecs": n_matvec,
    }
