"""Restarted Lanczos for the lowest eigenpair of a symmetric operator.

Used both for exact diagonalization in large symmetry sectors and for the
local two-site eigenproblems inside the sweep solver.  The operator is
given as a matvec closure; the Krylov basis is kept fully reorthogonalized
(two Gram-Schmidt passes against all stored vectors), so the projected
matrix stays tridiagonal to machine precision and restarts are cheap.
"""

import numpy as np


def lowest_eigenpair(matvec, v0, tol=1e-10, krylov_dim=20, max_restarts=200):
    """Smallest eigenvalue and eigenvector of a symmetric linear operator.

    Parameters
    ----------
    matvec : callable
        Maps a 1D float64 array to H @ v of the same shape.
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
    info : dict with keys converged, residual, restarts, matvecs
    """
    # local import: the detection commands run without scipy
    from scipy.linalg import eigh_tridiagonal

    v = np.asarray(v0, dtype=np.float64).ravel().copy()
    n = v.size
    nrm = np.linalg.norm(v)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise ValueError("starting vector must be finite and nonzero")
    v /= nrm
    m_cap = min(krylov_dim, n)
    theta = np.inf
    x = v
    n_matvec = 0
    residual = np.inf
    # one basis for every restart: a restart reads only the rows it wrote
    V = np.empty((m_cap, n))
    alphas = np.empty(m_cap)
    betas = np.empty(max(m_cap - 1, 0))
    for restart in range(max_restarts):
        V[0] = v
        m = 0
        exhausted = False
        for j in range(m_cap):
            w = matvec(V[j])
            n_matvec += 1
            alphas[j] = V[j] @ w
            m = j + 1
            if j == m_cap - 1:
                break
            w = w - alphas[j] * V[j]
            if j > 0:
                w = w - betas[j - 1] * V[j - 1]
            # full reorthogonalization, two passes
            for _ in range(2):
                w -= V[: j + 1].T @ (V[: j + 1] @ w)
            beta = np.linalg.norm(w)
            if beta < 1e-13 * max(1.0, abs(alphas[0])):
                exhausted = True  # invariant subspace found
                break
            betas[j] = beta
            V[j + 1] = w / beta
        if m == 1:
            theta, x = alphas[0], V[0]
        else:
            evals, evecs = eigh_tridiagonal(
                alphas[:m], betas[: m - 1], select="i", select_range=(0, 0)
            )
            theta = evals[0]
            x = V[:m].T @ evecs[:, 0]
            x /= np.linalg.norm(x)
        r = matvec(x) - theta * x
        n_matvec += 1
        residual = np.linalg.norm(r)
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
