"""Central finite-difference gradient oracle for the network tests.

Independent of the analytic backward passes: gradients come from
re-evaluating the loss at perturbed parameter values only.
"""

import numpy as np


def fd_gradient(loss_fn, param, step=1e-5):
    """Central-difference gradient of loss_fn w.r.t. one array, in place.

    loss_fn takes no arguments and reads ``param`` by reference; each
    element is bumped +/- step and restored.
    """
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = loss_fn()
        flat[i] = orig - step
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    """Worst elementwise relative error, with an absolute floor so that
    exactly-zero gradients (dead relu units) compare at the floor scale."""
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / scale))

