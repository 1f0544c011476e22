"""Dense float64 kernels that every other module builds on.

All functions accept array-likes, compute in 64-bit floats, and return
new arrays. Nothing is mutated in place and there is no global state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


# Clamp bounds keeping sigmoid outputs strictly inside (0, 1): without
# them float64 rounds to exactly 0.0 / 1.0 once |x| exceeds ~36.
_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Evaluated through exp(-|x|) so no overflow occurs, and clamped to
    the open interval (0, 1) so saturated outputs never collapse to an
    exact 0 or 1.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Independent oracle for hand-written backward passes. Each entry of
    ``x`` is perturbed by +-eps in turn, so the cost is two evaluations
    of ``f`` per entry. ``f`` must treat its argument as read-only and
    must not keep a reference to it.

    Parameters
    ----------
    f : callable
        Maps an array of ``x``'s shape to a scalar.
    x : array
        Point at which to differentiate.
    eps : float
        Perturbation size; must be positive.

    Returns
    -------
    ndarray of ``x``'s shape holding (f(x + eps e) - f(x - eps e)) / 2 eps.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = np.array(x, dtype=np.float64)
    grad = np.empty_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = float(f(x))
        x[idx] = orig - eps
        f_minus = float(f(x))
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2.0 * eps)
    return grad
