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
    f: Callable[[np.ndarray], np.ndarray], x, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Independent oracle for hand-written backward passes. ``f`` is called
    once, on the whole central-difference stencil: a
    ``(2 * x.size, *x.shape)`` stack whose row k is ``x`` with flat
    entry k raised by eps and whose row ``x.size + k`` has it lowered
    by eps. ``f`` returns one value per row, shape ``(2 * x.size,)``,
    and must treat the stack as read-only. The stack takes
    2 * x.size**2 floats.

    Parameters
    ----------
    f : callable
        Maps a stack of arrays of ``x``'s shape to one scalar per row.
    x : array
        Point at which to differentiate.
    eps : float
        Perturbation size; must be finite and positive.

    Returns
    -------
    ndarray of ``x``'s shape holding (f(x + eps e) - f(x - eps e)) / 2 eps.
    """
    if not (0.0 < eps < np.inf):
        raise ValueError(f"eps must be finite and positive, got {eps}")
    x = np.array(x, dtype=np.float64)
    size = x.size
    flat = x.reshape(-1)
    stencil = np.tile(flat, (2, size, 1))
    diag = np.arange(size)
    stencil[0, diag, diag] = flat + eps
    stencil[1, diag, diag] = flat - eps
    values = np.asarray(f(stencil.reshape((2 * size,) + x.shape)), dtype=np.float64)
    if values.shape != (2 * size,):
        raise ValueError(f"f returned shape {values.shape}, expected ({2 * size},)")
    return ((values[:size] - values[size:]) / (2.0 * eps)).reshape(x.shape)
