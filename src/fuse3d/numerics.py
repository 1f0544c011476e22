"""Dense float64 kernels that every other module builds on.

All functions accept array-likes and compute in 64-bit floats. The
kernels return new arrays; the input check ``checked_array`` returns a
float64 array argument itself, ``_count`` an integer argument as an
int and ``_real`` a scalar real argument as a float. Nothing is
mutated in place and there is no global state.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, DomainError, InvalidCount

# Clamp bounds keeping sigmoid outputs strictly inside (0, 1): without
# them float64 rounds to exactly 0.0 / 1.0 once |x| exceeds ~36.
_SIGMOID_LO = np.finfo(np.float64).tiny
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))


def checked_array(value, name: str, shape=None, finite: bool = False) -> np.ndarray:
    """``value`` as a float64 array, checked against ``shape``.

    Converts with ``np.asarray``, so a float64 array comes back as the
    same object. Each entry of ``shape`` is a required length or an axis
    label such as "N", which matches any length. A wrong shape raises
    DimensionMismatch "{name} must have shape (N, 3), got (4,)"; with
    ``finite`` set, a NaN or infinite entry raises ValueError.
    """
    out = np.asarray(value, dtype=np.float64)
    if shape is not None and (len(shape) != out.ndim or any(
            not isinstance(want, str) and want != got
            for want, got in zip(shape, out.shape))):
        axes = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise DimensionMismatch(f"{name} must have shape ({axes}), got {out.shape}")
    if finite and not np.isfinite(out).all():
        raise ValueError(f"{name} must be finite")
    return out


def _count(value, name: str, low: int | None = None,
           high: int | None = None) -> int:
    """``value`` as an int of at least ``low`` and, when ``high`` is given
    (always with ``low``), at most ``high``. numpy integers pass; a float,
    a bool (numpy's refuses ``operator.index`` itself) or any other
    non-integer is an InvalidCount naming ``name``, and so is an integer
    below ``low``, "{name} must be >= {low}, got {value}", or with
    ``high`` outside [low, high], "{name} must be in [{low}, {high}], got
    {value}"."""
    if not isinstance(value, bool):
        try:
            out = operator.index(value)
        except TypeError:
            pass
        else:
            if high is not None and not low <= out <= high:
                raise InvalidCount(f"{name} must be in [{low}, {high}], got {out}")
            if low is not None and out < low:
                raise InvalidCount(f"{name} must be >= {low}, got {out}")
            return out
    raise InvalidCount(f"{name} must be an integer, got {value!r}")


def _real(value, name: str, low: float = -math.inf, high: float = math.inf,
          interval: str = "(-inf, inf)") -> float:
    """``value`` as a float in ``interval``, the interval from ``low`` to
    ``high`` written out: a bracket closes its end, a parenthesis opens
    it. Python and numpy floats and integers pass; a bool (numpy's is no
    ``numbers.Real``) or any other non-real is a DomainError "{name} must
    be a real number, got {value!r}", and NaN, an infinity or a value
    outside the interval is one "{name} must be finite and in
    {interval}, got {value!r}"."""
    # a float skips the slower abstract-class test
    if isinstance(value, float) or (
            not isinstance(value, bool) and isinstance(value, numbers.Real)):
        try:
            out = float(value)
        except OverflowError:  # an integer beyond the float range
            out = math.inf
        # NaN fails every comparison, and an infinite end is always open
        if low < out < high or (out == low and interval[0] == "[") or (
                out == high and interval[-1] == "]"):
            return out
        raise DomainError(f"{name} must be finite and in {interval}, got {value!r}")
    raise DomainError(f"{name} must be a real number, got {value!r}")


def fold(value: float, half_range: float) -> float:
    """Fold a periodic value into the half-open range [-half_range, half_range)."""
    out = (float(value) + half_range) % (2.0 * half_range) - half_range
    # the modulo can round up onto the excluded end, the same point as -half_range
    return -half_range if out >= half_range else out


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function 1 / (1 + exp(-x)).

    Evaluated through exp(-|x|) so no overflow occurs, and clamped to
    the open interval (0, 1) so saturated outputs never collapse to an
    exact 0 or 1.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    # 1 / (1 + e) where x >= 0, else e / (1 + e): one division for both
    out = np.where(x >= 0, 1.0, e) / (1.0 + e)
    # np.clip's values, NaN included, at less cost per call
    return np.minimum(np.maximum(out, _SIGMOID_LO), _SIGMOID_HI)


# Stencil entries per call of ``f`` in :func:`finite_diff_grad`. Bounds a
# call to 2 * _STENCIL_BLOCK rows, so memory grows with x.size rather
# than its square; a gradcheck at the default sizes (at most 80 entries)
# still takes one call.
_STENCIL_BLOCK = 128


def finite_diff_grad(
    f: Callable[[np.ndarray], np.ndarray], x, eps: float = 1e-4
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array.

    Independent oracle for hand-written backward passes. ``f`` is called
    on the central-difference stencil in blocks of at most 128 flat
    entries, so an ``x`` of up to 128 entries takes one call. The block
    for entries ``start .. start + m - 1`` is a ``(2 * m, *x.shape)``
    stack whose row i is ``x`` with flat entry ``start + i`` raised by
    eps and whose row ``m + i`` has it lowered by eps. ``f`` returns one
    value per row, shape ``(2 * m,)``, and must treat the stack as
    read-only. A block takes 2 * m * x.size floats.

    Parameters
    ----------
    f : callable
        Maps a stack of arrays of ``x``'s shape to one scalar per row.
    x : array
        Point at which to differentiate.
    eps : float
        Perturbation size, in (0, inf).

    Returns
    -------
    ndarray of ``x``'s shape holding (f(x + eps e) - f(x - eps e)) / 2 eps.
    """
    eps = _real(eps, "eps", 0.0, interval="(0, inf)")
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.empty_like(flat)
    for start in range(0, flat.size, _STENCIL_BLOCK):
        stop = min(start + _STENCIL_BLOCK, flat.size)
        m = stop - start
        diag = (np.arange(m), np.arange(start, stop))
        stencil = np.tile(flat, (2, m, 1))
        stencil[0][diag] = flat[start:stop] + eps
        stencil[1][diag] = flat[start:stop] - eps
        values = np.asarray(f(stencil.reshape((2 * m,) + x.shape)), dtype=np.float64)
        if values.shape != (2 * m,):
            raise ValueError(f"f returned shape {values.shape}, expected ({2 * m},)")
        grad[start:stop] = (values[:m] - values[m:]) / (2.0 * eps)
    return grad.reshape(x.shape)
