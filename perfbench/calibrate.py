"""A fixed calibration loop that gauges how fast the machine runs right now.

On a shared host the same op can take 1.3 s in one minute and 2.6 s in
the next, because other tenants take cache, memory bandwidth and core
time. The calibration loop runs before the first and after every timed
interval. It never calls the library, so a change to fuse3d cannot
move it. Each interval is rescaled by ``reference_s`` over the mean of
the two calibrations around it, which turns wall seconds into seconds
at the reference speed pinned in ``pinned.json``.

Contention slows different kinds of work by different amounts, and
which kind a neighbour slows changes from minute to minute, so each
workload names the kernels that track its own main costs. Each kernel
is a small stand-alone copy of the kind of loop it tracks: a
circumradius gate and Sutherland-Hodgman clip of rotated rectangles on
2-vectors (NMS and the BEV IoU), a farthest point sampling sweep over
16384 points (the sampler), and all-pairs distances over 1024 points,
which leans on memory bandwidth (AAD).
"""

from __future__ import annotations

import math
import time

import numpy as np

_POINTS = np.random.default_rng(0).standard_normal((16384, 3))
_PAIRS = np.random.default_rng(1).standard_normal((1024, 3))


def _rectangles(count: int = 48):
    """Car-sized footprints, (center, length, width, corners), in clusters."""
    rng = np.random.default_rng(2)
    rects = []
    for k in range(count):
        cx, cz = 10.0 * (k % 6) + rng.normal(0.0, 0.6), rng.normal(0.0, 0.6)
        length, width = rng.uniform(3.5, 4.5), rng.uniform(1.5, 1.9)
        c, s = math.cos(rng.uniform(-0.3, 0.3)), math.sin(rng.uniform(-0.3, 0.3))
        corners = [np.array([cx + c * dx - s * dz, cz + s * dx + c * dz])
                   for dx, dz in ((length / 2, width / 2), (-length / 2, width / 2),
                                  (-length / 2, -width / 2), (length / 2, -width / 2))]
        rects.append((np.array([cx, cz]), length, width, corners))
    return rects


_RECTS = _rectangles()


def _side(a, d, q) -> float:
    return d[0] * (q[1] - a[1]) - d[1] * (q[0] - a[0])


def _clip_area(subject, clip) -> float:
    out = list(subject)
    for i in range(len(clip)):
        if not out:
            return 0.0
        a = clip[i]
        d = clip[(i + 1) % len(clip)] - a
        pts, out = out, []
        prev = pts[-1]
        prev_side = _side(a, d, prev)
        for p in pts:
            p_side = _side(a, d, p)
            if (p_side >= 0.0) != (prev_side >= 0.0):
                out.append(prev + (p - prev) * (prev_side / (prev_side - p_side)))
            if p_side >= 0.0:
                out.append(p)
            prev, prev_side = p, p_side
    if len(out) < 3:
        return 0.0
    arr = np.asarray(out)
    x, z = arr[:, 0], arr[:, 1]
    return 0.5 * abs(float(x @ np.roll(z, -1) - z @ np.roll(x, -1)))


def _bev_clip() -> float:
    total = 0.0
    for ca, la, wa, pa in _RECTS:
        ra = 0.5 * np.hypot(la, wa)
        for cb, lb, wb, pb in _RECTS:
            rb = 0.5 * np.hypot(lb, wb)
            dx, dz = ca[0] - cb[0], ca[1] - cb[1]
            if dx * dx + dz * dz <= (ra + rb) ** 2:
                total += _clip_area(pa, pb)
    return total


def _pairwise(block: int = 64) -> float:
    # in row blocks, so the temporaries stay below 3 MB and do not
    # lift the workload's peak RSS
    s = 0.0
    for lo in range(0, len(_PAIRS), block):
        diff = _PAIRS[lo:lo + block, None, :] - _PAIRS[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        s += float(np.partition(d2, 2, axis=1)[:, 2].sum())
    return s


def _fps_sweep(picks: int = 200) -> int:
    d = np.full(len(_POINTS), np.inf)
    i = 0
    for _ in range(picks):
        d = np.minimum(d, ((_POINTS - _POINTS[i]) ** 2).sum(1))
        i = int(d.argmax())
    return i


KERNELS = {"bev_clip": _bev_clip, "fps_sweep": _fps_sweep,
           "pairwise": _pairwise}


def calibrate(kernels, repeats: int = 1) -> float:
    """Mean wall seconds of one pass over the named kernels, right now.

    Long operations take more repeats, so that the calibration's own
    noise stays small next to the drift it measures.
    """
    t0 = time.perf_counter()
    for _ in range(repeats):
        for name in kernels:
            KERNELS[name]()
    return (time.perf_counter() - t0) / repeats


class ReferenceClock:
    """Rescales timed intervals to the pinned reference speed."""

    def __init__(self, kernels, repeats: int, reference_s: float):
        self.kernels = list(kernels)
        self.repeats = repeats
        self.reference_s = reference_s
        self.cal_s = [calibrate(self.kernels, repeats)]

    def rescale(self, dt: float) -> float:
        """``dt`` wall seconds, just measured, in reference seconds.

        Runs the calibration loop once more, after the interval.
        """
        self.cal_s.append(calibrate(self.kernels, self.repeats))
        return dt * self.reference_s / ((self.cal_s[-2] + self.cal_s[-1]) / 2.0)
