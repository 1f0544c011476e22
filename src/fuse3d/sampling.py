"""Point-cloud downsampling and its aggregation diagnostic.

Two samplers are provided: plain farthest point sampling, which spreads
picks evenly through space, and a hybrid scheme that first oversamples
with FPS and then keeps the points with the highest attention scores.
The average aggregation distance (AAD) quantifies how clustered a
sample is; attention-heavy sampling drives it down.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidCount, TooFewPoints
from .geometry import PointCloud


@dataclass(frozen=True)
class SamplerConfig:
    """Target count, oversample factor, and FPS starting index.

    ``lam`` is the oversample factor: stage one draws ceil(lam * n)
    candidates, so it must lie in [1, N/n] for a cloud of N points.
    """

    n: int
    lam: float = 1.4
    seed_index: int = 0


# rows of the AAD distance matrix held at once; bounds aad's working
# memory to O(_AAD_CHUNK * k) instead of O(k * k)
_AAD_CHUNK = 128


def farthest_point_sampling(
    cloud: PointCloud, n: int, seed_index: int = 0
) -> np.ndarray:
    """Greedy spread-maximizing downsample.

    Starts from ``seed_index`` and repeatedly adds the point whose
    minimum squared Euclidean distance to the already-chosen set is
    largest. Distance ties resolve toward the lower index, so the
    result is fully deterministic.

    Each pick depends only on the picks before it, so the first m
    entries of FPS(n) are exactly FPS(m) for every m <= n.

    Each update is windowed. A pick can lower the running minimum only
    of points nearer to it than the largest running minimum, so the
    points are sorted by x once and each pick updates only the
    contiguous run of that order, found by bisection, whose x lies
    within that distance of its own. The argmax still spans every point
    in original index order, so picks and ties are exactly those of the
    full update.

    Working memory is O(N): the x-sorted (3, N) coordinate copy and its
    permutation, the running minimum distances and a (3, N) scratch
    block, all allocated before the first pick, plus a window-sized
    temporary for the running minima each pick gathers.

    Returns
    -------
    (n,) int ndarray of chosen indices, in selection order.
    """
    coords = cloud.coords
    total = len(cloud)
    if n < 1 or n > total:
        raise InvalidCount(f"cannot sample {n} of {total} points")
    if not 0 <= seed_index < total:
        raise InvalidCount(f"seed_index {seed_index} outside [0, {total})")
    order = np.argsort(coords[:, 0], kind="stable")
    pts = coords.T.take(order, axis=1)
    sx = pts[0]
    # bisect on a buffer view of sx costs less per call than searchsorted
    x_sorted = memoryview(sx)
    # Window. At the top of a pick, bound = min_d2[last] is the largest
    # running minimum of any unpicked point, so the update can lower
    # only points with d2 < bound. d2 adds non-negative terms to
    # fl(dx * dx), dx = fl(x_j - px), and rounding is monotone, so
    # d2 >= fl(dx * dx) and a point that is lowered has dx * dx < bound.
    # With r = fl(sqrt(bound)) and u = 2**-53, sqrt and the subtraction
    # each round by a factor within 1 -+ u, so |x_j - px| < r * (1 + 3u).
    # The computed edges fl(px -+ reach) move by at most
    # u * (|px| + reach), reach itself by a few u * reach, and any value
    # that underflows by less than tiny. The relative margin 1e-9 and
    # the absolute one, pad >= 1e-9 * max|x| + tiny, cover all of it,
    # so every point that can be lowered lies strictly between the
    # edges. The seed's bound is inf, so the first window is everything.
    x_max = max(abs(sx[0]), abs(sx[-1]))
    pad = float(1e-9 * x_max + np.finfo(np.float64).tiny)
    # min squared distance from each point to the chosen set, in
    # original order so argmax breaks ties toward the lower index;
    # chosen entries are forced negative so argmax never revisits them
    min_d2 = np.full(total, np.inf)
    diff = np.empty((3, total))
    chosen = np.empty(n, dtype=np.intp)
    chosen[0] = last = seed_index
    for k in range(1, n):
        p = coords[last, :, None]
        px = float(p[0, 0])
        reach = math.sqrt(min_d2[last]) * (1.0 + 1e-9) + pad
        lo = bisect.bisect_left(x_sorted, px - reach)
        hi = bisect.bisect_left(x_sorted, px + reach, lo)
        d = diff[:, :hi - lo]
        idx = order[lo:hi]
        # d2 = dx*dx + dy*dy + dz*dz in this order: the order fixes the
        # rounding, and with it which of two near-equal distances wins
        np.subtract(pts[:, lo:hi], p, out=d)
        d *= d
        d2 = d[0]
        d2 += d[1]
        d2 += d[2]
        np.minimum(min_d2[idx], d2, out=d2)
        min_d2[idx] = d2
        min_d2[last] = -1.0
        last = chosen[k] = min_d2.argmax()
    return chosen


def hybrid_sweep(
    cloud: PointCloud,
    attention,
    n: int,
    lambdas,
    seed_index: int = 0,
) -> list[tuple[float, np.ndarray]]:
    """The hybrid sample at several oversample factors from one FPS run.

    Every factor is validated before any sampling runs. FPS then runs
    once, for the largest candidate count; each factor ranks a prefix
    of that run, which is exactly the FPS its own ``hybrid_sample``
    would draw (see ``farthest_point_sampling``).

    Returns
    -------
    list of (lam, indices) sorted by lam, each ``indices`` equal to
    ``hybrid_sample(cloud, attention, SamplerConfig(n, lam, seed_index))``.
    """
    att = np.asarray(attention, dtype=np.float64)
    total = len(cloud)
    if att.shape != (total,):
        raise DimensionMismatch(
            f"attention has shape {att.shape}, expected ({total},)"
        )
    # phrased so that NaN, which fails every comparison, is rejected
    if not ((att > 0.0) & (att < 1.0)).all():
        raise ValueError("attention scores must lie strictly in (0, 1)")
    if n < 1 or n > total:
        raise InvalidCount(f"cannot sample {n} of {total} points")
    lams = [float(lam) for lam in lambdas]
    for lam in lams:
        if not 1.0 <= lam or lam * n > total * (1.0 + 1e-12):
            raise InvalidCount(
                f"oversample factor {lam} outside [1, {total}/{n}]"
            )
    if not lams:
        return []
    lams.sort()
    counts = [min(total, math.ceil(lam * n)) for lam in lams]
    candidates = farthest_point_sampling(cloud, counts[-1], seed_index)
    rows = []
    for lam, m in zip(lams, counts):
        prefix = candidates[:m]
        # descending score, ties toward the lower point index
        order = np.lexsort((prefix, -att[prefix]))
        rows.append((lam, prefix[order[:n]]))
    return rows


def hybrid_sample(
    cloud: PointCloud, attention, cfg: SamplerConfig
) -> np.ndarray:
    """Two-stage downsample: spread-first candidates, then attention top-n.

    Stage one runs FPS for ceil(lam * n) candidates (capped at N) to
    keep the sample spatially even; stage two sorts those candidates by
    attention score, descending, and keeps the first n. Score ties
    resolve toward the lower point index.

    At lam = 1 the output set equals plain FPS; at lam = N/n it equals
    the global attention top-n.

    Raises
    ------
    ValueError
        When a score is outside (0, 1) or NaN.

    Returns
    -------
    (n,) int ndarray of indices in descending-score order.
    """
    [(_, selected)] = hybrid_sweep(cloud, attention, cfg.n, [cfg.lam],
                                   cfg.seed_index)
    return selected


def aad(cloud: PointCloud, sampled) -> tuple[np.ndarray, float]:
    """Average aggregation distance of a sampled subset.

    For each sampled point, the mean over its three nearest other
    sampled points of the squared Euclidean distance (the literal
    definition). Lower values mean a more clustered sample.

    Distances are computed ``_AAD_CHUNK`` rows at a time, so working
    memory is O(_AAD_CHUNK * k) for k sampled points.

    Returns
    -------
    per_point : (k,) ndarray aligned with ``sampled``
    mean : float, average over the sample

    Raises
    ------
    TooFewPoints
        When fewer than 4 indices are given (each point needs three
        neighbors).
    InvalidCount
        When the indices are not distinct integers in [0, len(cloud)).
    """
    idx = np.asarray(sampled)
    if idx.ndim != 1:
        raise DimensionMismatch(f"sampled must be 1-D, got shape {idx.shape}")
    if idx.size < 4:
        raise TooFewPoints(
            f"need at least 4 sampled points, got {idx.size}"
        )
    if not np.issubdtype(idx.dtype, np.integer):
        raise InvalidCount(f"sampled indices must be integers, got {idx.dtype}")
    if idx.min() < 0 or idx.max() >= len(cloud) or np.unique(idx).size < idx.size:
        raise InvalidCount(
            f"sampled indices must be distinct and lie in [0, {len(cloud)})"
        )
    pts = cloud.coords[idx]
    nearest = np.empty((idx.size, 3))
    for lo in range(0, idx.size, _AAD_CHUNK):
        block = pts[lo:lo + _AAD_CHUNK]
        diff = block[:, None, :] - pts[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        rows = np.arange(len(block))
        d2[rows, lo + rows] = np.inf
        d2.partition(2, axis=1)
        nearest[lo:lo + len(block)] = d2[:, :3]
    per_point = nearest.mean(axis=1)
    return per_point, float(per_point.mean())


def lambda_sweep(
    cloud: PointCloud,
    attention,
    n: int,
    lambdas,
    seed_index: int = 0,
) -> list[tuple[float, float]]:
    """Mean AAD of the hybrid sampler across oversample factors.

    Runs aad on each sample of ``hybrid_sweep``, so every factor is
    validated first and FPS runs once. Stateless: the output rows are
    sorted by factor regardless of the input order.

    Returns
    -------
    list of (lam, mean_aad) rows sorted by lam.
    """
    return [(lam, aad(cloud, selected)[1])
            for lam, selected in hybrid_sweep(cloud, attention, n, lambdas,
                                              seed_index)]
