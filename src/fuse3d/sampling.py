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
from .geometry import PointCloud, _x_pad, _x_reach
from .numerics import _count, _real, checked_array


@dataclass(frozen=True)
class SamplerConfig:
    """Target count, oversample factor, and FPS starting index.

    ``lam`` is the oversample factor: stage one draws ceil(lam * n)
    candidates, so it must lie in [1, N/n] for a cloud of N points.
    """

    n: int
    lam: float = 1.4
    seed_index: int = 0


def _x_index(sx: np.ndarray) -> tuple[memoryview, float]:
    """The ascending x values as a buffer view, which bisect searches in
    less time per call than searchsorted, and the pad of ``_x_window``."""
    return memoryview(sx), _x_pad(float(max(abs(sx[0]), abs(sx[-1]))))


def _x_window(x_sorted, left: float, right: float, bound: float,
              pad: float) -> tuple[int, int]:
    """[lo, hi) of the x-sorted points within squared distance ``bound``
    of a center in [left, right], by the strip rule of ``geometry``."""
    reach = _x_reach(math.sqrt(bound), pad)
    lo = bisect.bisect_left(x_sorted, left - reach)
    return lo, bisect.bisect_left(x_sorted, right + reach, lo)


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
    within that distance of its own. The running minima are kept in x
    order, so that the update is a slice, and copied into a second array
    in original index order, where the argmax spans every point; picks
    and ties are exactly those of the full update. A pick's x and
    coordinates are read at its slot in the x-sorted copy.

    Working memory is O(N), 80 bytes per point, all allocated before the
    first pick: the x-sorted (3, N) coordinate copy, its permutation and
    the inverse, the two N-length arrays of running minima and a (3, N)
    scratch block. A pick allocates no temporary of its window's size.

    Raises
    ------
    InvalidCount
        When ``n`` or ``seed_index`` is not an integer (a float or a
        bool; numpy integers are accepted) or lies outside [1, N] or
        [0, N - 1] for a cloud of N points.

    Returns
    -------
    (n,) int ndarray of chosen indices, in selection order.
    """
    coords = cloud.coords
    total = len(cloud)
    n = _count(n, "n", 1, total)
    seed_index = _count(seed_index, "seed_index", 0, total - 1)
    order = np.argsort(coords[:, 0])
    rank = np.empty(total, dtype=np.intp)
    rank[order] = np.arange(total)
    pts = coords.T.take(order, axis=1)
    x_sorted, pad = _x_index(pts[0])
    # min squared distance from each point to the chosen set, kept twice:
    # run_d2 in x order, so that each pick's window is a slice, and
    # min_d2 in original order, so that argmax breaks ties toward the
    # lower index; chosen entries are forced negative so argmax never
    # revisits them
    run_d2 = np.full(total, np.inf)
    min_d2 = np.full(total, np.inf)
    diff = np.empty((3, total))
    chosen = np.empty(n, dtype=np.intp)
    chosen[0] = last = seed_index
    # bound to locals once: a module attribute lookup per pick shows, and
    # a scalar read through a memoryview costs half of one from the array
    subtract, minimum, bisect_left, sqrt = (
        np.subtract, np.minimum, bisect.bisect_left, math.sqrt)
    argmax = min_d2.argmax
    rank_at, min_d2_at = memoryview(rank), memoryview(min_d2)
    for k in range(1, n):
        # the pick's slot in x order; its x and coordinates are read
        # there, from the sorted copy, and hold the same values as
        # coords[last]
        r = rank_at[last]
        px = x_sorted[r]
        # _x_window and _x_reach inlined (a call per pick costs 1%):
        # min_d2[last] is the largest running minimum of any unpicked
        # point, inf for the seed
        reach = sqrt(min_d2_at[last]) * (1.0 + 1e-9) + pad
        lo = bisect_left(x_sorted, px - reach)
        hi = bisect_left(x_sorted, px + reach, lo)
        d = diff[:, :hi - lo]
        # d2 = (dx*dx + dz*dz) + dy*dy, as in aad: the order fixes the
        # rounding, and with it which of two near-equal distances wins
        subtract(pts[:, lo:hi], pts[:, r:r + 1], out=d)
        d *= d
        d2 = d[0]
        d2 += d[2]
        d2 += d[1]
        # the pad is positive, so the window holds the pick itself and
        # its -1 reaches min_d2 with the rest of the window
        run_d2[r] = -1.0
        run = run_d2[lo:hi]
        minimum(run, d2, out=run)
        min_d2[order[lo:hi]] = run
        last = chosen[k] = argmax()
    return chosen


def hybrid_sweep(
    cloud: PointCloud,
    attention,
    n: int,
    lambdas,
    seed_index: int = 0,
) -> list[tuple[float, np.ndarray]]:
    """The hybrid sample at several oversample factors from one FPS run.

    Every argument is validated before any sampling runs: ``n`` and
    ``seed_index`` as in ``farthest_point_sampling``, and each factor: a
    bool, any other non-real (a string, say) or a non-finite factor is a
    DomainError, and a factor outside [1, N/n] an InvalidCount. FPS then runs
    once, for the largest candidate count; each factor ranks a prefix
    of that run, which is exactly the FPS its own ``hybrid_sample``
    would draw (see ``farthest_point_sampling``).

    Returns
    -------
    list of (lam, indices) sorted by lam, each ``indices`` equal to
    ``hybrid_sample(cloud, attention, SamplerConfig(n, lam, seed_index))``.
    """
    total = len(cloud)
    n = _count(n, "n", 1, total)
    seed_index = _count(seed_index, "seed_index", 0, total - 1)
    att = checked_array(attention, "attention", (total,))
    # phrased so that NaN, which fails every comparison, is rejected
    if not ((att > 0.0) & (att < 1.0)).all():
        raise ValueError("attention scores must lie strictly in (0, 1)")
    lams = []
    for lam in lambdas:
        lam = _real(lam, "oversample factor")
        if not 1.0 <= lam or lam * n > total * (1.0 + 1e-12):
            raise InvalidCount(
                f"oversample factor {lam} outside [1, {total}/{n}]"
            )
        lams.append(lam)
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

    The search is exact: each point's third-nearest distance is bounded
    from its Morton (x-z interleaved) neighbours, and each block of 32
    x-sorted points is measured only against the x-window (that of
    ``farthest_point_sampling``) holding every point within its bounds.
    Each point gets the three distances of the full k x k matrix, bit
    for bit, sorted before the mean. Working memory is O(k + 32 * window).

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
    k = idx.size
    order = np.argsort(cloud.coords[idx, 0])
    pts = cloud.coords[idx[order]]  # x-sorted
    # bound each point's third-nearest d2 by its third-nearest of +-8
    # Morton (x-z interleaved) neighbours, summed as the search sums, so
    # each bound is its pair's d2 there; any three others give a bound
    xz = pts[:, ::2] - pts[:, ::2].min(axis=0)
    cell = (xz / np.maximum(xz.max(axis=0), np.finfo(np.float64).tiny)
            * 65535).astype(np.int64).T
    for shift, mask in ((8, 0x00FF00FF), (4, 0x0F0F0F0F), (2, 0x33333333),
                        (1, 0x55555555)):
        cell = (cell | cell << shift) & mask
    morton = np.argsort(cell[0] << 1 | cell[1])
    cols = pts.T.copy()
    near = np.full((k, 16), np.inf)  # rows in x order
    for step in range(1, 9):
        i, j = morton[:-step], morton[step:]
        d = cols[:, j] - cols[:, i]
        with np.errstate(over="ignore"):
            d *= d
            near[j, step - 1] = near[i, step + 7] = (d[0] + d[2]) + d[1]
    near.partition(2, axis=1)
    # the exact search, rows r0:r1 (32 x-sorted points) at a time
    x_sorted, pad = _x_index(cols[0])
    nearest = np.empty((k, 3))
    for r0 in range(0, k, 32):
        r1 = min(r0 + 32, k)
        lo, hi = _x_window(x_sorted, x_sorted[r0], x_sorted[r1 - 1],
                           near[r0:r1, 2].max(), pad)
        # the (3, rows, window) differences, squared in place and summed
        # as (dx*dx + dz*dz) + dy*dy, FPS's order and the dense oracle's,
        # so each distance keeps the bits of the full k x k matrix; a
        # square beyond the float range is inf, as there
        diff = np.empty((3, r1 - r0, hi - lo))
        np.subtract(cols[:, r0:r1, None], cols[:, None, lo:hi], out=diff)
        with np.errstate(over="ignore"):
            diff *= diff
            d2 = diff[0]
            d2 += diff[2]
            d2 += diff[1]
        np.fill_diagonal(d2[:, r0 - lo:], np.inf)
        d2.partition(2, axis=1)
        nearest[order[r0:r1]] = d2[:, :3]
    nearest.sort(axis=1)
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
