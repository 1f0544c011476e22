"""Output checks and digests shared by the workloads.

Each ``*_failures`` function returns a list of messages, empty when the
output holds the invariant. The invariants hold for any seed; the
digests are compared against pinned values only for the default seed.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np

from fuse3d import enlarge_box, iou_bev, rotation_y


def sampler_failures(label, idx, n, total, scores) -> list[str]:
    """Indices are n distinct values in [0, total), ordered by score.

    The order is descending score with ties toward the lower index,
    the ranking ``hybrid_sample`` documents.
    """
    idx = np.asarray(idx)
    if idx.shape != (n,):
        return [f"{label}: {idx.shape} indices, expected ({n},)"]
    out = []
    if idx.min() < 0 or idx.max() >= total:
        out.append(f"{label}: index outside [0, {total})")
    elif np.unique(idx).size != n:
        out.append(f"{label}: repeated indices")
    else:
        s = np.asarray(scores)[idx]
        bad = (s[1:] > s[:-1]) | ((s[1:] == s[:-1]) & (idx[1:] < idx[:-1]))
        if bad.any():
            out.append(f"{label}: not ordered by score")
    return out


def nms_failures(boxes, threshold) -> list[str]:
    """No two kept boxes overlap by more than the NMS threshold."""
    for (i, a), (j, b) in itertools.combinations(enumerate(boxes), 2):
        iou = iou_bev(a, b)
        if iou > threshold:
            return [f"kept proposals {i} and {j} have iou_bev {iou:.4f}"]
    return []


def pooled_failures(label, box, pooled, enlarge) -> list[str]:
    """Every valid pooled row lies inside the enlarged proposal box."""
    big = enlarge_box(box, enlarge)
    rows = pooled.features[:pooled.valid_count, :3]
    local = (rows - big.center) @ rotation_y(big.yaw)
    half = np.array([big.length, big.height, big.width]) / 2.0
    if not (np.abs(local) <= half + 1e-9).all():
        return [f"{label}: pooled row outside its enlarged box"]
    return []


def overlap_pair_frac(boxes) -> float:
    """Share of box pairs that pass the BEV circumradius gate.

    Pairs farther apart than the sum of their footprint circumradii
    cannot overlap, so ``iou_bev`` returns before clipping polygons.
    """
    if len(boxes) < 2:
        return 0.0
    xz = np.array([[b.center[0], b.center[2]] for b in boxes])
    r = np.array([0.5 * np.hypot(b.length, b.width) for b in boxes])
    d2 = ((xz[:, None, :] - xz[None, :, :]) ** 2).sum(axis=2)
    close = d2 <= (r[:, None] + r[None, :]) ** 2
    upper = np.triu_indices(len(boxes), k=1)
    return float(close[upper].mean())


def digest(*arrays) -> str:
    """Short sha256 over the arrays; floats rounded to 8 decimals first.

    Rounding keeps the digest stable under last-bit differences in
    BLAS results while any real change of output still shows.
    """
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        if a.dtype.kind == "f":
            a = np.round(a, 8) + 0.0  # + 0.0 turns -0.0 into 0.0
        elif a.dtype.kind in "iu":
            a = a.astype(np.int64)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]
