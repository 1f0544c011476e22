"""Attention-gated fusion of per-point image and point features.

One fusion block computes a scalar gate per point for each modality
from the concatenated features, scales each modality by its gate, and
maps the gated concatenation together with the running fused feature
through a linear output head. The per-point gates double as attention
scores for the hybrid sampler.

The analytic backward pass exists so the block's gradients can be
verified against finite differences without an autodiff framework.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidCount, ParseError, TruncatedFile
from .numerics import _count, checked_array, finite_diff_grad, sigmoid

# A block's weight arrays in draw, file and gradient order.
_WEIGHTS = ("w_img_att", "b_img_att", "w_pt_att", "b_pt_att", "w_out", "b_out")
_ATT_CHANNELS = 1


def _weight_shapes(c_cat: int, c_prev: int, c_out: int) -> list[tuple[int, ...]]:
    """Shape of each ``_WEIGHTS`` array, in that order."""
    att, bias = (c_cat, _ATT_CHANNELS), (_ATT_CHANNELS,)
    return [att, bias, att, bias, (c_cat + c_prev, c_out), (c_out,)]


@dataclass
class AAFParams:
    """Weights of one adaptive attention fusion block.

    The attention heads map the (c_img + c_pt)-wide concatenation to a
    single score per point; the output head maps the gated
    concatenation plus the previous fused feature to c_out channels.
    """

    c_img: int
    c_pt: int
    w_img_att: np.ndarray  # (c_img + c_pt, 1)
    b_img_att: np.ndarray  # (1,)
    w_pt_att: np.ndarray   # (c_img + c_pt, 1)
    b_pt_att: np.ndarray   # (1,)
    w_out: np.ndarray      # (c_img + c_pt + c_prev, c_out)
    b_out: np.ndarray      # (c_out,)

    def __post_init__(self):
        self.c_img = _count(self.c_img, "c_img", 1)
        self.c_pt = _count(self.c_pt, "c_pt", 1)
        # c_prev and c_out are read off w_out, so it is converted and its
        # rank and rows checked first; that fixes its whole shape
        self.w_out = checked_array(self.w_out, "w_out")
        c_cat = self.c_img + self.c_pt
        if self.w_out.ndim != 2 or self.w_out.shape[0] < c_cat:
            raise DimensionMismatch(
                f"output weights must be (>= {c_cat}, c_out), got {self.w_out.shape}"
            )
        _count(self.c_out, "c_out", 1)
        for name, shape in zip(_WEIGHTS, _weight_shapes(c_cat, self.c_prev, self.c_out)):
            if name != "w_out":
                setattr(self, name, checked_array(getattr(self, name), name, shape))

    @property
    def c_prev(self) -> int:
        return self.w_out.shape[0] - self.c_img - self.c_pt

    @property
    def c_out(self) -> int:
        return self.w_out.shape[1]


@dataclass
class AAFInput:
    """Per-point features entering one fusion block (equal row counts)."""

    f_image: np.ndarray       # (N, c_img) gathered image features
    f_point: np.ndarray       # (N, c_pt)
    f_fused_prev: np.ndarray  # (N, c_prev) running fused feature

    def __post_init__(self):
        self.f_image = checked_array(self.f_image, "f_image", ("N", "C"))
        for name in ("f_point", "f_fused_prev"):  # the row count is f_image's
            setattr(self, name, checked_array(getattr(self, name), name,
                                              (len(self.f_image), "C")))


@dataclass
class AAFOutput:
    f_fused: np.ndarray   # (N, c_out)
    att_image: np.ndarray  # (N,) strictly in (0, 1)
    att_point: np.ndarray  # (N,)


@dataclass
class AAFGradients:
    """Gradients of sum(upstream * f_fused) for every weight and input."""

    w_img_att: np.ndarray
    b_img_att: np.ndarray
    w_pt_att: np.ndarray
    b_pt_att: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    f_image: np.ndarray
    f_point: np.ndarray
    f_fused_prev: np.ndarray


_GRAD_GROUPS = _WEIGHTS + ("f_image", "f_point", "f_fused_prev")


def _check_shapes(params: AAFParams, inp: AAFInput):
    for name, channels in (("f_image", params.c_img), ("f_point", params.c_pt),
                           ("f_fused_prev", params.c_prev)):
        checked_array(getattr(inp, name), name, ("N", channels))


def _forward(w_img_att, b_img_att, w_pt_att, b_pt_att, w_out, b_out,
             f_image, f_point, f_fused_prev):
    """Unchecked forward pass over the ``_GRAD_GROUPS`` arrays, in that order.

    Works on the last two axes, so all arrays may share one leading batch
    axis (1-D biases then as (K, 1, C)). Returns every intermediate:
    ``(cat, att_i, att_p, gated, fused)``.
    """
    cat = np.concatenate([f_image, f_point], axis=-1)
    att_i = sigmoid(cat @ w_img_att + b_img_att)
    att_p = sigmoid(cat @ w_pt_att + b_pt_att)
    gated = np.concatenate(
        [f_image * att_i, f_point * att_p, f_fused_prev], axis=-1
    )
    fused = gated @ w_out + b_out
    return cat, att_i, att_p, gated, fused


def _groups(params: AAFParams, inp: AAFInput) -> list[np.ndarray]:
    """One block's parameter and input arrays in ``_GRAD_GROUPS`` order."""
    return [getattr(inp if g.startswith("f_") else params, g) for g in _GRAD_GROUPS]


def aaf_forward(params: AAFParams, inp: AAFInput) -> AAFOutput:
    """Forward pass of one fusion block.

    att_image = sigmoid(linear(f_image ++ f_point))
    att_point = sigmoid(linear(f_image ++ f_point))    (separate head)
    f_fused   = linear((f_image * att_image) ++ (f_point * att_point)
                        ++ f_fused_prev)

    where ++ is column concatenation and the gates broadcast across the
    channels of their modality. No activation follows the output head.
    """
    _check_shapes(params, inp)
    _, att_i, att_p, _, fused = _forward(*_groups(params, inp))
    return AAFOutput(fused, att_i[:, 0], att_p[:, 0])


def aaf_backward(
    params: AAFParams, inp: AAFInput, upstream
) -> AAFGradients:
    """Analytic gradients of ``sum(upstream * f_fused)``.

    Chain rule through the output head, the gate products, and the
    sigmoid of each attention head, with respect to every parameter and
    every input feature. ``upstream`` must have shape (N, c_out).
    """
    _check_shapes(params, inp)
    cat, att_i, att_p, gated, _ = _forward(*_groups(params, inp))
    up = checked_array(upstream, "upstream", (len(inp.f_image), params.c_out))
    ci, cp = params.c_img, params.c_pt

    d_gated = up @ params.w_out.T
    d_w_out = gated.T @ up
    d_b_out = up.sum(axis=0)

    d_gi = d_gated[:, :ci]
    d_gp = d_gated[:, ci:ci + cp]
    d_f_fused_prev = d_gated[:, ci + cp:]

    # product rule through the gates: each gated column is feature * gate
    d_att_i = (d_gi * inp.f_image).sum(axis=1, keepdims=True)
    d_att_p = (d_gp * inp.f_point).sum(axis=1, keepdims=True)
    d_z_i = d_att_i * att_i * (1.0 - att_i)
    d_z_p = d_att_p * att_p * (1.0 - att_p)

    d_w_img_att = cat.T @ d_z_i
    d_b_img_att = d_z_i.sum(axis=0)
    d_w_pt_att = cat.T @ d_z_p
    d_b_pt_att = d_z_p.sum(axis=0)

    d_cat = d_z_i @ params.w_img_att.T + d_z_p @ params.w_pt_att.T
    d_f_image = d_gi * att_i + d_cat[:, :ci]
    d_f_point = d_gp * att_p + d_cat[:, ci:]

    return AAFGradients(
        w_img_att=d_w_img_att,
        b_img_att=d_b_img_att,
        w_pt_att=d_w_pt_att,
        b_pt_att=d_b_pt_att,
        w_out=d_w_out,
        b_out=d_b_out,
        f_image=d_f_image,
        f_point=d_f_point,
        f_fused_prev=d_f_fused_prev,
    )


def init_params(
    c_img: int, c_pt: int, c_prev: int, c_out: int, rng: np.random.Generator
) -> AAFParams:
    """Seeded uniform [-0.1, 0.1] initialization, drawn in ``_WEIGHTS`` order.
    Channel counts are integers >= 1 (``c_prev`` >= 0), else InvalidCount."""
    c_img, c_pt, c_prev, c_out = (
        _count(value, name, low) for value, name, low in (
            (c_img, "c_img", 1), (c_pt, "c_pt", 1), (c_prev, "c_prev", 0),
            (c_out, "c_out", 1)))
    shapes = _weight_shapes(c_img + c_pt, c_prev, c_out)
    return AAFParams(c_img, c_pt, **{
        name: rng.uniform(-0.1, 0.1, size=s) for name, s in zip(_WEIGHTS, shapes)
    })


# Serialization layout: five little-endian uint32 channel counts
# (image, point, previous-fused, attention, output), then the weight
# arrays as row-major little-endian float64 in ``_WEIGHTS`` order.
_HEADER = struct.Struct("<5I")


def save_params(params: AAFParams, path) -> None:
    """Write a parameter blob in the documented binary layout."""
    header = _HEADER.pack(
        params.c_img, params.c_pt, params.c_prev, _ATT_CHANNELS, params.c_out
    )
    blob = np.concatenate(
        [getattr(params, name).reshape(-1) for name in _WEIGHTS]
    ).astype("<f8")
    Path(path).write_bytes(header + blob.tobytes())


def load_params(path) -> AAFParams:
    """Read a parameter blob written by :func:`save_params`."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise TruncatedFile(f"{path}: too short for the header")
    c_img, c_pt, c_prev, c_att, c_out = _HEADER.unpack_from(data)
    if c_att != _ATT_CHANNELS:
        raise ParseError(
            f"{path}: attention channel count {c_att} unsupported "
            f"(expected {_ATT_CHANNELS})"
        )
    shapes = _weight_shapes(c_img + c_pt, c_prev, c_out)
    counts = [math.prod(shape) for shape in shapes]
    expected = _HEADER.size + 8 * sum(counts)
    if len(data) != expected:
        raise TruncatedFile(
            f"{path}: {len(data)} bytes, expected {expected} for header "
            f"({c_img}, {c_pt}, {c_prev}, {c_att}, {c_out})"
        )
    # one copy, so every array is writable rather than a view of ``data``
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).copy()
    parts = np.split(flat, np.cumsum(counts)[:-1])
    try:
        return AAFParams(c_img, c_pt, **{
            name: part.reshape(s) for name, part, s in zip(_WEIGHTS, parts, shapes)
        })
    except InvalidCount as exc:  # a zero channel count in the header
        raise ParseError(f"{path}: {exc}") from None


_REL_ERR_FLOOR = 1e-4


def _relative_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise |a - b| / max(|a|, |b|, _REL_ERR_FLOOR)."""
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)),
                                      _REL_ERR_FLOOR)


def relative_error(a, b) -> float:
    """Max elementwise |a - b| / max(|a|, |b|, _REL_ERR_FLOOR).

    The floor keeps the metric meaningful for near-zero entries, where
    finite differences bottom out at their own noise level (~1e-12 for
    the step sizes used here) long before a relative comparison does.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return float(_relative_errors(a, b).max(initial=0.0))


def gradcheck(
    params: AAFParams, inp: AAFInput, upstream, eps: float = 1e-5
) -> dict[str, float]:
    """Compare the analytic backward against central finite differences.

    Differentiates sum(upstream * f_fused) by all nine groups, flattened
    into one vector whose central-difference stencil goes through one
    batched forward pass. The relative errors of all nine groups are
    computed in one elementwise pass over the flattened vectors; returns
    the maximum of each group's slice, exactly ``relative_error`` of the
    group (0.0 for an empty one).
    """
    up = np.asarray(upstream, dtype=np.float64)
    analytic = aaf_backward(params, inp, up)
    groups = _groups(params, inp)
    # 1-D groups (the biases) become (1, C) so they broadcast per row
    shapes = [g.shape if g.ndim == 2 else (1,) + g.shape for g in groups]
    edges = [0, *itertools.accumulate(g.size for g in groups)]
    spans = list(zip(edges, edges[1:]))

    def loss(stack):
        k = stack.shape[0]
        fused = _forward(*(stack[:, lo:hi].reshape((k,) + s)
                           for (lo, hi), s in zip(spans, shapes)))[-1]
        return (up * fused).reshape(k, -1).sum(axis=1)

    theta = np.concatenate([g.reshape(-1) for g in groups])
    numeric = finite_diff_grad(loss, theta, eps=eps)
    exact = np.concatenate([getattr(analytic, group).reshape(-1)
                            for group in _GRAD_GROUPS])
    # each group's maximum in one call: a segment of reduceat runs to the
    # next start, so with the empty groups left out it is one group
    maxima = iter(np.maximum.reduceat(
        _relative_errors(exact, numeric),
        [lo for lo, hi in spans if hi > lo]).tolist())
    return {group: next(maxima) if hi > lo else 0.0
            for group, (lo, hi) in zip(_GRAD_GROUPS, spans)}


def run_gradcheck(
    seed: int,
    trials: int = 100,
    max_points: int = 4,
    max_channels: int = 3,
    eps: float = 1e-5,
) -> dict:
    """Gradient-check randomized small instances and summarize.

    Every trial draws sizes (N <= max_points, channels <= max_channels),
    parameters from the seeded uniform initializer, and normal features
    and upstream signal, then compares analytic and finite-difference
    gradients for every group.

    Returns a JSON-friendly report with the max relative error per
    group and overall; a NaN error is kept, so the report fails. The
    seed must be an integer >= 0 and the three sizes integers >= 1
    (numpy integers too); anything else is an InvalidCount naming it.
    """
    seed = _count(seed, "seed", 0)
    for name, value in (("trials", trials), ("max_points", max_points),
                        ("max_channels", max_channels)):
        _count(value, name, 1)
    rng = np.random.default_rng(seed)
    worst = np.zeros(len(_GRAD_GROUPS))
    for _ in range(trials):
        n = int(rng.integers(1, max_points + 1))
        c_img, c_pt, c_prev, c_out = (
            int(rng.integers(1, max_channels + 1)) for _ in range(4)
        )
        params = init_params(c_img, c_pt, c_prev, c_out, rng)
        inp = AAFInput(
            f_image=rng.standard_normal((n, c_img)),
            f_point=rng.standard_normal((n, c_pt)),
            f_fused_prev=rng.standard_normal((n, c_prev)),
        )
        upstream = rng.standard_normal((n, c_out))
        errors = gradcheck(params, inp, upstream, eps=eps)
        worst = np.maximum(worst, list(errors.values()))  # a NaN, once seen, stays
    return {
        "seed": seed,
        "trials": trials,
        "max_points": max_points,
        "max_channels": max_channels,
        "eps": eps,
        "per_group_max_relative_error": dict(zip(_GRAD_GROUPS, worst.tolist())),
        "max_relative_error": float(worst.max()),
    }
