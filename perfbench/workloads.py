"""The benchmark workloads: set-up, one operation, and its output checks.

Each workload builds its inputs from the workload seed in ``__init__``
(the timed set-up), runs one operation in ``op`` with a span around
every library call, and turns the operation's outputs into failure
messages, deterministic counters and digests in ``check``. Every
pipeline constant comes from the workload's block in ``pinned.json``;
nothing is read from the library's configuration defaults.
"""

from __future__ import annotations

import math

import numpy as np

from fuse3d import (
    AAFInput,
    BinConfig,
    BinSpec,
    Box3D,
    CalibData,
    FocalConfig,
    PointCloud,
    Proposal,
    RegressionPrediction,
    SamplerConfig,
    SyntheticSceneSpec,
    aaf_forward,
    aad,
    crop_range,
    encode_box_target,
    enlarge_box,
    focal_loss,
    gather_point_image_features,
    generate_scene,
    hybrid_sample,
    init_params,
    lambda_sweep,
    points_in_box,
    read_calib,
    read_labels,
    read_point_cloud_bin,
    regression_loss,
    roi_pooled_fusion,
    run_gradcheck,
    select_proposals,
    write_point_cloud_bin,
)

from checks import (
    digest,
    nms_failures,
    overlap_pair_frac,
    pooled_failures,
    sampler_failures,
)

# one independent random stream per use of the workload seed
_STREAMS = {"scene": 1, "features": 2, "proposals": 3, "roi": 4,
            "subsample": 5, "aad": 6, "gradcheck": 7}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream]])


def _seed_int(seed: int, stream: str, *more: int) -> int:
    seq = np.random.SeedSequence([seed, _STREAMS[stream], *more])
    return int(seq.generate_state(1)[0])


def _scene(c, seed, tracer):
    """Seeded scene moved +z by ``scene_shift_z`` to sit before the camera."""
    spec = SyntheticSceneSpec(**c["scene"], seed=_seed_int(seed, "scene"))
    with tracer.span("scene"):
        cloud, attention, boxes = generate_scene(spec)
    shift = np.array([0.0, 0.0, c["scene_shift_z"]])
    boxes = [Box3D(b.center + shift, b.length, b.height, b.width, b.yaw)
             for b in boxes]
    return PointCloud(cloud.coords + shift), attention, boxes


def _calib(camera) -> CalibData:
    return CalibData(
        p2=np.reshape(camera["P2"], (3, 4)),
        r0=np.reshape(camera["R0_rect"], (3, 3)),
        tr_velo_to_cam=np.reshape(camera["Tr_velo_to_cam"], (3, 4)),
    )


def _visible_frac(cloud, camera) -> float:
    h, w = camera["feature_map_hw"]
    _, visible = gather_point_image_features(
        cloud, _calib(camera).projection, np.zeros((h, w, 1)))
    return float(visible.mean())


def _jittered(boxes, count, rng, j):
    """``count`` proposals around the boxes, round robin; with source index."""
    proposals, sources = [], []
    std = [j["center_xz_std"], j["center_y_std"], j["center_xz_std"]]
    for k in range(count):
        g = k % len(boxes)
        gt = boxes[g]
        offset = np.clip(rng.normal(0.0, std), -j["clip"], j["clip"])
        lhw = np.array([gt.length, gt.height, gt.width]) \
            * rng.uniform(*j["size_scale"], size=3)
        box = Box3D(gt.center + offset, lhw[0], lhw[1], lhw[2],
                    gt.yaw + rng.normal(0.0, j["yaw_std"]))
        proposals.append(Proposal(box, rng.uniform(*j["score"])))
        sources.append(g)
    return proposals, sources


def _roi_counters(cloud, proposals_in, kept, pooled, roi_points, enlarge):
    inside = [points_in_box(cloud, enlarge_box(p.box, enlarge)).size
              for p in kept]
    return {
        "roi.proposals_in": proposals_in,
        "roi.kept_frac": len(kept) / proposals_in,
        "roi.occupancy": float(np.mean([r.valid_count for r in pooled])) / roi_points,
        "roi.overflow_frac": float(np.mean([k > roi_points for k in inside])),
    }


def _roi_failures(kept, pooled, threshold, enlarge):
    fails = nms_failures([p.box for p in kept], threshold)
    for k, (p, r) in enumerate(zip(kept, pooled)):
        fails += pooled_failures(f"roi {k}", p.box, r, enlarge)
    return fails


class Frame:
    """One detector frame: read, crop, four SA layers, NMS, RoI pooling."""

    def __init__(self, c, camera, seed, workdir, tracer):
        self.c = c
        self.seed = seed
        cloud, attention, boxes = _scene(c, seed, tracer)
        workdir.mkdir(parents=True, exist_ok=True)
        self.cloud_path = workdir / "cloud.bin"
        self.calib_path = workdir / "calib.txt"
        self.label_path = workdir / "label.txt"
        # the scene's two-level attention rides along as intensity: it
        # marks foreground points for the gate and the fg counters
        write_point_cloud_bin(PointCloud(cloud.coords, attention), self.cloud_path)
        self.calib_path.write_text("".join(
            f"{key}: {' '.join(repr(float(v)) for v in camera[key])}\n"
            for key in ("P2", "R0_rect", "Tr_velo_to_cam")))
        # label rows store the bottom-face center: y + h/2 in this frame
        self.label_path.write_text("".join(
            "Car 0.00 0 0.00 0.00 0.00 0.00 0.00 " + " ".join(repr(float(v)) for v in (
                b.height, b.width, b.length, b.center[0],
                b.center[1] + b.height / 2.0, b.center[2], b.yaw)) + "\n"
            for b in boxes))
        self.io_bytes = sum(p.stat().st_size for p in
                            (self.cloud_path, self.calib_path, self.label_path))
        rng = _rng(seed, "features")
        ch = c["channels"]
        h, w = camera["feature_map_hw"]
        self.fmap = rng.standard_normal((h, w, ch["image"]))
        self.params = []
        for _ in c["sa_samples"]:
            p = init_params(ch["image"], ch["point"], ch["prev"], ch["out"], rng)
            # a fixed weight on the intensity channel (point feature 0)
            # stands in for a trained head: the point gate favours
            # foreground, so the gate is a meaningful attention
            p.w_pt_att[ch["image"], 0] = c["fg_gate"]["weight"]
            p.b_pt_att[0] = c["fg_gate"]["bias"]
            self.params.append(p)

    def op(self, tracer) -> dict:
        c = self.c
        with tracer.span("kitti_io"):
            raw = read_point_cloud_bin(self.cloud_path)
        with tracer.span("kitti_io"):
            projection = read_calib(self.calib_path)
        with tracer.span("kitti_io"):
            labels = read_labels(self.label_path)
        ranges = (c["crop"]["x"], c["crop"]["y"], c["crop"]["z"])
        with tracer.span("geometry.crop"):
            cropped = crop_range(raw, *ranges)
        pick = np.sort(_rng(self.seed, "subsample").choice(
            len(cropped), c["num_points"], replace=False))
        pts = PointCloud(cropped.coords[pick], cropped.intensity[pick])
        gt = [box for _, box in labels
              if all(lo <= v <= hi for v, (lo, hi) in zip(box.center, ranges))]
        f_pt = np.column_stack([
            pts.intensity,
            pts.coords[:, 1],
            np.hypot(pts.coords[:, 0], pts.coords[:, 2])
            / c["scene"]["background_extent"],
            np.ones(len(pts)),
        ])
        f_prev = np.zeros((len(pts), c["channels"]["prev"]))
        layers = []
        for level, (n, params) in enumerate(zip(c["sa_samples"], self.params)):
            with tracer.span("geometry.gather"):
                f_img, visible = gather_point_image_features(
                    pts, projection, self.fmap)
            with tracer.span("fusion.forward"):
                out = aaf_forward(params, AAFInput(f_img, f_pt, f_prev))
            cfg = SamplerConfig(n=n, lam=c["sampler_lambda"],
                                seed_index=c["fps_seed_index"])
            with tracer.span(f"sampling.L{level}"):
                idx = hybrid_sample(pts, out.att_point, cfg)
            layers.append({"cloud": pts, "f_img": f_img, "f_pt": f_pt,
                           "out": out, "visible": visible, "idx": idx, "n": n})
            pts = PointCloud(pts.coords[idx], pts.intensity[idx])
            f_pt, f_prev = f_pt[idx], out.f_fused[idx]
        proposals, _ = _jittered(gt, c["proposals"], _rng(self.seed, "proposals"),
                                 c["jitter"])
        with tracer.span("roi.select"):
            kept = select_proposals(proposals, pre_nms_top=c["pre_nms_top"],
                                    nms_threshold=c["nms_threshold"],
                                    keep=c["keep"])
        base = layers[0]
        roi_seed = _seed_int(self.seed, "roi")
        pooled = []
        for k, p in enumerate(kept):
            with tracer.span("roi.pool"):
                pooled.append(roi_pooled_fusion(
                    p, base["cloud"], base["f_img"], base["f_pt"],
                    base["out"].f_fused, enlarge=c["enlarge"],
                    n_points=c["roi_points"], seed=roi_seed + k))
        return {"raw": len(raw), "cropped": len(cropped), "layers": layers,
                "proposals": proposals, "kept": kept, "pooled": pooled}

    def check(self, out):
        c = self.c
        layers, kept, pooled = out["layers"], out["kept"], out["pooled"]
        fails = []
        for level, L in enumerate(layers):
            fails += sampler_failures(f"sampler L{level}", L["idx"], L["n"],
                                      len(L["cloud"]), L["out"].att_point)
        fails += _roi_failures(kept, pooled, c["nms_threshold"], c["enlarge"])
        position = {id(p): i for i, p in enumerate(out["proposals"])}
        keep_list = np.array([position[id(p)] for p in kept])
        gates = np.concatenate([g for L in layers
                                for g in (L["out"].att_image, L["out"].att_point)])
        counters = {
            "kitti_io.bytes": self.io_bytes,
            "geometry.crop.kept_frac": out["cropped"] / out["raw"],
            "geometry.visible_frac": float(layers[0]["visible"].mean()),
            "fusion.rows": sum(len(L["cloud"]) for L in layers),
            "fusion.gate_saturated_frac":
                float(np.mean((gates < 0.01) | (gates > 0.99))),
            "sampling.candidates": sum(
                min(len(L["cloud"]), math.ceil(c["sampler_lambda"] * L["n"]))
                for L in layers),
            "roi.overlap_pair_frac":
                overlap_pair_frac([p.box for p in out["proposals"]]),
            **_roi_counters(layers[0]["cloud"], len(out["proposals"]), kept,
                            pooled, c["roi_points"], c["enlarge"]),
        }
        for level, L in enumerate(layers):
            counters[f"sampling.fg_frac.L{level}"] = float(
                np.mean(L["cloud"].intensity[L["idx"]] > 0.5))
        digests = {
            "sampler": digest(*[L["idx"] for L in layers]),
            "nms_keep": digest(keep_list),
            "pooled": digest(*[r.features for r in pooled],
                             *[r.indices for r in pooled]),
        }
        return fails, counters, digests


def _grid_scene(c, seed, tracer):
    """One-object scenes moved so their objects sit on a square grid.

    Objects ``spacing`` apart never overlap one another, so the share of
    overlapping proposal pairs, which sets the NMS cost, barely changes
    with the seed.
    """
    g, spacing = c["grid"], c["spacing"]
    coords, boxes = [], []
    for k in range(g * g):
        spec = SyntheticSceneSpec(**c["scene"], seed=_seed_int(seed, "scene", k))
        with tracer.span("scene"):
            cloud, _, (box,) = generate_scene(spec)
        grid_point = spacing * (np.array([k % g, k // g]) - (g - 1) / 2.0)
        shift = np.array([grid_point[0] - box.center[0], 0.0,
                          c["scene_shift_z"] + grid_point[1] - box.center[2]])
        coords.append(cloud.coords + shift)
        boxes.append(Box3D(box.center + shift, box.length, box.height,
                           box.width, box.yaw))
    return PointCloud(np.concatenate(coords)), boxes


class Proposals:
    """Second stage on many boxes: NMS, RoI pooling and the loss stack."""

    def __init__(self, c, camera, seed, workdir, tracer):
        self.c = c
        self.cloud, self.boxes = _grid_scene(c, seed, tracer)
        n = len(self.cloud)
        ch = c["channels"]
        h, w = camera["feature_map_hw"]
        rng = _rng(seed, "features")
        fmap = rng.standard_normal((h, w, ch["image"]))
        self.f_img, visible = gather_point_image_features(
            self.cloud, _calib(camera).projection, fmap)
        self.visible_frac = float(visible.mean())
        self.f_pt = rng.standard_normal((n, ch["point"]))
        self.f_fused = rng.standard_normal((n, ch["fused"]))

        prng = _rng(seed, "proposals")
        proposals, sources = _jittered(self.boxes, c["jittered"], prng, c["jitter"])
        # scattered boxes anywhere on the ground: most pairs with them
        # fail the circumradius gate before any polygon clipping
        s = c["scattered_box"]
        half = c["grid"] * c["spacing"] / 2.0
        for _ in range(c["scattered"]):
            center = np.array([prng.uniform(-half, half), prng.uniform(-0.5, 0.5),
                               c["scene_shift_z"] + prng.uniform(-half, half)])
            box = Box3D(center, prng.uniform(*s["length"]),
                        prng.uniform(*s["height"]), prng.uniform(*s["width"]),
                        prng.uniform(-np.pi, np.pi))
            proposals.append(Proposal(box, prng.uniform(*s["score"])))
            sources.append(-1)
        order = prng.permutation(len(proposals))
        self.proposals = [proposals[i] for i in order]
        self.sources = [sources[i] for i in order]
        self.position = {id(p): i for i, p in enumerate(self.proposals)}
        self.overlap = overlap_pair_frac([p.box for p in self.proposals])

        bins = c["bins"]
        self.bins = BinConfig(x=BinSpec(*bins["x"]), z=BinSpec(*bins["z"]),
                              yaw=BinSpec(*bins["yaw"], wrap=True))
        self.focal = FocalConfig(**c["focal"])
        self.preds = [RegressionPrediction(
            logits_x=rng.standard_normal(bins["x"][1]),
            logits_z=rng.standard_normal(bins["z"][1]),
            logits_yaw=rng.standard_normal(bins["yaw"][1]),
            residuals=0.1 * rng.standard_normal(7),
        ) for _ in self.proposals]
        self.roi_seed = _seed_int(seed, "roi")

    def op(self, tracer) -> dict:
        c = self.c
        with tracer.span("roi.select"):
            kept = select_proposals(self.proposals, pre_nms_top=c["pre_nms_top"],
                                    nms_threshold=c["nms_threshold"],
                                    keep=c["keep"])
        pooled = []
        for k, p in enumerate(kept):
            with tracer.span("roi.pool"):
                pooled.append(roi_pooled_fusion(
                    p, self.cloud, self.f_img, self.f_pt, self.f_fused,
                    enlarge=c["enlarge"], n_points=c["roi_points"],
                    seed=self.roi_seed + k))
        # regression on kept proposals that came from a ground-truth
        # box; classification on every proposal score
        with tracer.span("losses"):
            reg = []
            for p in kept:
                i = self.position[id(p)]
                if self.sources[i] < 0:
                    continue
                gt = self.boxes[self.sources[i]]
                target = encode_box_target(gt, p.box, self.bins)
                reg.append(regression_loss(self.preds[i], target, p.box, gt,
                                           self.bins))
            cls = [focal_loss(p.score if g >= 0 else 1.0 - p.score, self.focal)
                   for p, g in zip(self.proposals, self.sources)]
        return {"kept": kept, "pooled": pooled, "losses": np.array(reg + cls)}

    def check(self, out):
        c = self.c
        kept, pooled, losses = out["kept"], out["pooled"], out["losses"]
        fails = _roi_failures(kept, pooled, c["nms_threshold"], c["enlarge"])
        if not (np.isfinite(losses).all() and (losses >= 0.0).all()):
            fails.append("a loss term is negative or not finite")
        keep_list = np.array([self.position[id(p)] for p in kept])
        counters = {
            "geometry.visible_frac": self.visible_frac,
            "roi.overlap_pair_frac": self.overlap,
            "losses.terms": len(losses),
            **_roi_counters(self.cloud, len(self.proposals), kept, pooled,
                            c["roi_points"], c["enlarge"]),
        }
        digests = {
            "nms_keep": digest(keep_list),
            "pooled": digest(*[r.features for r in pooled],
                             *[r.indices for r in pooled]),
            "losses": digest(losses),
        }
        return fails, counters, digests


class Study:
    """The sampler used as a study: lambda sweep, AAD, gradient check."""

    def __init__(self, c, camera, seed, workdir, tracer):
        self.c = c
        self.cloud, self.attention, _ = _scene(c, seed, tracer)
        self.visible_frac = _visible_frac(self.cloud, camera)
        self.aad_idx = np.sort(_rng(seed, "aad").permutation(
            len(self.cloud))[:c["aad_points"]])
        self.gradcheck_seed = _seed_int(seed, "gradcheck")

    def op(self, tracer) -> dict:
        c = self.c
        g = c["gradcheck"]
        # the sweep as `fuse3d sample-study` runs it: lambda_sweep, then
        # hybrid_sample again per factor for the foreground fraction
        with tracer.span("sampling.sweep"):
            rows = lambda_sweep(self.cloud, self.attention, c["n"],
                                c["lambdas"], seed_index=c["fps_seed_index"])
            picks = [hybrid_sample(self.cloud, self.attention, SamplerConfig(
                n=c["n"], lam=lam, seed_index=c["fps_seed_index"]))
                for lam, _ in rows]
        with tracer.span("sampling.aad"):
            _, aad_mean = aad(self.cloud, self.aad_idx)
        with tracer.span("fusion.gradcheck"):
            report = run_gradcheck(
                seed=self.gradcheck_seed, trials=g["trials"],
                max_points=g["max_points"], max_channels=g["max_channels"],
                eps=g["eps"])
        return {"rows": rows, "picks": picks, "aad_mean": aad_mean,
                "gradcheck": report}

    def check(self, out):
        c = self.c
        rows, picks = out["rows"], out["picks"]
        fails = []
        for (lam, _), idx in zip(rows, picks):
            fails += sampler_failures(f"sampler lambda={lam}", idx, c["n"],
                                      len(self.cloud), self.attention)
        table = np.array(rows)
        if [r[0] for r in rows] != sorted(c["lambdas"]) \
                or not np.isfinite(table).all():
            fails.append("sweep rows not sorted by lambda or not finite")
        if not math.isfinite(out["aad_mean"]) or out["aad_mean"] <= 0.0:
            fails.append(f"aad mean {out['aad_mean']} not positive")
        err = out["gradcheck"]["max_relative_error"]
        if not err < c["gradcheck"]["tolerance"]:
            fails.append(f"gradcheck max relative error {err}")
        counters = {
            "geometry.visible_frac": self.visible_frac,
            "roi.overlap_pair_frac": 0.0,
            "roi.proposals_in": 0,
            "sampling.candidates": 2 * sum(
                min(len(self.cloud), math.ceil(lam * c["n"])) for lam, _ in rows),
            "sampling.aad_mean": out["aad_mean"],
            "fusion.gradcheck.max_rel_err": err,
        }
        for (lam, _), idx in zip(rows, picks):
            counters[f"study.fg_frac.lambda{lam}"] = float(
                np.mean(self.attention[idx] > 0.5))
        digests = {
            "sampler": digest(*picks),
            "sweep": digest(table, np.array([out["aad_mean"]])),
        }
        return fails, counters, digests


WORKLOADS = {"frame": Frame, "proposals": Proposals, "study": Study}
