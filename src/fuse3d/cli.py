"""Command-line front end.

Subcommands: gen-scene, sample-study, gradcheck, project, roi-demo,
loss-eval. Tabular studies come out as CSV with a header row; nested
summaries come out as JSON. Every command is deterministic given its
configuration and seed, so rerunning one produces byte-identical
reports.

Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np

from .config import (
    RunConfig,
    parse_field_value,
    load_config,
    subsystem_seed,
    validate_config,
)
from .errors import (
    MissingKey,
    OutOfRange,
    ParseError,
    TruncatedFile,
)
from .fusion import AAFInput, aaf_forward, init_params, run_gradcheck
from .geometry import Box3D, in_image_bounds, iou_bev, project_points
from .kitti_io import read_calib, read_point_cloud_bin, write_point_cloud_bin
from .losses import (
    FocalConfig,
    RegressionPrediction,
    encode_box_target,
    focal_loss,
    regression_terms,
    total_loss,
)
from .roi import Proposal, roi_pooled_fusion, select_proposals
from .sampling import aad, hybrid_sweep
from .scene import SyntheticSceneSpec, generate_scene

_DEFAULT_LAMBDAS = "1.0,1.2,1.4,1.6,2.0"


class _UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip, plain spelling
    return str(value)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="")


def _box_to_json(box: Box3D) -> dict:
    return {
        "center": [float(c) for c in box.center],
        "length": box.length,
        "height": box.height,
        "width": box.width,
        "yaw": box.yaw,
    }


def _box_from_json(obj, name: str) -> Box3D:
    try:
        return Box3D(
            np.asarray(obj["center"], dtype=np.float64),
            obj["length"],
            obj["height"],
            obj["width"],
            obj["yaw"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad box {name!r}: {exc}") from None


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


def _add_run_config_args(parser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    for field in dataclasses.fields(RunConfig):
        parser.add_argument(
            "--" + field.name.replace("_", "-"),
            dest=f"cfg_{field.name}",
            metavar="VALUE",
            default=None,
            help=f"override config key {field.name}",
        )


def _resolve_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    for field in dataclasses.fields(RunConfig):
        raw = getattr(args, f"cfg_{field.name}", None)
        if raw is not None:
            try:
                overrides[field.name] = parse_field_value(field, raw)
            except ParseError as exc:
                raise _UsageError(str(exc)) from None
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    try:
        validate_config(cfg)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return cfg


def _add_scene_args(parser) -> None:
    for field in dataclasses.fields(SyntheticSceneSpec):
        flag = "--scene-seed" if field.name == "seed" \
            else "--" + field.name.replace("_", "-")
        parser.add_argument(
            flag,
            dest=f"scene_{field.name}",
            type=type(field.default),
            default=None,
            help=f"scene {field.name} (default {field.default})",
        )


def _scene_from_args(args) -> SyntheticSceneSpec:
    kwargs = {}
    for field in dataclasses.fields(SyntheticSceneSpec):
        value = getattr(args, f"scene_{field.name}", None)
        if value is not None:
            kwargs[field.name] = value
    try:
        return SyntheticSceneSpec(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _read_attention_csv(path) -> np.ndarray:
    """Read scores from an 'index,score' CSV as written by gen-scene."""
    scores = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            if row_no == 1 and row == ["index", "score"]:
                continue
            try:
                score = float(row[-1])
            except ValueError as exc:
                raise ParseError(f"{path}:{row_no}: {exc}") from None
            # phrased so that NaN, which fails every comparison, is rejected
            if not 0.0 < score < 1.0:
                raise ParseError(
                    f"{path}:{row_no}: attention score {row[-1]!r} must lie "
                    "strictly in (0, 1)"
                )
            scores.append(score)
    return np.asarray(scores)


def cmd_gen_scene(args) -> int:
    spec = _scene_from_args(args)
    cloud, attention, boxes = generate_scene(spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_point_cloud_bin(cloud, outdir / "cloud.bin")
    _write_text(
        str(outdir / "attention.csv"),
        _csv_text(["index", "score"],
                  [[i, float(s)] for i, s in enumerate(attention)]),
    )
    _write_text(
        str(outdir / "boxes.json"),
        _json_text({
            "spec": dataclasses.asdict(spec),
            "boxes": [_box_to_json(b) for b in boxes],
        }),
    )
    print(f"wrote {len(cloud)} points and {len(boxes)} boxes to {outdir}")
    return 0


def _study_inputs(args):
    if args.cloud:
        cloud = read_point_cloud_bin(args.cloud)
        if len(cloud) == 0:
            raise ParseError(f"{args.cloud}: the cloud holds no points")
        if args.attention:
            attention = _read_attention_csv(args.attention)
            if attention.shape != (len(cloud),):
                raise ParseError(
                    f"{args.attention}: {attention.size} scores for "
                    f"{len(cloud)} points"
                )
        else:
            attention = np.full(len(cloud), 0.5)
        return cloud, attention
    cloud, attention, _ = generate_scene(_scene_from_args(args))
    return cloud, attention


def cmd_sample_study(args) -> int:
    cloud, attention = _study_inputs(args)
    rows = []
    for lam, selected in hybrid_sweep(cloud, attention, args.n, args.lambdas,
                                      seed_index=args.seed_index):
        _, mean_aad = aad(cloud, selected)
        # a score above the 0.5 midpoint marks a foreground point
        fg_fraction = float(np.mean(attention[selected] > 0.5))
        rows.append([lam, mean_aad, fg_fraction])
    _write_text(args.out, _csv_text(["lambda", "mean_aad", "fg_fraction"], rows))
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _resolve_run_config(args)
    report = run_gradcheck(
        seed=subsystem_seed(cfg.seed, "params"),
        trials=args.trials,
        max_points=args.max_points,
        max_channels=args.max_channels,
        eps=args.eps,
    )
    report["tolerance"] = args.tolerance
    report["pass"] = bool(report["max_relative_error"] < args.tolerance)
    _write_text(args.out, _json_text(report))
    return 0


def cmd_project(args) -> int:
    if (args.image_width is None) != (args.image_height is None):
        raise _UsageError("--image-width and --image-height go together")
    cloud = read_point_cloud_bin(args.cloud)
    us, vs, depth = project_points(cloud.coords, read_calib(args.calib))
    if args.image_width is not None:
        visible = in_image_bounds(us, vs, args.image_width, args.image_height)
    else:
        visible = depth > 0
    rows = [
        [i, float(us[i]), float(vs[i]), float(depth[i]), int(visible[i])]
        for i in range(len(cloud))
    ]
    _write_text(args.out, _csv_text(["index", "u", "v", "depth", "visible"], rows))
    return 0


def _jittered_proposals(boxes, per_box: int, rng) -> list[Proposal]:
    proposals = []
    for gt in boxes:
        for _ in range(per_box):
            center = gt.center + np.array([
                rng.normal(0.0, 0.5),
                rng.normal(0.0, 0.1),
                rng.normal(0.0, 0.5),
            ])
            sizes = np.array([gt.length, gt.height, gt.width]) \
                * rng.uniform(0.9, 1.1, size=3)
            box = Box3D(center, sizes[0], sizes[1], sizes[2],
                        gt.yaw + rng.normal(0.0, 0.15))
            proposals.append(Proposal(box, iou_bev(box, gt)))
    return proposals


def cmd_roi_demo(args) -> int:
    cfg = _resolve_run_config(args)
    cloud, _, boxes = generate_scene(_scene_from_args(args))
    n = len(cloud)
    feat_rng = np.random.default_rng(subsystem_seed(cfg.seed, "params"))
    c_img, c_pt, c_prev, c_out = 4, 4, 4, 8
    f_img = feat_rng.standard_normal((n, c_img))
    f_pt = feat_rng.standard_normal((n, c_pt))
    f_prev = feat_rng.standard_normal((n, c_prev))
    params = init_params(c_img, c_pt, c_prev, c_out, feat_rng)
    fused = aaf_forward(params, AAFInput(f_img, f_pt, f_prev)).f_fused

    prop_rng = np.random.default_rng(subsystem_seed(cfg.seed, "proposals"))
    proposals = _jittered_proposals(boxes, args.proposals_per_box, prop_rng)
    selected = select_proposals(
        proposals,
        pre_nms_top=cfg.pre_nms_top,
        nms_threshold=cfg.nms_threshold,
        keep=cfg.proposals_keep,
    )
    roi_seed = subsystem_seed(cfg.seed, "roi")
    summaries = []
    for index, proposal in enumerate(selected):
        pooled = roi_pooled_fusion(
            proposal, cloud, f_img, f_pt, fused,
            enlarge=cfg.enlarge, n_points=cfg.roi_points,
            seed=roi_seed + index,
        )
        summaries.append({
            "box": _box_to_json(proposal.box),
            "score": proposal.score,
            "valid_count": pooled.valid_count,
        })
    _write_text(args.out, _json_text({
        "num_points": n,
        "num_gt_boxes": len(boxes),
        "num_proposals": len(proposals),
        "num_selected": len(selected),
        "roi_points": cfg.roi_points,
        "enlarge": cfg.enlarge,
        "feature_width": 3 + c_img + c_pt + c_out,
        "selected": summaries,
    }))
    return 0


def cmd_loss_eval(args) -> int:
    cfg = _resolve_run_config(args)
    try:
        fixture = json.loads(Path(args.fixture).read_text())
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.fixture}: {exc}") from None
    try:
        report = _evaluate_losses(fixture, cfg)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{args.fixture}: {exc}") from None
    _write_text(args.out, _json_text(report))
    return 0


def _evaluate_losses(fixture: dict, cfg: RunConfig) -> dict:
    focal_cfg = FocalConfig(
        alpha=fixture.get("alpha", cfg.focal_alpha),
        gamma=fixture.get("gamma", cfg.focal_gamma),
    )
    bin_cfg = cfg.bin_config()
    pred_box = _box_from_json(fixture["pred_box"], "pred_box")
    gt_box = _box_from_json(fixture["gt_box"], "gt_box")
    anchor_box = _box_from_json(fixture["anchor_box"], "anchor_box")
    target = encode_box_target(gt_box, anchor_box, bin_cfg)
    pred = RegressionPrediction(
        logits_x=np.asarray(fixture["logits_x"], dtype=np.float64),
        logits_z=np.asarray(fixture["logits_z"], dtype=np.float64),
        logits_yaw=np.asarray(fixture["logits_yaw"], dtype=np.float64),
        residuals=np.asarray(fixture["pred_residuals"], dtype=np.float64),
    )
    focal = focal_loss(float(fixture["focal_c_t"]), focal_cfg)
    terms = regression_terms(pred, target, pred_box, gt_box, bin_cfg)
    report = {
        "focal": focal,
        "cross_entropy": {"x": terms.ce_x, "z": terms.ce_z, "yaw": terms.ce_yaw},
        "smooth_l1_sum": terms.smooth_l1_sum,
        "iou_regularizer": terms.iou_regularizer,
        "regression": terms.total,
        "target_bins": {
            "x": target.bin_x, "z": target.bin_z, "yaw": target.bin_yaw,
        },
    }
    if "stages" in fixture:
        stages = fixture["stages"]
        report["total"] = total_loss(
            float(stages["rpn_cls"]), float(stages["rpn_reg"]),
            float(stages["rcnn_cls"]), float(stages["rcnn_reg"]),
        )
    return report


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="fuse3d",
        description="Desk-scale studies of the fusion detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a synthetic scene to disk")
    _add_scene_args(p)
    p.add_argument("--outdir", required=True,
                   help="directory for cloud.bin, attention.csv, boxes.json")
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser(
        "sample-study",
        help="mean AAD and foreground fraction across oversample factors",
    )
    _add_scene_args(p)
    p.add_argument("--cloud", help="point cloud .bin instead of a scene")
    p.add_argument("--attention", help="attention CSV for --cloud "
                                       "(uniform 0.5 when omitted)")
    p.add_argument("--n", type=int, default=256, help="sample size")
    p.add_argument("--seed-index", type=int, default=0, help="FPS start index")
    p.add_argument("--lambdas", type=_float_list, default=None,
                   help=f"comma-separated factors (default {_DEFAULT_LAMBDAS})")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_sample_study)

    p = sub.add_parser("gradcheck",
                       help="fusion backward vs finite differences")
    _add_run_config_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-points", type=int, default=4)
    p.add_argument("--max-channels", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--out", default="-", help="output JSON path ('-' = stdout)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("project", help="project a cloud into image space")
    p.add_argument("--cloud", required=True, help="point cloud .bin")
    p.add_argument("--calib", required=True, help="calibration text file")
    p.add_argument("--image-width", type=int, default=None)
    p.add_argument("--image-height", type=int, default=None)
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("roi-demo",
                       help="proposal selection and RoI pooling summary")
    _add_run_config_args(p)
    _add_scene_args(p)
    p.add_argument("--proposals-per-box", type=int, default=16)
    p.add_argument("--out", default="-", help="output JSON path ('-' = stdout)")
    p.set_defaults(func=cmd_roi_demo)

    p = sub.add_parser("loss-eval", help="evaluate loss terms on a fixture")
    _add_run_config_args(p)
    p.add_argument("--fixture", required=True, help="fixture JSON path")
    p.add_argument("--out", default="-", help="output JSON path ('-' = stdout)")
    p.set_defaults(func=cmd_loss_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command == "sample-study" and args.lambdas is None:
        args.lambdas = _float_list(_DEFAULT_LAMBDAS)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TruncatedFile, MissingKey, ParseError, OutOfRange, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
