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
import math
import re
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, field_parsers, load_config, subsystem_seed
from .errors import ParseError
from .fusion import AAFInput, aaf_forward, init_params, run_gradcheck
from .geometry import Box3D, in_image_bounds, iou_bev, project_points
from .kitti_io import _point_records, read_calib, read_point_cloud_bin
from .losses import (
    _TERM_NAMES,
    FocalConfig,
    RegressionPrediction,
    encode_box_target,
    focal_loss,
    regression_terms,
    total_loss,
)
from .numerics import _count, _real
from .roi import Proposal, roi_pooled_fusion, select_proposals
from .sampling import aad, hybrid_sweep
from .scene import SyntheticSceneSpec, generate_scene

_DEFAULT_LAMBDAS = "1.0,1.2,1.4,1.6,2.0"
_SCENE_HELP = "scene {name} (default {default})"


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern misses exponents, inf and nan, so
        # "--eps -1e-5" or "--eps -inf" would read the value as an
        # unknown option instead of a value
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf(inity)?|nan)$",
            re.IGNORECASE)


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
    return {**dataclasses.asdict(box), "center": box.center.tolist()}


_BOX_KEYS = tuple(f.name for f in dataclasses.fields(Box3D))


def _refuse_unread(obj, keys, where: str = "", hints=None) -> None:
    """Refuse ``obj`` unless it is a JSON object whose every key is in ``keys``.
    Called before any value is read, it names a misspelled key as written."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where}expected a JSON object")
    for key in obj:
        if key not in keys:
            hint = (hints or {}).get(key, "")
            raise ValueError(f"{where}key {key!r} is not read{hint}")


def _box_from_json(obj, name: str) -> Box3D:
    try:
        _refuse_unread(obj, _BOX_KEYS)
        return Box3D(*(obj[key] for key in _BOX_KEYS))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad box {name!r}: {exc}") from None


def _float_list(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of numbers, got {raw!r}"
        ) from None


def _flag(prefix: str, name: str) -> str:
    # the scene's seed is --scene-seed, apart from the config key --seed
    name = "scene_seed" if (prefix, name) == ("scene", "seed") else name
    return "--" + name.replace("_", "-")


def _add_flags(parser, cls, prefix, help, names=None, metavar=None) -> None:
    """A flag per field of ``cls`` in ``names`` (default all), parsed as in a
    config file; ``help`` is formatted with the field's name and default."""
    parsers, defaults = field_parsers(cls), cls()
    for name in names or parsers:
        parser.add_argument(
            _flag(prefix, name), dest=f"{prefix}_{name}", type=parsers[name],
            metavar=metavar, default=None,
            help=help.format(name=name, default=getattr(defaults, name)))


def _add_run_config_args(parser, keys) -> None:
    """``--config`` plus one override flag per config key the command reads."""
    parser.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    _add_flags(parser, RunConfig, "cfg", "override config key {name}", keys, "VALUE")


def _flag_values(args, cls, prefix: str) -> dict:
    """The ``cls`` fields given on the command line, in field order."""
    given = {name: getattr(args, f"{prefix}_{name}", None)
             for name in field_parsers(cls)}
    return {name: value for name, value in given.items() if value is not None}


def _with_flags(args, base, prefix: str):
    return dataclasses.replace(base, **_flag_values(args, type(base), prefix))


def _resolve_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return _with_flags(args, cfg, "cfg")


def _read_attention_csv(path) -> np.ndarray:
    """Read scores from an 'index,score' CSV as written by gen-scene.

    Data row k (from 0) must hold index k, so score k is point k's.
    """
    scores = []
    first = True
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh), 1):
            if not row:
                continue
            # the header may only be the first non-blank row
            if first and row == ["index", "score"]:
                first = False
                continue
            first = False
            if len(row) != 2:
                raise ParseError(f"{path}:{row_no}: expected 2 fields "
                                 f"(index,score), got {len(row)}")
            try:
                index, score = int(row[0]), float(row[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{row_no}: {exc}") from None
            if index != len(scores):
                raise ParseError(
                    f"{path}:{row_no}: index {row[0]!r}, expected {len(scores)}"
                )
            # phrased so that NaN, which fails every comparison, is rejected
            if not 0.0 < score < 1.0:
                raise ParseError(
                    f"{path}:{row_no}: attention score {row[1]!r} must lie "
                    "strictly in (0, 1)"
                )
            scores.append(score)
    return np.asarray(scores)


def cmd_gen_scene(args) -> int:
    spec = _with_flags(args, SyntheticSceneSpec(), "scene")
    cloud, attention, boxes = generate_scene(spec)
    outdir = Path(args.outdir)
    # encoded first, so a cloud beyond float32 leaves no directory behind
    records = _point_records(cloud, outdir / "cloud.bin")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "cloud.bin").write_bytes(records)
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
    if args.attention is not None and args.cloud is None:
        raise ValueError("--attention needs --cloud")
    if args.cloud:
        scene_flags = _flag_values(args, SyntheticSceneSpec, "scene")
        if scene_flags:
            flags = ", ".join(_flag("scene", name) for name in scene_flags)
            raise ValueError(
                f"{flags} set a synthetic scene and cannot go with --cloud")
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
    spec = _with_flags(args, SyntheticSceneSpec(), "scene")
    cloud, attention, _ = generate_scene(spec)
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
    tolerance = _real(args.tolerance, "tolerance", 0.0, interval="(0, inf)")
    report = run_gradcheck(
        seed=subsystem_seed(cfg.seed, "params"),
        trials=args.trials,
        max_points=args.max_points,
        max_channels=args.max_channels,
        eps=args.eps,
    )
    report["tolerance"] = tolerance
    report["pass"] = bool(report["max_relative_error"] < tolerance)
    _write_text(args.out, _json_text(report))
    return 0


def cmd_project(args) -> int:
    if (args.image_width is None) != (args.image_height is None):
        raise ValueError("--image-width and --image-height go together")
    if args.image_width is not None:
        for name in ("image_width", "image_height"):
            _count(getattr(args, name), name, 1)
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
    _count(args.proposals_per_box, "proposals_per_box", 1)
    spec = _with_flags(args, SyntheticSceneSpec(), "scene")
    cloud, _, boxes = generate_scene(spec)
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


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def cmd_loss_eval(args) -> int:
    cfg = _resolve_run_config(args)
    try:
        # json reads NaN, Infinity and overflowing literals as floats;
        # its JSONDecodeError is a ValueError
        fixture = json.loads(Path(args.fixture).read_text(),
                             parse_float=_finite_float,
                             parse_constant=_finite_float)
        report = _evaluate_losses(fixture, cfg)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{args.fixture}: {exc}") from None
    _write_text(args.out, _json_text(report))
    return 0


# The keys a loss-eval fixture may hold at its top level.
_FIXTURE_KEYS = ("focal_c_t", "pred_box", "gt_box", "anchor_box", "logits_x",
                 "logits_z", "logits_yaw", "pred_residuals", "stages")
_FOCAL_HINTS = {key: f"; set it with --focal-{key} or focal_{key} in --config"
                for key in ("alpha", "gamma")}


def _evaluate_losses(fixture: dict, cfg: RunConfig) -> dict:
    _refuse_unread(fixture, _FIXTURE_KEYS, hints=_FOCAL_HINTS)
    focal_cfg = FocalConfig(alpha=cfg.focal_alpha, gamma=cfg.focal_gamma)
    bin_cfg = cfg.bin_config()
    pred_box = _box_from_json(fixture["pred_box"], "pred_box")
    gt_box = _box_from_json(fixture["gt_box"], "gt_box")
    anchor_box = _box_from_json(fixture["anchor_box"], "anchor_box")
    target = encode_box_target(gt_box, anchor_box, bin_cfg)
    pred = RegressionPrediction(fixture["logits_x"], fixture["logits_z"],
                                fixture["logits_yaw"], fixture["pred_residuals"])
    focal = focal_loss(fixture["focal_c_t"], focal_cfg)
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
        _refuse_unread(stages, _TERM_NAMES, "stages ")
        report["total"] = total_loss(*(stages[key] for key in _TERM_NAMES))
    return report


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="fuse3d",
        description="Desk-scale studies of the fusion detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="write a synthetic scene to disk")
    _add_flags(p, SyntheticSceneSpec, "scene", _SCENE_HELP)
    p.add_argument("--outdir", required=True,
                   help="directory for cloud.bin, attention.csv, boxes.json")
    p.set_defaults(func=cmd_gen_scene)

    p = sub.add_parser(
        "sample-study",
        help="mean AAD and foreground fraction across oversample factors",
    )
    _add_flags(p, SyntheticSceneSpec, "scene", _SCENE_HELP)
    p.add_argument("--cloud", help="point cloud .bin instead of a scene")
    p.add_argument("--attention", help="attention CSV for --cloud "
                                       "(uniform 0.5 when omitted)")
    p.add_argument("--n", type=int, default=256, help="sample size")
    p.add_argument("--seed-index", type=int, default=0, help="FPS start index")
    p.add_argument("--lambdas", type=_float_list, default=_DEFAULT_LAMBDAS,
                   help="comma-separated factors (default %(default)s)")
    p.add_argument("--out", default="-", help="output CSV path ('-' = stdout)")
    p.set_defaults(func=cmd_sample_study)

    p = sub.add_parser("gradcheck",
                       help="fusion backward vs finite differences")
    _add_run_config_args(p, ("seed",))
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
    _add_run_config_args(p, ("seed", "nms_threshold", "pre_nms_top",
                             "proposals_keep", "enlarge", "roi_points"))
    _add_flags(p, SyntheticSceneSpec, "scene", _SCENE_HELP)
    p.add_argument("--proposals-per-box", type=int, default=16)
    p.add_argument("--out", default="-", help="output JSON path ('-' = stdout)")
    p.set_defaults(func=cmd_roi_demo)

    p = sub.add_parser("loss-eval", help="evaluate loss terms on a fixture")
    _add_run_config_args(p, ("focal_alpha", "focal_gamma", "bin_half_range",
                             "bin_count_xz", "bin_count_yaw"))
    p.add_argument("--fixture", required=True, help="fixture JSON path")
    p.add_argument("--out", default="-", help="output JSON path ('-' = stdout)")
    p.set_defaults(func=cmd_loss_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; ours is 1
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
