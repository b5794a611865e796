"""Command-line frontend: generate | derive | estimate | evaluate |
visualize | inspect.

Every run writes its fully resolved configuration (defaults included)
next to its outputs. Every file is written under a temporary name and
renamed into place (`pipeline.write_atomic`), so an interrupted run
leaves no half-written file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import formats, groundtruth, metrics, pipeline, viz
from .errors import ContractError, ParseError, SceneFlowError
from .match import DEFAULT_MAX_DISPARITY, estimate_disparity
from .scene import (
    DEFAULT_BASELINE, DEFAULT_FOCAL_MM, DEFAULT_HEIGHT, DEFAULT_SENSOR_MM,
    DEFAULT_WIDTH, DrivingParams, FlyingThingsParams,
    generate_driving_preset, generate_flyingthings_scene,
)


def _parse_size(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError:
        raise ContractError(f"--size expects WxH, got {text!r}") from None


def _parse_range(text):
    try:
        lo, hi = (int(x) for x in text.split(".."))
        return lo, hi
    except ValueError:
        raise ContractError(f"--n-objects expects LO..HI, got {text!r}") from None


def _write_config_log(out_dir, config):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pipeline.write_atomic(
        out_dir / "config.json",
        (json.dumps(config, sort_keys=True, indent=2) + "\n").encode())


def cmd_generate(args):
    w, h = _parse_size(args.size)
    if args.preset == "flyingthings":
        params = FlyingThingsParams(
            n_objects_range=_parse_range(args.n_objects),
            n_background=args.n_background,
            frames=args.frames, width=w, height=h,
            focal_mm=args.focal_mm, baseline=args.baseline,
            static=args.static,
        )
        spec = generate_flyingthings_scene(args.seed, params)
    else:
        params = DrivingParams(
            focal_mm=args.focal_mm, frames=args.frames, width=w, height=h,
            baseline=args.baseline,
        )
        spec = generate_driving_preset(args.seed, params)

    config = {
        "subcommand": "generate",
        "preset": args.preset,
        "seed": args.seed,
        "frames": args.frames,
        "width": w,
        "height": h,
        "focal_mm": args.focal_mm,
        "sensor_width_mm": DEFAULT_SENSOR_MM,
        "focal_px": spec.rig.intrinsics.focal_px,
        "baseline": args.baseline,
        "n_background": args.n_background,
        "n_objects": args.n_objects,
        "static": args.static,
        "max_disp_default": DEFAULT_MAX_DISPARITY,
        "motion_boundary_threshold_px": groundtruth.MOTION_DIFF_THRESHOLD_PX,
        "motion_boundary_min_area_px": groundtruth.MIN_BOUNDARY_AREA_PX,
        "out": str(args.out),
    }
    # like every command, logged once its outputs are whole; a partial
    # dataset is marked by its manifest
    pipeline.generate_dataset(spec, args.out)
    _write_config_log(args.out, config)
    print(f"wrote dataset {spec.name} to {args.out}")


def cmd_derive(args):
    """Recompute ground truth from the stored render passes of a dataset."""
    root = Path(args.dataset)
    out = Path(args.out or root)
    n_frames = pipeline.derive_dataset(root, out)
    _write_config_log(out, {"subcommand": "derive", "dataset": str(root),
                            "out": str(out)})
    print(f"derived ground truth for {n_frames} frame(s)")


def _load_image(path):
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".ppm":
        return formats.read_ppm(data)
    if path.suffix == ".pgm":
        return formats.read_pgm8(data)
    raise ContractError(f"unsupported image format: {path}")


def cmd_estimate(args):
    left = _load_image(args.left)
    right = _load_image(args.right)
    if left.shape[:2] != right.shape[:2]:
        raise ContractError(
            f"image sizes differ: {left.shape[:2]} vs {right.shape[:2]}"
        )
    disp, confidence = estimate_disparity(left, right, max_disp=args.max_disp)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_atomic(out, formats.write_pfm(disp))
    if args.confidence_out:
        pipeline.write_atomic(args.confidence_out,
                              formats.write_pfm(confidence))
    _write_config_log(out.parent, {
        "subcommand": "estimate", "left": str(args.left),
        "right": str(args.right), "max_disp": args.max_disp,
        "out": str(out),
    })
    print(f"wrote disparity to {out}")


def _load_map(path):
    path = Path(path)
    data = path.read_bytes()
    if path.suffix == ".flo":
        return formats.read_flo(data).astype(np.float64)
    if path.suffix == ".pfm":
        return formats.read_pfm(data).astype(np.float64)
    raise ContractError(f"unsupported map format: {path}")


_COLUMNS = {"all": "all", "non_occluded": "non-occluded"}


def _merge(measures):
    """One report from {"epe": report, "d1": report}: the EPE report with
    D1-all added, or the D1-all report alone."""
    if "epe" not in measures:
        return measures["d1"]
    report = dataclasses.replace(measures["epe"])
    if "d1" in measures:
        report.d1_all = measures["d1"].d1_all
    return report


def cmd_evaluate(args):
    if len(args.pred) != len(args.gt):
        raise ContractError(
            f"{len(args.pred)} prediction(s) vs {len(args.gt)} ground-truth map(s)"
        )
    occlusions = args.occlusion or [None] * len(args.pred)
    if len(occlusions) != len(args.pred):
        raise ContractError("need one occlusion mask per prediction")

    frames = []  # per frame: paths, and {"epe": report, "d1": report} per mask
    for pred_path, gt_path, occ_path in zip(args.pred, args.gt, occlusions):
        pred = _load_map(pred_path)
        gt = _load_map(gt_path)
        masks = {"all": None}
        if occ_path:
            occ = formats.read_pgm8(Path(occ_path).read_bytes()) > 0
            masks["non_occluded"] = ~occ
        frame = {"pred": str(pred_path), "gt": str(gt_path)}
        for mask_name, mask in masks.items():
            measures = frame[mask_name] = {}
            if args.metric in ("epe", "both"):
                measures["epe"] = metrics.epe_map(pred, gt, mask)[1]
            # D1-all is a disparity measure: asked for alone, flow maps are
            # an error; with "both" they get EPE only
            if args.metric == "d1all" or (args.metric == "both" and pred.ndim == 2):
                measures["d1"] = metrics.d1_all(pred, gt, mask)[1]
        frames.append(frame)

    def aggregate(mask_name, weighting):
        reports = [f[mask_name] for f in frames if mask_name in f]
        # each measure aggregates its own reports, so D1-all is weighted by
        # the pixels D1-all evaluated, not by those EPE evaluated
        return _merge({
            m: metrics.aggregate([r[m] for r in reports if m in r], weighting)
            for m in ("epe", "d1") if any(m in r for r in reports)
        })

    cells = {}
    aggregate_json = {}  # the all-pixel aggregate at the top level
    for mask_name, column in _COLUMNS.items():
        if not any(mask_name in f for f in frames):
            continue
        for i, f in enumerate(frames):
            if mask_name in f:
                cells[(f"frame{i}", column)] = _merge(f[mask_name])
        agg = {}
        for weighting in ("per-pixel", "per-frame"):
            report = aggregate(mask_name, weighting)
            cells[(f"aggregate/{weighting}", column)] = report
            agg[weighting.replace("-", "_")] = report.to_dict()
        if mask_name == "all":
            aggregate_json.update(agg)
        else:
            aggregate_json[mask_name] = agg
    print(metrics.render_table(cells))

    report_json = {
        "frames": [
            {k: (v if isinstance(v, str) else _merge(v).to_dict())
             for k, v in f.items()}
            for f in frames
        ],
        "aggregate": aggregate_json,
    }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        pipeline.write_atomic(
            args.out, json.dumps(report_json, sort_keys=True, indent=2).encode())
        _write_config_log(Path(args.out).parent, {
            "subcommand": "evaluate", "metric": args.metric,
            "pred": [str(p) for p in args.pred], "gt": [str(g) for g in args.gt],
        })


def cmd_visualize(args):
    path = Path(args.input)
    data = _load_map(path)
    if data.ndim == 3 and data.shape[2] == 2:
        rgb = viz.flow_to_rgb(data, max_flow=args.max_flow)
    elif data.ndim == 2:
        rgb = viz.scalar_to_rgb(data, max_value=args.max_disp)
    else:
        raise ContractError(f"cannot visualize map of shape {data.shape}")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    pipeline.write_atomic(out, formats.write_ppm(rgb))
    print(f"wrote {out}")


def cmd_inspect(args):
    path = Path(args.input)
    if path.name == "manifest.json" or path.is_dir():
        mpath = path / "manifest.json" if path.is_dir() else path
        m = formats.read_manifest(mpath.read_bytes())
        try:
            n_files = sum(len(v) for f in m["frames"]
                          for v in f["files"].values())
            intr = m["rig"]["intrinsics"]
            summary = [
                f"dataset: {m['dataset']}",
                f"seed: {m['seed']}",
                f"frames: {len(m['frames'])}",
                f"complete: {m['complete']}",
                f"files: {n_files}",
                f"resolution: {intr['width']}x{intr['height']}",
                f"baseline: {m['rig']['baseline']}",
            ]
        except (KeyError, TypeError) as e:
            raise ParseError(f"manifest: missing or malformed {e}") from None
        print("\n".join(summary))
        return
    if path.suffix in (".pfm", ".flo"):
        data = _load_map(path)
        finite = data[np.isfinite(data)]
        print(f"{path}: shape {data.shape}")
        if finite.size:
            print(f"min {finite.min():.4g}  max {finite.max():.4g}  "
                  f"mean {finite.mean():.4g}")
        print(f"nan fraction: {float(np.isnan(data).mean()):.4f}")
    elif path.suffix == ".ppm":
        img = formats.read_ppm(path.read_bytes())
        print(f"{path}: RGB {img.shape[1]}x{img.shape[0]}")
    elif path.suffix == ".pgm":
        try:
            img = formats.read_pgm16(path.read_bytes())
        except SceneFlowError:
            img = formats.read_pgm8(path.read_bytes())
        print(f"{path}: mask {img.shape[1]}x{img.shape[0]}, "
              f"values {img.min()}..{img.max()}")
    else:
        raise ContractError(f"don't know how to inspect {path}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="sfgen",
        description="Procedural stereo scenes with dense scene-flow ground truth",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate and render a dataset")
    g.add_argument("--preset", choices=("flyingthings", "driving"),
                   default="flyingthings")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--frames", type=int, default=10)
    g.add_argument("--size", default=f"{DEFAULT_WIDTH}x{DEFAULT_HEIGHT}")
    g.add_argument("--focal-mm", type=float, default=DEFAULT_FOCAL_MM)
    g.add_argument("--baseline", type=float, default=DEFAULT_BASELINE)
    g.add_argument("--n-objects", default="5..20", metavar="LO..HI")
    g.add_argument("--n-background", type=int, default=200)
    g.add_argument("--static", action="store_true",
                   help="freeze all trajectories (debug scenes)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    d = sub.add_parser("derive", help="re-derive ground truth from render passes")
    d.add_argument("dataset")
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_derive)

    e = sub.add_parser("estimate", help="block-matcher disparity estimation")
    e.add_argument("left")
    e.add_argument("right")
    e.add_argument("--max-disp", type=int, default=DEFAULT_MAX_DISPARITY)
    e.add_argument("--out", required=True)
    e.add_argument("--confidence-out", default=None)
    e.set_defaults(func=cmd_estimate)

    v = sub.add_parser("evaluate", help="EPE / D1-all metrics")
    v.add_argument("--pred", nargs="+", required=True)
    v.add_argument("--gt", nargs="+", required=True)
    v.add_argument("--occlusion", nargs="+", default=None)
    v.add_argument("--metric", choices=("epe", "d1all", "both"), default="both")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_evaluate)

    z = sub.add_parser("visualize", help="color renderings of flow/disparity")
    z.add_argument("input")
    z.add_argument("--out", required=True)
    z.add_argument("--max-flow", type=float, default=None)
    z.add_argument("--max-disp", type=float, default=None)
    z.set_defaults(func=cmd_visualize)

    i = sub.add_parser("inspect", help="summarize a dataset or a single map")
    i.add_argument("input")
    i.set_defaults(func=cmd_inspect)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except SceneFlowError as e:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error [io]: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
