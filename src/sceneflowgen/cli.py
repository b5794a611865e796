"""Command-line frontend: generate | derive | estimate | evaluate |
visualize | inspect.

`generate`, `derive` and `estimate` write a record of their run,
`config.<subcommand>.json`, next to their outputs, and `evaluate` does
when it writes a report (`--out`); `visualize` and `inspect` write none.
Each command's record has its own name, so `derive` in place keeps
`generate`'s and `evaluate` into `estimate`'s directory keeps
`estimate`'s. A record holds the subcommand, every argument as parsed,
defaults included, and the values the command resolved from them:
`generate`'s width, height, sensor width, focal length in pixels,
default disparity range and motion-boundary constants, and `derive`'s
output directory. A scene's own parameters are in the manifest's
`params`. Every file is written under a temporary name and renamed into
place (`pipeline.write_atomic`), so an interrupted run leaves no
half-written file. Every input is read by `formats.read`: a
command takes any file it decodes, what uses the array refuses a shape
it cannot take, and a decode error names the file. `estimate` writes
only .pfm and `visualize` only .ppm, so `--out` must have that suffix.

`main` sets the CLI's process policy before its command starts any
thread: every thread allocates from one glibc heap
(`_parallel._one_heap`), and, at the first call of a process that has
frozen nothing yet, `gc.freeze` moves every object alive then (those made
by the imports) out of the cyclic garbage collector's view, so no later
collection, and no collection at interpreter exit, scans them again.
Library callers keep their process's own policy.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import sys
from pathlib import Path

import numpy as np

from . import _parallel, formats, groundtruth, metrics, pipeline, viz
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


def _write_config_log(out_dir, args, **resolved):
    """Write config.<subcommand>.json: the subcommand, every parsed
    argument (defaults included) and the values the command resolved,
    which replace a parsed value of the same name."""
    config = dict(vars(args), subcommand=args.command, **resolved)
    del config["command"], config["func"]
    pipeline.write_atomic(
        Path(out_dir) / f"config.{args.command}.json",
        (json.dumps(config, sort_keys=True, indent=2) + "\n").encode())


def cmd_generate(args):
    w, h = _parse_size(args.size)
    common = dict(frames=args.frames, width=w, height=h,
                  focal_mm=args.focal_mm, baseline=args.baseline)
    if args.preset == "flyingthings":
        spec = generate_flyingthings_scene(args.seed, FlyingThingsParams(
            n_objects_range=_parse_range(args.n_objects),
            n_background=args.n_background, static=args.static, **common))
    else:
        spec = generate_driving_preset(args.seed, DrivingParams(**common))
    # like every command, logged once its outputs are whole; a partial
    # dataset is marked by its manifest
    pipeline.generate_dataset(spec, args.out)
    _write_config_log(
        args.out, args, width=w, height=h, sensor_width_mm=DEFAULT_SENSOR_MM,
        focal_px=spec.rig.intrinsics.focal_px,
        max_disp_default=DEFAULT_MAX_DISPARITY,
        motion_boundary_threshold_px=groundtruth.MOTION_DIFF_THRESHOLD_PX,
        motion_boundary_min_area_px=groundtruth.MIN_BOUNDARY_AREA_PX)
    print(f"wrote dataset {spec.name} to {args.out}")


def cmd_derive(args):
    """Recompute ground truth from the stored render passes of a dataset."""
    root = Path(args.dataset)
    out = Path(args.out or root)
    n_frames = pipeline.derive_dataset(root, out)
    _write_config_log(out, args, out=str(out))
    print(f"derived ground truth for {n_frames} frame(s)")


def _check_suffix(suffix, *outputs):
    for path in outputs:
        if path is not None and Path(path).suffix != suffix:
            raise ContractError(f"{path}: {suffix} data needs a {suffix} name")


def cmd_estimate(args):
    _check_suffix(".pfm", args.out, args.confidence_out)
    left, right = formats.read(args.left), formats.read(args.right)
    disp, confidence = estimate_disparity(left, right, max_disp=args.max_disp)
    out = Path(args.out)
    pipeline.write_atomic(out, formats.write_pfm(disp))
    if args.confidence_out:
        pipeline.write_atomic(args.confidence_out,
                              formats.write_pfm(confidence))
    _write_config_log(out.parent, args)
    print(f"wrote disparity to {out}")


def _float64(a):
    # a signalling NaN in the file widens to a quiet NaN, which is no error
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64)


_COLUMNS = {"all": "all", "non_occluded": "non-occluded"}


def _report(measures):
    """The table cell and the JSON of {"epe": report, "d1": report}: the
    EPE report with D1-all added, or the D1-all report alone. The pixel
    counts are EPE's where EPE was measured, so with both measures the
    JSON gives D1-all's own counts too, and it alone can weight D1-all by
    the pixels D1-all evaluated."""
    epe, d1 = measures.get("epe"), measures.get("d1")
    if epe is None or d1 is None:
        cell = epe or d1
        return cell, cell.to_dict()
    cell = dataclasses.replace(epe, d1_all=d1.d1_all)
    return cell, {**cell.to_dict(), "d1_valid_pixels": d1.valid_pixels,
                  "d1_evaluated_pixels": d1.evaluated_pixels}


def cmd_evaluate(args):
    n = len(args.pred)
    if n != len(args.gt):
        raise ContractError(
            f"{n} prediction(s) vs {len(args.gt)} ground-truth map(s)")
    if args.occlusion and (len(args.occlusion) != n
                           or not all(args.occlusion)):
        raise ContractError("need one occlusion mask per prediction")
    masks = _COLUMNS if args.occlusion else {"all": "all"}
    occlusions = args.occlusion or [None] * n

    cells = {}
    frames = []  # per frame: its paths and one report per mask
    digits = len(str(n - 1))  # so the table's sorted rows are in frame order
    # per mask and measure: each frame's report
    scored = {mask_name: {"epe": [], "d1": []} for mask_name in masks}
    for i, (pred_path, gt_path, occ_path) in enumerate(
            zip(args.pred, args.gt, occlusions)):
        pred, gt = (_float64(formats.read(p)) for p in (pred_path, gt_path))
        mask_of = {"all": None}
        if occ_path:
            mask_of["non_occluded"] = ~(formats.read(occ_path) > 0)
        frame = {"pred": str(pred_path), "gt": str(gt_path)}
        row = f"frame{i:0{digits}d}"
        for mask_name, mask in mask_of.items():
            measures = {}
            if args.metric in ("epe", "both"):
                measures["epe"] = metrics.epe_map(pred, gt, mask)[1]
            # D1-all is a disparity measure: asked for alone, flow maps are
            # an error; with "both" they get EPE only
            if args.metric == "d1all" or (args.metric == "both" and pred.ndim == 2):
                measures["d1"] = metrics.d1_all(pred, gt, mask)[1]
            for m, report in measures.items():
                scored[mask_name][m].append(report)
            cell, frame[mask_name] = _report(measures)
            cells[(row, masks[mask_name])] = cell
        frames.append(frame)

    aggregate_json = {}  # the all-pixel aggregate at the top level
    for mask_name, column in masks.items():
        agg = (aggregate_json if mask_name == "all"
               else aggregate_json.setdefault(mask_name, {}))
        for weighting in ("per-pixel", "per-frame"):
            # each measure aggregates its own reports, so D1-all is weighted
            # by the pixels D1-all evaluated, not by those EPE evaluated
            measures = {m: metrics.aggregate(reports, weighting)
                        for m, reports in scored[mask_name].items() if reports}
            cell, agg[weighting.replace("-", "_")] = _report(measures)
            cells[(f"aggregate/{weighting}", column)] = cell
    print(metrics.render_table(cells))

    if args.out:
        pipeline.write_atomic(args.out, json.dumps(
            {"frames": frames, "aggregate": aggregate_json},
            sort_keys=True, indent=2, allow_nan=False).encode())
        _write_config_log(Path(args.out).parent, args)


def cmd_visualize(args):
    _check_suffix(".ppm", args.out)
    data = _float64(formats.read(args.input))
    if data.ndim == 3 and data.shape[2] == 2:
        rgb = viz.flow_to_rgb(data, max_flow=args.max_flow)
    elif data.ndim == 2:
        rgb = viz.scalar_to_rgb(data, max_value=args.max_disp)
    else:
        raise ContractError(f"cannot visualize map of shape {data.shape}")
    out = Path(args.out)
    pipeline.write_atomic(out, formats.write_ppm(rgb))
    print(f"wrote {out}")


def cmd_inspect(args):
    path = Path(args.input)
    if path.name == "manifest.json" or path.is_dir():
        mpath = path / "manifest.json" if path.is_dir() else path
        m = formats.read_manifest(mpath.read_bytes())
        if m["complete"] is True:  # checked as derive checks it
            pipeline._derivable(m, mpath.parent)
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
    a = formats.read(path)
    if a.dtype.kind == "u":  # a PPM image or a PGM mask
        h, w = a.shape[:2]
        print(f"{path}: RGB {w}x{h}" if a.ndim == 3 else
              f"{path}: mask {w}x{h}, values {a.min()}..{a.max()}")
        return
    data = _float64(a)
    finite = data[np.isfinite(data)]
    print(f"{path}: shape {data.shape}")
    if finite.size:
        print(f"min {finite.min():.4g}  max {finite.max():.4g}  "
              f"mean {finite.mean():.4g}")
    print(f"nan fraction: {float(np.isnan(data).mean()):.4f}")


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
    g.add_argument("--n-objects", default="5..20", metavar="LO..HI",
                   help="range of the foreground object count "
                        "(flyingthings only)")
    g.add_argument("--n-background", type=int, default=200,
                   help="static background objects (flyingthings only)")
    g.add_argument("--static", action="store_true",
                   help="freeze all trajectories (debug scenes; "
                        "flyingthings only)")
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
    # the process policy, before the command starts any thread
    _parallel._one_heap()
    if not gc.get_freeze_count():  # the first call of the process
        gc.freeze()
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
