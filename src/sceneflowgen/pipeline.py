"""Dataset production: render every frame and view of a scene, derive the
ground-truth maps, and write everything plus the manifest through the
on-disk formats."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import formats, groundtruth
from .errors import SceneFlowError
from .render import render_sequence
from .scene import SceneSpec

__all__ = ["generate_dataset", "load_frame_passes"]

_VIEW_SUFFIX = {"left": "L", "right": "R"}


def _frame_name(t, view, ext):
    return f"{t:04d}_{_VIEW_SUFFIX[view]}.{ext}"


def generate_dataset(spec: SceneSpec, out_root, max_workers=1) -> dict:
    """Render and derive the full dataset for one scene.

    Layout: {out_root}/{scene}/{pass}/{frame:04}_{L|R}.{ext} with the
    manifest at {out_root}/manifest.json. Output bytes are a pure function
    of the scene spec, independent of max_workers. Returns the manifest.
    """
    out_root = Path(out_root)
    scene_dir = out_root / spec.name
    frame_entries = []
    complete = False
    try:
        passes = _render_all(spec, max_workers)
        for t in range(1, spec.frames + 1):
            entry = {"time": t, "cameras": {}, "files": {}}
            for view in ("left", "right"):
                fp = passes[(t, view)]
                entry["cameras"][view] = fp.camera_pose.to_dict()
                fp_next = passes.get((t + 1, view))
                gt = groundtruth.derive_frame(fp, spec.rig, fp_next)
                files = _write_frame(scene_dir, spec.name, t, view, fp, gt)
                entry["files"][view] = files
            frame_entries.append(entry)
        complete = True
    finally:
        manifest = {
            "dataset": spec.name,
            "seed": spec.seed,
            "params": spec.to_dict(),
            "rig": spec.rig.to_dict(),
            "frames": frame_entries,
            "complete": complete,  # False marks a partial run
        }
        out_root.mkdir(parents=True, exist_ok=True)
        (out_root / "manifest.json").write_text(formats.write_manifest(manifest))
    return manifest


def _render_all(spec, max_workers):
    return {(fp.frame_time, fp.view): fp
            for fp in render_sequence(spec, max_workers=max_workers)}


def _write_frame(scene_dir, scene_name, t, view, fp, gt):
    """Write all passes of one (frame, view); returns pass -> relative path."""
    files = {}

    def put(pass_name, ext, payload):
        rel = f"{scene_name}/{pass_name}/{_frame_name(t, view, ext)}"
        path = scene_dir / pass_name / _frame_name(t, view, ext)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        files[pass_name] = rel

    put("rgb", "ppm", formats.write_ppm(fp.rgb))
    put("depth", "pfm", formats.write_pfm(np.float32(fp.depth)))
    put("pos3d_t", "pfm", formats.write_pfm(np.float32(fp.pos3d_t)))
    if fp.pos3d_prev is not None:
        put("pos3d_prev", "pfm", formats.write_pfm(np.float32(fp.pos3d_prev)))
    if fp.pos3d_next is not None:
        put("pos3d_next", "pfm", formats.write_pfm(np.float32(fp.pos3d_next)))
    put("object_index", "pgm", formats.write_pgm16(fp.object_index))
    put("material_index", "pgm", formats.write_pgm16(fp.material_index))

    put("disparity", "pfm", formats.write_pfm(np.float32(gt.disparity)))
    if gt.flow_fwd is not None:
        put("flow_fwd", "flo", formats.write_flo(np.float32(gt.flow_fwd)))
        put("dispchange_fwd", "pfm", formats.write_pfm(np.float32(gt.dispchange_fwd)))
        put("motion_boundaries", "pgm",
            formats.write_pgm8(gt.motion_boundaries.astype(np.uint8) * 255))
    if gt.flow_bwd is not None:
        put("flow_bwd", "flo", formats.write_flo(np.float32(gt.flow_bwd)))
        put("dispchange_bwd", "pfm", formats.write_pfm(np.float32(gt.dispchange_bwd)))
    if gt.occlusion_fwd is not None:
        put("occlusion_fwd", "pgm",
            formats.write_pgm8(gt.occlusion_fwd.astype(np.uint8) * 255))
    return files


def load_frame_passes(dataset_root, manifest, t, view):
    """Rebuild a renderer-style pass bundle from files on disk.

    Returns a lightweight object with the arrays and camera poses needed
    by the ground-truth derivations.
    """
    from .geometry import CameraIntrinsics, CameraPose
    from .render import FramePasses

    root = Path(dataset_root)
    entry = next((f for f in manifest["frames"] if f["time"] == t), None)
    if entry is None:
        raise SceneFlowError(f"frame {t} not present in manifest")
    files = entry["files"][view]

    def get_pfm(name):
        if name not in files:
            return None
        return np.float64(formats.read_pfm((root / files[name]).read_bytes()))

    intr = CameraIntrinsics.from_dict(manifest["rig"]["intrinsics"])
    frames = manifest["frames"]

    def pose_at(time):
        e = next((f for f in frames if f["time"] == time), None)
        return CameraPose.from_dict(e["cameras"][view]) if e else None

    return FramePasses(
        rgb=formats.read_ppm((root / files["rgb"]).read_bytes()),
        depth=get_pfm("depth"),
        pos3d_t=get_pfm("pos3d_t"),
        pos3d_prev=get_pfm("pos3d_prev"),
        pos3d_next=get_pfm("pos3d_next"),
        object_index=formats.read_pgm16((root / files["object_index"]).read_bytes()),
        material_index=formats.read_pgm16((root / files["material_index"]).read_bytes()),
        view=view,
        frame_time=t,
        camera_pose=CameraPose.from_dict(entry["cameras"][view]),
        camera_pose_prev=pose_at(t - 1),
        camera_pose_next=pose_at(t + 1),
        intrinsics=intr,
    )
