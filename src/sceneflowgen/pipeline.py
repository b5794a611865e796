"""Dataset production: render (or read back) every frame and view of a
scene, derive the ground-truth maps, and write everything plus the manifest
through the on-disk formats.

`generate_dataset` and `derive_dataset` share one loop. It goes view by
view and slides a window of frames t and t+1 over the frames, so at most
two views are held at once, whatever the frame count. Each file is written
under a temporary name and renamed into place, so an interrupted run
leaves whole files and a manifest marked incomplete."""

from __future__ import annotations

import functools
import os
import shutil
from pathlib import Path

import numpy as np

from . import formats, groundtruth
from .errors import ParseError
from .geometry import CameraIntrinsics, CameraPose, StereoRig
from .render import FramePasses, rasterize_frame
from .scene import SceneSpec

__all__ = ["generate_dataset", "derive_dataset", "load_frame_passes",
           "write_frame", "write_atomic"]

_VIEW_SUFFIX = {"left": "L", "right": "R"}
# pos3d_prev / pos3d_next exist only where the neighbouring frame does
_REQUIRED_PASSES = ("rgb", "depth", "pos3d_t", "object_index", "material_index")
_RENDER_PASSES = _REQUIRED_PASSES + ("pos3d_prev", "pos3d_next")


def _frame_name(t, view, ext):
    return f"{t:04d}_{_VIEW_SUFFIX[view]}.{ext}"


def _frames(passes_at, times, rig, out_root, scene, read_from=None):
    """Derive and write each (t, view), all left views first; calls
    passes_at(t, view) once for each and yields (t, view, pose, files).
    read_from(t, view), if given, names the files the passes came from
    (see `write_frame`)."""
    for view in _VIEW_SUFFIX:
        fp_next = None
        for t in times:
            fp = fp_next if fp_next is not None else passes_at(t, view)
            fp_next = passes_at(t + 1, view) if t + 1 in times else None
            gt = groundtruth.derive_frame(fp, rig, fp_next)
            files = write_frame(out_root / scene, scene, t, view, fp, gt,
                                read_from(t, view) if read_from else None)
            pose = fp.camera_pose
            del fp, gt  # only frame t+1 stays held while t+2 is produced
            yield t, view, pose, files


def generate_dataset(spec: SceneSpec, out_root) -> dict:
    """Render and derive the full dataset for one scene.

    Layout: {out_root}/{scene}/{pass}/{frame:04}_{L|R}.{ext} with the
    manifest at {out_root}/manifest.json. The manifest says
    ``"complete": false`` from before the first file is written until the
    last one is in place. Output bytes are a pure function of the scene
    spec. Returns the manifest.
    """
    out_root = Path(out_root)
    entries = {}

    def save_manifest(complete):
        manifest = {
            "dataset": spec.name,
            "seed": spec.seed,
            "params": spec.to_dict(),
            "rig": spec.rig.to_dict(),
            "frames": [entries[t] for t in sorted(entries)],
            "complete": complete,  # False marks a partial run
        }
        write_atomic(out_root / "manifest.json",
                     formats.write_manifest(manifest).encode())
        return manifest

    # first: a killed run (SIGKILL and SIGTERM run no clean-up) must not
    # leave an older dataset's complete manifest over its files
    out_root.mkdir(parents=True, exist_ok=True)
    save_manifest(False)
    try:
        for t, view, pose, files in _frames(
                functools.partial(rasterize_frame, spec),
                range(1, spec.frames + 1), spec.rig, out_root, spec.name):
            entry = entries.setdefault(t, {"time": t, "cameras": {}, "files": {}})
            entry["cameras"][view] = pose.to_dict()
            entry["files"][view] = files
    except BaseException:
        save_manifest(False)  # lists the files written so far
        raise
    return save_manifest(True)


def derive_dataset(dataset_root, out_root) -> int:
    """Re-derive ground truth from a dataset's stored render passes and
    write every file of each (frame, view) under {out_root}/{scene}/; no
    manifest is written. Every pass is decoded and checked, but a render
    pass is written as the bytes of the file it was read from: left as it
    is in place, copied elsewhere. Only the ground-truth maps are encoded.
    Returns the number of frames."""
    root = Path(dataset_root)
    manifest = formats.read_manifest((root / "manifest.json").read_bytes())
    times, rig = _derivable(manifest)

    def read_from(t, view):
        files = next(f for f in manifest["frames"] if f["time"] == t)["files"][view]
        return {name: (root / files[name]).resolve()
                for name in _RENDER_PASSES if name in files}

    for _ in _frames(functools.partial(load_frame_passes, root, manifest),
                     times, rig, Path(out_root), manifest["dataset"],
                     read_from):
        pass
    return len(times)


def _derivable(manifest):
    """Sorted frame times and the rig of a manifest, or ParseError unless
    it is complete and every frame has a distinct integer time, both
    cameras and all passes."""
    if manifest["complete"] is not True:
        raise ParseError("manifest is incomplete: its generate run did not "
                         "finish, so its files may be missing or stale")
    frames = manifest["frames"]
    times = sorted(f.get("time") for f in frames
                   if type(f.get("time")) is int)
    if not frames or len(set(times)) != len(frames):
        raise ParseError(f"manifest needs frames with distinct integer "
                         f"times, got {[f.get('time') for f in frames]}")
    try:
        for entry in frames:
            where = f"frame {entry['time']}"
            for view in _VIEW_SUFFIX:
                CameraPose.from_dict(entry["cameras"][view])
                missing = set(_REQUIRED_PASSES) - set(entry["files"][view])
                if missing:
                    raise ParseError(f"{where} {view}: no {sorted(missing)}")
        where = "rig"
        rig = StereoRig.from_dict({
            "left_pose": frames[0]["cameras"]["left"],
            "baseline": manifest["rig"]["baseline"],
            "intrinsics": manifest["rig"]["intrinsics"],
        })
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"manifest {where}: missing or malformed {e}") from None
    return times, rig


def write_frame(scene_dir, scene_name, t, view, fp, gt, read_from=None):
    """Write all passes of one (frame, view); returns pass -> relative path.

    read_from maps a render pass to the resolved path it was read from.
    Such a pass is never encoded: its output is that file's bytes, so it
    is not written when its output path resolves to that file, and copied
    there otherwise.
    """
    files = {}
    read_from = read_from or {}

    def put(pass_name, ext, encode, array):
        name = _frame_name(t, view, ext)
        path = scene_dir / pass_name / name
        files[pass_name] = f"{scene_name}/{pass_name}/{name}"
        source = read_from.get(pass_name)
        if source is not None and path.resolve() == source:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, encode(array) if source is None else source)

    def mask(a):
        return formats.write_pgm8(a.astype(np.uint8) * 255)

    put("rgb", "ppm", formats.write_ppm, fp.rgb)
    put("depth", "pfm", formats.write_pfm, fp.depth)
    put("pos3d_t", "pfm", formats.write_pfm, fp.pos3d_t)
    if fp.pos3d_prev is not None:
        put("pos3d_prev", "pfm", formats.write_pfm, fp.pos3d_prev)
    if fp.pos3d_next is not None:
        put("pos3d_next", "pfm", formats.write_pfm, fp.pos3d_next)
    put("object_index", "pgm", formats.write_pgm16, fp.object_index)
    # each object has one texture, so its material index is its object
    # index; the pass is kept for the dataset layout
    put("material_index", "pgm", formats.write_pgm16, fp.object_index)

    put("disparity", "pfm", formats.write_pfm, gt.disparity)
    if gt.flow_fwd is not None:
        put("flow_fwd", "flo", formats.write_flo, gt.flow_fwd)
        put("dispchange_fwd", "pfm", formats.write_pfm, gt.dispchange_fwd)
        put("motion_boundaries", "pgm", mask, gt.motion_boundaries)
    if gt.flow_bwd is not None:
        put("flow_bwd", "flo", formats.write_flo, gt.flow_bwd)
        put("dispchange_bwd", "pfm", formats.write_pfm, gt.dispchange_bwd)
    if gt.occlusion_fwd is not None:
        put("occlusion_fwd", "pgm", mask, gt.occlusion_fwd)
    return files


def write_atomic(path, payload: bytes | Path):
    """path holds either its old content or all of payload, never part:
    payload, bytes or the file at a Path (copied, not linked, so path
    shares no inode with it), goes to a hidden temporary name beside path,
    then is renamed over it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(payload, Path):
            shutil.copyfile(payload, tmp)
        else:
            tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_frame_passes(dataset_root, manifest, t, view):
    """The `FramePasses` of one (frame, view), read from files on disk.

    Every pass listed for the view is decoded and its shape checked: (H, W)
    for depth and the index passes, (H, W, 3) for RGB and positions. The
    material pass, a copy of the object pass, is then dropped. Depth and
    positions stay float32, as stored, one copy of the file bytes;
    `groundtruth` widens them band by band.
    """
    root = Path(dataset_root)
    entry = next((f for f in manifest["frames"] if f["time"] == t), None)
    if entry is None:
        raise ParseError(f"frame {t} not present in manifest")
    files = entry["files"][view]
    intr = CameraIntrinsics.from_dict(manifest["rig"]["intrinsics"])

    def read(name, reader=formats.read_pfm, channels=()):
        if name not in files:
            return None
        a = reader((root / files[name]).read_bytes())
        shape = (intr.height, intr.width) + channels
        if a.shape != shape:
            raise ParseError(f"{files[name]}: shape {a.shape}, the "
                             f"{intr.width}x{intr.height} rig needs {shape}")
        return a

    frames = manifest["frames"]

    def pose_at(time):
        e = next((f for f in frames if f["time"] == time), None)
        return CameraPose.from_dict(e["cameras"][view]) if e else None

    read("material_index", formats.read_pgm16)  # checked, then dropped
    return FramePasses(  # the passes in field order
        read("rgb", formats.read_ppm, (3,)), read("depth"),
        read("pos3d_t", channels=(3,)), read("pos3d_prev", channels=(3,)),
        read("pos3d_next", channels=(3,)),
        read("object_index", formats.read_pgm16),
        view=view,
        frame_time=t,
        camera_pose=CameraPose.from_dict(entry["cameras"][view]),
        camera_pose_prev=pose_at(t - 1),
        camera_pose_next=pose_at(t + 1),
        intrinsics=intr,
    )
