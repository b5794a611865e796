"""Dataset production: render (or read back) every frame and view of a
scene, derive the ground-truth maps, and write everything plus the manifest
through the on-disk formats.

`generate_dataset` and `derive_dataset` share one loop. It goes view by
view and slides a window of frames t and t+1 over the frames, so at most
two views are held at once, whatever the frame count. Within one (frame,
view) the passes are decoded, the ground truth derived and the files
written on the thread map of `_parallel`, one unit per file or row band;
only two whole-frame steps of `groundtruth` (see there) run on one
thread. Each file is written under a temporary name and renamed into
place, so an interrupted run leaves whole files, none of a later (frame,
view), and a manifest marked incomplete.

A view's passes are its pixels and its camera is the rig's: `derive`
reads the manifest once (`_derivable`), for the rig, the poses it checks
and the render-pass files each view is read from and written against."""

from __future__ import annotations

import functools
import os
import shutil
from pathlib import Path

import numpy as np

from . import formats, groundtruth
from ._parallel import map_ordered
from .errors import ParseError
from .geometry import CameraPose, StereoRig
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
    passes_at(t, view) once for each and yields (t, view, files).
    read_from[t, view], if given, names the files the passes came from
    (see `write_frame`)."""
    for view in _VIEW_SUFFIX:
        fp_next = None
        for t in times:
            fp = fp_next if fp_next is not None else passes_at(t, view)
            fp_next = passes_at(t + 1, view) if t + 1 in times else None
            gt = groundtruth.derive_frame(fp, rig, fp_next)
            files = write_frame(out_root / scene, scene, t, view, fp, gt,
                                read_from[t, view] if read_from else None)
            del fp, gt  # only frame t+1 stays held while t+2 is produced
            yield t, view, files


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
        for t, view, files in _frames(
                functools.partial(rasterize_frame, spec),
                range(1, spec.frames + 1), spec.rig, out_root, spec.name):
            entry = entries.setdefault(t, {"time": t, "cameras": {}, "files": {}})
            entry["cameras"][view] = spec.camera_pose(t, view).to_dict()
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
    times, rig, paths = _derivable(manifest, root)
    for _ in _frames(
            lambda t, view: load_frame_passes(paths[t, view], t, rig.intrinsics),
            times, rig, Path(out_root), manifest["dataset"], paths):
        pass
    return len(times)


def _derivable(manifest, root):
    """Sorted frame times, the rig and {(t, view): {render pass: resolved
    path under root}} of a manifest, or ParseError unless it is complete
    and every frame has a distinct integer time, both cameras (each pose
    built once, to check it) and all passes."""
    if manifest["complete"] is not True:
        raise ParseError("manifest is incomplete: its generate run did not "
                         "finish, so its files may be missing or stale")
    frames = manifest["frames"]
    times = sorted(f.get("time") for f in frames
                   if type(f.get("time")) is int)
    if not frames or len(set(times)) != len(frames):
        raise ParseError(f"manifest needs frames with distinct integer "
                         f"times, got {[f.get('time') for f in frames]}")
    paths = {}
    try:
        for entry in frames:
            where = f"frame {entry['time']}"
            for view in _VIEW_SUFFIX:
                CameraPose.from_dict(entry["cameras"][view])
                files = entry["files"][view]
                missing = set(_REQUIRED_PASSES) - set(files)
                if missing:
                    raise ParseError(f"{where} {view}: no {sorted(missing)}")
                paths[entry["time"], view] = {
                    name: (root / files[name]).resolve()
                    for name in _RENDER_PASSES if name in files}
        where = "rig"
        rig = StereoRig.from_dict(manifest["rig"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"manifest {where}: missing or malformed {e}") from None
    return times, rig, paths


def write_frame(scene_dir, scene_name, t, view, fp, gt, read_from=None):
    """Write all passes of one (frame, view); returns pass -> relative path.

    read_from maps a render pass to the resolved path it was read from.
    Such a pass is never encoded: its output is that file's bytes, so it
    is not written when its output path resolves to that file, and copied
    there otherwise. The files are encoded or copied and written on the
    thread map, so when one fails, others of the same (frame, view) may
    already be in place; each is whole.
    """
    files = {}
    writes = []  # (paths, encode or None, array or source path)
    read_from = read_from or {}

    def put(pass_names, ext, encode, array):
        """List the file of each pass of pass_names, one name or a tuple:
        one encoding of array, written to each pass not read from a file;
        none if array is None, a pass the view does not have."""
        if array is None:
            return
        if isinstance(pass_names, str):
            pass_names = (pass_names,)
        encoded = []
        for pass_name in pass_names:
            name = _frame_name(t, view, ext)
            path = scene_dir / pass_name / name
            files[pass_name] = f"{scene_name}/{pass_name}/{name}"
            source = read_from.get(pass_name)
            if source is not None and path.resolve() == source:
                continue
            path.parent.mkdir(parents=True, exist_ok=True)
            if source is None:
                encoded.append(path)
            else:
                writes.append(([path], None, source))
        if encoded:
            writes.append((encoded, encode, array))

    def mask(a):
        # a bool mask as 0 and 255: its 0/1 samples, the file's last
        # a.size bytes, scaled in the one buffer
        buf = formats.write_pgm8(a)
        payload = np.frombuffer(buf, np.uint8, offset=len(buf) - a.size)
        payload *= 255
        return buf

    put("rgb", "ppm", formats.write_ppm, fp.rgb)
    put("depth", "pfm", formats.write_pfm, fp.depth)
    put("pos3d_t", "pfm", formats.write_pfm, fp.pos3d_t)
    put("pos3d_prev", "pfm", formats.write_pfm, fp.pos3d_prev)
    put("pos3d_next", "pfm", formats.write_pfm, fp.pos3d_next)
    # each object has one texture, so its material index is its object
    # index: the material pass, kept for the dataset layout, is the object
    # pass's file
    put(("object_index", "material_index"), "pgm", formats.write_pgm16,
        fp.object_index)

    put("disparity", "pfm", formats.write_pfm, gt.disparity)
    put("flow_fwd", "flo", formats.write_flo, gt.flow_fwd)
    put("dispchange_fwd", "pfm", formats.write_pfm, gt.dispchange_fwd)
    put("motion_boundaries", "pgm", mask, gt.motion_boundaries)
    put("flow_bwd", "flo", formats.write_flo, gt.flow_bwd)
    put("dispchange_bwd", "pfm", formats.write_pfm, gt.dispchange_bwd)
    put("occlusion_fwd", "pgm", mask, gt.occlusion_fwd)

    def write(job):
        paths, encode, payload = job
        if encode is not None:
            payload = encode(payload)
        for path in paths:
            write_atomic(path, payload)

    map_ordered(write, writes)
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


def load_frame_passes(files, t, k):
    """The `FramePasses` of frame t of one view, read from files on disk:
    files maps each render pass the view has to its path, and k is the
    rig's intrinsics, which give every pass its size.

    Every pass in files is decoded and its shape checked, on the thread
    map: (H, W) for depth and the index passes, (H, W, 3) for RGB and
    positions. If several are bad, the error is that of the first in the
    order `write_frame` writes them. The material pass must equal the
    object pass, or a ParseError names its file; it is then dropped.
    Depth and positions stay float32, as stored, one copy of the file
    bytes; `groundtruth` widens them band by band.
    """
    def read(spec):
        name, reader, channels = spec
        if name not in files:
            return None
        a = reader(files[name].read_bytes())
        shape = (k.height, k.width) + channels
        if a.shape != shape:
            raise ParseError(f"{files[name]}: shape {a.shape}, the "
                             f"{k.width}x{k.height} rig needs {shape}")
        return a

    *passes, material = map_ordered(read, [  # the passes in field order
        ("rgb", formats.read_ppm, (3,)), ("depth", formats.read_pfm, ()),
        ("pos3d_t", formats.read_pfm, (3,)),
        ("pos3d_prev", formats.read_pfm, (3,)),
        ("pos3d_next", formats.read_pfm, (3,)),
        ("object_index", formats.read_pgm16, ()),
        ("material_index", formats.read_pgm16, ()),  # checked, then dropped
    ])
    if material is not None and not np.array_equal(material, passes[-1]):
        raise ParseError(f"{files['material_index']}: the material pass "
                         "differs from the object pass")
    return FramePasses(*passes, frame_time=t)
