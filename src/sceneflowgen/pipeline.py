"""Dataset production: render (or read back) every frame and view of a
scene, derive the ground-truth maps, and write everything plus the manifest
through the on-disk formats.

`generate_dataset` and `derive_dataset` share one loop. It goes view by
view, and walks each view's frames from last to first, holding the
passes of one view at a time, whatever the frame count. Frame t's
forward occlusion mask reads frame t + 1, which is made first: once
frame t + 1's files are written, its two next-frame tables
(`groundtruth.next_frame_tables`, 10 bytes a pixel) are built and its
passes dropped, before frame t is rendered or loaded. Frame t's mask
(`groundtruth.compute_occlusion_mask`) is then computed from its passes
and those tables, the tables dropped, its per-view maps derived
(`groundtruth.derive_frame`), and all of its files, the mask included,
written at once. The files reach disk in `_FILES` order, view after
view. A file that is encoded is cast by its `formats` writer's `Encoded`
as it is written, one block of rows at a time, so no whole-file buffer
is made. Within one (frame, view) the passes are decoded, the ground
truth derived and the files written on the thread map of `_parallel`,
one unit per file or row band; only two whole-frame steps of
`groundtruth` (see there) run on one thread. Each file is written under
a temporary name and renamed into place, so an interrupted run leaves
whole files, of the (frame, view) it was writing and of those before it
in walk order alone: whole later frames of that view and whole views
before it, none of its earlier frames. Its manifest is marked incomplete
and lists a (frame, view) only once all of its files are in place.

A view's passes are its pixels and its camera is the rig's: `derive`
reads the manifest once (`_derivable`), for the rig, the poses it checks
and the render-pass files each view is read from and written against.

`_FILES` lists every file of a view once, in write order: `write_frame`,
`load_frame_passes` and `_derivable`'s manifest check all read it."""

from __future__ import annotations

import functools
import os
import shutil
from pathlib import Path

import numpy as np

from . import formats, groundtruth
from ._parallel import map_ordered
from .errors import DataCorruptionError, ParseError
from .geometry import CameraPose, StereoRig
from .render import FramePasses, rasterize_frame
from .scene import SceneSpec

__all__ = ["generate_dataset", "derive_dataset", "load_frame_passes",
           "write_frame", "write_atomic"]

_VIEW_SUFFIX = {"left": "L", "right": "R"}
# Every file of a view, in write order: pass (a `FramePasses` or
# `GroundTruthFrame` field, the occlusion mask or depth, pos3d_t's Z),
# extension, `formats` codec (write_<codec>, and the one `formats.read`
# decodes a render pass with) and, for a render pass, its channels.
_FILES = (
    ("rgb", "ppm", "ppm", (3,)),
    ("depth", "pfm", "pfm", ()),
    ("pos3d_t", "pfm", "pfm", (3,)),
    ("pos3d_prev", "pfm", "pfm", (3,)),
    ("pos3d_next", "pfm", "pfm", (3,)),
    ("object_index", "pgm", "pgm16", ()),
    # each object has one texture, so its material index is its object
    # index: the material pass, kept for the dataset layout, is the object
    # pass's file, encoded once
    ("material_index", "pgm", "pgm16", ()),
    ("disparity", "pfm", "pfm", None),
    ("flow_fwd", "flo", "flo", None),
    ("dispchange_fwd", "pfm", "pfm", None),
    ("motion_boundaries", "pgm", "mask", None),
    ("flow_bwd", "flo", "flo", None),
    ("dispchange_bwd", "pfm", "pfm", None),
    ("occlusion_fwd", "pgm", "mask", None),
)
# the position pass toward each neighbouring frame, which a view needs
# where that frame is listed
_NEIGHBOUR_PASSES = {"pos3d_prev": -1, "pos3d_next": 1}


def _frame_name(t, view, ext):
    return f"{t:04d}_{_VIEW_SUFFIX[view]}.{ext}"


def _frames(passes_at, times, rig, out_root, scene, read_from=None):
    """Derive and write each (t, view), all left views first and each
    view's frames last to first; calls passes_at(t, view) once for each
    and yields (t, view, files) once all of the view's files are in
    place. read_from[t, view], if given, names the files the passes came
    from (see `write_frame`).

    Frame t's occlusion mask reads frame t + 1, which is made first: once
    its files are written, and only if frame t is listed, its
    `groundtruth.NextFrameTables` are built and its passes dropped. Frame
    t's mask is computed from its passes and those tables
    (`groundtruth.compute_occlusion_mask`), the tables are dropped, and
    all of frame t's files are written at once. A DataCorruptionError of
    the ground truth is raised again naming the frame, the view and,
    where read_from is given, the file of the pass at fault."""
    scene_dir = out_root / scene
    for view in _VIEW_SUFFIX:
        tables = None  # of frame t + 1, while frame t is made
        for t in reversed(times):
            fp = passes_at(t, view)
            mask = (None if tables is None
                    else groundtruth.compute_occlusion_mask(fp, rig, tables))
            del tables  # not held through derive_frame
            try:
                gt = groundtruth.derive_frame(fp, rig)
            except DataCorruptionError as e:
                message = f"frame {t} {view}: {e}"
                if read_from and e.pass_name:
                    message = f"{read_from[t, view][e.pass_name]}: {message}"
                raise DataCorruptionError(message, e.pass_name) from None
            files = write_frame(scene_dir, scene, t, view,
                                {**vars(fp), "depth": fp.depth, **vars(gt),
                                 "occlusion_fwd": mask},
                                read_from[t, view] if read_from else None)
            del gt, mask  # written: not held while frame t - 1 is made
            tables = (groundtruth.next_frame_tables(fp) if t - 1 in times
                      else None)
            del fp  # frame t - 1 is made with none of frame t's passes held
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
            lambda t, view: load_frame_passes(paths[t, view], t,
                                              rig.intrinsics),
            times, rig, Path(out_root), manifest["dataset"], paths):
        pass
    return len(times)


def _derivable(manifest, root):
    """Sorted frame times, the rig and {(t, view): {render pass: resolved
    path under root}} of a manifest, or ParseError unless it is complete
    and every frame has a distinct integer time, both cameras (each pose
    built once, to check it) and all passes: `pos3d_prev` and
    `pos3d_next` where frame t - 1 and t + 1 are listed."""
    if manifest["complete"] is not True:
        raise ParseError("manifest is incomplete: its generate run did not "
                         "finish, so its files may be missing or stale")
    frames = manifest["frames"]
    times = sorted(f.get("time") for f in frames
                   if type(f.get("time")) is int)
    if not frames or len(set(times)) != len(frames):
        raise ParseError(f"manifest needs frames with distinct integer "
                         f"times, got {[f.get('time') for f in frames]}")
    render = [name for name, *_, channels in _FILES if channels is not None]
    paths = {}
    try:
        for entry in frames:
            t = entry["time"]
            where = f"frame {t}"
            # a pass of no neighbour has offset 0: frame t, which is listed
            needed = {name for name in render
                      if t + _NEIGHBOUR_PASSES.get(name, 0) in times}
            for view in _VIEW_SUFFIX:
                CameraPose.from_dict(entry["cameras"][view])
                files = entry["files"][view]
                missing = needed - set(files)
                if missing:
                    raise ParseError(f"{where} {view}: no {sorted(missing)}")
                paths[t, view] = {
                    name: (root / files[name]).resolve()
                    for name in render if name in files}
        where = "rig"
        rig = StereoRig.from_dict(manifest["rig"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"manifest {where}: missing or malformed {e}") from None
    return times, rig, paths


def write_frame(scene_dir, scene_name, t, view, arrays, read_from=None):
    """Write the `_FILES` of one (frame, view) that arrays holds; returns
    pass -> relative path.

    arrays maps a pass (see `_FILES`) to its array; a pass whose field is
    missing or None has no file. read_from maps a render pass to the
    resolved path it was read from.
    Such a pass is never encoded: its output is that file's bytes, so it
    is not written when its output path resolves to that file, and copied
    there otherwise. The files are encoded or copied and written on the
    thread map, so when one fails, others of the same (frame, view) may
    already be in place; each is whole.
    """
    files = {}
    writes = []  # (paths, codec or None, array or source path)
    encodes = {}  # field -> its write: one `Encoded`, however many files
    read_from = read_from or {}
    for name, ext, codec, _ in _FILES:
        field = "object_index" if name == "material_index" else name
        array = arrays.get(field)
        if array is None:
            continue
        rel = f"{name}/{_frame_name(t, view, ext)}"
        files[name] = f"{scene_name}/{rel}"
        path = scene_dir / rel
        source = read_from.get(name)
        if source is None:
            if field not in encodes:
                encodes[field] = ([], codec, array)
                writes.append(encodes[field])
            encodes[field][0].append(path)
        elif path.resolve() != source:
            writes.append(([path], None, source))

    def write(job):
        paths, codec, payload = job
        if codec is not None:
            payload = getattr(formats, "write_" + codec)(payload)
        for path in paths:
            write_atomic(path, payload)

    map_ordered(write, writes)
    return files


def write_atomic(path, payload: bytes | formats.Encoded | Path):
    """path holds either its old content or all of payload, never part:
    payload, bytes, a `formats.Encoded` (its blocks written as they are
    cast) or the file at a Path (copied, not linked, so path shares no
    inode with it), goes to a hidden temporary name beside path, then is
    renamed over it. path's directory is made if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        if isinstance(payload, Path):
            shutil.copyfile(payload, tmp)
        else:
            with tmp.open("wb") as f:
                f.writelines(payload if isinstance(payload, formats.Encoded)
                             else [payload])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_frame_passes(files, t, k):
    """The `FramePasses` of frame t of one view, read from files on disk:
    files maps each render pass the view has to its path, and k is the
    rig's intrinsics, which give every pass its size.

    Every render pass of `_FILES` in files is decoded by `formats.read`
    with its `_FILES` codec (an 8-bit index file is a ParseError) and its
    shape checked, on the thread map: (H, W) plus the pass's channels. If
    several are bad, the error is that of the first in `_FILES` order, the
    order `write_frame` writes them. The material pass must equal the
    object pass, or a ParseError names its file; it is then dropped.
    The depth file is decoded into pos3d_t's Z plane and then dropped:
    the view holds one Z, and `derive` takes it from the depth file for
    every map, whatever the pos3d_t file's Z holds. Nothing yet checks
    that the two files' Z agree. Positions stay float32, as stored, one
    copy of the file bytes; `groundtruth` reads them band by band in
    place, each float64 step widening what it reads.
    """
    render = [row for row in _FILES if row[3] is not None]

    def read(row):
        name, _, codec, channels = row
        if name not in files:
            return None
        a = formats.read(files[name], codec)
        shape = (k.height, k.width) + channels
        if a.shape != shape:
            raise ParseError(f"{files[name]}: shape {a.shape}, the "
                             f"{k.width}x{k.height} rig needs {shape}")
        return a

    passes = {row[0]: a for row, a in zip(render, map_ordered(read, render))}
    material = passes.pop("material_index")  # checked, then dropped
    if material is not None and not np.array_equal(material,
                                                   passes["object_index"]):
        raise ParseError(f"{files['material_index']}: the material pass "
                         "differs from the object pass")
    passes["pos3d_t"][..., 2] = passes.pop("depth")
    return FramePasses(**passes, frame_time=t)
