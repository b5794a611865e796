"""Dense scene-flow ground truth derived from rendered frame passes:
bidirectional optical flow, disparity, disparity change, motion
boundaries, occlusion masks, and 3D scene-flow reconstruction from the
(flow, disparity, disparity change) components.

`derive_frame` runs the per-pixel maps on the row bands of `_parallel`,
through its thread map, with band-sized temporaries.

Everything here is numpy alone; the small-component filter of the
motion boundaries is a union-find over the marked pixels, not an image
labelling library."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ._parallel import bands, map_ordered
from .errors import ContractError, DataCorruptionError, GeometryError
from .geometry import CameraIntrinsics, CameraPose, StereoRig, unproject
from .render import FramePasses

__all__ = [
    "GroundTruthFrame", "derive_disparity", "derive_flow",
    "derive_disparity_change", "derive_motion_boundaries",
    "compute_occlusion_mask", "reconstruct_scene_flow", "derive_frame",
    "pixel_centers",
    "MOTION_DIFF_THRESHOLD_PX", "MIN_BOUNDARY_AREA_PX",
]

MOTION_DIFF_THRESHOLD_PX = 1.5
MIN_BOUNDARY_AREA_PX = 10


@dataclass
class GroundTruthFrame:
    flow_fwd: np.ndarray | None  # (H, W, 2), NaN at void; None at t = frames
    flow_bwd: np.ndarray | None  # None at t = 1
    disparity: np.ndarray  # (H, W), positive at valid pixels
    dispchange_fwd: np.ndarray | None
    dispchange_bwd: np.ndarray | None
    motion_boundaries: np.ndarray | None  # (H, W) bool
    occlusion_fwd: np.ndarray | None  # (H, W) bool
    valid: np.ndarray  # (H, W) bool, non-void


def pixel_centers(h, w):
    """(H, W, 2) array of half-integer pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    return np.stack([u, v], axis=-1)


def _project_pass(pos, k: CameraIntrinsics):
    """Project a 3D-position pass; pixels with Z <= 0 (or NaN) come back NaN."""
    z = pos[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = z > 0
        safe_z = np.where(ok, z, 1.0)
        u = k.focal_px * pos[..., 0] / safe_z + k.principal_point[0]
        v = k.focal_px * pos[..., 1] / safe_z + k.principal_point[1]
    out = np.stack([u, v], axis=-1)
    out[~ok] = np.nan
    return out


def derive_disparity(passes: FramePasses, rig: StereoRig) -> np.ndarray:
    """d = baseline * focal_px / depth at valid pixels, NaN at void."""
    depth = passes.depth
    valid = passes.valid
    if np.any(valid & ~(depth > 0)):
        raise DataCorruptionError("non-positive depth at a covered pixel")
    with np.errstate(invalid="ignore"):
        d = rig.baseline * rig.intrinsics.focal_px / depth
    d = np.where(valid, d, np.nan)
    return d


def derive_flow(passes: FramePasses, direction: str,
                k: CameraIntrinsics | None = None) -> np.ndarray | None:
    """Optical flow as the difference of projected pixel positions.

    Forward: project(pos3d_next) - project(pos3d_t); backward uses
    pos3d_prev. Defined at every valid pixel, also where the point is
    occluded in the other frame. Returns None at a sequence boundary
    where the required pass is absent.
    """
    other = _other_pass(passes, direction)
    if other is None:
        return None
    k = k or passes.intrinsics
    flow = _project_pass(other, k) - _project_pass(passes.pos3d_t, k)
    flow[~passes.valid] = np.nan
    return flow


def derive_disparity_change(passes: FramePasses, rig: StereoRig,
                            direction: str) -> np.ndarray | None:
    """Delta-d = b*f/Z_other - b*f/Z_t; positive for approaching surfaces."""
    other = _other_pass(passes, direction)
    if other is None:
        return None
    bf = rig.baseline * rig.intrinsics.focal_px
    z_t = passes.pos3d_t[..., 2]
    z_o = other[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        dd = np.where(z_o > 0, bf / z_o, np.nan) - bf / z_t
    dd[~passes.valid] = np.nan
    return dd


def _other_pass(passes: FramePasses, direction: str):
    if direction == "fwd":
        return passes.pos3d_next
    if direction == "bwd":
        return passes.pos3d_prev
    raise ContractError(f"direction must be 'fwd' or 'bwd', got {direction!r}")


def derive_motion_boundaries(passes: FramePasses, flow: np.ndarray,
                             motion_threshold=MOTION_DIFF_THRESHOLD_PX,
                             min_area=MIN_BOUNDARY_AREA_PX) -> np.ndarray:
    """Boundary pixels between differently moving objects.

    A 4-adjacent pixel pair is a candidate when the two pixels belong to
    different objects and their flow vectors differ by at least the motion
    threshold; both pixels of the pair are marked. 8-connected components
    smaller than min_area pixels are removed (`_drop_small_components`,
    which gives the mask of `scipy.ndimage.label` with a 3x3 structure).
    """
    marked = _mark_motion_pairs(passes.object_index, flow, motion_threshold)
    return _drop_small_components(marked, min_area)


def _mark_motion_pairs(obj, flow, motion_threshold):
    """Both pixels of every 4-adjacent pair of different objects whose
    flow vectors differ by at least motion_threshold. A function of its
    own, so its temporaries are freed before the component filter runs."""
    marked = np.zeros(obj.shape, dtype=bool)
    with np.errstate(invalid="ignore"):
        for axis in (0, 1):
            a = (slice(None, -1), slice(None)) if axis == 0 else (slice(None), slice(None, -1))
            b = (slice(1, None), slice(None)) if axis == 0 else (slice(None), slice(1, None))
            # |flow[a] - flow[b]| as np.linalg.norm sums it, one plane at
            # a time and in place: no (H, W, 2) temporary
            dflow = flow[a][..., 0] - flow[b][..., 0]
            dv = flow[a][..., 1] - flow[b][..., 1]
            dflow *= dflow
            dv *= dv
            dflow += dv
            del dv
            np.sqrt(dflow, out=dflow)
            hit = (obj[a] != obj[b]) & (dflow >= motion_threshold)
            marked[a] |= hit
            marked[b] |= hit
    return marked


# (dy, dx) of the 4 forward 8-neighbours; with the 4 backward ones they
# are the same undirected edges
_FORWARD_NEIGHBOURS = ((0, 1), (1, -1), (1, 0), (1, 1))


def _drop_small_components(mask: np.ndarray, min_area) -> np.ndarray:
    """mask with its 8-connected components of fewer than min_area pixels
    cleared, in place.

    A union-find over the marked pixels only: each round hooks the larger
    root of every edge that still joins two roots onto the smaller
    (`np.minimum.at`), then pointer-jumps until every pixel points at its
    root. Parents only ever decrease, so no cycle can form, and each round
    leaves fewer roots. Boundaries are thin, so there are few rounds; a
    dense or serpentine mask takes more.
    """
    h, w = mask.shape
    pixels = np.flatnonzero(mask)  # sorted, so searchsorted maps pixel -> node
    if min_area <= 1 or not len(pixels):
        return mask
    src, dst = [], []
    for dy, dx in _FORWARD_NEIGHBOURS:
        # edge from (y, x) to (y + dy, x + dx), both marked
        ys = slice(0, h - dy)
        xs = slice(max(0, -dx), w - max(0, dx))
        ye = slice(dy, h)
        xe = slice(max(0, dx), w + min(0, dx))
        both = np.zeros_like(mask)
        both[ys, xs] = mask[ys, xs] & mask[ye, xe]
        start = np.flatnonzero(both)
        src.append(start)
        dst.append(start + (dy * w + dx))
    a = np.searchsorted(pixels, np.concatenate(src))
    b = np.searchsorted(pixels, np.concatenate(dst))
    parent = np.arange(len(pixels))
    while True:
        ra, rb = parent[a], parent[b]
        open_ = ra != rb  # a joined edge stays joined, so drop it
        if not open_.any():
            break
        a, b, ra, rb = a[open_], b[open_], ra[open_], rb[open_]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    sizes = np.bincount(parent, minlength=len(pixels))
    mask.flat[pixels[sizes[parent] < min_area]] = False
    return mask


def compute_occlusion_mask(passes_t: FramePasses, passes_other: FramePasses,
                           k: CameraIntrinsics | None = None,
                           eps=None) -> np.ndarray:
    """Pixels of frame t whose surface point is hidden or out of frame at
    the time of `passes_other` (the t+1 or t-1 frame of the same view).

    A pixel is occluded when the other frame's z-buffer (its depth, inf
    at void), bilinearly sampled at the point's projected location, is
    nearer than the point itself by more than eps, or when the projection
    leaves the other frame's image. passes_t may be a band of rows of
    frame t (see `derive_frame`); eps defaults to 1e-3 of its median depth.
    """
    direction = "fwd" if passes_other.frame_time > passes_t.frame_time else "bwd"
    other = _other_pass(passes_t, direction)
    if other is None:
        raise ContractError("occlusion needs the corresponding 3D-position pass")
    k = k or passes_t.intrinsics
    if eps is None:
        eps = _occlusion_eps(passes_t.depth)
    proj = _project_pass(other, k)
    z_point = other[..., 2]
    h, w = passes_other.depth.shape

    with np.errstate(invalid="ignore"):
        u = np.nan_to_num(proj[..., 0], nan=-1.0)
        v = np.nan_to_num(proj[..., 1], nan=-1.0)
        inside = (u >= 0) & (u <= w) & (v >= 0) & (v <= h) & np.isfinite(proj[..., 0])
        # the 2x2 footprint, clamped into the image so border projections
        # still get a lookup: top-left corner (x0i, y0i), weights (fx, fy)
        x0i = np.clip(np.floor(u - 0.5), 0, w - 2).astype(int)
        y0i = np.clip(np.floor(v - 0.5), 0, h - 2).astype(int)
        fx = np.clip(u - 0.5 - x0i, 0.0, 1.0)
        fy = np.clip(v - 0.5 - y0i, 0.0, 1.0)
        corners = ((y0i, x0i), (y0i, x0i + 1), (y0i + 1, x0i), (y0i + 1, x0i + 1))
        oi = [passes_other.object_index[c] for c in corners]
        # the other frame's z-buffer at the corners alone: depth, inf at void
        g00, g01, g10, g11 = (np.where(o > 0, passes_other.depth[c], np.inf)
                              for o, c in zip(oi, corners))
        top = g00 * (1 - fx) + g01 * fx
        bot = g10 * (1 - fx) + g11 * fx
        sampled = top * (1 - fy) + bot * fy
        hidden = sampled < z_point - eps
        # silhouette-adjacent samples: the 2x2 footprint touches another
        # object, so the point's surface is not cleanly visible there
        own = passes_t.object_index
        mixed = (oi[0] != own) | (oi[1] != own) | (oi[2] != own) | (oi[3] != own)
    occluded = (~inside | hidden | mixed) & passes_t.valid
    return occluded


def _occlusion_eps(depth):
    """The occlusion test's depth tolerance: 1e-3 of the median depth."""
    scale = float(np.nanmedian(depth))
    return 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)


def reconstruct_scene_flow(flow: np.ndarray, disparity: np.ndarray,
                           dispchange: np.ndarray, rig: StereoRig,
                           pose_t: CameraPose, pose_next: CameraPose):
    """Rebuild 3D positions and world-frame motion from the components.

    Returns (position, motion): (H, W, 3) world-frame point at t and its
    3D displacement to t+1. NaN components stay NaN; finite non-positive
    disparities (d or d + delta-d) are rejected.
    """
    h, w = disparity.shape
    bf = rig.baseline * rig.intrinsics.focal_px
    valid = np.isfinite(disparity) & np.isfinite(dispchange) \
        & np.isfinite(flow).all(axis=-1)
    if np.any(valid & (disparity <= 0)):
        raise GeometryError("non-positive disparity at a valid pixel")
    d_next = disparity + dispchange
    if np.any(valid & (d_next <= 0)):
        raise GeometryError("non-positive disparity at t+1 (d + delta-d <= 0)")

    px = pixel_centers(h, w)
    safe_d = np.where(valid, disparity, 1.0)
    safe_dn = np.where(valid, d_next, 1.0)
    safe_flow = np.where(valid[..., None], flow, 0.0)

    p_cam = unproject(px, bf / safe_d, rig.intrinsics)
    p_next_cam = unproject(px + safe_flow, bf / safe_dn, rig.intrinsics)
    p_world = pose_t.camera_to_world(p_cam)
    p_next_world = pose_next.camera_to_world(p_next_cam)
    motion = p_next_world - p_world
    p_world[~valid] = np.nan
    motion[~valid] = np.nan
    return p_world, motion


def derive_frame(passes: FramePasses, rig: StereoRig,
                 passes_next: FramePasses | None = None) -> GroundTruthFrame:
    """All per-view ground-truth maps for one rendered frame.

    Flow, disparity, disparity change and occlusion are per pixel, so they
    run on the bands of `_parallel.bands`; each band writes its rows of
    the full maps, and temporaries are the size of a band.
    What a band cannot see is taken over the whole view: the occlusion
    eps comes from the median depth of the frame, and the occlusion test
    samples the whole next frame. Motion boundaries pair pixels across
    band edges and drop small components of the whole mask, so they run
    on the whole forward flow once the bands are done. The maps do not
    depend on the band height or the number of workers.
    """
    h, w = passes.depth.shape
    fwd, bwd = passes.pos3d_next is not None, passes.pos3d_prev is not None
    frame = GroundTruthFrame(
        flow_fwd=np.empty((h, w, 2)) if fwd else None,
        flow_bwd=np.empty((h, w, 2)) if bwd else None,
        disparity=np.empty((h, w)),
        dispchange_fwd=np.empty((h, w)) if fwd else None,
        dispchange_bwd=np.empty((h, w)) if bwd else None,
        motion_boundaries=None,
        occlusion_fwd=(np.empty((h, w), dtype=bool) if passes_next is not None
                       else None),
        valid=passes.valid,
    )
    eps = _occlusion_eps(passes.depth) if passes_next is not None else None

    def band(rows):
        part = _band(passes, rows)
        frame.disparity[rows] = derive_disparity(part, rig)
        for direction, flow, dispchange in (
                ("fwd", frame.flow_fwd, frame.dispchange_fwd),
                ("bwd", frame.flow_bwd, frame.dispchange_bwd)):
            if flow is not None:
                flow[rows] = derive_flow(part, direction)
                dispchange[rows] = derive_disparity_change(part, rig, direction)
        if passes_next is not None:
            frame.occlusion_fwd[rows] = compute_occlusion_mask(
                part, passes_next, eps=eps)

    map_ordered(band, bands(h))
    if fwd:
        frame.motion_boundaries = derive_motion_boundaries(passes, frame.flow_fwd)
    return frame


def _band(passes: FramePasses, rows: slice) -> FramePasses:
    """The passes of one band of rows: views, no copies."""
    return dataclasses.replace(passes, **{
        f.name: a[rows] for f in dataclasses.fields(passes)
        if isinstance(a := getattr(passes, f.name), np.ndarray)})
