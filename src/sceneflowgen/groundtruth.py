"""Dense scene-flow ground truth derived from rendered frame passes:
bidirectional optical flow, disparity, disparity change, motion
boundaries, the forward occlusion mask, and 3D scene-flow reconstruction
from the (flow, disparity, disparity change) components.

Two steps compute every ground-truth map in the package, one code path
per map; `generate` and `derive` both call them, and
`tests/groundtruth_oracle.py` is the whole-frame reference they are
tested against. `derive_frame` gives a view's per-view maps from its
passes alone. `compute_occlusion_mask` gives its forward occlusion mask
from its passes and a small record of frame t + 1, its
`NextFrameTables` (`next_frame_tables`): its Z widened to float64, the
object of each 2x2 block, its shape and its frame time. So `pipeline`
makes frame t + 1 first and keeps only its tables until frame t is
made, and no two views are held at once. Both run the per-pixel maps on
the row bands of `_parallel`, through its thread map, with band-sized
temporaries. A band widens the Z of each 3D-position pass it reads once,
into one contiguous float64 plane, which gives b*f/Z and the pass's
projection, two contiguous planes of u and v (`geometry.project` with
`out=` and `z=`); each projection is shared between the maps that read
it. The occlusion step projects pos3d_next again, in its own bands.
The steps write into band-sized buffers with `out=` and in-place
operations, set NaN (and the occlusion test's inf) with masked writes,
and difference the planes one at a time; every float64 operation on an
element is the one the whole-frame expressions make, in the same order,
so the bytes are those of `tests/groundtruth_oracle.py`.
Each band also marks the motion boundaries' pixel pairs within its rows
from its float64 forward flow, and the pairs across band edges are marked
from the bands' first and last rows; only the boundaries' small-component
filter and the occlusion eps run on the whole frame, on one thread.

All arithmetic is float64, and `derive_frame` holds its flow, disparity
and disparity-change maps as float32, the precision the files store:
each band rounds its float64 values once, as it writes its rows, and
first refuses a covered Z_t whose b*f/Z_t is not a positive float32,
a covered pos3d_t X or Y that is not finite, and a covered neighbour's
point (pos3d_prev or pos3d_next) whose X, Y or Z is not finite. A
neighbour's point whose b*f/Z is past the float32 maximum, or whose flow
rounds to +-inf in float32, is gone, as one with Z <= 0 is: its flow
and disparity change are NaN. Each refusal is a
DataCorruptionError whose `pass_name` names the pass at fault ("depth"
for Z_t). Passes may come in as float32 (as read from
files) or float64 (from the renderer). A view's depth is pos3d_t's Z
(`FramePasses.depth`), so one Z gives the disparity, the disparity
change and the projections. Each band reads its rows of the position
passes in place, and every float64 step on them names its loop
(`dtype=np.float64`), since under NEP 50 `float * float32-array` runs in
float32; so no float64 copy of a pass exists but the band's Z planes,
and either input gives the same bytes. `reconstruct_scene_flow` widens
the maps it is given. On the whole frame only the occlusion eps (a median
depth, of which only the middle values are widened) and the next frame's
Z table widen what they read.

Everything here is numpy alone; the small-component filter of the
motion boundaries is a union-find over the marked pixels, not an image
labelling library."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _parallel
from .errors import ContractError, DataCorruptionError, GeometryError
from .geometry import CameraPose, StereoRig, project, unproject
from .render import FramePasses

__all__ = [
    "GroundTruthFrame", "NextFrameTables", "reconstruct_scene_flow",
    "derive_frame", "next_frame_tables", "compute_occlusion_mask",
    "pixel_centers", "MOTION_DIFF_THRESHOLD_PX", "MIN_BOUNDARY_AREA_PX",
]

MOTION_DIFF_THRESHOLD_PX = 1.5
MIN_BOUNDARY_AREA_PX = 10


@dataclass
class GroundTruthFrame:
    """`derive_frame`'s maps; the occlusion mask is the next step's."""
    # flow, disparity and disparity change: float32, computed in float64
    # and rounded once
    flow_fwd: np.ndarray | None  # (H, W, 2), NaN at void; None at t = frames
    flow_bwd: np.ndarray | None  # None at t = 1
    disparity: np.ndarray  # (H, W), positive at valid pixels
    dispchange_fwd: np.ndarray | None  # (H, W), NaN at void
    dispchange_bwd: np.ndarray | None
    # marked from the float64 forward flow
    motion_boundaries: np.ndarray | None  # (H, W) bool


def pixel_centers(h, w):
    """(H, W, 2) array of half-integer pixel-center coordinates."""
    u, v = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    return np.stack([u, v], axis=-1)


def _wide(a):
    """a as float64: itself if it is already, else a widened copy, for the
    whole-array steps that read it more than once. A signalling NaN widens
    to a quiet one without a warning; numpy's error state is per thread,
    so it is set here, on the thread that widens."""
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64, copy=False)


def _z_plane(z, out=None):
    """z, the rows of a Z plane (a position pass's `[..., 2]` or a depth),
    as one contiguous float64 plane, in out if given: the one widening of
    a Z that a band makes. A signalling NaN widens to a quiet one without
    a warning (see `_wide`)."""
    if out is None:
        out = np.empty(z.shape)
    with np.errstate(invalid="ignore"):
        np.copyto(out, z)
    return out


def _refuse_non_finite(pos, void, name):
    """DataCorruptionError naming the pass, name, unless every covered
    point of pos, the rows of a position pass (or of its X and Y), has
    finite coordinates: a point at infinity or NaN has no flow or
    disparity change, and is no gone point either (Z <= 0 or b*f/Z past
    float32 is)."""
    finite = np.isfinite(pos[..., 0])
    for c in range(1, pos.shape[-1]):
        finite &= np.isfinite(pos[..., c])
    finite |= void
    if not finite.all():
        raise DataCorruptionError(
            f"a covered pixel's point in {name} is not finite", name)


def _gone(bf, z, void):
    """Where a neighbour's point has no flow or disparity change: at void,
    where its Z is not positive (or NaN), and where its b*f/Z does not fit
    a float32 (`_flow` adds where its flow does not). z, that pass's
    float64 Z plane, becomes b*f/Z in place."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        kept = z > 0
        bf_over_z = np.divide(bf, z, out=z)
        kept &= bf_over_z <= np.finfo(np.float32).max
    gone = np.logical_not(kept, out=kept)
    gone |= void
    return gone


def _flow(proj_other, proj_t, gone, out, into):
    """The flow between two projections of the same points, given as
    (2, H, W) planes: computed in float64 in place of into (either of
    them), NaN where gone, and written to out (H, W, 2), rounded to out's
    dtype. A point whose flow rounds to +-inf there does not fit a
    float32: it is added to gone, and its flow is NaN in both. Returns the
    float64 planes."""
    flow = np.subtract(proj_other, proj_t, out=into)
    flow[:, gone] = np.nan
    with np.errstate(over="ignore"):
        for i, plane in enumerate(flow):
            out[..., i] = plane
    far = np.isinf(out)
    if far.any():
        far = far.any(axis=-1)
        gone |= far
        flow[:, far] = np.nan
        out[far] = np.nan
    return flow


def _disparity_change(bf_over_z_other, bf_over_z_t, gone, out):
    """bf_over_z_other - bf_over_z_t, b*f/Z_other - b*f/Z_t, NaN where
    gone, written to out (computed in float64, rounded to out's dtype);
    positive for approaching surfaces. Where the difference is inf - inf
    or past the float32 range, the point is gone."""
    with np.errstate(invalid="ignore", over="ignore"):
        np.subtract(bf_over_z_other, bf_over_z_t, out=out)
    out[gone] = np.nan


def _mark_edge_pairs(marked, obj, cuts, edges):
    """Mark in marked, which holds the pairs within each band of cuts,
    the pairs across each band edge, from edges[i]: the float64 flow of
    the first and last row of band i, as (2, 2, W) planes."""
    for above, below, rows in zip(edges, edges[1:], cuts[1:]):
        y = rows.start
        pair = np.stack([above[:, 1], below[:, 0]], axis=1)
        marked[y - 1:y + 1] |= _mark_motion_pairs(obj[y - 1:y + 1], pair)


def _mark_motion_pairs(obj, flow):
    """Both pixels of every 4-adjacent pair of different objects whose
    flow vectors differ by at least MOTION_DIFF_THRESHOLD_PX, in a block
    of rows obj (H, W) and flow (2, H, W), u and v as planes. Pairs of
    different objects are few, so only their flows are gathered and
    compared, by the flat index i of a pair's first pixel and i + step of
    its second."""
    w = obj.shape[1]
    marked = np.zeros(obj.shape, dtype=bool)
    flat = marked.reshape(-1)
    u, v = (plane.reshape(-1) for plane in flow)
    with np.errstate(invalid="ignore"):
        # vertical pairs, then horizontal ones
        for a, b, step in (((slice(-1),), (slice(1, None),), w),
                           ((..., slice(-1)), (..., slice(1, None)), 1)):
            differ = np.zeros(obj.shape, dtype=bool)
            np.not_equal(obj[a], obj[b], out=differ[a])
            i = np.flatnonzero(differ)
            j = i + step
            # |flow[i] - flow[j]| as np.linalg.norm sums it, in place
            dflow = u.take(i) - u.take(j)
            dv = v.take(i) - v.take(j)
            dflow *= dflow
            dv *= dv
            dflow += dv
            np.sqrt(dflow, out=dflow)
            i = i[dflow >= MOTION_DIFF_THRESHOLD_PX]
            flat[i] = True
            flat[i + step] = True
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
    w = mask.shape[1]
    pixels = np.flatnonzero(mask)  # sorted, so searchsorted maps pixel -> node
    if min_area <= 1 or not len(pixels):
        return mask
    x = pixels % w
    src, dst = [], []
    for dy, dx in _FORWARD_NEIGHBOURS:
        # edge from (y, x) to (y + dy, x + dx), both marked: the neighbour's
        # node, where searchsorted finds it among the marked pixels
        neighbour = pixels + (dy * w + dx)
        node = np.searchsorted(pixels, neighbour)
        node[node == len(pixels)] = 0
        edge = pixels[node] == neighbour
        edge &= (0 <= x + dx) & (x + dx < w)
        src.append(np.flatnonzero(edge))
        dst.append(node[edge])
    a = np.concatenate(src)
    b = np.concatenate(dst)
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


def _corner_steps(h, w):
    """(dx, dy): the flat offsets from a 2x2 footprint's top-left corner k
    of an (h, w) image to its top-right and bottom-left corners. An image
    one pixel wide (high) has one column (row), which the footprint reads
    at both corners, so dx (dy) is 0 there."""
    return min(w - 1, 1), min(h - 1, 1) * w


@dataclass(frozen=True)
class NextFrameTables:
    """What the forward occlusion test of frame t reads of frame t + 1,
    so that frame t + 1's passes need not be held until frame t exists:
    its frame time, its (h, w) shape and two flat whole-frame tables, 10
    bytes a pixel. depth is its z-buffer, its depth (pos3d_t's Z) widened
    to float64 and +inf at void; block is its block object, a uint16 that
    at k is the object index if the 2x2 block k, k + dx, k + dy,
    k + dy + dx (`_corner_steps`) is one object, else 0. 0 marks a mixed
    block, since the test reads it only at valid pixels, whose own index
    is above 0. `next_frame_tables` builds it."""

    frame_time: int
    shape: tuple
    depth: np.ndarray
    block: np.ndarray


def next_frame_tables(passes: FramePasses) -> NextFrameTables:
    """The `NextFrameTables` of a view's passes, filled in the
    ground-truth bands of `_parallel.bands`, on the thread map."""
    h, w = passes.object_index.shape
    index = passes.object_index.ravel()
    dx, dy = _corner_steps(h, w)
    zbuf = np.empty(index.size)
    block = index.copy()

    def fill(rows):
        start, stop = rows.start * w, rows.stop * w
        z = zbuf[start:stop]
        _z_plane(passes.depth[rows], out=z.reshape(-1, w))
        z[index[start:stop] == 0] = np.inf
        # the blocks that start in these rows and lie in the image
        stop = min(stop, index.size - dy - dx)
        own = index[start:stop]
        one = index[start + dx:stop + dx] == own
        one &= index[start + dy:stop + dy] == own
        one &= index[start + dy + dx:stop + dy + dx] == own
        block[start:stop][~one] = 0

    _parallel.map_ordered(fill, _parallel.bands(h, _parallel.GT_BAND_ROWS))
    return NextFrameTables(passes.frame_time, (h, w), zbuf, block)


def _occluded(proj, z_point, own, valid, tables, eps, out):
    """Forward occlusion of the points of a band of frame t that project
    to proj, (2, H, W) planes of u and v, at depth z_point (float64) in
    frame t + 1, written to out; own and valid are the band's object
    indices and valid mask, tables are the `NextFrameTables` of frame
    t + 1. A valid pixel is occluded when its projection leaves the
    image, its 2x2 footprint touches another object (its block object is
    not own), or the bilinear z-buffer there is nearer by more than eps. Each corner's Z is one contiguous `take`
    from the z-buffer table, shifted by the corner's step.

    proj and z_point are used up: the footprint's fractions are computed
    in proj's planes and z_point - eps in z_point. Every other step writes
    into band-sized buffers: the floor of each axis, the corner index k
    and two bools besides out, and the sample, on half the rows at a
    time, in three half-band buffers."""
    h, w = tables.shape
    zbuf, block = tables.depth, tables.block
    u, v = proj
    with np.errstate(invalid="ignore"):
        # NaN compares False, and +-inf lies outside: neither is inside.
        # A projection outside is occluded: mixed starts with those
        inside = u >= 0
        test = np.less_equal(u, w)
        inside &= test
        inside &= np.greater_equal(v, 0, out=test)
        inside &= np.less_equal(v, h, out=test)
        mixed = np.logical_not(inside, out=inside)
        del inside

        def footprint(plane, size):
            """The footprint's first pixel along one axis, clamped into the
            image so border projections still get a lookup, and the weight
            of the second, in place of plane: floor(plane - 0.5) in
            [0, size - 2], the fraction in [0, 1]. A NaN plane stays NaN:
            that projection is not inside, and the takes clamp its index."""
            frac = np.subtract(plane, 0.5, out=plane)
            first = np.floor(frac)
            np.clip(first, 0, size - 2, out=first)
            frac -= first
            np.clip(frac, 0.0, 1.0, out=frac)
            return first, frac

        x0, fx = footprint(u, w)
        y0, fy = footprint(v, h)
        # the top-left corner as a flat index k. An image one pixel wide
        # (high) clamps x0 (y0) to -1, and its step dx (dy) is 0. The
        # float64 sums are exact integers: an image holds under 2**53
        # pixels. A projection that is not inside may give any k: every
        # take clamps it into the table ("clip" mode), and that pixel is
        # occluded whatever is read
        dx, dy = _corner_steps(h, w)
        y0 *= w
        y0 += x0
        del x0
        y0 += (1 - dx) + (w - dy)
        k = y0.astype(np.intp)
        del y0
        # a footprint that touches another object is silhouette-adjacent:
        # the point's surface is not cleanly visible there, so it counts
        # as occluded, in mixed
        mixed |= np.not_equal(block.take(k, mode="clip"), own, out=test)
        z_point -= eps
        # the bilinear sample and the depth test on half the band's rows at
        # a time, one corner read at a time, in three half-band buffers:
        # with k, z_point and both fractions held, a band peaks at 5.5 of
        # its planes, and a worker's heap keeps that peak, so it counts
        # once per worker in the RSS. A take into out= in "clip" mode
        # writes in place (the default mode copies out first)
        half = -(-len(k) // 2)
        for part in (slice(None, half), slice(half, None)):
            k_part, fx_part = k[part], fx[part]
            weight = np.subtract(1, fx_part)
            top = zbuf.take(k_part, mode="clip")
            top *= weight
            corner = zbuf[dx:].take(k_part, mode="clip")
            corner *= fx_part
            top += corner
            bottom = zbuf[dy:].take(k_part, out=corner, mode="clip")
            bottom *= weight
            corner = zbuf[dy + dx:].take(k_part, out=weight, mode="clip")
            corner *= fx_part
            bottom += corner
            weight = np.subtract(1, fy[part], out=corner)
            top *= weight  # the sample, in top
            bottom *= fy[part]
            top += bottom
            mixed[part] |= np.less(top, z_point[part], out=test[part])  # hidden
            del weight, top, bottom, corner
    return np.logical_and(mixed, valid, out=out)


def _occlusion_eps(depth):
    """The occlusion test's depth tolerance: 1e-3 of the median of depth,
    a view's pos3d_t Z plane, or 1e-3 at a view with no depth (which
    np.nanmedian would warn about).

    The median is that of the depths widened to float64, as np.median
    takes it: the middle value, or the mean of the middle two. The
    values are partitioned in their own dtype, which orders them as
    their widened copies would be, and only the middle ones are widened:
    a float32 mean of an even count rounds the midpoint. They are copied
    once, contiguous, and compressed only where a NaN is among them; one
    partition at n // 2 places the upper middle value, and the lower one
    of an even count is the largest value before it."""
    values = depth.flatten()
    nan = np.isnan(values)
    if nan.any():
        values = values[~nan]
    del nan
    n = values.size
    if not n:
        return 1e-3
    values.partition(n // 2)
    middle = values[n // 2:n // 2 + 1]
    if not n % 2:
        middle = np.append(values[:n // 2].max(), middle)
    # no warning for the mean of -inf and inf or of two values past half
    # the float64 maximum: either scale falls back to 1
    with np.errstate(invalid="ignore", over="ignore"):
        scale = float(np.mean(_wide(middle)))
    return 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)


def compute_occlusion_mask(passes: FramePasses, rig: StereoRig,
                           next_frame: NextFrameTables) -> np.ndarray:
    """The forward occlusion mask, (H, W) bool, of a view's passes against
    next_frame, the `NextFrameTables` of a later frame of the same view
    (ContractError for the same or an earlier one, or for passes with no
    pos3d_next): each point at t + 1 (pos3d_next, projected through
    `rig.intrinsics`) is tested against the whole of next_frame (see
    `_occluded`), with a depth tolerance eps of 1e-3 of the view's own
    median Z_t (`_occlusion_eps`). It is the one occlusion path: the
    frame loop makes frame t + 1 first, keeps only its tables, and runs
    this on frame t's passes before `derive_frame`.

    It takes eps, then runs on the `_parallel.GT_BAND_ROWS`-row bands of
    `_parallel.bands`, on the thread map. Each band widens its rows of
    pos3d_next's Z into one float64 plane, projects its rows of pos3d_next
    with it into a (2, rows, W) buffer of u and v planes, which the test
    uses up with the plane, and writes its rows of the mask. eps and the
    tables are of whole frames, so the mask does not depend on the band
    height or the workers."""
    if passes.pos3d_next is None:
        raise ContractError("forward occlusion needs pos3d_next")
    if next_frame.frame_time <= passes.frame_time:
        raise ContractError("forward occlusion needs a later frame as "
                            "next_frame")
    eps = _occlusion_eps(passes.depth)
    h, w = passes.object_index.shape
    mask = np.empty((h, w), dtype=bool)

    def band(rows):
        obj = passes.object_index[rows]
        pos_next = passes.pos3d_next[rows]
        z = _z_plane(pos_next[..., 2])
        proj = project(pos_next, rig.intrinsics,
                       out=np.empty((2,) + obj.shape), z=z)
        _occluded(proj, z, obj, obj > 0, next_frame, eps, out=mask[rows])

    _parallel.map_ordered(band, _parallel.bands(h, _parallel.GT_BAND_ROWS))
    return mask


def reconstruct_scene_flow(flow: np.ndarray, disparity: np.ndarray,
                           dispchange: np.ndarray, rig: StereoRig,
                           pose_t: CameraPose, pose_next: CameraPose):
    """Rebuild 3D positions and world-frame motion from the components.

    Returns (position, motion): (H, W, 3) world-frame point at t and its
    3D displacement to t+1, in float64 whatever the dtype of the maps
    (`derive_frame`'s are float32), which are widened first. NaN
    components stay NaN; finite non-positive disparities (d or
    d + delta-d) are rejected.
    """
    flow, disparity, dispchange = (_wide(a) for a in (flow, disparity, dispchange))
    h, w = disparity.shape
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

    p_cam = unproject(px, rig.bf / safe_d, rig.intrinsics)
    p_next_cam = unproject(px + safe_flow, rig.bf / safe_dn, rig.intrinsics)
    p_world = pose_t.camera_to_world(p_cam)
    p_next_world = pose_next.camera_to_world(p_next_cam)
    motion = p_next_world - p_world
    p_world[~valid] = np.nan
    motion[~valid] = np.nan
    return p_world, motion


def derive_frame(passes: FramePasses, rig: StereoRig) -> GroundTruthFrame:
    """All per-view ground-truth maps for one rendered frame, seen by
    the rig's one camera: positions project through `rig.intrinsics`, and
    b*f is `rig.bf`. The depth Z_t is pos3d_t's Z, the one Z every map
    reads. Disparity is b*f/Z_t at valid pixels and NaN at void; a covered
    pixel whose b*f/Z_t is not positive and at most the float32 maximum
    (a Z_t that is non-positive, NaN, infinite or so small that the
    disparity overflows float32) raises DataCorruptionError, as does a
    covered pixel whose pos3d_t X or Y, or whose point in pos3d_prev or
    pos3d_next, is NaN or infinite (`_refuse_non_finite`); the error's
    `pass_name` is "depth" or that pass. Flow is the
    difference of the projected 3D positions, defined also where the
    point is occluded in the other frame; disparity change is
    b*f/Z_other - b*f/Z_t, positive for approaching surfaces, with
    b*f/Z_t the float64 disparity; both are NaN at void and where the
    other frame's point is gone (`_gone`, `_flow`): its Z is not
    positive, its b*f/Z is past the float32 maximum or its flow rounds to
    +-inf in float32. Motion boundaries
    mark both pixels of every 4-adjacent pair of different objects whose
    forward flows differ by at least MOTION_DIFF_THRESHOLD_PX, less the
    8-connected components of fewer than MIN_BOUNDARY_AREA_PX pixels
    (`_drop_small_components`, which gives the mask of
    `scipy.ndimage.label` with a 3x3 structure). The forward occlusion
    mask reads frame t + 1, so it is the other step's:
    `compute_occlusion_mask` of the view's passes and frame t + 1's
    `NextFrameTables`.

    Every map but the boundaries' component filter is per pixel, so they
    run on the `_parallel.GT_BAND_ROWS`-row bands of `_parallel.bands`;
    each band reads its rows of the position passes in place and widens
    each pass's Z once into one contiguous float64 plane: pos3d_t's, from
    which it divides b*f once, checks the quotient at its covered pixels
    and writes its rows of the disparity, then pos3d_prev's and
    pos3d_next's in turn, each of which becomes that pass's b*f/Z for its
    disparity change. It projects each 3D-position pass once, with its Z
    plane, into one of two (2, rows, W) buffers of u and v planes
    (pos3d_t's, and pos3d_prev's, then pos3d_next's in turn), computes in
    float64 in place in those and a few other band-sized buffers, and
    writes its rows of the full maps, rounding flow, disparity and
    disparity change to float32 there. The forward flow is computed in
    place of pos3d_t's projection. Each band also marks the motion
    boundaries' pixel pairs within its rows from its float64 forward flow
    and keeps that flow's first and last rows, from which the pairs across
    band edges are marked once the bands are done (`_mark_edge_pairs`); no
    whole-frame float64 map is held. Small boundary components, which a
    band cannot see, are dropped from the whole mask. The maps do not
    depend on the band height or the number of workers.
    """
    h, w = passes.object_index.shape
    fwd, bwd = passes.pos3d_next is not None, passes.pos3d_prev is not None

    def new(*shape, dtype=np.float32):
        return np.empty((h, w) + shape, dtype=dtype)

    frame = GroundTruthFrame(
        flow_fwd=new(2) if fwd else None,
        flow_bwd=new(2) if bwd else None,
        disparity=new(),
        dispchange_fwd=new() if fwd else None,
        dispchange_bwd=new() if bwd else None,
        motion_boundaries=new(dtype=bool) if fwd else None,
    )
    k, bf = rig.intrinsics, rig.bf

    def band(rows):
        obj = passes.object_index[rows]
        void = obj <= 0
        # the band's rows of the position passes, read in place: every
        # float64 step names its loop, since NEP 50 runs `float * float32`
        # in float32
        pos_t, pos_prev, pos_next = (
            None if a is None else a[rows]
            for a in (passes.pos3d_t, passes.pos3d_prev, passes.pos3d_next))
        # pos3d_t's Z, widened once into a contiguous float64 plane, gives
        # each point's disparity b*f/Z_t (rounded as it is written to the
        # band's rows) and pos3d_t's projection; the plane then holds each
        # neighbour's Z in turn. A corrupt Z_t may raise a flag: the check
        # refuses it
        z = _z_plane(pos_t[..., 2])
        with np.errstate(divide="ignore", over="ignore"):
            bf_over_z_t = np.divide(bf, z)
        ok = bf_over_z_t > 0
        ok &= bf_over_z_t <= np.finfo(np.float32).max
        ok |= void
        if not ok.all():
            raise DataCorruptionError(
                "a covered pixel's depth gives no finite, positive disparity",
                "depth")
        del ok
        _refuse_non_finite(pos_t[..., :2], void, "pos3d_t")  # Z is checked
        disparity = frame.disparity[rows]
        disparity[...] = bf_over_z_t
        disparity[void] = np.nan
        shape = (2,) + void.shape
        proj_t = project(pos_t, k, out=np.empty(shape), z=z)
        proj = np.empty(shape)
        # each neighbour's Z is widened into z and projected into proj; z
        # then becomes its b*f/Z. The backward flow is computed in place of
        # pos3d_prev's projection and the forward flow in place of
        # pos3d_t's, the last to read it
        flow = None
        for name, other, flows, dispchanges, into in (
                ("pos3d_prev", pos_prev, frame.flow_bwd, frame.dispchange_bwd,
                 proj),
                ("pos3d_next", pos_next, frame.flow_fwd, frame.dispchange_fwd,
                 proj_t)):
            if other is not None:
                _refuse_non_finite(other, void, name)
                project(other, k, out=proj, z=_z_plane(other[..., 2], out=z))
                gone = _gone(bf, z, void)
                flow = _flow(proj, proj_t, gone, out=flows[rows], into=into)
                _disparity_change(z, bf_over_z_t, gone,
                                  out=dispchanges[rows])
        del z, bf_over_z_t, proj  # before the motion pairs' temporaries
        if not fwd:
            return None
        frame.motion_boundaries[rows] = _mark_motion_pairs(obj, flow)
        return flow[:, [0, -1]]

    cuts = _parallel.bands(h, _parallel.GT_BAND_ROWS)
    edges = _parallel.map_ordered(band, cuts)
    if fwd:
        _mark_edge_pairs(frame.motion_boundaries, passes.object_index, cuts,
                         edges)
        del edges  # before the filter, which sets the peak
        _drop_small_components(frame.motion_boundaries, MIN_BOUNDARY_AREA_PX)
    return frame

