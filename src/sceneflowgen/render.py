"""Deterministic z-buffer rasterizer.

Produces, per frame and per stereo view, the RGB image, depth, the object
index mask, and three 3D-position passes: the surface point's
position at time t (camera frame of t), and the same surface point's
position at t-1 / t+1 expressed in the camera frame of that time. All
passes are rasterized with time-t geometry, so corresponding pixels of the
three passes refer to the same surface point.

Rasterization is batched array work rather than a loop over triangles:

1. Collect every object's triangles with their per-vertex attributes, in
   draw order: object in `SceneSpec.all_objects()` order, triangle index,
   then clip-fan index. Only triangles that straddle Z = near are clipped.
2. Project all triangles at once, reverse those of negative screen area,
   and compute bounding boxes and top-left fill flags.
3. Cut each triangle's bounding box into row spans, the part of each row
   where its edge functions can all be non-negative, and evaluate Pineda
   edge functions and depth on spans of similar length in fixed-size
   fragment batches.
4. Keep a per-pixel z-buffer and the draw order of its owner across
   batches. A pixel goes to the lexicographic minimum of (depth, draw
   order) over fragments with finite depth: a strictly nearer fragment
   wins, and of two at equal depth the earlier draw wins.
5. Interpolate attributes and sample textures once per covered pixel, for
   its winner only, in fixed-size batches grouped by object.

Steps 4 and 5 run on the thread map of `_parallel`: the fragment batches
are dealt to one z-buffer per worker and the z-buffers fold by the same
minimum, and each shading batch writes its own pixels.

The per-pixel arithmetic is the same float64 expression sequence a
per-triangle loop would evaluate on the whole bounding box, and a span
holds every pixel that arithmetic covers, so the passes do not depend on
spans, batch sizes or the number of workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import map_ordered, map_shares
from .errors import ContractError
from .geometry import CameraIntrinsics, CameraPose
from .scene import SceneSpec

__all__ = ["FramePasses", "rasterize_frame"]

NEAR_PLANE = 0.1
_LIGHT_DIR = np.array([0.35, -0.5, 0.6]) / np.linalg.norm([0.35, -0.5, 0.6])
_AMBIENT = 0.35
# Fragments (span cells) evaluated per batch, and covered pixels shaded
# per batch. Both bound the working set of a view.
_FRAGMENT_BATCH = 1 << 16
_SHADE_BATCH = 1 << 15
# Relative widening of a span bound: far above the few ulps by which the
# crossing and the fold's edge expression can round.
_SPAN_SLACK = 2.0 ** -40
_BELOW_ZERO = -np.nextafter(0.0, 1.0)
_NO_OWNER = np.iinfo(np.int64).max


@dataclass
class FramePasses:
    rgb: np.ndarray  # (H, W, 3) uint8
    # depth and positions: float64 from the renderer, float32 when read
    # from files (`pipeline.load_frame_passes`); `groundtruth` widens them
    depth: np.ndarray  # (H, W), NaN at void
    pos3d_t: np.ndarray  # (H, W, 3), camera frame at t
    pos3d_prev: np.ndarray | None  # camera frame at t-1; None at t = 1
    pos3d_next: np.ndarray | None  # camera frame at t+1; None at t = frames
    # (H, W) uint16, 0 = void: the 1-based place of the pixel's object in
    # `SceneSpec.all_objects()`
    object_index: np.ndarray
    view: str
    frame_time: int
    camera_pose: CameraPose  # world -> camera at t
    camera_pose_prev: CameraPose | None
    camera_pose_next: CameraPose | None
    intrinsics: CameraIntrinsics

    @property
    def valid(self):
        return self.object_index > 0


def _clip_near(attrs, near=NEAR_PLANE):
    """Sutherland-Hodgman clip of one triangle against Z = near.

    `attrs` is (3, A) per vertex, the camera-space position in its first
    three columns. Attributes are linear over the 3D triangle, so plain
    linear interpolation along clipped edges is exact. Returns a fan of
    (3, A) triangles.
    """
    inside = attrs[:, 2] > near
    if inside.all():
        return [attrs]
    if not inside.any():
        return []
    poly = []
    for i in range(3):
        j = (i + 1) % 3
        ai, aj = attrs[i], attrs[j]
        if inside[i]:
            poly.append(ai)
        if inside[i] != inside[j]:
            s = (near - ai[2]) / (aj[2] - ai[2])
            poly.append(ai + s * (aj - ai))
    return [np.stack([poly[0], poly[i], poly[i + 1]])
            for i in range(1, len(poly) - 1)]


@dataclass
class _Triangles:
    """Camera-space triangles of one view, in draw order."""
    # (N, 3, A) per vertex: pos_t(3), pos_prev(3) where t > 1, pos_next(3)
    # where t < frames, uv(2)
    attrs: np.ndarray
    index: np.ndarray  # (N,) uint16: 1-based place of the object in `objects`
    shade: np.ndarray  # (N,) flat shading factor
    objects: list  # `SceneSpec.all_objects()`


def _camera_vertices(obj, base, pose, t):
    """Object vertices in the camera frame of `pose` at time t."""
    r, p = obj.pose_at(t)
    return pose.world_to_camera(base @ r.T + p)


def _collect(spec, t, pose_t, pose_prev, pose_next) -> _Triangles:
    objects = spec.all_objects()
    attrs, indices, shades = [], [], []
    for index, obj in enumerate(objects, 1):
        base = obj.mesh.vertices * obj.scale
        r_t, t_t = obj.pose_at(t)
        world_t = base @ r_t.T + t_t
        cam_t = pose_t.world_to_camera(world_t)
        # cheap whole-object cull
        if cam_t[:, 2].max() <= NEAR_PLANE:
            continue
        tris = obj.mesh.triangles
        tri_attrs = np.concatenate([
            cam_t,
            *(_camera_vertices(obj, base, pose, s)
              for pose, s in ((pose_prev, t - 1), (pose_next, t + 1))
              if pose is not None),
            obj.mesh.uv,
        ], axis=1)[tris]

        # flat shading: per-triangle world normal at t, the cross product
        # (vb - va) x (vc - va) in np.cross's order of operations
        va, vb, vc = (world_t[tris[:, i]] for i in range(3))
        (a0, a1, a2), (b0, b1, b2) = (vb - va).T, (vc - va).T
        normals = np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                            a0 * b1 - a1 * b0], axis=1)
        nlen = np.linalg.norm(normals, axis=1)
        nlen[nlen == 0] = 1.0
        shade = _AMBIENT + (1 - _AMBIENT) * np.abs(
            (normals / nlen[:, None]) @ _LIGHT_DIR
        )

        # whole triangles in front of the near plane go in as one block;
        # the clip fan of a straddling triangle follows it in draw order
        in_front = tri_attrs[:, :, 2] > NEAR_PLANE
        whole = in_front.all(axis=1)
        tri_ids = np.flatnonzero(whole)
        block = tri_attrs[whole]
        straddle = np.flatnonzero(in_front.any(axis=1) & ~whole)
        if len(straddle):
            keys, pieces = [2 * tri_ids], [block]
            for ti in straddle:
                fan = _clip_near(tri_attrs[ti])
                keys.append(2 * ti + np.arange(len(fan)))
                pieces.append(np.stack(fan))
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            tri_ids = keys[order] // 2
            block = np.concatenate(pieces)[order]

        attrs.append(block)
        indices.append(np.full(len(tri_ids), index, dtype=np.uint16))
        shades.append(shade[tri_ids])

    if not attrs:
        width = 5 + 3 * ((pose_prev is not None) + (pose_next is not None))
        return _Triangles(np.zeros((0, 3, width)), np.zeros(0, dtype=np.uint16),
                          np.zeros(0), objects)
    return _Triangles(np.concatenate(attrs), np.concatenate(indices),
                      np.concatenate(shades), objects)


@dataclass
class _Screen:
    """Screen-space set-up of the triangles that touch the image."""
    draw: np.ndarray  # (N,) row in _Triangles, i.e. draw order
    ax: np.ndarray  # (N, 3) edge i runs from vertex (i+1)%3 ...
    ay: np.ndarray
    ex: np.ndarray  # (N, 3) ... to vertex (i+2)%3: b - a
    ey: np.ndarray
    top_left: np.ndarray  # (N, 3) bool: edge i owns its zero set
    area: np.ndarray  # (N,) > 0
    z: np.ndarray  # (N, 3)
    attr_over_z: np.ndarray  # (3, N, 11) per vertex
    x0: np.ndarray  # (N,) bounding box [x0, x1) x [y0, y1), clamped
    x1: np.ndarray
    y0: np.ndarray
    y1: np.ndarray


def _screen_setup(tris: _Triangles, f, cx, cy, w, h) -> _Screen:
    attrs = tris.attrs
    sx = f * attrs[:, :, 0] / attrs[:, :, 2] + cx
    sy = f * attrs[:, :, 1] / attrs[:, :, 2] + cy
    area = ((sx[:, 1] - sx[:, 0]) * (sy[:, 2] - sy[:, 0])
            - (sy[:, 1] - sy[:, 0]) * (sx[:, 2] - sx[:, 0]))
    # negative area: reverse the vertex order, keep the negated area
    flip = area < 0
    sx[flip] = sx[flip, ::-1]
    sy[flip] = sy[flip, ::-1]
    area = np.abs(area)

    # clamp in float: off-screen vertices can lie far outside int64
    x0 = np.clip(np.floor(sx.min(axis=1) - 0.5), 0, w).astype(np.int64)
    x1 = np.clip(np.ceil(sx.max(axis=1) - 0.5) + 1, 0, w).astype(np.int64)
    y0 = np.clip(np.floor(sy.min(axis=1) - 0.5), 0, h).astype(np.int64)
    y1 = np.clip(np.ceil(sy.max(axis=1) - 0.5) + 1, 0, h).astype(np.int64)
    draw = np.flatnonzero((area > 0) & (x0 < x1) & (y0 < y1))

    sx, sy, attrs, flip = sx[draw], sy[draw], attrs[draw], flip[draw]
    attrs[flip] = attrs[flip, ::-1]
    a, b = [1, 2, 0], [2, 0, 1]
    ex = sx[:, b] - sx[:, a]
    ey = sy[:, b] - sy[:, a]
    z = attrs[:, :, 2]
    return _Screen(
        draw=draw, ax=sx[:, a], ay=sy[:, a], ex=ex, ey=ey,
        top_left=((ey == 0) & (ex > 0)) | (ey < 0),
        area=area[draw], z=z,
        attr_over_z=np.ascontiguousarray((attrs / z[:, :, None]).transpose(1, 0, 2)),
        x0=x0[draw], x1=x1[draw], y0=y0[draw], y1=y1[draw],
    )


def _fragment_jobs(scr: _Screen):
    """Row spans of the triangles, in batches of at most _FRAGMENT_BATCH
    cells: int32 (triangle, y, x0, length) arrays per batch.

    A span is the part of one bounding-box row where the triangle can
    cover. Along a row each edge function is linear in x, so an edge with
    ey < 0 bounds x from below at its zero crossing and one with ey > 0
    from above; a horizontal edge does not bound x. Each bound is widened
    by one pixel plus a relative margin far above the rounding error of
    the crossing and of the fold's edge expression, so every cell the
    fold would cover lies in a span; a bound too large to compute is
    dropped. Spans are sorted by length and batched by length class: a
    class-k batch holds up to max(_FRAGMENT_BATCH >> max(k, 4), 1) spans
    of 2**(k-1) + 1 .. 2**k pixels. The batches are views of one table
    of 16 bytes per span, built _FRAGMENT_BATCH rows at a time so the
    float temporaries stay small.
    """
    rows = scr.y1 - scr.y0
    ends = np.cumsum(rows)
    total = int(ends[-1]) if len(ends) else 0
    if not total:
        return
    # the crossing of an edge with the row through the pixel centres py,
    # less 0.5 for the pixel index, is base + py * slope, where py < y1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        slope = scr.ex / scr.ey
        base = scr.ax - scr.ay * slope - 0.5
        margin = 1.0 + _SPAN_SLACK * (
            np.abs(scr.ax) + (np.abs(scr.ay) + scr.y1[:, None]) * np.abs(slope))
        # a finite margin means a finite slope, base and bound
        lower = (scr.ey < 0) & np.isfinite(margin)
        upper = (scr.ey > 0) & np.isfinite(margin)
        lo_base = np.where(lower, base - margin, -np.inf)
        lo_slope = np.where(lower, slope, 0.0)
        hi_base = np.where(upper, base + margin, np.inf)
        hi_slope = np.where(upper, slope, 0.0)

    # chunks of whole triangles, each holding about _FRAGMENT_BATCH rows
    cuts = np.unique(np.concatenate([
        [0], np.searchsorted(ends, np.arange(_FRAGMENT_BATCH, total, _FRAGMENT_BATCH)),
        [len(rows)]])).tolist()
    cols = [[], [], [], []]
    for t0, t1 in zip(cuts[:-1], cuts[1:]):
        tri = np.repeat(np.arange(t0, t1), rows[t0:t1])
        # row r of all the rows is row y1 - (ends - r) of its triangle
        y = scr.y1[tri] - ends[tri] + np.arange(ends[t0] - rows[t0], ends[t1 - 1])
        py = y + 0.5
        lo = scr.x0[tri].astype(np.float64)
        hi = scr.x1[tri].astype(np.float64)
        for i in range(3):
            np.maximum(lo, np.floor(lo_base[tri, i] + py * lo_slope[tri, i]), out=lo)
            np.minimum(hi, np.floor(hi_base[tri, i] + py * hi_slope[tri, i]) + 1, out=hi)
        length = hi - lo
        keep = length > 0
        for col, a in zip(cols, (tri, y, lo, length)):
            col.append(a[keep].astype(np.int32))
    cols = [np.concatenate(c) for c in cols]
    length = cols[3]
    if not len(length):
        return
    # sorted one column at a time, so at most one column is held twice;
    # numpy radix-sorts keys of 16 bits or less
    order = np.argsort(length.astype(np.min_scalar_type(int(length.max()))),
                       kind="stable")
    for i, c in enumerate(cols):
        cols[i] = c[order]
    del order, c
    tri, y, x0, length = cols
    # class k: lengths 2**(k-1) + 1 .. 2**k (class 0: length 1)
    classes = int(length[-1] - 1).bit_length() + 1
    start = 0
    for k, end in enumerate(np.searchsorted(length, (1 << np.arange(classes)) + 1).tolist()):
        # short spans: at most _FRAGMENT_BATCH >> 4 per batch, so their
        # per-span arrays stay a small part of the batch
        per_batch = max(_FRAGMENT_BATCH >> max(k, 4), 1)
        for s in range(start, end, per_batch):
            e = min(s + per_batch, end)
            yield tri[s:e], y[s:e], x0[s:e], length[s:e]
        start = end


def _resolve_depth(scr: _Screen, w, h):
    """Per-pixel z-buffer and the screen row of each pixel's winner.

    The fragment batches are dealt round-robin into one share per worker
    (`map_shares`); each share folds into its own pair, and the pairs
    fold together by the same lexicographic minimum of (depth, draw
    order), so the result does not depend on how the batches were dealt.
    """
    pairs = map_shares(lambda share: _fold_fragments(scr, share, w, h),
                       _fragment_jobs(scr))
    zbuf, owner = pairs[0]
    for z, o in pairs[1:]:
        np.minimum(owner, o, out=owner, where=z == zbuf)
        np.copyto(owner, o, where=z < zbuf)
        np.minimum(zbuf, z, out=zbuf)
    return zbuf, owner


def _fold_fragments(scr: _Screen, jobs, w, h):
    """Z-buffer and owner of the fragments of the given batches alone."""
    zbuf = np.full(h * w, np.inf)
    owner = np.full(h * w, _NO_OWNER, dtype=np.int64)
    for job in jobs:
        # int64 before anything is indexed: int32 indices are slower
        tri, y, x0, length = (a.astype(np.int64) for a in job)
        gw = int(length.max())
        ox = np.arange(gw)
        # x + 0.5 is exact in float64, whatever the order of the sums
        px = (x0 + 0.5)[:, None] + ox
        py = (y + 0.5)[:, None]
        covered = ox < length[:, None]
        area = scr.area[tri, None]
        z = scr.z[tri]
        for i in range(3):
            # w = ex * (py - ay) - ey * (px - ax), in place
            wv = px - scr.ax[tri, i, None]
            wv *= scr.ey[tri, i, None]
            np.subtract(scr.ex[tri, i, None] * (py - scr.ay[tri, i, None]), wv, out=wv)
            # w > -0 (the smallest subnormal below zero) is w >= 0:
            # (w > 0) | ((w == 0) & top_left) for every float, NaN included
            covered &= wv > np.where(scr.top_left[tri, i, None], _BELOW_ZERO, 0.0)
            # 1 / depth = w0 / area / z0 + w1 / area / z1 + w2 / area / z2
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                wv /= area
                wv /= z[:, i, None]
                if i == 0:
                    inv_z = wv
                else:
                    inv_z += wv
        del px, wv  # freed before the fragments are gathered: a lower peak
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            depth = np.divide(1.0, inv_z, out=inv_z)
        # NaN and inf never win: only finite depths compete
        covered &= depth < np.inf
        # a fragment behind the stored depth can no longer win; padding
        # cells past a span's end may index past the image, so clip
        pix = (y * w + x0)[:, None] + ox
        old = zbuf.take(pix, mode="clip")
        covered &= depth <= old
        cell = np.flatnonzero(covered)
        d = depth.reshape(-1)[cell]
        p = pix.reshape(-1)[cell]
        old = old.reshape(-1)[cell]
        # screen rows are in draw order, so the row stands for it
        o = tri[cell // gw]
        del covered, depth, pix, cell
        np.minimum.at(zbuf, p, d)
        new = zbuf[p]
        owner[p[new < old]] = _NO_OWNER
        tie = d == new
        np.minimum.at(owner, p[tie], o[tie])
    return zbuf, owner


def _shade(tris: _Triangles, scr: _Screen, zbuf, owner, w, passes):
    """Interpolate attributes and sample textures for each pixel's winner,
    in batches of one object that run through `map_ordered`.

    `passes` holds the flattened rgb (P, 3), object index (P,) and
    position (P, 3) outputs, the positions of the passes the view has in
    the order of the attribute columns.
    """
    rgb, obj_idx, *positions = passes
    pix = np.flatnonzero(owner != _NO_OWNER)
    row = owner[pix]
    index = tris.index[scr.draw[row]]
    # uint16 keys: a stable radix sort groups the winners by object
    order = np.argsort(index, kind="stable")
    pix, row, index = pix[order], row[order], index[order]
    starts = np.flatnonzero(np.diff(index, prepend=-1))
    ends = np.append(starts[1:], len(index))
    aoz = scr.attr_over_z
    batches = []
    for s, e in zip(starts, ends):
        obj = tris.objects[int(index[s]) - 1]
        # on no points: a noise texture builds its lattice here, once,
        # not in two workers at the same time
        obj.texture.sample(np.zeros((0, 2)))
        batches += [(obj, index[s], slice(c, min(c + _SHADE_BATCH, e)))
                    for c in range(s, e, _SHADE_BATCH)]

    def shade(batch):
        obj, idx, sel = batch
        p, r = pix[sel], row[sel]
        y, x = np.divmod(p, w)
        px = (x + 0.5)[:, None]
        py = (y + 0.5)[:, None]
        # lam = (ex * (py - ay) - ey * (px - ax)) / area, in place
        lam = py - scr.ay[r]
        lam *= scr.ex[r]
        term = px - scr.ax[r]
        term *= scr.ey[r]
        lam -= term
        lam /= scr.area[r, None]
        depth = zbuf[p]
        # perspective-correct attribute interpolation (attr/z affine in screen)
        interp = aoz[0][r]
        interp *= lam[:, 0, None]
        for k in (1, 2):
            term = aoz[k][r]
            term *= lam[:, k, None]
            interp += term
        interp *= depth[:, None]
        interp[:, 2] = depth  # keep pos3d_t.Z identical to the depth pass

        obj_idx[p] = idx
        for k, dst in enumerate(positions):
            dst[p] = interp[:, 3 * k:3 * k + 3]
        color = obj.texture.sample(interp[:, -2:])  # a new array
        color *= tris.shade[scr.draw[r], None]
        color *= 255.0
        rgb[p] = np.clip(np.rint(color, out=color), 0, 255, out=color).astype(np.uint8)

    # each covered pixel is in exactly one batch, so the batches write
    # disjoint elements of the outputs
    map_ordered(shade, batches)


def rasterize_frame(spec: SceneSpec, t: int, view: str) -> FramePasses:
    """Render one view at integer frame time t (1-based, inclusive)."""
    if not 1 <= t <= spec.frames:
        raise ContractError(f"frame time {t} outside [1, {spec.frames}]")
    intr = spec.rig.intrinsics
    w, h = intr.image_size
    cx, cy = intr.principal_point
    has_prev = t > 1
    has_next = t < spec.frames

    pose_t = spec.camera_pose(t, view)
    pose_prev = spec.camera_pose(t - 1, view) if has_prev else None
    pose_next = spec.camera_pose(t + 1, view) if has_next else None

    rgb = np.zeros((h, w, 3), dtype=np.uint8)
    obj_idx = np.zeros((h, w), dtype=np.uint16)
    pos_t = np.full((h, w, 3), np.nan, dtype=np.float64)
    pos_prev = np.full((h, w, 3), np.nan, dtype=np.float64) if has_prev else None
    pos_next = np.full((h, w, 3), np.nan, dtype=np.float64) if has_next else None

    tris = _collect(spec, t, pose_t, pose_prev, pose_next)
    scr = _screen_setup(tris, intr.focal_px, cx, cy, w, h)
    zbuf, owner = _resolve_depth(scr, w, h)
    _shade(tris, scr, zbuf, owner, w, [
        rgb.reshape(-1, 3), obj_idx.reshape(-1),
        *(p.reshape(-1, 3) for p in (pos_t, pos_prev, pos_next) if p is not None),
    ])

    depth = np.where(obj_idx > 0, zbuf.reshape(h, w), np.nan)
    return FramePasses(  # the passes in field order
        rgb, depth, pos_t, pos_prev, pos_next, obj_idx,
        view=view, frame_time=t, camera_pose=pose_t,
        camera_pose_prev=pose_prev, camera_pose_next=pose_next,
        intrinsics=intr,
    )
