"""Deterministic z-buffer rasterizer.

Produces, per frame and per stereo view, the RGB image, depth, object and
material index masks, and three 3D-position passes: the surface point's
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
3. Bucket triangles by bounding-box size and evaluate Pineda edge
   functions and depth for each bucket in fixed-size fragment batches.
4. Keep a per-pixel z-buffer and the draw order of its owner across
   batches. A pixel goes to the lexicographic minimum of (depth, draw
   order) over fragments with finite depth: a strictly nearer fragment
   wins, and of two at equal depth the earlier draw wins.
5. Interpolate attributes and sample textures once per covered pixel, for
   its winner only, in fixed-size batches grouped by material.

Steps 4 and 5 run on the thread map of `_parallel`: the fragment batches
are dealt to one z-buffer per worker and the z-buffers fold by the same
minimum, and each shading batch writes its own pixels.

The per-pixel arithmetic is the same float64 expression sequence a
per-triangle loop would evaluate, so the passes do not depend on batch
sizes, bucketing or the number of workers.
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
# Fragments (triangles x bounding-box pixels) evaluated per batch, and
# covered pixels shaded per batch. Both bound the working set of a view.
_FRAGMENT_BATCH = 1 << 16
_SHADE_BATCH = 1 << 15
_NO_OWNER = np.iinfo(np.int64).max


@dataclass
class FramePasses:
    rgb: np.ndarray  # (H, W, 3) uint8
    depth: np.ndarray  # (H, W) float32, NaN at void
    pos3d_t: np.ndarray  # (H, W, 3) float32, camera frame at t
    pos3d_prev: np.ndarray | None  # camera frame at t-1; None at t = 1
    pos3d_next: np.ndarray | None  # camera frame at t+1; None at t = frames
    object_index: np.ndarray  # (H, W) uint16, 0 = void
    material_index: np.ndarray  # (H, W) uint16, 0 = void
    view: str
    frame_time: int
    camera_pose: CameraPose  # world -> camera at t
    camera_pose_prev: CameraPose | None
    camera_pose_next: CameraPose | None
    intrinsics: CameraIntrinsics

    @property
    def valid(self):
        return self.object_index > 0


def _material_offsets(spec: SceneSpec):
    """Scene-global material index for each (object, local material)."""
    offsets = {}
    next_mat = 1
    for obj in spec.all_objects():
        locals_ = sorted(obj.materials)
        offsets[obj.object_index] = {m: next_mat + i for i, m in enumerate(locals_)}
        next_mat += len(locals_)
    return offsets


def _clip_near(tri_cam, attrs, near=NEAR_PLANE):
    """Sutherland-Hodgman clip of one triangle against Z = near.

    Attributes are linear over the 3D triangle, so plain linear
    interpolation along clipped edges is exact. Returns a fan of
    (3, 3) position / (3, A) attribute triangles.
    """
    z = tri_cam[:, 2]
    inside = z > near
    if inside.all():
        return [(tri_cam, attrs)]
    if not inside.any():
        return []
    poly_p, poly_a = [], []
    for i in range(3):
        j = (i + 1) % 3
        pi, pj = tri_cam[i], tri_cam[j]
        ai, aj = attrs[i], attrs[j]
        if inside[i]:
            poly_p.append(pi)
            poly_a.append(ai)
        if inside[i] != inside[j]:
            s = (near - pi[2]) / (pj[2] - pi[2])
            poly_p.append(pi + s * (pj - pi))
            poly_a.append(ai + s * (aj - ai))
    out = []
    for i in range(1, len(poly_p) - 1):
        out.append((
            np.stack([poly_p[0], poly_p[i], poly_p[i + 1]]),
            np.stack([poly_a[0], poly_a[i], poly_a[i + 1]]),
        ))
    return out


@dataclass
class _Triangles:
    """Camera-space triangles of one view, in draw order."""
    attrs: np.ndarray  # (N, 3, 11) per vertex: pos_t(3) pos_prev(3) pos_next(3) uv(2)
    object_index: np.ndarray  # (N,) uint16
    material: np.ndarray  # (N,) uint16 scene-global material index
    shade: np.ndarray  # (N,) flat shading factor
    textures: dict  # scene-global material index -> Texture


def _camera_vertices(obj, base, pose, t):
    """Object vertices in the camera frame of `pose` at time t; zeros
    where the frame does not exist."""
    if pose is None:
        return np.zeros_like(base)
    r, p = obj.pose_at(t)
    return pose.world_to_camera(base @ r.T + p)


def _collect(spec, t, pose_t, pose_prev, pose_next) -> _Triangles:
    offsets = _material_offsets(spec)
    attrs, obj_ids, mats, shades, textures = [], [], [], [], {}
    for obj in spec.all_objects():
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
            _camera_vertices(obj, base, pose_prev, t - 1),
            _camera_vertices(obj, base, pose_next, t + 1),
            obj.mesh.uv,
        ], axis=1)[tris]

        # flat shading: per-triangle world normal at t
        va, vb, vc = (world_t[tris[:, i]] for i in range(3))
        normals = np.cross(vb - va, vc - va)
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
                fan = _clip_near(tri_attrs[ti, :, :3], tri_attrs[ti])
                keys.append(2 * ti + np.arange(len(fan)))
                pieces.append(np.stack([cattrs for _, cattrs in fan]))
            keys = np.concatenate(keys)
            order = np.argsort(keys, kind="stable")
            tri_ids = keys[order] // 2
            block = np.concatenate(pieces)[order]

        local_ids = sorted(obj.materials)
        global_ids = [offsets[obj.object_index][m] for m in local_ids]
        tri_mats = np.searchsorted(local_ids, obj.triangle_materials[tri_ids])
        attrs.append(block)
        obj_ids.append(np.full(len(tri_ids), obj.object_index, dtype=np.uint16))
        mats.append(np.array(global_ids, dtype=np.uint16)[tri_mats])
        shades.append(shade[tri_ids])
        textures.update((g, obj.materials[m]) for m, g in zip(local_ids, global_ids))

    if not attrs:
        return _Triangles(np.zeros((0, 3, 11)), np.zeros(0, dtype=np.uint16),
                          np.zeros(0, dtype=np.uint16), np.zeros(0), {})
    return _Triangles(np.concatenate(attrs), np.concatenate(obj_ids),
                      np.concatenate(mats), np.concatenate(shades), textures)


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
    """Split bounding boxes into row bands of at most _FRAGMENT_BATCH
    pixels and yield batches of equal-size-class bands:
    (triangle, x0, width, y0, height) arrays per batch."""
    bw = scr.x1 - scr.x0
    bh = scr.y1 - scr.y0
    rows = np.maximum(_FRAGMENT_BATCH // bw, 1)
    bands = -(-bh // rows)
    tri = np.repeat(np.arange(len(bw)), bands)
    first = np.repeat(np.cumsum(bands) - bands, bands)
    band_y0 = scr.y0[tri] + (np.arange(len(tri)) - first) * rows[tri]
    band_h = np.minimum(scr.y1[tri] - band_y0, rows[tri])
    band_w = bw[tri]

    # size class (kx, ky): the band fits a 2**kx x 2**ky grid. Sorting
    # by exact size within a class keeps each batch's grid tight.
    kx = np.frexp(band_w - 1)[1]
    ky = np.frexp(band_h - 1)[1]
    order = np.lexsort((band_w, band_h, ky, kx))
    key = (kx * 64 + ky)[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], len(key))
    for s, e in zip(starts, ends):
        first_band = order[s]
        per_batch = max(_FRAGMENT_BATCH >> int(kx[first_band] + ky[first_band]), 1)
        for c in range(s, e, per_batch):
            sel = order[c:min(c + per_batch, e)]
            yield (tri[sel], scr.x0[tri[sel]], band_w[sel], band_y0[sel],
                   band_h[sel])


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
    for tri, x0, bw, y0, bh in jobs:
        gw, gh = int(bw.max()), int(bh.max())
        ox = np.arange(gw)
        oy = np.arange(gh)
        px = ((x0[:, None] + ox) + 0.5)[:, None, :]
        py = ((y0[:, None] + oy) + 0.5)[:, :, None]
        covered = (ox < bw[:, None])[:, None, :] & (oy < bh[:, None])[:, :, None]
        ws = []
        for i in range(3):
            ax = scr.ax[tri, i, None, None]
            ay = scr.ay[tri, i, None, None]
            ex = scr.ex[tri, i, None, None]
            ey = scr.ey[tri, i, None, None]
            wv = ex * (py - ay) - ey * (px - ax)
            covered &= (wv > 0) | ((wv == 0) & scr.top_left[tri, i, None, None])
            ws.append(wv)
        area = scr.area[tri, None, None]
        z = scr.z[tri]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inv_z = (ws[0] / area / z[:, 0, None, None]
                     + ws[1] / area / z[:, 1, None, None]
                     + ws[2] / area / z[:, 2, None, None])
            depth = 1.0 / inv_z
        # NaN and inf never win: only finite depths compete
        covered &= depth < np.inf
        pix = (y0[:, None] + oy)[:, :, None] * w + (x0[:, None] + ox)[:, None, :]
        d = depth[covered]
        p = pix[covered]
        # screen rows are in draw order, so the row stands for it
        o = np.broadcast_to(tri[:, None, None], covered.shape)[covered]
        # a fragment behind the stored depth can no longer win
        old = zbuf[p]
        keep = d <= old
        d, p, o, old = d[keep], p[keep], o[keep], old[keep]
        np.minimum.at(zbuf, p, d)
        new = zbuf[p]
        owner[p[new < old]] = _NO_OWNER
        tie = d == new
        np.minimum.at(owner, p[tie], o[tie])
    return zbuf, owner


def _shade(tris: _Triangles, scr: _Screen, zbuf, owner, w, passes):
    """Interpolate attributes and sample textures for each pixel's winner,
    in batches of one material that run through `map_ordered`.

    `passes` holds the flattened rgb (P, 3), object and material index
    (P,) and position (P, 3) outputs, position slots None where absent.
    """
    rgb, obj_idx, mat_idx, *positions = passes
    pix = np.flatnonzero(owner != _NO_OWNER)
    row = owner[pix]
    material = tris.material[scr.draw[row]]
    # uint16 keys: a stable radix sort groups the winners by texture
    order = np.argsort(material, kind="stable")
    pix, row, material = pix[order], row[order], material[order]
    starts = np.flatnonzero(np.diff(material, prepend=-1))
    ends = np.append(starts[1:], len(material))
    aoz = scr.attr_over_z
    batches = []
    for s, e in zip(starts, ends):
        texture = tris.textures[int(material[s])]
        # on no points: a noise texture builds its lattice here, once,
        # not in two workers at the same time
        texture.sample(np.zeros((0, 2)))
        batches += [(texture, material[s], slice(c, min(c + _SHADE_BATCH, e)))
                    for c in range(s, e, _SHADE_BATCH)]

    def shade(batch):
        texture, mat, sel = batch
        p, r = pix[sel], row[sel]
        y, x = np.divmod(p, w)
        px = (x + 0.5)[:, None]
        py = (y + 0.5)[:, None]
        lam = (scr.ex[r] * (py - scr.ay[r]) - scr.ey[r] * (px - scr.ax[r])) \
            / scr.area[r, None]
        depth = zbuf[p]
        # perspective-correct attribute interpolation (attr/z affine in screen)
        interp = aoz[0][r] * lam[:, 0, None]
        interp += aoz[1][r] * lam[:, 1, None]
        interp += aoz[2][r] * lam[:, 2, None]
        interp *= depth[:, None]
        interp[:, 2] = depth  # keep pos3d_t.Z identical to the depth pass

        tri = scr.draw[r]
        obj_idx[p] = tris.object_index[tri]
        mat_idx[p] = mat
        for k, dst in enumerate(positions):
            if dst is not None:
                dst[p] = interp[:, 3 * k:3 * k + 3]
        color = texture.sample(interp[:, 9:11]) * tris.shade[tri, None]
        rgb[p] = np.clip(np.rint(color * 255.0), 0, 255).astype(np.uint8)

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
    mat_idx = np.zeros((h, w), dtype=np.uint16)
    pos_t = np.full((h, w, 3), np.nan, dtype=np.float64)
    pos_prev = np.full((h, w, 3), np.nan, dtype=np.float64) if has_prev else None
    pos_next = np.full((h, w, 3), np.nan, dtype=np.float64) if has_next else None

    tris = _collect(spec, t, pose_t, pose_prev, pose_next)
    scr = _screen_setup(tris, intr.focal_px, cx, cy, w, h)
    zbuf, owner = _resolve_depth(scr, w, h)
    _shade(tris, scr, zbuf, owner, w, [
        rgb.reshape(-1, 3), obj_idx.reshape(-1), mat_idx.reshape(-1),
        *(p.reshape(-1, 3) if p is not None else None
          for p in (pos_t, pos_prev, pos_next)),
    ])

    return FramePasses(
        rgb=rgb,
        depth=np.where(obj_idx > 0, zbuf.reshape(h, w), np.nan).astype(np.float64),
        pos3d_t=pos_t,
        pos3d_prev=pos_prev,
        pos3d_next=pos_next,
        object_index=obj_idx,
        material_index=mat_idx,
        view=view,
        frame_time=t,
        camera_pose=pose_t,
        camera_pose_prev=pose_prev,
        camera_pose_next=pose_next,
        intrinsics=intr,
    )
