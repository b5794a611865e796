import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sceneflowgen as sf
from sceneflowgen import render
from sceneflowgen.assets import Texture, make_cuboid
from sceneflowgen.errors import ContractError
from sceneflowgen.geometry import CameraIntrinsics, StereoRig
from sceneflowgen.render import NEAR_PLANE, FramePasses, _clip_near, rasterize_frame
from sceneflowgen.scene import ObjectInstance, SceneSpec
from sceneflowgen.trajectory import Trajectory

from conftest import set_cpus, small_params

# 128 px / 32 mm sensor: focal_px = 4 * focal_mm, so 35 mm -> 140 px
INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)


def box_object(center, scale, frames=2):
    mesh = make_cuboid()
    tex = Texture("checker", {"scale": 4.0, "color_a": (1, 1, 1),
                              "color_b": (0.2, 0.2, 0.2)})
    return ObjectInstance(
        mesh=mesh, texture=tex,
        scale=np.asarray(scale, dtype=np.float64),
        trajectory=Trajectory.static(center, t0=1.0, t1=float(frames)),
    )


def box_scene(boxes, frames=2, baseline=1.0):
    """Scene of static axis-aligned boxes seen by a static camera at the
    origin; boxes[0] plays the ground-plane slot."""
    return SceneSpec(
        seed=0, frames=frames,
        rig_trajectory=Trajectory.static([0.0, 0.0, 0.0], t0=1.0, t1=float(frames)),
        objects=[], ground_plane=boxes[0], background_objects=list(boxes[1:]),
        rig=StereoRig(baseline, INTR),
    )


class TestFrontoParallelQuad:
    # front face of the box sits exactly at Z = 10
    SPEC = box_scene([box_object((0, 0, 10.25), (4, 4, 0.5))])

    def test_depth_is_exact(self):
        fp = rasterize_frame(self.SPEC, 1, "left")
        assert fp.valid.any()
        assert np.allclose(fp.depth[fp.valid], 10.0, atol=1e-9)
        assert set(np.unique(fp.object_index)) == {0, 1}

    def test_covered_pixel_count_matches_projection(self):
        # half-extent 2 at Z=10 with f=140 -> +-28 px around (64, 48):
        # a 56 x 56 square aligned with pixel boundaries
        fp = rasterize_frame(self.SPEC, 1, "left")
        assert int(fp.valid.sum()) == 56 * 56
        ys, xs = np.nonzero(fp.valid)
        assert (xs.min(), xs.max()) == (36, 91)
        assert (ys.min(), ys.max()) == (20, 75)

    def test_pos3d_t_projects_to_pixel_centers(self):
        fp = rasterize_frame(self.SPEC, 1, "left")
        ys, xs = np.nonzero(fp.valid)
        uv = sf.project(fp.pos3d_t[fp.valid], INTR)
        centers = np.stack([xs + 0.5, ys + 0.5], axis=-1)
        assert np.max(np.abs(uv - centers)) < 0.5
        assert np.array_equal(fp.pos3d_t[fp.valid][:, 2], fp.depth[fp.valid])


class TestZOrder:
    def test_nearer_surface_wins(self):
        # both boxes project onto the same 56 x 56 square; the near one
        # (front face Z=5, half-extent 1) must own every covered pixel
        back = box_object((0, 0, 10.25), (4, 4, 0.5))
        front = box_object((0, 0, 5.25), (2, 2, 0.5))
        # an object's index is its 1-based place in draw order
        for order, place in (([back, front], 2), ([front, back], 1)):
            fp = rasterize_frame(box_scene(order), 1, "left")
            covered = fp.object_index == place
            assert covered.sum() == 56 * 56
            assert np.allclose(fp.depth[covered], 5.0, atol=1e-9)
            assert set(np.unique(fp.object_index)) == {0, place}


class TestStereo:
    def test_integer_disparity_plane(self):
        # Z=14, b=1, f=140 -> disparity exactly 10 px, so the right view is
        # the left view shifted 10 whole pixels
        spec = box_scene([box_object((0, 0, 14.25), (4, 4, 0.5))])
        left = rasterize_frame(spec, 1, "left")
        right = rasterize_frame(spec, 1, "right")
        d = 10
        l_valid = left.valid
        ys, xs = np.nonzero(l_valid)
        keep = xs >= d
        assert keep.all()  # quad stays in frame after the shift
        assert np.array_equal(right.valid[ys, xs - d], l_valid[ys, xs])
        assert np.allclose(right.depth[ys, xs - d], left.depth[ys, xs], atol=1e-9)
        assert np.array_equal(right.rgb[ys, xs - d], left.rgb[ys, xs])


class TestStaticScene:
    def test_pos_passes_identical_when_nothing_moves(self):
        spec = sf.generate_flyingthings_scene(2, small_params(static=True))
        fp = rasterize_frame(spec, 2, "left")
        v = fp.valid
        assert np.allclose(fp.pos3d_prev[v], fp.pos3d_t[v], atol=1e-9)
        assert np.allclose(fp.pos3d_next[v], fp.pos3d_t[v], atol=1e-9)

    def test_void_is_rare(self, rendered_scene):
        _, passes = rendered_scene
        for fp in passes.values():
            assert fp.valid.mean() > 0.99


class TestRenderedSceneSanity:
    def test_boundary_passes_absent(self, rendered_scene):
        _, passes = rendered_scene
        assert passes[(1, "left")].pos3d_prev is None
        assert passes[(3, "left")].pos3d_next is None
        assert passes[(2, "left")].pos3d_prev is not None
        assert passes[(2, "left")].pos3d_next is not None

    def test_pos3d_projection_consistency(self, rendered_scene):
        spec, passes = rendered_scene
        fp = passes[(2, "left")]
        ys, xs = np.nonzero(fp.valid)
        uv = sf.project(fp.pos3d_t[fp.valid], spec.rig.intrinsics)
        centers = np.stack([xs + 0.5, ys + 0.5], axis=-1)
        assert np.max(np.abs(uv - centers)) < 0.5

    def test_depth_positive_and_finite(self, rendered_scene):
        _, passes = rendered_scene
        for fp in passes.values():
            assert np.all(fp.depth[fp.valid] > 0)
            assert np.all(np.isnan(fp.depth[~fp.valid]))


class TestDeterminism:
    def test_repeat_render_is_byte_identical(self):
        spec = sf.generate_flyingthings_scene(4, small_params())
        a = rasterize_frame(spec, 2, "left")
        b = rasterize_frame(spec, 2, "left")
        for name in ("rgb", "depth", "pos3d_t", "pos3d_prev", "pos3d_next",
                     "object_index"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestContracts:
    def test_time_out_of_range(self):
        spec = box_scene([box_object((0, 0, 10.25), (4, 4, 0.5))])
        with pytest.raises(ContractError):
            rasterize_frame(spec, 0, "left")
        with pytest.raises(ContractError):
            rasterize_frame(spec, 3, "left")


def test_shading_memory_is_bounded(monkeypatch):
    # On one worker, what _shade holds above its inputs and outputs is the
    # covered pixels in object order and their winners' rows (16 bytes per
    # covered pixel, under 32), plus one batch's working set: under 256
    # bytes per pixel of a batch, a noise texture's sampling included.
    # Holding the unsorted and the sorted pixels, rows and object indices
    # and the sort order at once read 4,186,624 bytes here, against a
    # bound of 3,506,176.
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(render, "_SHADE_BATCH", 4096)
    spec = sf.generate_flyingthings_scene(
        42, sf.FlyingThingsParams(frames=3, width=320, height=240))
    intr = spec.rig.intrinsics
    w, h = intr.image_size
    objects = spec.all_objects()
    scr = render._screen_setup(
        *render._collect(objects, 2, *(spec.camera_pose(t, "left") for t in (2, 1, 3))),
        intr, w, h)
    zbuf, owner = render._resolve_depth(scr, w, h)
    covered = int((owner != render._NO_OWNER).sum())
    passes = [np.zeros((h * w, 3), dtype=np.uint8), np.zeros(h * w, dtype=np.uint16),
              *(np.full((h * w, 3), np.nan) for _ in range(3))]
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        render._shade(scr, objects, zbuf, owner, w, passes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert covered > 0.9 * h * w
    bound = 32 * covered + 256 * render._SHADE_BATCH
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("batch", [100, 1024, 1 << 15])
@pytest.mark.parametrize("scene", ["one box", "flyingthings"])
def test_shading_units_follow_pixels_not_objects(monkeypatch, scene, batch):
    # a view's shading is one map over ceil(covered / _SHADE_BATCH)
    # units, however many objects cover its pixels
    monkeypatch.setattr(render, "_SHADE_BATCH", batch)
    units = []
    ordered = render.map_ordered

    def counted(fn, items):
        items = list(items)
        units.append(len(items))
        return ordered(fn, items)

    monkeypatch.setattr(render, "map_ordered", counted)
    if scene == "one box":
        spec = box_scene([box_object((0, 0, 10.25), (4, 4, 0.5))])
    else:
        spec = sf.generate_flyingthings_scene(42, small_params())
    fp = rasterize_frame(spec, 2, "left")
    covered = int(fp.valid.sum())
    assert units == [-(-covered // batch)]
    # batches of one object each would be more units
    per_object = sum(-(-n // batch) for n in np.bincount(fp.object_index[fp.valid]))
    assert (per_object > units[0]) == (scene == "flyingthings"), per_object


# ---------------------------------------------------------------------------
# Row spans: the fold evaluates only span cells, so they must hold every
# cell of a triangle's bounding-box grid that its edge test covers.

def _screen(triangles, f, c, w, h):
    """Screen set-up of camera-space (3, 3) triangles: focal length f,
    principal point (c, c), image w x h. A 64 px image on a 64 mm sensor
    makes focal_px exactly f; the set-up clips to w x h, not to that image."""
    k = CameraIntrinsics(focal_mm=f, sensor_width_mm=64.0, image_size=(64, 64),
                         principal_point=(c, c))
    attrs = np.zeros((len(triangles), 3, 5))
    attrs[:, :, :3] = triangles
    n = len(triangles)
    return render._screen_setup(attrs, np.ones(n, dtype=np.uint16), np.ones(n), k, w, h)


def _bounding_box_cells(scr):
    """(triangle, y, x) of every bounding-box cell the fold's edge test
    covers: its expression and top-left rule on the whole grid."""
    cells = set()
    for t in range(len(scr.area)):
        x = np.arange(scr.x0[t], scr.x1[t])
        y = np.arange(scr.y0[t], scr.y1[t])
        px = (x + 0.5)[None, :]
        py = (y + 0.5)[:, None]
        covered = np.ones((len(y), len(x)), dtype=bool)
        for i in range(3):
            wv = scr.ex[i, t] * (py - scr.ay[i, t]) - scr.ey[i, t] * (px - scr.ax[i, t])
            covered &= (wv > 0) | ((wv == 0) & scr.top_left[i, t])
        ys, xs = np.nonzero(covered)
        cells.update((t, int(y[j]), int(x[i])) for j, i in zip(ys, xs))
    return cells


def _span_cells(scr, batch):
    """(triangle, y, x) of every span cell, checking each batch's size and
    that spans stay in their bounding box, one per (triangle, row)."""
    cells, rows = set(), set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_FRAGMENT_BATCH", batch)
        jobs = list(render._fragment_jobs(scr))
    for tri, y, x0, length in jobs:
        assert len(tri) == 1 or len(tri) * int(length.max()) <= batch
        for t, yy, xx, n in zip(*(a.tolist() for a in (tri, y, x0, length))):
            assert n > 0 and (t, yy) not in rows
            assert scr.y0[t] <= yy < scr.y1[t]
            assert scr.x0[t] <= xx and xx + n <= scr.x1[t]
            rows.add((t, yy))
            cells.update((t, yy, x) for x in range(xx, xx + n))
    return cells


# screen coordinates: pixel centres and pixel corners (exact ties on edges
# and vertices; repeats make horizontal and vertical edges), any float
# near the image, and far outside it
_coordinate = st.one_of(
    st.integers(-8, 90).map(lambda k: k / 2),
    st.floats(-60, 60, allow_nan=False),
    st.floats(1e3, 1e12).flatmap(lambda v: st.sampled_from([v, -v])),
)
_point = st.tuples(_coordinate, _coordinate)


@st.composite
def _screen_triangle(draw):
    """Three screen-space vertices, at Z = 1 so that f = 1 and a principal
    point at 0 leave them exact."""
    kind = draw(st.sampled_from(["any", "sliver", "through a centre"]))
    if kind == "through a centre":
        # a and b on either side of a pixel centre along one direction:
        # the edge passes the centre by a rounding error either way
        centre = np.array([draw(st.integers(-2, 42)), draw(st.integers(-2, 32))]) + 0.5
        d = np.array([draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))]) / 1000
        a = centre + draw(st.integers(10, 3000)) / 100 * d
        b = centre - draw(st.integers(10, 3000)) / 100 * d
        c = draw(_point)
    else:
        a, b = np.array(draw(_point)), np.array(draw(_point))
        if kind == "sliver":
            # the third vertex a hair off the line through a and b
            s = draw(st.floats(-2, 3))
            off = draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-3]))
            c = a + s * (b - a) + np.array([off, -off])
        else:
            c = draw(_point)
    return np.array([[*a, 1.0], [*b, 1.0], [*c, 1.0]])


@settings(max_examples=300, deadline=None)
@given(tris=st.lists(_screen_triangle(), min_size=1, max_size=6),
       size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
       batch=st.sampled_from([1, 8, 1 << 16]))
# an edge through four pixel centres that the fold covers: spans without
# their relative margin miss them, by rounding
@example(tris=[np.array([[12.06788, 23.93212, 1.0], [15.71904, 20.28096, 1.0],
                         [0.0, 8.9, 1.0]])], size=(40, 30), batch=1 << 16)
def test_spans_hold_every_covered_cell(tris, size, batch):
    scr = _screen(np.array(tris), 1.0, 0.0, *size)
    assert _bounding_box_cells(scr) <= _span_cells(scr, batch)


# Far from every integer: the margin of a span bound is at most
# _SPAN_SLACK * (60 + (60 + 30) * 120 / 1e-3) < 9.9e-6 px for the vertices,
# edges and images of the test below, and the crossings round by far less.
_CLEARANCE = 1e-5
_near_vertex = st.tuples(st.floats(-60, 60), st.floats(-60, 60))


@settings(max_examples=300, deadline=None)
@given(tris=st.lists(st.tuples(_near_vertex, _near_vertex, _near_vertex),
                     min_size=1, max_size=4),
       size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
       batch=st.sampled_from([1, 8, 1 << 16]))
def test_spans_hold_only_covered_cells(tris, size, batch):
    # with no horizontal edge and every crossing clear of the integers, a
    # span is exactly the covered cells of its row: no spare cell either side
    scr = _screen(np.array([[[x, y, 1.0] for x, y in tri] for tri in tris]),
                  1.0, 0.0, *size)
    assume(np.all(np.abs(scr.ey) >= 1e-3))
    for t in range(len(scr.area)):
        py = np.arange(scr.y0[t], scr.y1[t]) + 0.5
        for i in range(3):
            # the edge's crossing with each row, in pixel-index coordinates
            c = scr.ax[i, t] + (py - scr.ay[i, t]) * (scr.ex[i, t] / scr.ey[i, t]) - 0.5
            assume(np.all(np.abs(c - np.round(c)) >= _CLEARANCE))
    assert _span_cells(scr, batch) == _bounding_box_cells(scr)


_camera_vertex = st.tuples(
    st.floats(-3, 3), st.floats(-3, 3),
    st.one_of(st.floats(-1, 2 * NEAR_PLANE),
              st.sampled_from([NEAR_PLANE, NEAR_PLANE * (1 + 1e-12)])))


@settings(max_examples=200, deadline=None)
@given(tri=st.tuples(_camera_vertex, _camera_vertex, _camera_vertex),
       size=st.tuples(st.integers(1, 40), st.integers(1, 30)),
       batch=st.sampled_from([1, 8, 1 << 16]))
def test_spans_hold_every_covered_cell_near_plane(tri, size, batch):
    # triangles cut at Z = near project to huge screen coordinates
    w, h = size
    fan = _clip_near(np.array(tri))
    if not fan:
        return
    scr = _screen(np.array(fan), 500.0, w / 2, w, h)
    assert _bounding_box_cells(scr) <= _span_cells(scr, batch)
