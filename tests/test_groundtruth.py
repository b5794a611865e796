import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial.transform import Rotation

import sceneflowgen as sf
from sceneflowgen import _parallel, groundtruth as gt
from sceneflowgen.errors import ContractError, DataCorruptionError, GeometryError
from sceneflowgen.geometry import CameraIntrinsics, CameraPose, StereoRig

from conftest import SMALL, bilinear_sample, make_passes, set_cpus
from test_raster_parity import box, scene

INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)  # focal_px = 140
RIG = StereoRig(CameraPose(), 1.0, INTR)
DATASET_RIG = StereoRig(CameraPose(), 1.0,
                        CameraIntrinsics.from_sensor(35, 32, 960, 540))


class TestDisparity:
    def test_dataset_rig_example(self):
        passes = make_passes(np.full((4, 4), 35.0), DATASET_RIG.intrinsics)
        d = gt.derive_disparity(passes, DATASET_RIG)
        assert np.allclose(d, 30.0)

    def test_far_limit(self):
        passes = make_passes(np.full((2, 2), 1e6), DATASET_RIG.intrinsics)
        d = gt.derive_disparity(passes, DATASET_RIG)
        assert np.allclose(d, 1.05e-3)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(2.0, 50.0, (9, 13))
        depth[rng.random(depth.shape) < 0.2] = np.nan
        passes = make_passes(depth, INTR)
        d = gt.derive_disparity(passes, RIG)
        for y in range(depth.shape[0]):
            for x in range(depth.shape[1]):
                if np.isnan(depth[y, x]):
                    assert np.isnan(d[y, x])
                else:
                    expected = RIG.baseline * INTR.focal_px / depth[y, x]
                    assert d[y, x] == pytest.approx(expected, rel=1e-12)

    def test_corrupt_depth_rejected(self):
        passes = make_passes(np.full((3, 3), 5.0), INTR)
        passes.depth[1, 1] = -1.0
        with pytest.raises(DataCorruptionError):
            gt.derive_disparity(passes, RIG)


class TestFlow:
    def test_static_point_zero_flow(self):
        depth = np.full((6, 8), 10.0)
        passes = make_passes(depth, INTR)
        passes.pos3d_next = passes.pos3d_t.copy()
        flow = gt.derive_flow(passes, "fwd")
        assert np.allclose(flow, 0.0, atol=1e-12)

    def test_lateral_translation(self):
        # X += 0.5 at Z = 10 with f = 140 -> u moves by 140*0.5/10 = 7 px
        depth = np.full((6, 8), 10.0)
        passes = make_passes(depth, INTR)
        nxt = passes.pos3d_t.copy()
        nxt[..., 0] += 0.5
        passes.pos3d_next = nxt
        flow = gt.derive_flow(passes, "fwd")
        assert np.allclose(flow[..., 0], 7.0, atol=1e-12)
        assert np.allclose(flow[..., 1], 0.0, atol=1e-12)

    def test_defined_under_occlusion_nan_at_void(self):
        depth = np.full((4, 4), 10.0)
        depth[0, 0] = np.nan
        passes = make_passes(depth, INTR)
        passes.pos3d_next = passes.pos3d_t.copy()
        flow = gt.derive_flow(passes, "fwd")
        assert np.all(np.isnan(flow[0, 0]))
        assert np.isfinite(flow[1:, 1:]).all()

    def test_boundary_frame_returns_none(self):
        passes = make_passes(np.full((4, 4), 10.0), INTR)
        assert gt.derive_flow(passes, "fwd") is None
        assert gt.derive_flow(passes, "bwd") is None

    def test_bad_direction(self):
        passes = make_passes(np.full((4, 4), 10.0), INTR)
        with pytest.raises(ContractError):
            gt.derive_flow(passes, "sideways")


class TestDisparityChange:
    def make(self, z_t, z_next):
        passes = make_passes(np.full((4, 4), z_t), INTR)
        nxt = passes.pos3d_t.copy()
        nxt *= z_next / z_t  # same ray, different depth
        passes.pos3d_next = nxt
        return passes

    def test_static_zero(self):
        dd = gt.derive_disparity_change(self.make(14.0, 14.0), RIG, "fwd")
        assert np.allclose(dd, 0.0, atol=1e-12)

    def test_approaching_positive(self):
        # bf = 140: d goes 10 -> 15 as Z goes 14 -> 140/15
        dd = gt.derive_disparity_change(self.make(14.0, 140.0 / 15.0), RIG, "fwd")
        assert np.allclose(dd, 5.0)

    def test_receding_negative(self):
        dd = gt.derive_disparity_change(self.make(14.0, 28.0), RIG, "fwd")
        assert np.allclose(dd, -5.0)


class TestMotionBoundaries:
    def two_object_passes(self, obj2_mask, flow2=(2.0, 0.0), shape=(16, 16)):
        depth = np.full(shape, 10.0)
        obj = np.ones(shape, dtype=np.uint16)
        obj[obj2_mask] = 2
        passes = make_passes(depth, INTR, index=obj)
        flow = np.zeros(shape + (2,))
        flow[obj2_mask] = flow2
        return passes, flow

    def test_below_threshold_no_boundary(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask, flow2=(1.4, 0.0))
        mb = gt.derive_motion_boundaries(passes, flow)
        assert not mb.any()

    def test_above_threshold_marks_both_sides(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask, flow2=(1.6, 0.0))
        mb = gt.derive_motion_boundaries(passes, flow)
        assert mb[:, 7].all() and mb[:, 8].all()
        assert not mb[:, :7].any() and not mb[:, 9:].any()

    def test_same_object_never_boundary(self):
        depth = np.full((16, 16), 10.0)
        passes = make_passes(depth, INTR)
        flow = np.zeros((16, 16, 2))
        flow[:, 8:] = (30.0, 0.0)  # huge flow gradient, one object
        assert not gt.derive_motion_boundaries(passes, flow).any()

    def test_nine_pixel_component_removed(self):
        # corner at (13, 14): 6 px along the vertical edge + 4 along the
        # horizontal edge, sharing one pixel -> a 9 px component
        mask = np.zeros((16, 16), dtype=bool)
        mask[13:, 14:] = True
        passes, flow = self.two_object_passes(mask)
        assert not gt.derive_motion_boundaries(passes, flow).any()

    def test_ten_pixel_component_kept(self):
        # straight boundary, flow difference above threshold on 5 rows only
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask)
        flow[5:, :] = 0.0  # below-threshold rows contribute no pairs
        mb = gt.derive_motion_boundaries(passes, flow)
        assert int(mb.sum()) == 10
        assert mb[:5, 7:9].all()


def drop_small_components_reference(mask, min_area):
    """The scipy.ndimage filter the numpy union-find replaced."""
    mask = mask.copy()
    labels, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    if n:
        sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, n + 1))
        mask[np.isin(labels, np.nonzero(sizes < min_area)[0] + 1)] = False
    return mask


@st.composite
def boolean_masks(draw):
    shape = draw(st.sampled_from([
        (1, draw(st.integers(1, 40))), (draw(st.integers(1, 40)), 1),
        (draw(st.integers(1, 24)), draw(st.integers(1, 24))),
    ]))
    fill = draw(st.sampled_from(["random", "all", "none"]))
    if fill == "all":
        return np.ones(shape, dtype=bool)
    if fill == "none":
        return np.zeros(shape, dtype=bool)
    bits = draw(st.lists(st.booleans(), min_size=shape[0] * shape[1],
                         max_size=shape[0] * shape[1]))
    return np.array(bits, dtype=bool).reshape(shape)


def serpentine(h, w):
    """One 8-connected path that zigzags over every other row."""
    mask = np.zeros((h, w), dtype=bool)
    mask[::2] = True
    for y in range(1, h, 2):
        mask[y, w - 1 if y % 4 == 1 else 0] = True
    return mask


class TestSmallComponentFilter:
    @settings(max_examples=300, deadline=None)
    @given(mask=boolean_masks(), min_area=st.integers(1, 15))
    def test_matches_ndimage_label(self, mask, min_area):
        want = drop_small_components_reference(mask, min_area)
        got = gt._drop_small_components(mask.copy(), min_area)
        assert got.dtype == bool
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mask", [
        np.random.default_rng(3).random((135, 240)) < 0.5,
        serpentine(135, 240),
        serpentine(240, 7),
        np.eye(60, dtype=bool) | np.eye(60, dtype=bool)[::-1],
    ], ids=["dense", "serpentine", "narrow serpentine", "crossed diagonals"])
    @pytest.mark.parametrize("min_area", [2, 10, 500])
    def test_fixed_masks(self, mask, min_area):
        want = drop_small_components_reference(mask, min_area)
        assert np.array_equal(gt._drop_small_components(mask.copy(), min_area),
                              want)

    def test_serpentine_is_one_component(self):
        mask = serpentine(135, 240)
        kept = gt._drop_small_components(mask.copy(), int(mask.sum()))
        assert np.array_equal(kept, mask)
        assert not gt._drop_small_components(mask.copy(),
                                             int(mask.sum()) + 1).any()


class TestBilinearSample:
    def test_exact_at_interior_centers(self):
        # border centers have no full 2x2 footprint and take the fill value
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(6, 9))
        coords = gt.pixel_centers(6, 9)
        out = bilinear_sample(grid, coords)
        assert np.allclose(out[:-1, :-1], grid[:-1, :-1])
        assert np.isnan(out[-1]).all() and np.isnan(out[:, -1]).all()

    def test_midpoint_average(self):
        grid = np.array([[0.0, 2.0], [4.0, 6.0]])
        val = bilinear_sample(grid, np.array([1.0, 1.0]))
        assert val == pytest.approx(3.0)

    def test_outside_footprint_fill(self):
        grid = np.ones((4, 4))
        assert np.isnan(bilinear_sample(grid, np.array([0.25, 2.0])))
        assert bilinear_sample(grid, np.array([-3.0, 1.0]), fill=7.0) == 7.0

    def test_vector_channels(self):
        grid = np.dstack([np.ones((3, 3)), np.full((3, 3), 2.0)])
        out = bilinear_sample(grid, np.array([1.5, 1.5]))
        assert np.allclose(out, [1.0, 2.0])


class TestOcclusion:
    def static_pair(self, depth_t, depth_next, obj_t=None, obj_next=None):
        p_t = make_passes(depth_t, INTR, index=obj_t, t=1)
        p_t.pos3d_next = p_t.pos3d_t.copy()
        p_next = make_passes(depth_next, INTR, index=obj_next, t=2)
        return p_t, p_next

    def test_static_scene_nothing_occluded(self):
        depth = np.full((8, 8), 10.0)
        p_t, p_next = self.static_pair(depth, depth)
        assert not gt.compute_occlusion_mask(p_t, p_next).any()

    def test_surface_behind_new_occluder(self):
        depth = np.full((12, 16), 10.0)
        depth_next = depth.copy()
        obj_next = np.ones(depth.shape, dtype=np.uint16)
        depth_next[3:9, 4:12] = 5.0  # a nearer object appears at t+1
        obj_next[3:9, 4:12] = 2
        p_t, p_next = self.static_pair(depth, depth_next, obj_next=obj_next)
        occ = gt.compute_occlusion_mask(p_t, p_next)
        assert occ[4:8, 5:11].all()  # strictly behind the occluder
        assert not occ[0, 0] and not occ[-1, -1]

    def test_out_of_frame_is_occluded(self):
        depth = np.full((8, 8), 10.0)
        p_t, p_next = self.static_pair(depth, depth)
        nxt = p_t.pos3d_t.copy()
        nxt[..., 0] += 20.0  # projects far outside the image
        p_t.pos3d_next = nxt
        assert gt.compute_occlusion_mask(p_t, p_next).all()

    @pytest.mark.parametrize("transpose", [False, True], ids=["wide", "high"])
    def test_one_pixel_wide_or_high_view(self, transpose):
        # a 5x1 column (or 1x5 row) of points at depth 10 that move 0.2 px
        # across it; at t+1 its first two pixels are nearer. The footprint
        # reads the one column (row) at both corners, so exactly those
        # two pixels are occluded.
        depth_next = np.array([[5.0], [5.0], [10.0], [10.0], [10.0]])
        depth = np.full(depth_next.shape, 10.0)
        if transpose:
            depth, depth_next = depth.T, depth_next.T
        h, w = depth.shape
        intr = CameraIntrinsics.from_sensor(35, 32, w, h)
        p_t = make_passes(depth, intr, t=1)
        p_next = make_passes(depth_next, intr, t=2)
        nxt = p_t.pos3d_t.copy()
        nxt[..., 1 if transpose else 0] -= 0.2 * 10.0 / intr.focal_px
        p_t.pos3d_next = nxt
        occ = gt.compute_occlusion_mask(p_t, p_next)
        assert occ.ravel().tolist() == [True, True, False, False, False]

    def test_missing_pass_rejected(self):
        p_t = make_passes(np.full((4, 4), 10.0), INTR, t=1)
        p_next = make_passes(np.full((4, 4), 10.0), INTR, t=2)
        with pytest.raises(ContractError):
            gt.compute_occlusion_mask(p_t, p_next)


class TestReconstruct:
    def test_head_on_motion_example(self):
        # on-axis point at Z=20 moving to Z=15: flow 0, motion (0, 0, -5)
        h, w = 5, 5
        bf = RIG.baseline * INTR.focal_px
        disparity = np.full((h, w), bf / 20.0)
        dispchange = np.full((h, w), bf / 15.0 - bf / 20.0)
        centers = gt.pixel_centers(h, w)
        p = sf.unproject(centers, np.full((h, w), 20.0), INTR)
        p_next = p.copy()
        p_next[..., 2] = 15.0
        flow = sf.project(p_next, INTR) - centers
        pos, motion = gt.reconstruct_scene_flow(
            flow, disparity, dispchange, RIG, CameraPose(), CameraPose())
        assert np.allclose(pos[..., 2], 20.0, atol=1e-9)
        assert np.allclose(motion[..., 2], -5.0, atol=1e-9)
        assert np.allclose(motion[..., :2], 0.0, atol=1e-9)

    def test_round_trip_against_renderer(self, rendered_scene):
        spec, passes = rendered_scene
        fp = passes[(2, "left")]
        rig = spec.rig
        flow = gt.derive_flow(fp, "fwd")
        disparity = gt.derive_disparity(fp, rig)
        dispchange = gt.derive_disparity_change(fp, rig, "fwd")
        pos, motion = gt.reconstruct_scene_flow(
            flow, disparity, dispchange, rig, fp.camera_pose, fp.camera_pose_next)
        valid = np.isfinite(motion).all(axis=-1)
        truth_pos = fp.camera_pose.camera_to_world(fp.pos3d_t)
        truth_next = fp.camera_pose_next.camera_to_world(fp.pos3d_next)
        truth_motion = truth_next - truth_pos
        assert valid.mean() > 0.9
        assert np.nanmax(np.abs(pos[valid] - truth_pos[valid])) < 1e-3
        assert np.nanmax(np.abs(motion[valid] - truth_motion[valid])) < 1e-3

    def test_invalid_disparity_rejected(self):
        flow = np.zeros((2, 2, 2))
        with pytest.raises(GeometryError):
            gt.reconstruct_scene_flow(flow, np.full((2, 2), -1.0),
                                      np.zeros((2, 2)), RIG,
                                      CameraPose(), CameraPose())
        with pytest.raises(GeometryError):
            gt.reconstruct_scene_flow(flow, np.full((2, 2), 2.0),
                                      np.full((2, 2), -2.0), RIG,
                                      CameraPose(), CameraPose())


class TestConsistency:
    def test_forward_backward_flow(self, rendered_scene):
        spec, passes = rendered_scene
        fp = passes[(2, "left")]
        fp_next = passes[(3, "left")]
        flow_fwd = gt.derive_flow(fp, "fwd")
        flow_bwd = gt.derive_flow(fp_next, "bwd")
        occ = gt.compute_occlusion_mask(fp, fp_next)
        target = gt.pixel_centers(*fp.depth.shape) + flow_fwd
        back = bilinear_sample(np.nan_to_num(flow_bwd), target)
        resid = np.linalg.norm(flow_fwd + back, axis=-1)
        check = fp.valid & ~occ & np.isfinite(resid)
        assert (resid[check] < 0.05).mean() > 0.99

    def test_disparity_change_vs_next_disparity(self, rendered_scene):
        spec, passes = rendered_scene
        fp = passes[(2, "left")]
        fp_next = passes[(3, "left")]
        rig = spec.rig
        flow = gt.derive_flow(fp, "fwd")
        dd = gt.derive_disparity_change(fp, rig, "fwd")
        d_next_map = gt.derive_disparity(fp_next, rig)
        occ = gt.compute_occlusion_mask(fp, fp_next)
        target = gt.pixel_centers(*fp.depth.shape) + flow
        sampled = bilinear_sample(np.where(np.isnan(d_next_map), np.inf,
                                              d_next_map), target)
        disparity = gt.derive_disparity(fp, rig)
        resid = np.abs(disparity + dd - sampled)
        check = fp.valid & ~occ & np.isfinite(resid)
        assert (resid[check] < 0.05).mean() > 0.99


class TestDeriveFrame:
    def test_bundle_shapes(self, rendered_scene):
        spec, passes = rendered_scene
        frame = gt.derive_frame(passes[(2, "left")], spec.rig,
                                passes_next=passes[(3, "left")])
        h, w = passes[(2, "left")].depth.shape
        assert frame.flow_fwd.shape == (h, w, 2)
        assert frame.flow_bwd.shape == (h, w, 2)
        assert frame.disparity.shape == (h, w)
        assert frame.motion_boundaries.dtype == bool
        assert frame.occlusion_fwd.dtype == bool

    def test_occlusion_needs_a_later_frame(self, rendered_scene):
        spec, passes = rendered_scene
        with pytest.raises(ContractError):  # no pos3d_next at the last frame
            gt.derive_frame(passes[(3, "left")], spec.rig, passes[(2, "left")])
        with pytest.raises(ContractError):
            gt.derive_frame(passes[(2, "left")], spec.rig, passes[(1, "left")])

    def test_sequence_boundaries(self, rendered_scene):
        spec, passes = rendered_scene
        first = gt.derive_frame(passes[(1, "left")], spec.rig)
        last = gt.derive_frame(passes[(3, "left")], spec.rig)
        assert first.flow_bwd is None and first.dispchange_bwd is None
        assert last.flow_fwd is None and last.motion_boundaries is None


GT_FIELDS = ("flow_fwd", "flow_bwd", "disparity", "dispchange_fwd",
             "dispchange_bwd", "motion_boundaries", "occlusion_fwd")


def whole_frame(passes, rig, passes_next):
    """derive_frame's maps from the public functions on the whole frame."""
    flow_fwd = gt.derive_flow(passes, "fwd")
    return gt.GroundTruthFrame(
        flow_fwd=flow_fwd,
        flow_bwd=gt.derive_flow(passes, "bwd"),
        disparity=gt.derive_disparity(passes, rig),
        dispchange_fwd=gt.derive_disparity_change(passes, rig, "fwd"),
        dispchange_bwd=gt.derive_disparity_change(passes, rig, "bwd"),
        motion_boundaries=(gt.derive_motion_boundaries(passes, flow_fwd)
                           if flow_fwd is not None else None),
        occlusion_fwd=(gt.compute_occlusion_mask(passes, passes_next)
                       if passes_next is not None else None),
    )


def assert_bands_match_whole_frame(passes, rig, passes_next):
    """derive_frame equals the whole-frame maps byte for byte for band
    heights of 1 row, 7 rows, H - 1, H and H + 5 rows, on 1 and 2 CPUs."""
    ref = whole_frame(passes, rig, passes_next)
    h = passes.depth.shape[0]
    for rows in sorted({1, 7, max(h - 1, 1), h, h + 5}):
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_parallel, "BAND_ROWS", rows)
                set_cpus(mp, cpus)
                frame = gt.derive_frame(passes, rig, passes_next)
            for name in GT_FIELDS:
                a, b = getattr(frame, name), getattr(ref, name)
                if b is None:
                    assert a is None, (name, rows, cpus)
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), (name, rows, cpus)


class TestBandedDeriveFrame:
    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_rendered_scene(self, rendered_scene, t):
        spec, passes = rendered_scene
        for view in ("left", "right"):
            assert_bands_match_whole_frame(passes[(t, view)], spec.rig,
                                           passes.get((t + 1, view)))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_void_and_moving_boxes(self, t):
        # moving boxes in front of nothing, seen by a moving camera: NaN
        # void around them, points leaving the image, occluders that move
        spec = scene([
            box((0, 0, 12.25), (3, 2, 0.5), 1, frames=3, end=(1.5, 0.5, 11)),
            box((-1, 0.5, 8), (1, 1, 1), 2, frames=3, end=(2, 0, 7)),
            box((2.5, -1, 9), (2, 0.3, 1), 3, frames=3,
                rotation=Rotation.from_euler("z", 0.4)),
        ], frames=3, camera_end=(0.6, -0.2, 0.4))
        fp = sf.rasterize_frame(spec, t, "left")
        fp_next = sf.rasterize_frame(spec, t + 1, "left") if t < 3 else None
        assert np.isnan(fp.depth).any() and fp.valid.any()
        assert_bands_match_whole_frame(fp, spec.rig, fp_next)

    def test_hand_built_passes(self):
        # rows of void and a single-row image
        depth = np.full((5, 9), 10.0)
        depth[1:3, 2:6] = np.nan
        nxt = make_passes(np.full((5, 9), 12.0), INTR, t=2)
        fp = make_passes(depth, INTR, pos3d_next=nxt.pos3d_t)
        assert_bands_match_whole_frame(fp, RIG, nxt)
        row = make_passes(np.array([[5.0, np.nan, 7.0]]), INTR)
        assert_bands_match_whole_frame(row, RIG, None)

    def test_bad_depth_in_any_band_is_rejected(self, monkeypatch):
        monkeypatch.setattr(_parallel, "BAND_ROWS", 2)
        set_cpus(monkeypatch, 2)
        fp = make_passes(np.full((6, 4), 10.0), INTR)
        fp.depth[5, 3] = -1.0
        with pytest.raises(DataCorruptionError):
            gt.derive_frame(fp, RIG)

    def test_two_cpus_run_two_bands_at_once(self, rendered_scene, monkeypatch):
        spec, passes = rendered_scene
        monkeypatch.setattr(_parallel, "BAND_ROWS", 8)
        set_cpus(monkeypatch, 2)
        # the first two bands each wait until the other has started
        barrier = threading.Barrier(2, timeout=30)
        threads = []
        derive = gt.derive_disparity

        def paired(*args):
            if len(threads) < 2:
                threads.append(threading.get_ident())
                barrier.wait()
            return derive(*args)

        monkeypatch.setattr(gt, "derive_disparity", paired)
        gt.derive_frame(passes[(2, "left")], spec.rig, passes[(3, "left")])
        assert len(threads) == 2 and len(set(threads)) == 2
        assert threading.get_ident() not in threads


    def test_more_workers_than_cores(self, rendered_scene, monkeypatch):
        # one-row bands on eight threads, switching as often as possible: a
        # band that wrote outside its rows would show in the bytes
        spec, passes = rendered_scene
        fp, fp_next = passes[(2, "left")], passes[(3, "left")]
        ref = whole_frame(fp, spec.rig, fp_next)
        monkeypatch.setattr(_parallel, "BAND_ROWS", 1)
        set_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                frame = gt.derive_frame(fp, spec.rig, fp_next)
                for name in GT_FIELDS:
                    assert (getattr(frame, name).tobytes()
                            == getattr(ref, name).tobytes()), name
        finally:
            sys.setswitchinterval(interval)


class TestDeriveFrameMemory:
    def test_temporaries_are_band_sized(self, monkeypatch):
        # bands of 8 rows at 240x135: the share of the frame that the
        # default 32-row bands are at 960x540. Temporaries held above the
        # inputs and the maps returned stay below one (H, W, 3) float64
        # map; over the whole frame at once they took some 3.6 MB.
        spec = sf.generate_flyingthings_scene(
            42, sf.FlyingThingsParams(frames=3, width=240, height=135))
        fp, fp_next = (sf.rasterize_frame(spec, t, "left") for t in (2, 3))
        monkeypatch.setattr(_parallel, "BAND_ROWS", 8)
        bound = 135 * 240 * 3 * 8
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            tracemalloc.start()  # numpy reports its buffers to tracemalloc
            try:
                frame = gt.derive_frame(fp, spec.rig, fp_next)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            outputs = sum(getattr(frame, name).nbytes for name in GT_FIELDS)
            assert peak - outputs < bound, (cpus, peak - outputs, bound)


def with_positions(passes, dtype):
    """passes with depth and every position pass cast to dtype."""
    return dataclasses.replace(passes, **{
        name: getattr(passes, name).astype(dtype)
        for name in ("depth", "pos3d_t", "pos3d_prev", "pos3d_next")
        if getattr(passes, name) is not None})


class TestFloat32Passes:
    """Passes read from files are float32; every map widens them to float64,
    so they give the bytes of the same passes widened up front."""

    @pytest.fixture(scope="class")
    def stored(self):
        # a rendered 96x64 scene as the files store it, and the same
        # passes widened back to float64
        spec = sf.generate_flyingthings_scene(
            11, dataclasses.replace(SMALL, width=96, height=64))
        narrow = {(t, v): with_positions(sf.rasterize_frame(spec, t, v),
                                         np.float32)
                  for t in (1, 2, 3) for v in ("left", "right")}
        wide = {key: with_positions(fp, np.float64)
                for key, fp in narrow.items()}
        return spec.rig, narrow, wide

    def assert_same_maps(self, a, b, where):
        for name in GT_FIELDS:
            x, y = getattr(a, name), getattr(b, name)
            if y is None:
                assert x is None, (name, where)
                continue
            assert x.dtype == y.dtype and x.shape == y.shape, (name, where)
            assert x.tobytes() == y.tobytes(), (name, where)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_public_maps(self, stored, t):
        rig, narrow, wide = stored
        for view in ("left", "right"):
            fp, fp_next = narrow[(t, view)], narrow.get((t + 1, view))
            assert fp.depth.dtype == np.float32
            a = whole_frame(fp, rig, fp_next)
            b = whole_frame(wide[(t, view)], rig, wide.get((t + 1, view)))
            assert a.disparity.dtype == np.float64
            self.assert_same_maps(a, b, view)
            if fp_next is not None:  # the backward test, from frame t + 1
                assert (gt.compute_occlusion_mask(fp_next, fp).tobytes()
                        == gt.compute_occlusion_mask(
                            wide[(t + 1, view)], wide[(t, view)]).tobytes())

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_derive_frame(self, stored, t):
        rig, narrow, wide = stored
        for view in ("left", "right"):
            key, nxt = (t, view), (t + 1, view)
            ref = gt.derive_frame(wide[key], rig, wide.get(nxt))
            for rows in (7, _parallel.BAND_ROWS):
                for cpus in (1, 2):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(_parallel, "BAND_ROWS", rows)
                        set_cpus(mp, cpus)
                        frame = gt.derive_frame(narrow[key], rig,
                                                narrow.get(nxt))
                    self.assert_same_maps(frame, ref, (view, rows, cpus))

    def test_occlusion_eps_median_is_float64(self):
        # an even count: the float32 midpoint of 1 and 1 + 2^-23 rounds
        depth = np.array([[1.0, 1.0 + 2.0 ** -23]], dtype=np.float32)
        assert gt._occlusion_eps(depth) == 1e-3 * (1.0 + 2.0 ** -24)
