import dataclasses
import sys
import threading
import tracemalloc
import warnings

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

import groundtruth_oracle as oracle
from conftest import (SMALL, bilinear_sample, derive_maps, make_passes,
                      set_cpus, with_flow)
from test_raster_parity import box, scene

INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)  # focal_px = 140
RIG = StereoRig(1.0, INTR)
DATASET_RIG = StereoRig(1.0, CameraIntrinsics.from_sensor(35, 32, 960, 540))


class TestDisparity:
    def test_dataset_rig_example(self):
        passes = make_passes(np.full((4, 4), 35.0), DATASET_RIG.intrinsics)
        d = gt.derive_frame(passes, DATASET_RIG).disparity
        assert np.allclose(d, 30.0)

    def test_far_limit(self):
        passes = make_passes(np.full((2, 2), 1e6), DATASET_RIG.intrinsics)
        d = gt.derive_frame(passes, DATASET_RIG).disparity
        assert np.allclose(d, 1.05e-3)

    def test_brute_force_oracle(self):
        # b*f/depth in float64, rounded once to float32
        rng = np.random.default_rng(0)
        depth = rng.uniform(2.0, 50.0, (9, 13))
        depth[rng.random(depth.shape) < 0.2] = np.nan
        passes = make_passes(depth, INTR)
        d = gt.derive_frame(passes, RIG).disparity
        assert d.dtype == np.float32
        for y in range(depth.shape[0]):
            for x in range(depth.shape[1]):
                if np.isnan(depth[y, x]):
                    assert np.isnan(d[y, x])
                else:
                    expected = np.float32(RIG.baseline * INTR.focal_px
                                          / depth[y, x])
                    assert d[y, x] == expected

    def test_corrupt_depth_rejected(self):
        # a covered Z_t whose b*f/Z_t (bf = 140) is no positive float32:
        # negative, 0 at +inf, and past the float32 maximum at 1e-40. A
        # typed error, and no overflow warning from the cast (an error here)
        for dtype in (np.float32, np.float64):
            for z in (-1.0, np.inf, 1e-40):
                passes = with_positions(
                    make_passes(np.full((3, 3), 5.0), INTR), dtype)
                passes.depth[1, 1] = z
                assert passes.depth[1, 1] == dtype(z)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(DataCorruptionError):
                        gt.derive_frame(passes, RIG)


class TestFlow:
    def test_static_point_zero_flow(self):
        depth = np.full((6, 8), 10.0)
        passes = make_passes(depth, INTR)
        passes.pos3d_next = passes.pos3d_t.copy()
        flow = gt.derive_frame(passes, RIG).flow_fwd
        assert np.allclose(flow, 0.0, atol=1e-12)

    def test_lateral_translation(self):
        # X += 0.5 at Z = 10 with f = 140 -> u moves by 140*0.5/10 = 7 px
        depth = np.full((6, 8), 10.0)
        passes = make_passes(depth, INTR)
        nxt = passes.pos3d_t.copy()
        nxt[..., 0] += 0.5
        passes.pos3d_next = nxt
        flow = gt.derive_frame(passes, RIG).flow_fwd
        assert np.allclose(flow[..., 0], 7.0, atol=1e-12)
        assert np.allclose(flow[..., 1], 0.0, atol=1e-12)

    def test_defined_under_occlusion_nan_at_void(self):
        depth = np.full((4, 4), 10.0)
        depth[0, 0] = np.nan
        passes = make_passes(depth, INTR)
        passes.pos3d_next = passes.pos3d_t.copy()
        flow = gt.derive_frame(passes, RIG).flow_fwd
        assert np.all(np.isnan(flow[0, 0]))
        assert np.isfinite(flow[1:, 1:]).all()

    def test_boundary_frame_returns_none(self):
        frame = gt.derive_frame(make_passes(np.full((4, 4), 10.0), INTR), RIG)
        assert frame.flow_fwd is None
        assert frame.flow_bwd is None


class TestDisparityChange:
    def make(self, z_t, z_next):
        passes = make_passes(np.full((4, 4), z_t), INTR)
        nxt = passes.pos3d_t.copy()
        nxt *= z_next / z_t  # same ray, different depth
        passes.pos3d_next = nxt
        return gt.derive_frame(passes, RIG).dispchange_fwd

    def test_static_zero(self):
        dd = self.make(14.0, 14.0)
        assert np.allclose(dd, 0.0, atol=1e-12)

    def test_approaching_positive(self):
        # bf = 140: d goes 10 -> 15 as Z goes 14 -> 140/15
        dd = self.make(14.0, 140.0 / 15.0)
        assert np.allclose(dd, 5.0)

    def test_receding_negative(self):
        dd = self.make(14.0, 28.0)
        assert np.allclose(dd, -5.0)


class TestGoneNeighbour:
    """A neighbour's point whose b*f/Z is past the float32 maximum, or
    whose flow rounds to +-inf in float32, is gone: its flow and disparity
    change are NaN, with no warning."""

    def passes(self, dtype):
        fp = make_passes(np.full((5, 6), 5.0), INTR)
        fp.pos3d_prev = fp.pos3d_t.copy()
        fp.pos3d_next = fp.pos3d_t.copy()
        fp.pos3d_next[1, 1, 2] = 1e-40  # b*f/Z and the flow past the range
        # b*f/Z alone: the point projects to the principal point
        fp.pos3d_next[2, 2] = (0.0, 0.0, 1e-40)
        fp.pos3d_next[3, 3, 0] = 1e38  # the flow alone: b*f/Z = 28
        fp.pos3d_prev[1, 4, 2] = 1e-40
        fp.pos3d_prev[3, 1, 1] = -1e38
        gone = {"fwd": [(1, 1), (2, 2), (3, 3)], "bwd": [(1, 4), (3, 1)]}
        return with_positions(fp, dtype), gone

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flow_and_disparity_change_are_nan(self, dtype):
        fp, gone = self.passes(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = gt.derive_frame(fp, RIG)
        for way, pixels in gone.items():
            flow = getattr(frame, f"flow_{way}")
            dispchange = getattr(frame, f"dispchange_{way}")
            kept = np.ones(dispchange.shape, dtype=bool)
            for pixel in pixels:
                kept[pixel] = False
            assert np.isnan(flow[~kept]).all(), way
            assert np.isnan(dispchange[~kept]).all(), way
            assert np.isfinite(flow[kept]).all(), way
            assert np.isfinite(dispchange[kept]).all(), way

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bands_match_whole_frame(self, dtype):
        fp, _ = self.passes(dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_bands_match_whole_frame(fp, RIG, None)


class TestMotionBoundaries:
    def two_object_passes(self, obj2_mask, flow2=(2.0, 0.0), shape=(16, 16)):
        depth = np.full(shape, 10.0)
        obj = np.ones(shape, dtype=np.uint16)
        obj[obj2_mask] = 2
        passes = make_passes(depth, INTR, index=obj)
        flow = np.zeros(shape + (2,))
        flow[obj2_mask] = flow2
        return passes, flow

    @staticmethod
    def boundaries(passes, flow):
        return gt.derive_frame(with_flow(passes, flow, INTR),
                               RIG).motion_boundaries

    def test_below_threshold_no_boundary(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask, flow2=(1.4, 0.0))
        mb = self.boundaries(passes, flow)
        assert not mb.any()

    def test_above_threshold_marks_both_sides(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask, flow2=(1.6, 0.0))
        mb = self.boundaries(passes, flow)
        assert mb[:, 7].all() and mb[:, 8].all()
        assert not mb[:, :7].any() and not mb[:, 9:].any()

    def test_same_object_never_boundary(self):
        depth = np.full((16, 16), 10.0)
        passes = make_passes(depth, INTR)
        flow = np.zeros((16, 16, 2))
        flow[:, 8:] = (30.0, 0.0)  # huge flow gradient, one object
        assert not self.boundaries(passes, flow).any()

    def test_nine_pixel_component_removed(self):
        # corner at (13, 14): 6 px along the vertical edge + 4 along the
        # horizontal edge, sharing one pixel -> a 9 px component
        mask = np.zeros((16, 16), dtype=bool)
        mask[13:, 14:] = True
        passes, flow = self.two_object_passes(mask)
        assert not self.boundaries(passes, flow).any()

    def test_ten_pixel_component_kept(self):
        # straight boundary, flow difference above threshold on 5 rows only
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 8:] = True
        passes, flow = self.two_object_passes(mask)
        flow[5:, :] = 0.0  # below-threshold rows contribute no pairs
        mb = self.boundaries(passes, flow)
        assert int(mb.sum()) == 10
        assert mb[:5, 7:9].all()


class TestBandedMotionBoundaries:
    """Pairs are marked band by band, each band within its rows, then the
    pairs across band edges; the small-component filter runs on the whole
    mask."""

    @staticmethod
    def banded(obj2_mask, cpus, band_rows=4):
        shape = obj2_mask.shape
        passes = with_flow(*TestMotionBoundaries().two_object_passes(
            obj2_mask, shape=shape), INTR)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "GT_BAND_ROWS", band_rows)
            set_cpus(mp, cpus)
            mb = gt.derive_frame(passes, RIG).motion_boundaries
        assert mb.tobytes() == oracle.derive(
            passes, RIG)["motion_boundaries"].tobytes()
        return mb

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_pair_across_a_band_edge(self, cpus):
        # rows 3 and 4 are the last and first rows of two bands
        mask = np.zeros((12, 16), dtype=bool)
        mask[4:] = True
        mb = self.banded(mask, cpus)
        assert mb[3:5].all() and int(mb.sum()) == 32

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_component_small_in_each_band_kept(self, cpus):
        # 8 marked pixels in each of two bands, 16 in the one component
        mask = np.zeros((8, 8), dtype=bool)
        mask[:, 4:] = True
        mb = self.banded(mask, cpus)
        assert 2 * 4 < gt.MIN_BOUNDARY_AREA_PX <= int(mb.sum()) == 16
        assert mb[:, 3:5].all()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_view_lower_than_a_band(self, cpus):
        mask = np.zeros((3, 16), dtype=bool)
        mask[1:] = True
        mb = self.banded(mask, cpus)
        assert mb[:2].all() and not mb[2].any()


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


def occlusion(p_t, p_next, k=INTR):
    """The forward occlusion mask of frame p_t against p_next, seen by the
    camera k that made the passes."""
    return gt.compute_occlusion_mask(p_t, StereoRig(1.0, k),
                                     gt.next_frame_tables(p_next))


class TestOcclusion:
    def static_pair(self, depth_t, depth_next, obj_t=None, obj_next=None):
        p_t = make_passes(depth_t, INTR, index=obj_t, t=1)
        p_t.pos3d_next = p_t.pos3d_t.copy()
        p_next = make_passes(depth_next, INTR, index=obj_next, t=2)
        return p_t, p_next

    def test_static_scene_nothing_occluded(self):
        depth = np.full((8, 8), 10.0)
        p_t, p_next = self.static_pair(depth, depth)
        assert not occlusion(p_t, p_next).any()

    def test_surface_behind_new_occluder(self):
        depth = np.full((12, 16), 10.0)
        depth_next = depth.copy()
        obj_next = np.ones(depth.shape, dtype=np.uint16)
        depth_next[3:9, 4:12] = 5.0  # a nearer object appears at t+1
        obj_next[3:9, 4:12] = 2
        p_t, p_next = self.static_pair(depth, depth_next, obj_next=obj_next)
        occ = occlusion(p_t, p_next)
        assert occ[4:8, 5:11].all()  # strictly behind the occluder
        assert not occ[0, 0] and not occ[-1, -1]

    def test_out_of_frame_is_occluded(self):
        depth = np.full((8, 8), 10.0)
        p_t, p_next = self.static_pair(depth, depth)
        nxt = p_t.pos3d_t.copy()
        nxt[..., 0] += 20.0  # projects far outside the image
        p_t.pos3d_next = nxt
        assert occlusion(p_t, p_next).all()

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
        occ = occlusion(p_t, p_next, intr)
        assert occ.ravel().tolist() == [True, True, False, False, False]

    def test_eps_is_the_median_depth_of_frame_t(self):
        # one object at depth 10 at t (eps 0.01); at t + 1 its middle is
        # 0.015 nearer and the rest at 20, so frame t + 1's median depth is
        # 20, whose eps (0.02) would hide nothing
        depth_next = np.full((8, 8), 20.0)
        depth_next[2:6, 2:6] = 10.0 - 0.015
        p_t, p_next = self.static_pair(np.full((8, 8), 10.0), depth_next)
        assert gt._occlusion_eps(p_t.depth) == 1e-3 * 10.0
        occ = occlusion(p_t, p_next)
        assert occ[3:5, 3:5].all() and not occ[0].any()

    def test_missing_pass_rejected(self):
        p_t = make_passes(np.full((4, 4), 10.0), INTR, t=1)
        p_next = make_passes(np.full((4, 4), 10.0), INTR, t=2)
        with pytest.raises(ContractError):
            occlusion(p_t, p_next)


def moving_frame(index_next, depth_next, shift=0.25, depth=5.0):
    """(frame t, frame t + 1) of one view: at t, object 1 at depth
    everywhere, each point moving shift px along u and v by t + 1, so that
    the top-left corner of its footprint is its own pixel; at t + 1, the
    object indices index_next (0 is void, NaN depth) at depth_next."""
    index_next = np.asarray(index_next)
    h, w = index_next.shape
    intr = CameraIntrinsics.from_sensor(35, 32, w, h)
    p_t = with_flow(make_passes(np.full((h, w), depth), intr, t=1),
                    np.full((h, w, 2), shift), intr)
    p_next = make_passes(np.where(index_next > 0, depth_next, np.nan), intr,
                         index=index_next, t=2)
    return p_t, p_next, intr


def assert_occlusion_matches_oracle(p_t, p_next, intr):
    """compute_occlusion_mask equals the oracle's mask byte for byte for
    several band heights, on 1 and 2 CPUs; returns the mask."""
    rig = StereoRig(1.0, intr)
    want = oracle.derive(p_t, rig, p_next)["occlusion_fwd"]
    h = want.shape[0]
    for rows in sorted({1, 2, 3, 5, h, h + 5}):
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_parallel, "GT_BAND_ROWS", rows)
                set_cpus(mp, cpus)
                got = occlusion(p_t, p_next, intr)
            assert got.tobytes() == want.tobytes(), (rows, cpus)
    return want


class TestOcclusionTables:
    """The next frame's z-buffer and block-object tables, and the masks
    they give, against the whole-frame oracle."""

    def test_tables_of_a_hand_built_frame(self):
        index = np.array([[1, 1, 2, 2],
                          [1, 1, 2, 2],
                          [3, 1, 2, 0]], dtype=np.uint16)
        depth = np.where(index > 0, np.arange(1.0, 13.0).reshape(3, 4), np.nan)
        p_next = make_passes(depth, INTR, index=index, t=2)
        tables = gt.next_frame_tables(p_next)
        assert tables.frame_time == 2 and tables.shape == (3, 4)
        zbuf, block = tables.depth, tables.block
        assert zbuf.dtype == np.float64 and block.dtype == np.uint16
        assert zbuf.tolist() == np.where(index > 0, depth, np.inf).ravel().tolist()
        # the block at k reads k, k + 1, k + 4 and k + 5; the last row and
        # column start no block that a footprint reads
        assert block.reshape(3, 4)[:2, :3].tolist() == [[1, 0, 2],
                                                        [0, 0, 0]]

    @pytest.mark.parametrize("corner", [(0, 0), (0, 1), (1, 0), (1, 1)],
                             ids=["top-left", "top-right", "bottom-left",
                                  "bottom-right"])
    def test_one_other_object_at_one_corner(self, corner):
        # at t + 1 one pixel is another object at the same depth: pixel
        # (2, 2) meets it at the given corner of its footprint, and every
        # footprint that touches it, and no other, is occluded
        index = np.ones((7, 8), dtype=np.uint16)
        index[2 + corner[0], 2 + corner[1]] = 2
        mask = assert_occlusion_matches_oracle(*moving_frame(index, 5.0))
        assert mask[2, 2]
        y, x = np.argwhere(index == 2)[0]
        want = np.zeros(mask.shape, dtype=bool)
        want[y - 1:y + 1, x - 1:x + 1] = True
        assert mask.tolist() == want.tolist()

    def test_footprint_touching_void(self):
        index = np.ones((5, 6), dtype=np.uint16)
        index[2, 3] = 0
        mask = assert_occlusion_matches_oracle(*moving_frame(index, 5.0))
        want = np.zeros(mask.shape, dtype=bool)
        want[1:3, 2:4] = True
        assert mask.tolist() == want.tolist()

    def test_footprints_clamped_to_the_last_row_and_column(self):
        # the points of the last row (column) land inside the image, past
        # the last pixel centre: the footprint is clamped, and the last row
        # (column) has all its weight. The row and column before it are
        # nearer at t + 1, so every footprint that weighs them is occluded,
        # and the clamped ones, which do not, are not
        depth_next = np.full((6, 7), 5.0)
        depth_next[-2] = depth_next[:, -2] = 2.0
        p_t, p_next, intr = moving_frame(np.ones((6, 7), dtype=np.uint16),
                                         depth_next)
        mask = assert_occlusion_matches_oracle(p_t, p_next, intr)
        assert mask[:, -3:-1].all() and mask[-3:-1].all()
        assert not mask[:-3, :-3].any()
        assert not mask[:-3, -1].any() and not mask[-1, :-3].any()

    @pytest.mark.parametrize("shape", [(1, 7), (7, 1)], ids=["1xN", "Nx1"])
    def test_one_pixel_high_or_wide_frame(self, shape):
        # dy (dx) is 0: both rows (columns) of each footprint are the one
        # there is. At t + 1 one pixel is another object and two are nearer
        index = np.ones(shape, dtype=np.uint16)
        index.flat[1] = 2
        depth_next = np.full(shape, 5.0)
        depth_next.flat[4:6] = 2.0
        mask = assert_occlusion_matches_oracle(*moving_frame(index,
                                                             depth_next))
        # footprints k, k + 1: those touching pixel 1 are mixed, those
        # weighing pixel 4 or 5 hidden
        assert mask.ravel().tolist() == [True, True, False, True, True,
                                         True, False]


def moving_boxes():
    """Three moving boxes before a moving camera, on void, over 3 frames."""
    return scene([box((0, 0, 10), (3, 3, 0.5), 0, frames=3, end=(1, 0.5, 9)),
                  box((-2, 1, 8), (1.5, 1.5, 1.5), 1, frames=3,
                      end=(-0.5, 1, 7)),
                  box((2.5, -1, 12), (2, 1, 1), 2, frames=3,
                      end=(1.5, -1.5, 11))],
                 frames=3, camera_end=[0.3, 0.0, 0.0])


def assert_tables_of(tables, passes):
    """tables are the `NextFrameTables` of passes: its frame time and
    shape, its depth where covered and +inf at void, and at k the object
    index where the 2x2 block at k is one object, else 0 (the last row and
    column, which start no block that a footprint reads, aside)."""
    index = passes.object_index
    h, w = index.shape
    assert tables.frame_time == passes.frame_time
    assert tables.shape == (h, w)
    want = np.where(passes.valid, passes.depth, np.inf)
    assert tables.depth.dtype == np.float64
    assert tables.depth.tobytes() == want.ravel().tobytes()
    own = index[:-1, :-1]
    one = (index[:-1, 1:] == own) & (index[1:, :-1] == own) \
        & (index[1:, 1:] == own)
    assert tables.block.dtype == np.uint16
    assert np.array_equal(tables.block.reshape(h, w)[:-1, :-1],
                          np.where(one, own, 0))


class TestZBufferRecord:
    """The occlusion test reads of frame t + 1 only its record of
    `next_frame_tables`, built from its passes before they are dropped:
    its z-buffer (depth widened to float64, +inf at void), block objects,
    shape and frame time."""

    SPEC = moving_boxes()

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_is_the_depth_and_index_of_the_passes(self, t):
        fp = sf.rasterize_frame(self.SPEC, t, "left")
        assert_tables_of(gt.next_frame_tables(fp), fp)
        assert 0 < fp.valid.mean() < 1

    def test_scene_has_void_at_footprints(self):
        for t in (2, 3):
            valid = sf.rasterize_frame(self.SPEC, t, "left").valid
            # void pixels beside covered ones: footprints with void corners
            assert (valid[:, 1:] != valid[:, :-1]).sum() > 10, t

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("band_rows", [7, 64])
    def test_tables_and_mask_equal_those_of_the_passes(self, monkeypatch,
                                                       cpus, band_rows):
        # 7-row bands: footprints of every band read rows of the next one
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(_parallel, "GT_BAND_ROWS", band_rows)
        # the tables' mask is the whole-frame oracle's mask of the passes
        for t in (2, 3):
            passes = sf.rasterize_frame(self.SPEC, t, "left")
            tables = gt.next_frame_tables(passes)
            assert_tables_of(tables, passes)
            prev = sf.rasterize_frame(self.SPEC, t - 1, "left")
            mask = gt.compute_occlusion_mask(prev, self.SPEC.rig, tables)
            want = oracle.derive(prev, self.SPEC.rig, passes)["occlusion_fwd"]
            assert mask.dtype == bool and mask.tobytes() == want.tobytes(), t
            assert 0 < mask.sum() < mask.size

    def test_later_frame_needed(self):
        passes = sf.rasterize_frame(self.SPEC, 2, "left")
        with pytest.raises(ContractError, match="later frame"):
            gt.compute_occlusion_mask(passes, self.SPEC.rig,
                                      gt.next_frame_tables(passes))


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
        frame = gt.derive_frame(fp, rig)
        pose, pose_next = spec.camera_pose(2, "left"), spec.camera_pose(3, "left")
        pos, motion = gt.reconstruct_scene_flow(
            frame.flow_fwd, frame.disparity, frame.dispchange_fwd, rig,
            pose, pose_next)
        valid = np.isfinite(motion).all(axis=-1)
        truth_pos = pose.camera_to_world(fp.pos3d_t)
        truth_next = pose_next.camera_to_world(fp.pos3d_next)
        truth_motion = truth_next - truth_pos
        assert valid.mean() > 0.9
        assert np.nanmax(np.abs(pos[valid] - truth_pos[valid])) < 1e-3
        assert np.nanmax(np.abs(motion[valid] - truth_motion[valid])) < 1e-3

    def test_float32_maps_are_widened_first(self, rendered_scene):
        # float32 maps, as derive_frame gives and the files store them,
        # and their float64 copies: the same positions and motion, byte
        # for byte
        spec, passes = rendered_scene
        fp = passes[(2, "left")]
        frame = gt.derive_frame(fp, spec.rig)
        maps = [a.astype(np.float32) for a in (
            frame.flow_fwd, frame.disparity, frame.dispchange_fwd)]
        poses = (spec.rig, spec.camera_pose(2, "left"),
                 spec.camera_pose(3, "left"))
        narrow = gt.reconstruct_scene_flow(*maps, *poses)
        wide = gt.reconstruct_scene_flow(*(a.astype(np.float64) for a in maps),
                                         *poses)
        for a, b in zip(narrow, wide):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

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
        flow_fwd = gt.derive_frame(fp, spec.rig).flow_fwd
        occ = occlusion(fp, fp_next, spec.rig.intrinsics)
        flow_bwd = gt.derive_frame(fp_next, spec.rig).flow_bwd
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
        frame = gt.derive_frame(fp, rig)
        dd, occ = frame.dispchange_fwd, occlusion(fp, fp_next, rig.intrinsics)
        d_next_map = gt.derive_frame(fp_next, rig).disparity
        target = gt.pixel_centers(*fp.depth.shape) + frame.flow_fwd
        sampled = bilinear_sample(np.where(np.isnan(d_next_map), np.inf,
                                              d_next_map), target)
        disparity = frame.disparity
        resid = np.abs(disparity + dd - sampled)
        check = fp.valid & ~occ & np.isfinite(resid)
        assert (resid[check] < 0.05).mean() > 0.99


class TestDeriveFrame:
    def test_bundle_shapes(self, rendered_scene):
        spec, passes = rendered_scene
        maps = derive_maps(passes[(2, "left")], spec.rig, passes[(3, "left")])
        h, w = passes[(2, "left")].depth.shape
        assert maps["flow_fwd"].shape == (h, w, 2)
        assert maps["flow_bwd"].shape == (h, w, 2)
        assert maps["disparity"].shape == (h, w)
        assert maps["motion_boundaries"].dtype == bool
        assert maps["occlusion_fwd"].dtype == bool
        assert maps["occlusion_fwd"].shape == (h, w)
        # the occlusion mask is the next step's, not a per-view map
        assert [f.name for f in dataclasses.fields(gt.GroundTruthFrame)] \
            == list(GT_FIELDS[:-1])

    def test_occlusion_needs_a_later_frame(self, rendered_scene):
        spec, passes = rendered_scene
        last = passes[(3, "left")]
        later = dataclasses.replace(gt.next_frame_tables(last), frame_time=4)
        with pytest.raises(ContractError, match="pos3d_next"):
            # no pos3d_next at the last frame
            gt.compute_occlusion_mask(last, spec.rig, later)
        for t in (1, 2):  # an earlier frame, and the same frame
            with pytest.raises(ContractError, match="later frame"):
                gt.compute_occlusion_mask(passes[(2, "left")], spec.rig,
                                          gt.next_frame_tables(passes[(t, "left")]))

    def test_sequence_boundaries(self, rendered_scene):
        spec, passes = rendered_scene
        first = gt.derive_frame(passes[(1, "left")], spec.rig)
        last = gt.derive_frame(passes[(3, "left")], spec.rig)
        assert first.flow_bwd is None and first.dispchange_bwd is None
        assert last.flow_fwd is None and last.motion_boundaries is None


GT_FIELDS = oracle.FIELDS


def assert_same_maps(maps, ref, where):
    """maps, both steps' maps (`derive_maps`), are the maps ref, byte for
    byte: its float maps are float32, ref's float maps (the float64
    oracle's, or another run's) cast to float32."""
    assert list(maps) == list(GT_FIELDS)
    for name in GT_FIELDS:
        a, b = maps[name], ref[name]
        if b is None:
            assert a is None, (name, where)
            continue
        if b.dtype.kind == "f":
            assert a.dtype == np.float32, (name, where)
            b = b.astype(np.float32)
        assert a.dtype == b.dtype and a.shape == b.shape, (name, where)
        assert a.tobytes() == b.tobytes(), (name, where)


def assert_bands_match_whole_frame(passes, rig, passes_next):
    """derive_frame and compute_occlusion_mask equal the whole-frame
    oracle byte for byte for band heights of 1 row, 7 rows, H - 1, H and
    H + 5 rows, on 1 and 2 CPUs."""
    ref = oracle.derive(passes, rig, passes_next)
    h = passes.depth.shape[0]
    for rows in sorted({1, 7, max(h - 1, 1), h, h + 5}):
        for cpus in (1, 2):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_parallel, "GT_BAND_ROWS", rows)
                set_cpus(mp, cpus)
                maps = derive_maps(passes, rig, passes_next)
            assert_same_maps(maps, ref, (rows, cpus))


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
        monkeypatch.setattr(_parallel, "GT_BAND_ROWS", 2)
        set_cpus(monkeypatch, 2)
        fp = make_passes(np.full((6, 4), 10.0), INTR)
        fp.depth[5, 3] = -1.0
        with pytest.raises(DataCorruptionError):
            gt.derive_frame(fp, RIG)

    def test_two_cpus_run_two_bands_at_once(self, rendered_scene, monkeypatch):
        spec, passes = rendered_scene
        monkeypatch.setattr(_parallel, "GT_BAND_ROWS", 8)
        set_cpus(monkeypatch, 2)
        # the first two bands each wait until the other has started
        barrier = threading.Barrier(2, timeout=30)
        threads = []
        project = gt.project

        def paired(*args, **kwargs):
            if len(threads) < 2:
                threads.append(threading.get_ident())
                barrier.wait()
            return project(*args, **kwargs)

        monkeypatch.setattr(gt, "project", paired)
        gt.derive_frame(passes[(2, "left")], spec.rig)
        assert len(threads) == 2 and len(set(threads)) == 2
        assert threading.get_ident() not in threads


    def test_more_workers_than_cores(self, rendered_scene, monkeypatch):
        # one-row bands on eight threads, switching as often as possible: a
        # band that wrote outside its rows would show in the bytes
        spec, passes = rendered_scene
        fp, fp_next = passes[(2, "left")], passes[(3, "left")]
        ref = oracle.derive(fp, spec.rig, fp_next)
        monkeypatch.setattr(_parallel, "GT_BAND_ROWS", 1)
        set_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert_same_maps(derive_maps(fp, spec.rig, fp_next), ref,
                                 "8 workers")
        finally:
            sys.setswitchinterval(interval)


class TestDeriveFrameMemory:
    def test_temporaries_are_band_sized(self, monkeypatch):
        # bands of 16 rows at 240x135: the share of the frame that the
        # default 64-row bands are at 960x540. In each step, the per-view
        # maps and the occlusion mask, temporaries held above the inputs
        # and the maps returned stay below one (H, W, 3) float64 map; over
        # the whole frame at once they took some 3.6 MB.
        spec = sf.generate_flyingthings_scene(
            42, sf.FlyingThingsParams(frames=3, width=240, height=135))
        fp, fp_next = (sf.rasterize_frame(spec, t, "left") for t in (2, 3))
        monkeypatch.setattr(_parallel, "GT_BAND_ROWS", 16)
        bound = 135 * 240 * 3 * 8
        steps = {
            "derive_frame": lambda: vars(gt.derive_frame(fp, spec.rig)),
            "compute_occlusion_mask": lambda: {"occlusion_fwd": (
                gt.compute_occlusion_mask(fp, spec.rig,
                                          gt.next_frame_tables(fp_next)))},
        }
        for cpus in (1, 2):
            set_cpus(monkeypatch, cpus)
            for name, step in steps.items():
                tracemalloc.start()  # numpy reports its buffers to tracemalloc
                try:
                    maps = step()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                outputs = sum(a.nbytes for a in maps.values())
                assert peak - outputs < bound, (name, cpus, peak - outputs,
                                                bound)


def with_positions(passes, dtype):
    """passes with every position pass, depth included, cast to dtype."""
    return dataclasses.replace(passes, **{
        name: getattr(passes, name).astype(dtype)
        for name in ("pos3d_t", "pos3d_prev", "pos3d_next")
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

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_public_maps(self, stored, t):
        # both steps on the stored passes give the oracle's maps, which
        # widens the whole frame up front
        rig, narrow, wide = stored
        for view in ("left", "right"):
            fp, fp_next = narrow[(t, view)], narrow.get((t + 1, view))
            assert fp.depth.dtype == np.float32
            assert_same_maps(derive_maps(fp, rig, fp_next),
                             oracle.derive(fp, rig, fp_next), view)

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_derive_frame(self, stored, t):
        rig, narrow, wide = stored
        for view in ("left", "right"):
            key, nxt = (t, view), (t + 1, view)
            ref = derive_maps(wide[key], rig, wide.get(nxt))
            for rows in (7, _parallel.GT_BAND_ROWS):
                for cpus in (1, 2):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(_parallel, "GT_BAND_ROWS", rows)
                        set_cpus(mp, cpus)
                        maps = derive_maps(narrow[key], rig,
                                           narrow.get(nxt))
                    assert_same_maps(maps, ref, (view, rows, cpus))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_signalling_nan_widens_quietly(self, cpus):
        # every NaN of both frames' float32 passes as a signalling NaN
        # (0x7f810000) and as the same NaN quieted (0x7fc10000): the same
        # maps, and no "invalid value encountered in cast" warning from a
        # worker (an error here). As a covered pixel's X it is refused,
        # with no warning either
        depth = np.full((9, 10), 10.0)
        depth[:, :3] = np.nan
        index = np.where(np.isnan(depth), 0, 1 + (np.arange(10) >= 6))
        fp = make_passes(depth, INTR, index=index, t=1)
        fp.pos3d_next = fp.pos3d_t + np.where(index == 2, 0.2, 0.0)[..., None]
        fp_next = make_passes(depth, INTR, index=index, t=2)

        def with_nan(bits):
            nan = np.array([bits], dtype=np.uint32).view(np.float32)[0]
            narrow = [with_positions(p, np.float32) for p in (fp, fp_next)]
            for p in narrow:
                for name in ("depth", "pos3d_t", "pos3d_next"):
                    a = getattr(p, name)
                    if a is not None:
                        a[np.isnan(a)] = nan
            return narrow

        signalling, quiet = with_nan(0x7f810000), with_nan(0x7fc10000)
        pos_t = signalling[0].pos3d_t
        assert pos_t.view(np.uint32)[4, 0, 0] == 0x7f810000
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            set_cpus(mp, cpus)
            maps = derive_maps(signalling[0], RIG, signalling[1])
            ref = derive_maps(quiet[0], RIG, quiet[1])
            pos_t[4, 7, 0] = pos_t[4, 0, 0]
            with pytest.raises(DataCorruptionError, match="pos3d_t"):
                derive_maps(signalling[0], RIG, signalling[1])
        assert np.isnan(maps["flow_fwd"][4, 0, 0])
        assert_same_maps(maps, ref, cpus)

    def test_occlusion_eps_median_is_float64(self):
        # an even count: the float32 midpoint of 1 and 1 + 2^-23 rounds
        depth = np.array([[1.0, 1.0 + 2.0 ** -23]], dtype=np.float32)
        assert gt._occlusion_eps(depth) == 1e-3 * (1.0 + 2.0 ** -24)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_occlusion_eps_of_a_void_view(self, dtype):
        # no depth to take a median of: the unit tolerance, and no
        # "All-NaN slice" warning (a RuntimeWarning fails the test)
        assert gt._occlusion_eps(np.full((3, 4), np.nan, dtype=dtype)) == 1e-3


@st.composite
def depth_maps(draw):
    """Depth maps of 1 to 60 pixels, float32 or float64: NaN, ties (a few
    repeated values, -0.0 and 0.0), infinities and any finite value, so
    the counts of non-NaN values are odd, even and zero."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    value = st.one_of(
        st.sampled_from([np.nan, 0.0, -0.0, 1.0, 2.5, 7.0, np.inf, -np.inf]),
        st.floats(width=32 if dtype is np.float32 else 64))
    h = draw(st.integers(1, 6))
    values = draw(st.lists(value, min_size=h, max_size=10 * h))
    return np.array(values[:len(values) // h * h], dtype=dtype).reshape(h, -1)


class TestOcclusionEps:
    @settings(max_examples=300, deadline=None)
    @given(depth=depth_maps())
    def test_is_the_median_of_the_widened_depths(self, depth):
        wide = depth[~np.isnan(depth)].astype(np.float64)
        # the mean of -inf and inf, or of two values past half the maximum
        with np.errstate(invalid="ignore", over="ignore"):
            scale = float(np.median(wide)) if wide.size else 1.0
        want = 1e-3 * (scale if np.isfinite(scale) and scale > 0 else 1.0)
        got = gt._occlusion_eps(depth)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@st.composite
def pass_pairs(draw):
    """A hand-built frame t, H and W from 1 to 40: random depths with void
    pixels, 1-4 object indices, random t - 1 and t + 1 positions where the
    frame has them (some behind the camera or out of the image), and
    where drawn, an unrelated frame t + 1 of the same view. Void pixels
    hold NaN positions or random ones. Depth and positions are float32 or
    float64."""
    h = draw(st.one_of(st.just(1), st.integers(1, 40)))
    w = draw(st.one_of(st.just(1), st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    void = draw(st.sampled_from([0.0, 0.3, 1.0]))
    objects = draw(st.integers(1, 4))
    motion = draw(st.sampled_from([0.0, 0.02, 0.5, 3.0]))  # times the depth
    has_prev, has_next = draw(st.booleans()), draw(st.booleans())
    void_positions = draw(st.sampled_from(["nan", "random"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    intr = CameraIntrinsics.from_sensor(35, 32, w, h)
    rig = StereoRig(draw(st.sampled_from([0.54, 1.0])), intr)

    def frame(t):
        covered = rng.random((h, w)) >= void
        # depths from a short list as well, so z-buffer ties occur
        depth = np.where(rng.random((h, w)) < 0.5, rng.uniform(1.0, 20.0, (h, w)),
                         rng.integers(1, 4, (h, w)) * 5.0)
        index = np.where(covered, rng.integers(1, objects + 1, (h, w)), 0)
        return make_passes(np.where(covered, depth, np.nan), intr,
                           index=index, t=t)

    def at_void(fp, pos):
        if void_positions == "nan":
            return pos
        return np.where(fp.valid[..., None], pos, rng.normal(0, 10, (h, w, 3)))

    def moved(fp):
        step = motion * fp.depth[..., None] * rng.normal(size=(h, w, 3))
        return at_void(fp, fp.pos3d_t + step)

    fp = frame(2)
    fp.pos3d_prev = moved(fp) if has_prev else None
    fp.pos3d_next = moved(fp) if has_next else None
    fp.pos3d_t = at_void(fp, fp.pos3d_t)
    fp_next = frame(3) if has_next and draw(st.booleans()) else None
    return (with_positions(fp, dtype), rig,
            None if fp_next is None else with_positions(fp_next, dtype))


class TestDeriveFrameEqualsOracle:
    @settings(max_examples=200, deadline=None)
    @given(pair=pass_pairs(), cpus=st.sampled_from([1, 2]),
           rows=st.integers(1, 41))
    def test_hand_built_passes(self, pair, cpus, rows):
        fp, rig, fp_next = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_parallel, "GT_BAND_ROWS", rows)
            set_cpus(mp, cpus)
            maps = derive_maps(fp, rig, fp_next)
        assert_same_maps(maps, oracle.derive(fp, rig, fp_next),
                         (fp.depth.dtype, rows, cpus))
