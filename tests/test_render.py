import numpy as np
import pytest

import sceneflowgen as sf
from sceneflowgen.assets import Texture, make_cuboid
from sceneflowgen.errors import ContractError
from sceneflowgen.geometry import CameraIntrinsics, CameraPose, StereoRig
from sceneflowgen.render import FramePasses, rasterize_frame
from sceneflowgen.scene import ObjectInstance, SceneSpec
from sceneflowgen.trajectory import Trajectory

from conftest import small_params

# 128 px / 32 mm sensor: focal_px = 4 * focal_mm, so 35 mm -> 140 px
INTR = CameraIntrinsics.from_sensor(35, 32, 128, 96)


def box_object(center, scale, index, frames=2):
    mesh = make_cuboid()
    tex = Texture("checker", {"scale": 4.0, "color_a": (1, 1, 1),
                              "color_b": (0.2, 0.2, 0.2)})
    return ObjectInstance(
        mesh=mesh, materials={1: tex},
        triangle_materials=np.ones(len(mesh.triangles), dtype=np.int64),
        scale=np.asarray(scale, dtype=np.float64),
        trajectory=Trajectory.static(center, t0=1.0, t1=float(frames)),
        object_index=index,
    )


def box_scene(boxes, frames=2, baseline=1.0):
    """Scene of static axis-aligned boxes seen by a static camera at the
    origin; boxes[0] plays the ground-plane slot."""
    return SceneSpec(
        seed=0, frames=frames,
        rig_trajectory=Trajectory.static([0.0, 0.0, 0.0], t0=1.0, t1=float(frames)),
        objects=[], ground_plane=boxes[0], background_objects=list(boxes[1:]),
        rig=StereoRig(CameraPose(), baseline, INTR),
    )


class TestFrontoParallelQuad:
    # front face of the box sits exactly at Z = 10
    SPEC = box_scene([box_object((0, 0, 10.25), (4, 4, 0.5), 1)])

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
        back = box_object((0, 0, 10.25), (4, 4, 0.5), 1)
        front = box_object((0, 0, 5.25), (2, 2, 0.5), 2)
        for order in ([back, front], [front, back]):
            fp = rasterize_frame(box_scene(order), 1, "left")
            covered = fp.object_index == 2
            assert covered.sum() == 56 * 56
            assert np.allclose(fp.depth[covered], 5.0, atol=1e-9)
            assert not np.any(fp.object_index == 1)


class TestStereo:
    def test_integer_disparity_plane(self):
        # Z=14, b=1, f=140 -> disparity exactly 10 px, so the right view is
        # the left view shifted 10 whole pixels
        spec = box_scene([box_object((0, 0, 14.25), (4, 4, 0.5), 1)])
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
        _, passes = rendered_scene
        fp = passes[(2, "left")]
        ys, xs = np.nonzero(fp.valid)
        uv = sf.project(fp.pos3d_t[fp.valid], fp.intrinsics)
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
                     "object_index", "material_index"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


class TestContracts:
    def test_time_out_of_range(self):
        spec = box_scene([box_object((0, 0, 10.25), (4, 4, 0.5), 1)])
        with pytest.raises(ContractError):
            rasterize_frame(spec, 0, "left")
        with pytest.raises(ContractError):
            rasterize_frame(spec, 3, "left")
