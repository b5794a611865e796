import json

import numpy as np
import pytest

import sceneflowgen as sf
from sceneflowgen import scene
from sceneflowgen.assets import Texture, primitive_mesh
from sceneflowgen.errors import ConfigurationError
from sceneflowgen.geometry import CameraIntrinsics, CameraPose, StereoRig
from sceneflowgen.scene import (
    DrivingParams, FlyingThingsParams, ObjectInstance, SceneSpec,
    generate_driving_preset, generate_flyingthings_scene, stream_rng,
)
from sceneflowgen.trajectory import Trajectory

from conftest import SMALL, small_params


class TestStreamRng:
    def test_reproducible(self):
        a = stream_rng(42, "object", 3).random(16)
        b = stream_rng(42, "object", 3).random(16)
        assert np.array_equal(a, b)

    def test_streams_independent_of_tag(self):
        a = stream_rng(42, "object", 3).random(4)
        b = stream_rng(42, "object", 4).random(4)
        c = stream_rng(43, "object", 3).random(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestFlyingThings:
    def test_same_seed_identical_spec(self):
        a = generate_flyingthings_scene(11, SMALL).to_dict()
        b = generate_flyingthings_scene(11, SMALL).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seeds_differ(self):
        a = generate_flyingthings_scene(1, SMALL).to_dict()
        b = generate_flyingthings_scene(2, SMALL).to_dict()
        assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def test_object_count_in_range(self):
        for seed in range(8):
            spec = generate_flyingthings_scene(seed, SMALL)
            lo, hi = SMALL.n_objects_range
            assert lo <= len(spec.objects) <= hi
            assert len(spec.background_objects) == SMALL.n_background + 1

    def test_indices_unique_and_positive(self):
        spec = generate_flyingthings_scene(5, SMALL)
        indices = [o.object_index for o in spec.all_objects()]
        assert len(set(indices)) == len(indices)
        assert min(indices) >= 1

    def test_defaults(self):
        p = FlyingThingsParams()
        assert p.n_objects_range == (5, 20)
        assert p.n_background == 200
        assert (p.width, p.height) == (960, 540)
        assert p.baseline == 1.0

    def test_keyframes_visible_in_left_view(self):
        """Every foreground keyframe position must project inside the
        frame with positive depth at its keyframe time."""
        for seed in range(6):
            spec = generate_flyingthings_scene(seed, SMALL)
            intr = spec.rig.intrinsics
            w, h = intr.image_size
            for obj in spec.objects:
                traj = obj.trajectory
                for t, p_world in zip(traj.times, traj.positions):
                    pose = spec.camera_pose(float(t), "left")
                    p_cam = pose.world_to_camera(p_world)
                    assert p_cam[2] > 0
                    u, v = sf.project(p_cam, intr)
                    assert 0 <= u <= w and 0 <= v <= h

    def test_static_freezes_everything(self):
        spec = generate_flyingthings_scene(3, small_params(static=True))
        for obj in spec.all_objects():
            p1, r1 = obj.trajectory.evaluate(1.0)
            p2, r2 = obj.trajectory.evaluate(float(spec.frames))
            assert np.array_equal(p1, p2)
            assert r1.tobytes() == r2.tobytes()
        c1, _ = spec.rig_trajectory.evaluate(1.0)
        c2, _ = spec.rig_trajectory.evaluate(float(spec.frames))
        assert np.array_equal(c1, c2)

    def test_bad_params(self):
        with pytest.raises(ConfigurationError):
            generate_flyingthings_scene(0, small_params(n_objects_range=(0, 5)))
        with pytest.raises(ConfigurationError):
            generate_flyingthings_scene(0, small_params(frames=1))


class TestRigViews:
    def test_right_view_offset_by_baseline(self):
        spec = generate_flyingthings_scene(9, SMALL)
        for t in (1.0, 1.5, float(spec.frames)):
            left = spec.camera_pose(t, "left")
            right = spec.camera_pose(t, "right")
            assert np.array_equal(left.rotation, right.rotation)
            diff = right.translation - left.translation
            assert np.allclose(diff, [-spec.rig.baseline, 0.0, 0.0])

    def test_unknown_view(self):
        spec = generate_flyingthings_scene(9, SMALL)
        with pytest.raises(ConfigurationError):
            spec.camera_pose(1.0, "middle")


class TestDrivingPreset:
    def test_default_rig(self):
        spec = generate_driving_preset(0)
        assert spec.rig.baseline == 1.0
        assert spec.rig.intrinsics.focal_px == 1050.0
        assert spec.rig.intrinsics.image_size == (960, 540)

    def test_wide_angle_variant(self):
        spec = generate_driving_preset(0, DrivingParams(focal_mm=15.0))
        assert spec.rig.intrinsics.focal_px == 450.0

    def test_other_focal_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_driving_preset(0, DrivingParams(focal_mm=50.0))

    def test_camera_moves_forward(self):
        spec = generate_driving_preset(4)
        c1, _ = spec.rig_trajectory.evaluate(1.0)
        c2, _ = spec.rig_trajectory.evaluate(2.0)
        assert c2[2] > c1[2]
        assert np.allclose((c2 - c1)[:2], 0.0)

    def test_reproducible(self):
        a = generate_driving_preset(8).to_dict()
        b = generate_driving_preset(8).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestPoseCache:
    def test_cached_pose_is_bit_equal_to_fresh(self):
        spec = generate_flyingthings_scene(3, small_params())
        for obj in spec.objects[:3] + [spec.ground_plane]:
            for t in (1, 1.5, 2, 3):
                pos, rot = obj.trajectory.evaluate(t)
                for _ in range(2):
                    r, p = obj.pose_at(t)
                    assert r.tobytes() == rot.tobytes()
                    assert p.tobytes() == np.asarray(pos, np.float64).tobytes()
            assert obj.pose_at(2) is obj.pose_at(2.0)

    def test_returned_arrays_are_read_only(self):
        obj = generate_flyingthings_scene(3, small_params()).objects[0]
        r, p = obj.pose_at(2)
        with pytest.raises(ValueError):
            r[0, 0] = 5.0
        with pytest.raises(ValueError):
            p += 1.0
        r2, p2 = obj.pose_at(2)
        assert r2.tobytes() == r.tobytes() and p2.tobytes() == p.tobytes()


class TestSharedMeshes:
    def test_one_read_only_mesh_per_primitive(self):
        spec = generate_flyingthings_scene(42, small_params())
        meshes = {}
        for obj in spec.all_objects():
            meshes.setdefault(obj.mesh.asset_id, []).append(obj.mesh)
        assert max(len(m) for m in meshes.values()) > 1
        for same in meshes.values():
            assert all(m is same[0] for m in same)
        mesh = meshes["primitive:cuboid"][0]
        for array in (mesh.vertices, mesh.triangles, mesh.uv):
            with pytest.raises(ValueError):
                array[0] = 0


def cuboid(index, materials=1):
    mesh = primitive_mesh("cuboid")
    texture = Texture("checker", {"scale": 4.0})
    return ObjectInstance(
        mesh=mesh, materials={m + 1: texture for m in range(materials)},
        triangle_materials=np.ones(len(mesh.triangles), dtype=np.int64),
        scale=np.ones(3), trajectory=Trajectory.static([0.0, 0.0, 10.0]),
        object_index=index,
    )


class TestIndexLimits:
    """Object and material indices are uint16 passes: a scene that needs
    more is a ConfigurationError before anything is rendered."""

    def test_object_index_fits_uint16(self):
        assert cuboid(65535).object_index == 65535
        with pytest.raises(ConfigurationError, match="65535"):
            cuboid(65536)

    def test_scene_materials_fit_uint16(self):
        def spec(materials):
            return SceneSpec(
                seed=0, frames=2, rig_trajectory=Trajectory.static([0.0, 0.0, 0.0]),
                objects=[], ground_plane=cuboid(1, materials),
                background_objects=[cuboid(2)],
                rig=StereoRig(CameraPose(), 1.0,
                              CameraIntrinsics.from_sensor(35, 32, 8, 6)),
            )
        assert len(spec(65534).ground_plane.materials) == 65534
        with pytest.raises(ConfigurationError, match="65536 materials"):
            spec(65535)

    @pytest.mark.parametrize("n_background", [65535 - 2 - 6 + 1, 10**11])
    def test_too_many_background_objects(self, monkeypatch, n_background):
        # ground, shell, background and up to 6 foreground objects
        def built(*args):
            raise AssertionError("an object was built")

        monkeypatch.setattr(scene, "_textured_object", built)
        with pytest.raises(ConfigurationError, match="65527"):
            generate_flyingthings_scene(0, small_params(n_background=n_background))
