import dataclasses

import numpy as np
import pytest

from sceneflowgen import (
    CameraIntrinsics, CameraPose, StereoRig,
    depth_to_disparity, disparity_to_depth, project, transform_point, unproject,
)
from sceneflowgen.errors import GeometryError


def simple_k(focal_px=100.0, cx=50.0, cy=50.0, width=100, height=100):
    # contrive sensor values so focal_px comes out exactly as requested
    return CameraIntrinsics.from_sensor(
        focal_mm=focal_px * 32.0 / width, sensor_width_mm=32.0,
        width=width, height=height, principal_point=(cx, cy),
    )


DATASET_K = CameraIntrinsics.from_sensor(35, 32, 960, 540)
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestIntrinsics:
    def test_default_dataset_focal(self):
        assert DATASET_K.focal_px == 1050.0

    def test_wide_angle_focal(self):
        wide = CameraIntrinsics.from_sensor(15, 32, 960, 540)
        assert wide.focal_px == 450.0

    def test_principal_point_defaults_to_center(self):
        assert DATASET_K.principal_point == (480.0, 270.0)

    def test_inconsistent_focal_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(focal_px=999.0, principal_point=(480, 270),
                             image_size=(960, 540), sensor_width_mm=32.0,
                             focal_mm=35.0)

    def test_bad_size_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics.from_sensor(35, 32, 0, 540)

    @pytest.mark.parametrize("width", [0, 0.0, -32.0])
    def test_non_positive_sensor_width_rejected(self, width):
        # both divide by the sensor width: neither may reach the division
        with pytest.raises(GeometryError, match="sensor_width_mm"):
            CameraIntrinsics.from_sensor(35, width, 960, 540)
        with pytest.raises(GeometryError, match="sensor_width_mm"):
            dataclasses.replace(DATASET_K, sensor_width_mm=width)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["focal_px", "focal_mm",
                                       "sensor_width_mm", "cx", "cy"])
    def test_non_finite_rejected(self, field, value):
        cx, cy = DATASET_K.principal_point
        changes = {"cx": {"principal_point": (value, cy)},
                   "cy": {"principal_point": (cx, value)}}
        with pytest.raises(GeometryError):
            dataclasses.replace(DATASET_K, **changes.get(field, {field: value}))


class TestProject:
    def test_hand_example(self):
        k = simple_k()
        uv = project(np.array([1.0, 0.0, 2.0]), k)
        assert np.allclose(uv, [100.0, 50.0])

    def test_optical_axis(self):
        k = simple_k()
        for z in (0.5, 2.0, 100.0):
            assert np.allclose(project(np.array([0.0, 0.0, z]), k), [50.0, 50.0])

    def test_behind_camera_raises(self):
        with pytest.raises(GeometryError):
            project(np.array([0.0, 0.0, -1.0]), simple_k())
        with pytest.raises(GeometryError):
            project(np.array([1.0, 1.0, 0.0]), simple_k())

    def test_unproject_examples(self):
        k = simple_k()
        assert np.allclose(unproject(np.array([50.0, 50.0]), 5.0, k), [0, 0, 5])
        assert np.allclose(unproject(np.array([100.0, 50.0]), 2.0, k), [1, 0, 2])

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(0)
        k = DATASET_K
        pts = np.stack([
            rng.uniform(-5, 5, 1000), rng.uniform(-5, 5, 1000),
            rng.uniform(0.1, 100, 1000),
        ], axis=-1)
        uv = project(pts, k)
        err = np.abs(project(unproject(uv, pts[:, 2], k), k) - uv)
        assert err.max() < 1e-9


class TestDisparity:
    RIG = StereoRig(CameraPose(), 1.0, DATASET_K)

    def test_formula(self):
        assert depth_to_disparity(35.0, self.RIG) == pytest.approx(30.0)

    def test_far_limit(self):
        assert depth_to_disparity(1e12, self.RIG) < 1.1e-9

    def test_kitti_like(self):
        k = CameraIntrinsics.from_sensor(25, 32, 1280, 720)
        assert k.focal_px == 1000.0
        rig = StereoRig(CameraPose(), 0.54, k)
        assert depth_to_disparity(10.0, rig) == pytest.approx(54.0)

    def test_inverse_example(self):
        assert disparity_to_depth(30.0, self.RIG) == pytest.approx(35.0)

    def test_unit_depth(self):
        d = self.RIG.intrinsics.focal_px * self.RIG.baseline
        assert disparity_to_depth(d, self.RIG) == pytest.approx(1.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0.1, 1e4, 1000)
        z2 = disparity_to_depth(depth_to_disparity(z, self.RIG), self.RIG)
        assert np.max(np.abs(z2 / z - 1.0)) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(GeometryError):
            depth_to_disparity(0.0, self.RIG)
        with pytest.raises(GeometryError):
            disparity_to_depth(-1.0, self.RIG)
        with pytest.raises(GeometryError):
            StereoRig(CameraPose(), 0.0, DATASET_K)

    @pytest.mark.parametrize("baseline", NON_FINITE)
    def test_non_finite_baseline_rejected(self, baseline):
        with pytest.raises(GeometryError):
            StereoRig(CameraPose(), baseline, DATASET_K)


def random_pose(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    x, y, z, w = q
    r = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    return CameraPose(r, rng.uniform(-10, 10, 3))


class TestTransformPoint:
    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        a = CameraPose()
        assert np.allclose(transform_point(p, a, a), p)

    def test_baseline_translation(self):
        rig = StereoRig(CameraPose(), 2.5, DATASET_K)
        p = np.array([4.0, 1.0, 7.0])
        assert np.allclose(transform_point(p, rig.left, rig.right),
                           [4.0 - 2.5, 1.0, 7.0])

    def test_compose_inverse_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            p = rng.uniform(-10, 10, 3)
            back = transform_point(transform_point(p, a, b), b, a)
            assert np.max(np.abs(back - p)) < 1e-9

    def test_bad_rotation_rejected(self):
        with pytest.raises(GeometryError):
            CameraPose(np.eye(3) * 2.0, np.zeros(3))


class TestRectifiedStereo:
    def test_row_alignment_and_disparity(self):
        rng = np.random.default_rng(3)
        rig = StereoRig(random_pose(rng), 1.0, DATASET_K)
        for _ in range(200):
            p_left = np.array([
                rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(1, 50),
            ])
            p_right = transform_point(p_left, rig.left, rig.right)
            ul, vl = project(p_left, rig.intrinsics)
            ur, vr = project(p_right, rig.intrinsics)
            assert abs(vl - vr) < 1e-9
            expected = rig.baseline * rig.intrinsics.focal_px / p_left[2]
            assert abs((ul - ur) - expected) < 1e-9
