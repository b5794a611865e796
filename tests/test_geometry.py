import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sceneflowgen
from sceneflowgen import CameraIntrinsics, CameraPose, StereoRig, project, unproject
from sceneflowgen.assets import Texture, primitive_mesh
from sceneflowgen.errors import GeometryError
from sceneflowgen.geometry import MAX_PIXELS
from sceneflowgen.scene import ObjectInstance, SceneSpec
from sceneflowgen.trajectory import Trajectory

import groundtruth_oracle


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

    def test_bad_size_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics.from_sensor(35, 32, 0, 540)

    def test_size_capped_at_what_formats_reads(self):
        assert MAX_PIXELS == 16384 * 16384
        CameraIntrinsics.from_sensor(35, 32, 16384, 16384)
        for w, h in [(16385, 16384), (16384, 16385), (2**28 + 1, 1)]:
            with pytest.raises(GeometryError, match="pixels"):
                CameraIntrinsics.from_sensor(35, 32, w, h)

    @pytest.mark.parametrize("key, value", [
        ("focal_mm", "35"), ("sensor_width_mm", None), ("cx", [480.0]),
        ("cy", True), ("width", "960"), ("height", "540"), ("width", 960.0),
        ("height", False)])
    def test_from_dict_refuses_what_is_not_a_number(self, key, value):
        d = DATASET_K.to_dict()
        assert CameraIntrinsics.from_dict(d) == DATASET_K
        d[key] = value
        with pytest.raises(TypeError, match=key):
            CameraIntrinsics.from_dict(d)

    @pytest.mark.parametrize("width", [0, 0.0, -32.0])
    def test_non_positive_sensor_width_rejected(self, width):
        # focal_px divides by the sensor width: it may not be built
        with pytest.raises(GeometryError, match="sensor_width_mm"):
            CameraIntrinsics.from_sensor(35, width, 960, 540)
        with pytest.raises(GeometryError, match="sensor_width_mm"):
            dataclasses.replace(DATASET_K, sensor_width_mm=width)

    @pytest.mark.parametrize("focal_mm, sensor_width_mm",
                             [(0.0, 32.0), (-35.0, 32.0), (1e300, 1e-300)])
    def test_focal_px_finite_and_positive(self, focal_mm, sensor_width_mm):
        # the last overflows: every stored value is finite, focal_px is not
        with pytest.raises(GeometryError, match="focal_px"):
            CameraIntrinsics.from_sensor(focal_mm, sensor_width_mm, 960, 540)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["focal_mm", "sensor_width_mm", "cx", "cy"])
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

    def test_behind_camera_is_nan(self):
        k = simple_k()
        for z in (-1.0, 0.0, -0.0, float("nan"), float("-inf")):
            assert np.isnan(project(np.array([1.0, 1.0, z]), k)).all()
        uv = project(np.array([[1.0, 0.0, 2.0], [1.0, 0.0, -2.0]]), k)
        assert np.array_equal(uv[0], [100.0, 50.0])
        assert np.isnan(uv[1]).all()

    def test_unproject_examples(self):
        k = simple_k()
        assert np.allclose(unproject(np.array([50.0, 50.0]), 5.0, k), [0, 0, 5])
        assert np.allclose(unproject(np.array([100.0, 50.0]), 2.0, k), [1, 0, 2])

    def test_unproject_refuses_zero_depth(self):
        with pytest.raises(GeometryError, match="positive"):
            unproject(np.array([50.0, 50.0]), 0.0, simple_k())

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


_intrinsics = st.builds(
    CameraIntrinsics.from_sensor,
    focal_mm=st.floats(1.0, 100.0), sensor_width_mm=st.floats(8.0, 64.0),
    width=st.integers(1, 4096), height=st.integers(1, 4096),
    principal_point=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)),
)
# any float, with Z <= 0, NaN and the infinities drawn often
_coordinate = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1.0, float("nan"), float("inf"), float("-inf")]),
)


@settings(max_examples=300, deadline=None)
@given(points=hnp.arrays(np.float64,
                         hnp.array_shapes(max_dims=3).map(lambda s: s[:-1] + (3,)),
                         elements=_coordinate),
       k=_intrinsics)
def test_project_matches_oracle_bit_for_bit(points, k):
    # huge coordinates overflow to +-inf on both sides alike
    with np.errstate(over="ignore"):
        got = project(points, k)
        want = groundtruth_oracle.project(points, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def whole_array_projection(p, k):
    """f * x / safe_z + c over the whole array at once, NaN where Z is not
    > 0: the expression the planar `project` computes in steps."""
    z = p[..., 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        front = z > 0
        safe_z = np.where(front, z, 1.0)
        u = k.focal_px * p[..., 0] / safe_z + k.principal_point[0]
        v = k.focal_px * p[..., 1] / safe_z + k.principal_point[1]
    uv = np.stack([u, v], axis=-1)
    uv[~front] = np.nan
    return uv


_FLOAT_MAX = np.finfo(np.float64).max
# Z of 0, -0.0, negative, NaN, +-inf and near the float64 maximum, often
_edge_coordinate = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1.0, -1e-300, 5e-324, float("nan"),
                     float("inf"), float("-inf"), _FLOAT_MAX, -_FLOAT_MAX,
                     np.nextafter(_FLOAT_MAX, 0)]),
)
# a single point, a list of points, one-row and one-column bands and
# whole bands of rows
_point_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 40)),
    st.tuples(st.just(1), st.integers(1, 40)),
    st.tuples(st.integers(1, 40), st.just(1)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
)


@settings(max_examples=300, deadline=None)
@given(points=_point_shapes.flatmap(
           lambda s: hnp.arrays(np.float64, s + (3,), elements=_edge_coordinate)),
       k=_intrinsics)
def test_planar_project_matches_whole_array_expression(points, k):
    with np.errstate(over="ignore"):  # f * x can overflow to +-inf
        want = whole_array_projection(points, k)
        got = project(points, k)
        # every element of the caller's planes is written
        out = np.full((2,) + points.shape[:-1], 12345.0)
        planes = project(points, k, out=out)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert planes is out
    assert out.tobytes() == np.moveaxis(want, -1, 0).tobytes()


def test_only_geometry_reads_the_intrinsics():
    """The camera model is `geometry`'s: no other module reads focal_px or
    the principal point, but for the value `generate` records in
    config.generate.json."""
    reads = []
    for path in sorted(Path(sceneflowgen.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("focal_px", "principal_point")):
                reads.append((path.name, ast.unparse(node)))
    assert reads == [("cli.py", "spec.rig.intrinsics.focal_px")]


def test_only_derivable_reads_a_camera_from_a_manifest():
    """A manifest's rig and poses are read once, in `pipeline._derivable`:
    no other function outside `geometry` calls a camera's `from_dict`."""
    cameras = {"CameraIntrinsics", "CameraPose", "StereoRig"}
    calls = []
    for path in sorted(Path(sceneflowgen.__file__).parent.glob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text())
        owner = {}  # node -> the innermost function it is in
        for fn in ast.walk(tree):  # breadth first: outer functions first
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "from_dict"
                    and ast.unparse(node.func.value).split(".")[-1] in cameras):
                calls.append((path.name, owner.get(node),
                              ast.unparse(node.func)))
    assert sorted(calls) == [
        ("pipeline.py", "_derivable", "CameraPose.from_dict"),
        ("pipeline.py", "_derivable", "StereoRig.from_dict")]


class TestDisparity:
    """A point at depth Z has disparity b*f/Z, with bf from the rig."""

    RIG = StereoRig(1.0, DATASET_K)

    def test_formula(self):
        assert self.RIG.bf == 1050.0
        assert self.RIG.bf / 35.0 == pytest.approx(30.0)

    def test_far_limit(self):
        assert self.RIG.bf / 1e12 < 1.1e-9

    def test_kitti_like(self):
        k = CameraIntrinsics.from_sensor(25, 32, 1280, 720)
        assert k.focal_px == 1000.0
        rig = StereoRig(0.54, k)
        assert rig.bf / 10.0 == pytest.approx(54.0)

    def test_inverse_example(self):
        assert self.RIG.bf / 30.0 == pytest.approx(35.0)

    def test_unit_depth(self):
        # at Z = 1 the disparity is b*f itself
        rig = StereoRig(2.5, DATASET_K)
        assert rig.bf == 2.5 * DATASET_K.focal_px

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(0.1, 1e4, 1000)
        z2 = self.RIG.bf / (self.RIG.bf / z)
        assert np.max(np.abs(z2 / z - 1.0)) < 1e-12

    def test_invalid_inputs(self):
        for baseline in (0.0, -1.0):
            with pytest.raises(GeometryError):
                StereoRig(baseline, DATASET_K)

    @pytest.mark.parametrize("baseline", NON_FINITE)
    def test_non_finite_baseline_rejected(self, baseline):
        with pytest.raises(GeometryError):
            StereoRig(baseline, DATASET_K)

    def test_manifest_left_pose_is_identity_and_unread(self):
        d = self.RIG.to_dict()
        assert d["left_pose"] == CameraPose().to_dict()
        d["left_pose"] = {"rotation": "not a pose"}
        assert StereoRig.from_dict(d) == self.RIG

    @pytest.mark.parametrize("baseline", [True, "1.0", None])
    def test_from_dict_refuses_a_baseline_not_a_number(self, baseline):
        d = self.RIG.to_dict()
        d["baseline"] = baseline
        with pytest.raises(TypeError, match="baseline"):
            StereoRig.from_dict(d)


@pytest.mark.parametrize("key, index, value", [
    ("rotation", (0, 0), True), ("rotation", (1, 2), "0"),
    ("translation", (2,), False), ("translation", (0,), "0.5")])
def test_pose_from_dict_refuses_what_is_not_a_number(key, index, value):
    d = CameraPose().to_dict()
    CameraPose.from_dict(d)
    *row, i = index
    (d[key][row[0]] if row else d[key])[i] = value
    with pytest.raises(TypeError, match=key):
        CameraPose.from_dict(d)


def random_quaternion(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng):
    x, y, z, w = random_quaternion(rng)
    r = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    return CameraPose(r, rng.uniform(-10, 10, 3))


def rig_scene(rng, baseline):
    """A scene whose stereo rig stands still at a random pose."""
    box = ObjectInstance(
        mesh=primitive_mesh("cuboid"), texture=Texture("checker", {"scale": 4.0}),
        scale=np.ones(3), trajectory=Trajectory.static([0.0, 0.0, 10.0]),
    )
    return SceneSpec(
        seed=0, frames=2,
        rig_trajectory=Trajectory.static(rng.uniform(-10, 10, 3),
                                         random_quaternion(rng)),
        objects=[], ground_plane=box, background_objects=[],
        rig=StereoRig(baseline, DATASET_K),
    )


class TestTransformPoint:
    """Points carried between camera frames through the world frame."""

    def test_identity(self):
        p = np.array([1.0, 2.0, 3.0])
        a = CameraPose()
        assert np.array_equal(a.world_to_camera(p), p)
        assert np.array_equal(a.world_to_camera(a.camera_to_world(p)), p)

    def test_baseline_translation(self):
        spec = rig_scene(np.random.default_rng(4), baseline=2.5)
        left, right = spec.camera_pose(1, "left"), spec.camera_pose(1, "right")
        p = np.array([4.0, 1.0, 7.0])
        assert np.allclose(right.world_to_camera(left.camera_to_world(p)),
                           [4.0 - 2.5, 1.0, 7.0])

    def test_compose_inverse_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            p = rng.uniform(-10, 10, 3)
            there = b.world_to_camera(a.camera_to_world(p))
            back = a.world_to_camera(b.camera_to_world(there))
            assert np.max(np.abs(back - p)) < 1e-9

    def test_bad_rotation_rejected(self):
        with pytest.raises(GeometryError):
            CameraPose(np.eye(3) * 2.0, np.zeros(3))

    def test_rotation_of_another_shape_rejected(self):
        with pytest.raises(GeometryError, match="3x3"):
            CameraPose(np.eye(3)[:2], np.zeros(3))

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["rotation entry", "rotation",
                                       "translation"])
    def test_non_finite_pose_rejected(self, field, value):
        rotation, translation = np.eye(3), np.zeros(3)
        if field == "rotation":
            rotation = np.full((3, 3), value)
        elif field == "rotation entry":
            rotation[1, 2] = value
        else:
            translation[0] = value
        with pytest.raises(GeometryError, match="finite"):
            CameraPose(rotation, translation)


class TestRectifiedStereo:
    def test_row_alignment_and_disparity(self):
        """The views `SceneSpec.camera_pose` builds are a rectified pair: a
        point lies on the same row in both, b*f/Z further left in the
        right view."""
        rng = np.random.default_rng(3)
        spec = rig_scene(rng, baseline=1.0)
        left, right = spec.camera_pose(1, "left"), spec.camera_pose(1, "right")
        k = spec.rig.intrinsics
        for _ in range(200):
            p_left = np.array([
                rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(1, 50),
            ])
            p_right = right.world_to_camera(left.camera_to_world(p_left))
            ul, vl = project(p_left, k)
            ur, vr = project(p_right, k)
            assert abs(vl - vr) < 1e-9
            assert abs((ul - ur) - spec.rig.bf / p_left[2]) < 1e-9
