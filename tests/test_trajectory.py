import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation, Slerp

from sceneflowgen.errors import ConfigurationError
from sceneflowgen.trajectory import (
    Trajectory, quat_compose, quat_from_euler, quat_from_rotvec,
    quat_normalize, quat_slerp, quat_to_matrix,
)


def random_trajectory(rng, n_keys=5):
    times = np.cumsum(rng.uniform(0.5, 2.0, n_keys)) + 1.0
    positions = rng.uniform(-10, 10, (n_keys, 3))
    quats = Rotation.random(n_keys, random_state=rng).as_quat()
    return Trajectory(times, positions, quats)


class TestEvaluate:
    def test_static_is_constant(self):
        traj = Trajectory.static([1.0, 2.0, 3.0], t0=1.0, t1=5.0)
        for t in np.linspace(1.0, 5.0, 17):
            pos, rot = traj.evaluate(t)
            assert np.allclose(pos, [1.0, 2.0, 3.0])
            assert np.array_equal(rot, np.eye(3))

    def test_keyframes_reproduced_exactly(self):
        rng = np.random.default_rng(0)
        traj = random_trajectory(rng)
        for i, t in enumerate(traj.times):
            pos, rot = traj.evaluate(t)
            assert np.array_equal(pos, traj.positions[i])
            expected = Rotation.from_quat(traj.quaternions[i]).as_matrix()
            assert rot.tobytes() == expected.tobytes()

    def test_two_keyframe_midpoint(self):
        q = Rotation.identity().as_quat()
        traj = Trajectory([1.0, 3.0], [[0, 0, 0], [2, 0, 0]], [q, q])
        pos, _ = traj.evaluate(2.0)
        assert np.allclose(pos, [1.0, 0.0, 0.0])

    def test_rotation_slerp_midpoint(self):
        q0 = Rotation.identity().as_quat()
        q1 = Rotation.from_euler("y", 0.8).as_quat()
        traj = Trajectory([1.0, 2.0], [[0, 0, 0]] * 2, [q0, q1])
        _, rot = traj.evaluate(1.5)
        c, s = math.cos(0.4), math.sin(0.4)
        assert np.allclose(rot, [[c, 0, s], [0, 1, 0], [-s, 0, c]],
                           rtol=0, atol=1e-12)

    def test_c1_velocity_continuity(self):
        rng = np.random.default_rng(1)
        traj = random_trajectory(rng, n_keys=6)
        h = 1e-7
        for t in traj.times[1:-1]:
            before = (traj.evaluate(t)[0] - traj.evaluate(t - h)[0]) / h
            after = (traj.evaluate(t + h)[0] - traj.evaluate(t)[0]) / h
            assert np.max(np.abs(after - before)) < 1e-5

    def test_out_of_domain_raises(self):
        traj = Trajectory.static([0, 0, 0], t0=1.0, t1=3.0)
        with pytest.raises(ConfigurationError):
            traj.evaluate(0.999)
        with pytest.raises(ConfigurationError):
            traj.evaluate(3.001)


class TestValidation:
    def test_too_few_keyframes(self):
        q = Rotation.identity().as_quat()
        with pytest.raises(ConfigurationError):
            Trajectory([1.0], [[0, 0, 0]], [q])

    def test_non_increasing_times(self):
        q = Rotation.identity().as_quat()
        with pytest.raises(ConfigurationError):
            Trajectory([1.0, 1.0], [[0, 0, 0]] * 2, [q, q])

    def test_quaternions_normalized_on_construction(self):
        traj = Trajectory([1.0, 2.0], [[0, 0, 0]] * 2,
                          [[0, 0, 0, 2.0], [0, 0, 0, 2.0]])
        assert np.allclose(np.linalg.norm(traj.quaternions, axis=1), 1.0)

    @pytest.mark.parametrize("bad", [
        [0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [0.0, np.inf, 0.0, 1.0],
        [0.0, 0.0, -np.inf, 0.0],
    ])
    def test_degenerate_quaternion_rejected(self, bad):
        q = [0.0, 0.0, 0.0, 1.0]
        with pytest.raises(ConfigurationError, match="quaternions"):
            Trajectory([1.0, 2.0], [[0, 0, 0]] * 2, [q, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_and_positions_rejected(self, bad):
        q = [0.0, 0.0, 0.0, 1.0]
        with pytest.raises(ConfigurationError, match="times"):
            Trajectory([1.0, bad], [[0, 0, 0]] * 2, [q, q])
        with pytest.raises(ConfigurationError, match="positions"):
            Trajectory([1.0, 2.0], [[0, 0, 0], [0, bad, 0]], [q, q])


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        traj = random_trajectory(rng)
        back = Trajectory.from_dict(traj.to_dict())
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.positions, traj.positions)
        assert np.array_equal(back.quaternions, traj.quaternions)


# scipy's Rotation and Slerp stay the reference for the numpy port: every
# result must carry the same bytes
finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
scales = st.sampled_from([1e-7, 1e-4, 5e-4, 1e-3, 2e-3, 0.1, 1.0])
quats = st.lists(finite, min_size=4, max_size=4).map(np.array).filter(
    lambda q: np.linalg.norm(q) > 1e-6)
rotvecs = st.tuples(st.lists(finite, min_size=3, max_size=3), scales).map(
    lambda a: np.array(a[0]) * a[1])


def same_bytes(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestScipyReference:
    @settings(max_examples=300, deadline=None)
    @given(q=quats)
    def test_normalize_and_matrix(self, q):
        r = Rotation.from_quat(q)
        assert same_bytes(quat_normalize(q), r.as_quat())
        assert same_bytes(quat_to_matrix(quat_normalize(q)), r.as_matrix())

    @settings(max_examples=300, deadline=None)
    @given(yaw=finite, pitch=finite, scale=scales)
    def test_from_euler(self, yaw, pitch, scale):
        angles = [yaw * scale, pitch * scale]
        assert same_bytes(quat_from_euler("yx", angles),
                          Rotation.from_euler("yx", angles).as_quat())
        assert same_bytes(quat_from_euler("y", yaw),
                          Rotation.from_euler("y", yaw).as_quat())

    @settings(max_examples=300, deadline=None)
    @given(v=rotvecs)
    def test_from_rotvec(self, v):
        assert same_bytes(quat_from_rotvec(v), Rotation.from_rotvec(v).as_quat())

    @settings(max_examples=300, deadline=None)
    @given(v=rotvecs, p=quats, q=quats)
    def test_compose_then_normalize(self, v, p, q):
        r = Rotation.from_quat(q)
        stored = r.as_quat()
        assert same_bytes(quat_compose(quat_from_rotvec(v), stored),
                          (Rotation.from_rotvec(v) * r).as_quat())
        assert same_bytes(quat_compose(quat_normalize(p), stored),
                          (Rotation.from_quat(p) * r).as_quat())

    @settings(max_examples=300, deadline=None)
    @given(q0=quats, v=rotvecs, flip=st.booleans(),
           t0=st.floats(-10.0, 10.0), dt=st.floats(0.01, 10.0),
           u=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_slerp_at_interior_times(self, q0, v, flip, t0, dt, u):
        # q1 a rotation by v away from q0, on either cover
        q1 = (Rotation.from_rotvec(v) * Rotation.from_quat(q0)).as_quat()
        q1 = -q1 if flip else q1
        times = np.array([t0, t0 + dt])
        t = float(times[0] + u * (times[1] - times[0]))
        assume(times[0] < t < times[1])
        traj = Trajectory(times, [[0, 0, 0]] * 2, [q0, q1])
        stored = traj.quaternions
        ref = Slerp(times, Rotation.from_quat(stored))([t])[0]
        _, rot = traj.evaluate(t)
        assert same_bytes(rot, ref.as_matrix())
        alpha = (t - times[0]) / (times[1] - times[0])
        assert same_bytes(quat_slerp(stored[0], stored[1], alpha), ref.as_quat())
        raw = Slerp([0.0, 1.0], Rotation.from_quat(np.array([q0, q1])))([alpha])
        assert same_bytes(quat_slerp(q0, q1, alpha), raw[0].as_quat())

    @settings(max_examples=100, deadline=None)
    @given(q=st.lists(quats, min_size=2, max_size=5),
           dts=st.lists(st.floats(0.01, 4.0), min_size=5, max_size=5))
    def test_exact_keyframe_hits(self, q, dts):
        times = 1.0 + np.cumsum(dts[:len(q)])
        traj = Trajectory(times, [[0, 0, 0]] * len(q), q)
        for i, t in enumerate(times):
            _, rot = traj.evaluate(t)
            ref = Rotation.from_quat(traj.quaternions[i]).as_matrix()
            assert same_bytes(rot, ref)
