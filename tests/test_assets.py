import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sceneflowgen import assets
from sceneflowgen.assets import (
    Mesh, Texture, make_cuboid, make_cylinder, make_sphere, make_torus,
)
from sceneflowgen.errors import ConfigurationError


class TestPrimitives:
    @pytest.mark.parametrize("factory", [make_cuboid, make_cylinder,
                                         make_sphere, make_torus])
    def test_valid_mesh(self, factory):
        mesh = factory()
        assert len(mesh.triangles) > 0
        assert mesh.triangles.max() < len(mesh.vertices)
        assert mesh.uv.shape == (len(mesh.vertices), 2)

    def test_cuboid_shape(self):
        mesh = make_cuboid()
        assert len(mesh.triangles) == 12
        span = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        assert np.allclose(span, 1.0)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), np.zeros((3, 2)), "bad")

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            Mesh(np.eye(3), np.array([[0, 1, 5]]), np.zeros((3, 2)), "bad")

    def test_uv_per_vertex_required(self):
        with pytest.raises(ConfigurationError, match="2 uv entries for 3 vertices"):
            Mesh(np.eye(3), np.array([[0, 1, 2]]), np.zeros((2, 2)), "bad")

    def test_no_triangles_rejected(self):
        with pytest.raises(ConfigurationError, match="no triangles"):
            Mesh(np.eye(3), np.zeros((0, 3), dtype=np.int64), np.zeros((3, 2)), "bad")

    def test_unknown_primitive(self):
        with pytest.raises(ConfigurationError, match="'cone'"):
            assets.primitive_mesh("cone")


class TestTextures:
    def test_checker_parity(self):
        tex = Texture("checker", {"scale": 2.0, "color_a": (1, 1, 1),
                                  "color_b": (0, 0, 0)})
        assert np.allclose(tex.sample(np.array([0.1, 0.1])), 1.0)
        assert np.allclose(tex.sample(np.array([0.6, 0.1])), 0.0)

    def test_noise_deterministic(self):
        a = Texture("noise", {"seed": 5, "frequency": 3.0})
        b = Texture("noise", {"seed": 5, "frequency": 3.0})
        uv = np.random.default_rng(0).random((32, 2))
        assert np.array_equal(a.sample(uv), b.sample(uv))

    def test_unknown_kind(self):
        for kind in ("marble", "image"):
            with pytest.raises(ConfigurationError):
                Texture(kind)


class TestNoiseLatticeCache:
    def test_lattice_built_once_and_samples_repeat(self, monkeypatch):
        calls = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            calls.append(kwargs)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        tex = Texture("noise", {"seed": 9, "frequency": 6.0})
        uv = np.random.default_rng(1).random((500, 2)) * 3 - 1
        first = tex.sample(uv)
        second = tex.sample(uv)
        assert first.tobytes() == second.tobytes()
        assert len(calls) == 1
        # a fresh texture with the same parameters builds the same lattice
        assert Texture("noise", {"seed": 9, "frequency": 6.0}).sample(uv).tobytes() \
            == first.tobytes()

    def test_lattice_is_read_only(self):
        tex = Texture("noise", {"seed": 2})
        tex.sample(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            tex._noise_channels[0, 0] = 1.0


def noise_oracle(channels, freq, uv):
    """The noise texture's bilinear lookup as whole-array expressions:
    (N, 3) lattice gathers per corner, the reference for `Texture.sample`.
    channels is the texture's (3, L * L) lattice, the value at (y, x) at
    y * L + x."""
    n = assets._NOISE_LATTICE
    lattice = channels.T.reshape(n, n, 3)
    u, v = uv[..., 0], uv[..., 1]
    x = (u * freq) % n
    y = (v * freq) % n
    x0 = np.floor(x).astype(int) % n
    y0 = np.floor(y).astype(int) % n
    x1 = (x0 + 1) % n
    y1 = (y0 + 1) % n
    fx = (x - np.floor(x))[..., None]
    fy = (y - np.floor(y))[..., None]
    top = lattice[y0, x0] * (1 - fx) + lattice[y0, x1] * fx
    bot = lattice[y1, x0] * (1 - fx) + lattice[y1, x1] * fx
    return top * (1 - fy) + bot * fy


class TestNoiseSampling:
    @settings(max_examples=200, deadline=None)
    @given(uv=hnp.arrays(np.float64,
                         st.tuples(st.integers(0, 64), st.just(2))
                         | st.sampled_from([(2,), (3, 4, 2)]),
                         elements=st.one_of(st.floats(-2, 3),
                                            st.integers(-8, 12).map(lambda k: k / 4))),
           freq=st.one_of(st.sampled_from([1.0, 3.0, 4.0, 7.5, 32.0]),
                          st.floats(0.01, 100)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_the_whole_array_formula(self, uv, freq, seed):
        tex = Texture("noise", {"seed": seed, "frequency": freq})
        got = tex.sample(uv)
        want = noise_oracle(tex._noise_channels, freq, uv)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_memory_per_point(self):
        # the output (24 B per point) and what sampling holds on its way:
        # whole-array gathers and products held about 162 B per point
        n = 1 << 15
        tex = Texture("noise", {"seed": 4, "frequency": 4.0})
        uv = np.random.default_rng(3).random((n, 2)) * 5 - 2
        tex.sample(uv[:0])  # the lattice is built before tracing
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            tex.sample(uv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * n, peak / n
