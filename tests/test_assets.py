import numpy as np
import pytest

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
            tex._noise_lattice[0, 0, 0] = 1.0
