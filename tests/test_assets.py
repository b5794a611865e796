import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneflowgen import assets
from sceneflowgen.assets import (
    Mesh, REFERENCE_SPLIT_RATIO, Texture, load_obj_mesh, load_texture_image,
    make_cuboid, make_cylinder, make_sphere, make_torus, split_assets,
)
from sceneflowgen.errors import ConfigurationError, ParseError
from sceneflowgen.formats import write_ppm


class TestSplitAssets:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(min_size=1), min_size=1, unique=True),
           st.floats(0.05, 0.95))
    def test_partition(self, ids, ratio):
        train, test = split_assets(ids, ratio)
        assert set(train) | set(test) == set(ids)
        assert set(train) & set(test) == set()

    def test_order_independent(self):
        ids = [f"asset-{i}" for i in range(200)]
        train_a, _ = split_assets(ids, 0.7)
        train_b, _ = split_assets(list(reversed(ids)), 0.7)
        assert set(train_a) == set(train_b)

    def test_reference_ratio_value(self):
        assert REFERENCE_SPLIT_RATIO == pytest.approx(0.915, abs=5e-4)

    def test_reference_scale_split(self):
        ids = [f"model-{i:05d}" for i in range(35927)]
        train, test = split_assets(ids, REFERENCE_SPLIT_RATIO)
        # hash-based assignment tracks the ratio statistically, not exactly
        assert len(train) == pytest.approx(32872, rel=0.01)
        assert len(train) + len(test) == 35927

    def test_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            split_assets([], 0.5)
        with pytest.raises(ConfigurationError):
            split_assets(["a"], 1.0)


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


CUBE_OBJ = """\
# unit cube
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 2 3
f 1 3 4
f 5 7 6
f 5 8 7
f 1 5 6
f 1 6 2
f 2 6 7
f 2 7 3
f 3 7 8
f 3 8 4
f 4 8 5
f 4 5 1
"""


class TestObjLoader:
    def test_unit_cube(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text(CUBE_OBJ)
        mesh = load_obj_mesh(path)
        assert len(mesh.vertices) == 8
        assert len(mesh.triangles) == 12

    def test_quad_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_obj_mesh(path)
        assert [tuple(t) for t in mesh.triangles] == [(0, 1, 2), (0, 2, 3)]

    def test_missing_vt_synthesizes_uv(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 2 0 0\nv 2 1 0\nv 0 1 0\nf 1 2 3 4\n")
        mesh = load_obj_mesh(path)
        # planar projection drops the longest axis (x here has extent 2)
        assert mesh.uv.min() >= 0 and mesh.uv.max() <= 1
        assert len(np.unique(mesh.uv, axis=0)) > 1

    def test_vt_indices_respected(self, tmp_path):
        path = tmp_path / "tri.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
            "vt 0 0\nvt 1 0\nvt 0 1\n"
            "f 1/1 2/2 3/3\n"
        )
        mesh = load_obj_mesh(path)
        assert np.allclose(mesh.uv, [[0, 0], [1, 0], [0, 1]])

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv oops 0 0\n")
        with pytest.raises(ParseError, match=":2"):
            load_obj_mesh(path)

    def test_degenerate_only_mesh_rejected(self, tmp_path):
        path = tmp_path / "flat.obj"
        path.write_text("v 0 0 0\nv 0 0 0\nv 0 0 0\nf 1 2 3\n")
        with pytest.raises(ParseError, match="degenerate"):
            load_obj_mesh(path)


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

    def test_image_kind_requires_raster(self):
        with pytest.raises(ConfigurationError):
            Texture("image")

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            Texture("marble")

    def test_load_1x1_white(self, tmp_path):
        path = tmp_path / "white.ppm"
        path.write_bytes(write_ppm(np.full((1, 1, 3), 255, dtype=np.uint8)))
        tex = load_texture_image(path)
        assert tex.kind == "image"
        assert np.array_equal(tex.pixels, [[[255, 255, 255]]])

    def test_2x2_round_trip(self, tmp_path):
        img = np.array([[[1, 2, 3], [4, 5, 6]],
                        [[7, 8, 9], [10, 11, 12]]], dtype=np.uint8)
        path = tmp_path / "t.ppm"
        path.write_bytes(write_ppm(img))
        tex = load_texture_image(path)
        assert np.array_equal(tex.pixels, img)

    def test_truncated_payload_is_error(self, tmp_path):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        path = tmp_path / "t.ppm"
        path.write_bytes(write_ppm(img)[:-2])
        with pytest.raises(ParseError):
            load_texture_image(path)


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
