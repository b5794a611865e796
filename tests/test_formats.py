import ast
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sceneflowgen
from sceneflowgen import formats
from sceneflowgen.errors import ContractError, ParseError


def float_maps(channels):
    shape = (st.integers(1, 8), st.integers(1, 8))
    return st.tuples(*shape).flatmap(
        lambda hw: st.lists(
            st.floats(width=32, allow_nan=True, allow_infinity=True),
            min_size=hw[0] * hw[1] * channels,
            max_size=hw[0] * hw[1] * channels,
        ).map(lambda vals: np.array(vals, dtype=np.float32).reshape(
            (hw[0], hw[1]) if channels == 1 else (hw[0], hw[1], channels)))
    )


class TestPfm:
    def test_exact_bytes_1x1(self):
        data = formats.write_pfm(np.array([[30.0]], dtype=np.float32))
        assert data == b"Pf\n1 1\n-1.0\n" + struct.pack("<f", 30.0)

    def test_round_trip_with_nans(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(48, 64)).astype(np.float32)
        m[rng.random(m.shape) < 0.1] = np.nan
        out = formats.read_pfm(formats.write_pfm(m))
        assert m.tobytes() == out.tobytes()

    def test_three_channel_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(5, 7, 3)).astype(np.float32)
        assert np.array_equal(formats.read_pfm(formats.write_pfm(m)), m)

    @settings(max_examples=50, deadline=None)
    @given(float_maps(1))
    def test_round_trip_property_1ch(self, m):
        assert formats.read_pfm(formats.write_pfm(m)).tobytes() == m.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(float_maps(3))
    def test_round_trip_property_3ch(self, m):
        assert formats.read_pfm(formats.write_pfm(m)).tobytes() == m.tobytes()

    def test_bad_magic(self):
        with pytest.raises(ParseError):
            formats.read_pfm(b"Qf\n1 1\n-1.0\n" + b"\0" * 4)

    def test_truncated_payload_names_offset(self):
        good = formats.write_pfm(np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(ParseError, match="byte"):
            formats.read_pfm(good[:-3])

    def test_channel_mismatch(self):
        # "PF" header with a 1-channel-sized payload
        bad = b"PF\n2 2\n-1.0\n" + b"\0" * 16
        with pytest.raises(ParseError):
            formats.read_pfm(bad)

    def test_big_endian_scale_readable(self):
        data = b"Pf\n1 1\n1.0\n" + struct.pack(">f", 2.5)
        assert formats.read_pfm(data)[0, 0] == 2.5

    @pytest.mark.parametrize("scale", ["0.0", "-0.0", "0", "nan", "-nan",
                                       "inf", "-inf"])
    def test_scale_without_byte_order_is_parse_error(self, scale):
        # the scale's sign is the byte order; these have none, and read as
        # big-endian they turned a 1.0 into 4.6e-41
        data = f"Pf\n1 1\n{scale}\n".encode() + struct.pack("<f", 1.0)
        with pytest.raises(ParseError,
                           match=re.escape(f"{scale.encode()!r} at byte 7")):
            formats.read_pfm(data)


class TestFlo:
    def test_magic_constant(self):
        data = formats.write_flo(np.zeros((1, 1, 2), dtype=np.float32))
        assert struct.unpack("<f", data[:4])[0] == 202021.25

    def test_1x1_layout(self):
        data = formats.write_flo(np.array([[[3.0, 4.0]]], dtype=np.float32))
        assert len(data) == 20
        assert struct.unpack("<ff", data[12:]) == (3.0, 4.0)

    def test_zero_flow_round_trip(self):
        m = np.zeros((4, 6, 2), dtype=np.float32)
        assert np.array_equal(formats.read_flo(formats.write_flo(m)), m)

    @settings(max_examples=50, deadline=None)
    @given(float_maps(2))
    def test_round_trip_property(self, m):
        assert formats.read_flo(formats.write_flo(m)).tobytes() == m.tobytes()

    def test_wrong_magic(self):
        data = struct.pack("<fii", 1234.0, 1, 1) + b"\0" * 8
        with pytest.raises(ParseError):
            formats.read_flo(data)


class TestPpmPgm:
    def test_p6_1x1_white(self):
        data = formats.write_ppm(np.full((1, 1, 3), 255, dtype=np.uint8))
        assert data == b"P6\n1 1\n255\n\xff\xff\xff"

    def test_ppm_round_trip(self):
        rng = np.random.default_rng(2)
        img = rng.integers(0, 256, (9, 5, 3), dtype=np.uint8)
        assert np.array_equal(formats.read_ppm(formats.write_ppm(img)), img)

    def test_pgm16_big_endian(self):
        data = formats.write_pgm16(np.array([[258]], dtype=np.uint16))
        assert data.endswith(b"\x01\x02")

    def test_pgm16_round_trip_preserves_indices(self):
        rng = np.random.default_rng(3)
        mask = rng.integers(0, 65536, (7, 11), dtype=np.uint16)
        assert np.array_equal(formats.read_pgm16(formats.write_pgm16(mask)), mask)

    def test_pgm8_round_trip(self):
        mask = np.array([[0, 255], [255, 0]], dtype=np.uint8)
        assert np.array_equal(formats.read_pgm8(formats.write_pgm8(mask)), mask)

    def test_mask_is_0_and_255_pgm8(self):
        mask = np.random.default_rng(4).random((6, 9)) < 0.5
        data = formats.write_mask(mask)
        assert data == formats.write_pgm8(mask.astype(np.uint8) * 255)
        assert np.array_equal(formats.read_pgm8(data) > 0, mask)
        assert formats.write_mask(mask * np.uint8(7)) == data  # nonzero is set

    def test_maxval_mismatch(self):
        data = formats.write_pgm8(np.zeros((1, 1), dtype=np.uint8))
        with pytest.raises(ParseError):
            formats.read_pgm16(data)

    def test_truncation(self):
        good = formats.write_ppm(np.zeros((2, 2, 3), dtype=np.uint8))
        with pytest.raises(ParseError):
            formats.read_ppm(good[:-1])


class TestHeaderContract:
    @pytest.mark.parametrize("reader,data", [
        (formats.read_ppm, b"P6\nabc 2\n255\n"),
        (formats.read_ppm, b"P6\n-1 -3\n255\n" + bytes(9)),
        (formats.read_ppm, b"P6\n0 4\n255\n"),
        (formats.read_pgm8, b"P5\n2 2\n2.5\n" + bytes(4)),
        (formats.read_pgm16, b"P5\n65536 65536\n65535\n"),
        (formats.read_flo, struct.pack("<fii", formats.FLO_MAGIC, -1, -2)
         + bytes(16)),
        (formats.read_flo, struct.pack("<fii", formats.FLO_MAGIC, 0, 3)),
    ])
    def test_bad_header_is_parse_error(self, reader, data):
        with pytest.raises(ParseError):
            reader(data)

    def test_non_integer_token_names_offset(self):
        with pytest.raises(ParseError, match="byte 3"):
            formats.read_ppm(b"P6\nabc 2\n255\n")


header_tokens = st.one_of(
    st.integers(-3, 6).map(str),
    st.sampled_from(["255", "65535", "-1.0", "1.5", "abc", "0x10", "9" * 5000]),
    st.text(max_size=3),
)
pnm_like = st.builds(
    lambda magic, tokens, sep, tail: sep.join([magic, *tokens]).encode() + tail,
    st.sampled_from(["P5", "P6", "Pf", "PF", "P7"]),
    st.lists(header_tokens, max_size=4),
    st.sampled_from([" ", "\n", "\t"]),
    st.binary(max_size=96),
)
flo_like = st.builds(
    lambda magic, w, h, tail: struct.pack("<fii", magic, w, h) + tail,
    st.sampled_from([formats.FLO_MAGIC, 1.0]),
    st.integers(-4, 6), st.integers(-4, 6),
    st.binary(max_size=96),
)


@pytest.mark.parametrize("reader", [
    formats.read_pfm, formats.read_flo, formats.read_ppm,
    formats.read_pgm8, formats.read_pgm16,
], ids=lambda reader: reader.__name__)
@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=64), pnm_like, flo_like))
def test_any_bytes_give_array_or_parse_error(reader, data):
    try:
        out = reader(data)
    except ParseError:
        return
    assert isinstance(out, np.ndarray)


# Reference decoders: slice the payload out of the buffer, then convert and
# copy it. The readers must give the same bytes.
def _pfm_reference(channels, dtype):
    def decode(payload, w, h):
        shape = (h, w) if channels == 1 else (h, w, 3)
        a = np.frombuffer(payload, dtype=dtype).astype(np.float32)
        return a.reshape(shape)[::-1].copy()
    return decode


# name -> (reader, header(w, h), payload bytes per pixel, reference decode)
ENCODINGS = {
    "pfm-1ch-little": (formats.read_pfm, lambda w, h: f"Pf\n{w} {h}\n-1.0\n".encode(),
                       4, _pfm_reference(1, "<f4")),
    "pfm-1ch-big": (formats.read_pfm, lambda w, h: f"Pf\n{w} {h}\n1.0\n".encode(),
                    4, _pfm_reference(1, ">f4")),
    "pfm-3ch-little": (formats.read_pfm, lambda w, h: f"PF\n{w} {h}\n-1.0\n".encode(),
                       12, _pfm_reference(3, "<f4")),
    "pfm-3ch-big": (formats.read_pfm, lambda w, h: f"PF\n{w} {h}\n1.0\n".encode(),
                    12, _pfm_reference(3, ">f4")),
    "flo": (formats.read_flo, lambda w, h: struct.pack("<fii", formats.FLO_MAGIC, w, h),
            8, lambda p, w, h: np.frombuffer(p, dtype="<f4").astype(np.float32)
            .reshape(h, w, 2)),
    "ppm": (formats.read_ppm, lambda w, h: f"P6\n{w} {h}\n255\n".encode(),
            3, lambda p, w, h: np.frombuffer(p, dtype=np.uint8).reshape(h, w, 3).copy()),
    "pgm16": (formats.read_pgm16, lambda w, h: f"P5\n{w} {h}\n65535\n".encode(),
              2, lambda p, w, h: np.frombuffer(p, dtype=">u2").astype(np.uint16)
              .reshape(h, w)),
    "pgm8": (formats.read_pgm8, lambda w, h: f"P5\n{w} {h}\n255\n".encode(),
             1, lambda p, w, h: np.frombuffer(p, dtype=np.uint8).reshape(h, w).copy()),
}
# quiet and signalling NaNs with payload bits, and negative NaNs, in both
# byte orders; the float readers must keep every bit
_NANS = [struct.pack(order + "I", bits) for order in "<>"
         for bits in (0x7FC00001, 0x7F800001, 0xFFFFFFFF, 0x7FBFFFFF)]


@st.composite
def encoded_files(draw):
    name = draw(st.sampled_from(sorted(ENCODINGS)))
    reader, header, pixel_bytes, reference = ENCODINGS[name]
    w, h = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if name.startswith(("pfm", "flo")):
        samples = st.one_of(st.binary(min_size=4, max_size=4), st.sampled_from(_NANS))
        payload = b"".join(draw(st.lists(samples, min_size=w * h * pixel_bytes // 4,
                                         max_size=w * h * pixel_bytes // 4)))
    else:
        payload = draw(st.binary(min_size=w * h * pixel_bytes,
                                 max_size=w * h * pixel_bytes))
    return reader, header(w, h), payload, reference(payload, w, h)


@settings(max_examples=200, deadline=None)
@given(encoded_files(), st.binary(max_size=8))
def test_readers_return_new_arrays_equal_to_reference(encoded, trailing):
    reader, header, payload, expected = encoded
    out = reader(header + payload + trailing)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert out.flags.writeable and out.flags.c_contiguous


@settings(max_examples=50, deadline=None)
@given(encoded_files())
def test_every_truncation_is_parse_error(encoded):
    reader, header, payload, _ = encoded
    data = header + payload
    for cut in range(len(data)):
        with pytest.raises(ParseError):
            reader(data[:cut])


# a file of each kind `formats.read` takes: name -> (file bytes, array)
_INDEX = np.arange(24, dtype=np.uint16).reshape(4, 6) * 2731
READ_FILES = {
    "d.pfm": (formats.write_pfm(np.full((4, 6, 3), 2.5, np.float32)),
              np.full((4, 6, 3), 2.5, np.float32)),
    "f.flo": (formats.write_flo(np.ones((4, 6, 2), np.float32)),
              np.ones((4, 6, 2), np.float32)),
    "i.ppm": (formats.write_ppm(np.full((4, 6, 3), 7, np.uint8)),
              np.full((4, 6, 3), 7, np.uint8)),
    "m8.pgm": (formats.write_pgm8(_INDEX // 257), (_INDEX // 257).astype(np.uint8)),
    "m16.pgm": (formats.write_pgm16(_INDEX), _INDEX),
}


class TestRead:
    @pytest.mark.parametrize("name", sorted(READ_FILES))
    def test_suffix_and_maxval_pick_the_reader(self, tmp_path, name):
        payload, expected = READ_FILES[name]
        (tmp_path / name).write_bytes(payload)
        out = formats.read(tmp_path / name)
        assert out.dtype == expected.dtype and np.array_equal(out, expected)
        assert formats.read(str(tmp_path / name)).tobytes() == out.tobytes()

    @pytest.mark.parametrize("name", ["d.exr", "d.PFM", "d"])
    def test_other_suffix_is_contract_error(self, tmp_path, name):
        # refused by its name: the file need not exist
        with pytest.raises(ContractError, match=re.escape(str(tmp_path / name))):
            formats.read(tmp_path / name)

    @pytest.mark.parametrize("name", sorted(READ_FILES))
    def test_parse_error_names_the_file(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(READ_FILES[name][0][:-1])
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: "
                                             "(truncated|bad .flo)"):
            formats.read(path)

    def test_pgm_of_another_maxval_is_parse_error(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n1023\n" + bytes(8))
        with pytest.raises(ParseError, match="maxval 1023, expected 255 or 65535"):
            formats.read(path)

    def test_codec_overrides_the_suffix(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(READ_FILES["m8.pgm"][0])
        with pytest.raises(ParseError, match=re.escape(
                f"{path}: P5 maxval 255, expected 65535")):
            formats.read(path, "pgm16")
        index = formats.read(tmp_path / "m.pgm", "pgm8")
        assert np.array_equal(index, READ_FILES["m8.pgm"][1])

    def test_reader_is_looked_up_when_called(self, tmp_path, monkeypatch):
        # so a wrapper set on the module (the benchmark's tracer) sees it
        path = tmp_path / "d.pfm"
        path.write_bytes(READ_FILES["d.pfm"][0])
        calls = []
        read_pfm = formats.read_pfm
        monkeypatch.setattr(formats, "read_pfm",
                            lambda buf: calls.append(len(buf)) or read_pfm(buf))
        formats.read(path)
        assert calls == [len(READ_FILES["d.pfm"][0])]


@pytest.mark.parametrize("name", ["m8.pgm", "m16.pgm"])
def test_pgm_header_is_parsed_once(tmp_path, monkeypatch, name):
    # its maxval picks the bit depth of the same parse that decodes it
    (tmp_path / name).write_bytes(READ_FILES[name][0])
    calls = []
    header = formats._read_pnm_header
    monkeypatch.setattr(formats, "_read_pnm_header",
                        lambda *args: calls.append(args[1:]) or header(*args))
    out = formats.read(tmp_path / name)
    assert out.tobytes() == READ_FILES[name][1].tobytes()
    assert calls == [(b"P5", (255, 65535))]


DECODERS = {"read_pfm", "read_flo", "read_ppm", "read_pgm8", "read_pgm16"}


def test_only_formats_picks_a_decoder():
    """Every file is decoded through `formats.read`: no module of the
    package but `formats` calls a reader or names one in a string."""
    uses = []
    for path in sorted(Path(sceneflowgen.__file__).parent.glob("*.py")):
        if path.name == "formats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # a call, an import, or a getattr by a "read_..." string
            names = {getattr(node, key, None) for key in ("attr", "id", "name")}
            text = node.value if isinstance(node, ast.Constant) else None
            if names & DECODERS or str(text).startswith("read_"):
                uses.append((path.name, getattr(node, "lineno", None),
                             ast.unparse(node)))
    assert uses == []


def minimal_manifest():
    return {
        "dataset": "x",
        "seed": 1,
        "params": {},
        "rig": {"baseline": 1.0, "intrinsics": {}},
        "frames": [
            {"time": 1, "cameras": {"left": {}}, "files": {"left": {"rgb": "x/rgb/0001_L.ppm"}}},
        ],
        "complete": True,
    }


class TestManifest:
    def test_round_trip(self):
        m = minimal_manifest()
        out = formats.read_manifest(formats.write_manifest(m))
        m["version"] = formats.MANIFEST_VERSION
        assert out == m

    def test_reads_utf8_bytes(self):
        text = formats.write_manifest(minimal_manifest())
        assert formats.read_manifest(text.encode()) == formats.read_manifest(text)

    @pytest.mark.parametrize("payload", [b'{"dataset": "\xff"}', b"[" * 100_000],
                             ids=["not UTF-8", "nested too deep"])
    def test_undecodable_is_parse_error(self, payload):
        with pytest.raises(ParseError, match="not valid JSON"):
            formats.read_manifest(payload)

    def test_deterministic_bytes(self):
        a = formats.write_manifest(minimal_manifest())
        b = formats.write_manifest(minimal_manifest())
        assert a == b

    def test_unknown_key_rejected(self):
        m = minimal_manifest()
        m["mystery"] = 1
        with pytest.raises(ParseError, match="mystery"):
            formats.write_manifest(m)

    def test_version_mismatch(self):
        text = formats.write_manifest(minimal_manifest())
        text = text.replace(formats.MANIFEST_VERSION, "other-version-9")
        with pytest.raises(ParseError, match="version"):
            formats.read_manifest(text)

    def test_missing_camera_block_names_frame(self):
        m = minimal_manifest()
        del m["frames"][0]["cameras"]
        with pytest.raises(ParseError, match="frame 0"):
            formats.write_manifest(m)

    def test_absolute_path_rejected(self):
        m = minimal_manifest()
        m["frames"][0]["files"]["left"]["rgb"] = "/abs/path.ppm"
        with pytest.raises(ParseError, match="absolute"):
            formats.write_manifest(m)

    @pytest.mark.parametrize("mutate", [
        lambda m: [m],
        lambda m: {**m, "frames": 5},
        lambda m: {**m, "frames": [1]},
        lambda m: {**m, "frames": [{**m["frames"][0], "files": ["x"]}]},
        lambda m: {**m, "frames": [{**m["frames"][0], "files": {"left": {"rgb": 7}}}]},
        lambda m: {**m, "frames": [{**m["frames"][0],
                                    "files": {"left": {"rgb": "x/../../etc.ppm"}}}]},
    ], ids=["not-object", "frames-not-list", "frame-not-object",
            "files-not-mapping", "path-not-string", "dotdot-path"])
    def test_malformed_structure_is_parse_error(self, mutate):
        m = dict(minimal_manifest(), version=formats.MANIFEST_VERSION)
        with pytest.raises(ParseError):
            formats.read_manifest(json.dumps(mutate(m)))
