"""Bit-exact readers and writers for all on-disk formats.

Formats: PFM (float maps), Middlebury .flo (flow), PPM P6 (8-bit RGB),
PGM P5 with maxval 65535 (16-bit index masks) or 255 (8-bit masks and
gray images), and the JSON dataset manifest. Every writer/reader pair
round-trips losslessly, NaN payloads included. Readers refuse images of
more than `geometry.MAX_PIXELS` pixels, the largest camera a scene has.
`read` picks a file's reader and names the file in a ParseError.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .geometry import MAX_PIXELS

MANIFEST_VERSION = "sceneflowgen-manifest-1"
FLO_MAGIC = 202021.25

__all__ = [
    "read", "write_pfm", "read_pfm", "write_flo", "read_flo",
    "write_ppm", "read_ppm", "write_pgm16", "read_pgm16",
    "write_pgm8", "read_pgm8", "read_pgm", "write_mask",
    "write_manifest", "read_manifest", "MANIFEST_VERSION",
]


# ---------------------------------------------------------------------------
# PFM

def write_pfm(data) -> bytearray:
    """Serialize an H x W or H x W x 3 float32 map as PFM (little-endian).

    Rows are stored bottom-to-top per the format; internal rasters are
    top-to-bottom, so the writer flips.
    """
    a = np.asarray(data)
    if a.ndim != 2 and a.shape[2:] != (3,):
        raise ParseError(f"PFM supports HxW or HxWx3 data, got shape {a.shape}")
    h, w = a.shape[0], a.shape[1]
    header = (b"Pf" if a.ndim == 2 else b"PF") + f"\n{w} {h}\n-1.0\n".encode()
    return _file(header, a[::-1], "<f4")


def _file(header, a, dtype):
    """header followed by a as dtype, cast straight into the one buffer
    the file is written from: no copy of a is made on the way."""
    dtype = np.dtype(dtype)
    buf = bytearray(len(header) + dtype.itemsize * a.size)
    buf[:len(header)] = header
    payload = np.frombuffer(buf, dtype, offset=len(header)).reshape(a.shape)
    np.copyto(payload, a, casting="unsafe")
    return buf


def _read_pnm_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(buf) and buf[pos:pos + 1].isspace():
        pos += 1
    start = pos
    while pos < len(buf) and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ParseError(f"unexpected end of header at byte {start}")
    return buf[start:pos], pos


def _check_dimensions(kind, w, h):
    if w <= 0 or h <= 0 or w * h > MAX_PIXELS:
        raise ParseError(f"bad {kind} dimensions {w}x{h}")


def _payload(buf: bytes, pos: int, dtype, shape, kind) -> np.ndarray:
    """Read-only view of the shape-sized payload of buf at byte pos, or
    ParseError naming the byte where a short payload ends."""
    dtype = np.dtype(dtype)
    n = math.prod(shape)
    have = max(len(buf) - pos, 0)
    if have < n * dtype.itemsize:
        raise ParseError(
            f"truncated {kind} payload at byte {pos + have}: "
            f"need {n * dtype.itemsize} bytes, have {have}"
        )
    return np.frombuffer(buf, dtype, count=n, offset=pos).reshape(shape)


def _read_pnm_header(buf: bytes, magic: bytes, maxvals) -> tuple[int, ...]:
    """Parse a binary PNM header `magic w h maxval`, maxval in maxvals ->
    (w, h, maxval, payload offset)."""
    tok, pos = _read_pnm_token(buf, 0)
    if tok != magic:
        raise ParseError(f"bad {magic.decode()} magic {tok!r} at byte 0")
    values = []
    for _ in range(3):
        tok, pos = _read_pnm_token(buf, pos)
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(
                f"non-integer header token {tok[:16]!r} at byte {pos - len(tok)}"
            ) from None
    w, h, found = values
    if found not in maxvals:
        raise ParseError(f"{magic.decode()} maxval {found}, expected "
                         + " or ".join(map(str, maxvals)))
    _check_dimensions(magic.decode(), w, h)
    return w, h, found, pos + 1  # single whitespace byte after maxval


def read_pfm(buf: bytes) -> np.ndarray:
    magic, pos = _read_pnm_token(buf, 0)
    if magic not in (b"Pf", b"PF"):
        raise ParseError(f"bad PFM magic {magic!r} at byte 0")
    wtok, pos = _read_pnm_token(buf, pos)
    htok, pos = _read_pnm_token(buf, pos)
    stok, pos = _read_pnm_token(buf, pos)
    try:
        w, h, scale = int(wtok), int(htok), float(stok)
    except ValueError as e:
        raise ParseError(f"bad PFM header near byte {pos}: {e}") from None
    # the scale's sign gives the byte order: a zero (of either sign) or a
    # non-finite scale has none
    if not (math.isfinite(scale) and scale):
        raise ParseError(f"bad PFM scale {stok[:16]!r} at byte "
                         f"{pos - len(stok)}: needs a finite, nonzero number")
    _check_dimensions("PFM", w, h)
    pos += 1  # single whitespace byte after the scale line
    shape = (h, w) if magic == b"Pf" else (h, w, 3)
    a = _payload(buf, pos, "<f4" if scale < 0 else ">f4", shape, "PFM")
    return a[::-1].astype(np.float32)


# ---------------------------------------------------------------------------
# .flo

def write_flo(flow) -> bytearray:
    a = np.asarray(flow)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ParseError(f".flo needs HxWx2 data, got shape {a.shape}")
    h, w = a.shape[:2]
    return _file(struct.pack("<fii", FLO_MAGIC, w, h), a, "<f4")


def read_flo(buf: bytes) -> np.ndarray:
    if len(buf) < 12:
        raise ParseError("truncated .flo header")
    magic, w, h = struct.unpack_from("<fii", buf, 0)
    if magic != FLO_MAGIC:
        raise ParseError(f"bad .flo magic {magic!r}, expected {FLO_MAGIC}")
    _check_dimensions(".flo", w, h)
    return _payload(buf, 12, "<f4", (h, w, 2), ".flo").astype(np.float32)


# ---------------------------------------------------------------------------
# PPM / PGM16

def write_ppm(rgb) -> bytearray:
    a = np.asarray(rgb, dtype=np.uint8)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ParseError(f"PPM needs HxWx3 uint8, got shape {a.shape}")
    h, w = a.shape[:2]
    return _file(f"P6\n{w} {h}\n255\n".encode(), a, np.uint8)


def read_ppm(buf: bytes) -> np.ndarray:
    w, h, _, pos = _read_pnm_header(buf, b"P6", (255,))
    return _payload(buf, pos, np.uint8, (h, w, 3), "PPM").copy()


def write_pgm16(mask) -> bytearray:
    """16-bit single-channel P5; samples are big-endian per the PGM spec."""
    a = np.asarray(mask)
    if a.ndim != 2:
        raise ParseError(f"PGM needs HxW data, got shape {a.shape}")
    if a.min() < 0 or a.max() > 65535:
        raise ParseError("PGM16 values must be in [0, 65535]")
    h, w = a.shape
    return _file(f"P5\n{w} {h}\n65535\n".encode(), a, ">u2")


def read_pgm16(buf: bytes) -> np.ndarray:
    return _read_pgm(buf, (65535,))


def write_pgm8(mask) -> bytearray:
    """8-bit single-channel P5; the samples are a cast to uint8, so a bool
    mask gives 0/1 (`write_mask` gives 0/255)."""
    return _pgm8(np.asarray(mask))


def write_mask(mask) -> bytearray:
    """A mask as 8-bit P5: 255 where it is set (nonzero), 0 elsewhere."""
    a = np.asarray(mask, dtype=bool)
    buf = _pgm8(a)
    # its 0/1 samples, the file's last a.size bytes, scaled in the one buffer
    payload = np.frombuffer(buf, np.uint8, offset=len(buf) - a.size)
    payload *= 255
    return buf


def _pgm8(a):
    if a.ndim != 2:
        raise ParseError(f"PGM needs HxW data, got shape {a.shape}")
    h, w = a.shape
    return _file(f"P5\n{w} {h}\n255\n".encode(), a, np.uint8)


def read_pgm8(buf: bytes) -> np.ndarray:
    return _read_pgm(buf, (255,))


def read_pgm(buf: bytes) -> np.ndarray:
    """A P5 of either bit depth: uint8 if its maxval is 255, uint16 if it
    is 65535."""
    return _read_pgm(buf, (255, 65535))


def _read_pgm(buf, maxvals):
    """The P5 in buf at the depth its maxval, one of maxvals, gives. The
    public readers share it and call no other reader, so a wrapper on
    each (the benchmark's tracer) sees every file once."""
    w, h, maxval, pos = _read_pnm_header(buf, b"P5", maxvals)
    wide = maxval == 65535
    return _payload(buf, pos, ">u2" if wide else np.uint8, (h, w),
                    "PGM").astype(np.uint16 if wide else np.uint8)


# ---------------------------------------------------------------------------
# Any file: its suffix's codec; a .pgm's bit depth is its header's maxval

_CODECS = {".pfm": "pfm", ".flo": "flo", ".ppm": "ppm", ".pgm": "pgm"}


def read(path, codec=None) -> np.ndarray:
    """The array in the file at path, decoded by read_<codec> (looked up
    when called), by default its suffix's; a ParseError names the file."""
    path = Path(path)
    if codec is None and path.suffix not in _CODECS:
        raise ContractError(f"{path}: not a {'/'.join(_CODECS)} file")
    buf = path.read_bytes()
    try:
        return globals()["read_" + (codec or _CODECS[path.suffix])](buf)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Manifest

_MANIFEST_KEYS = {
    "version", "dataset", "seed", "params", "rig", "frames", "complete",
}
_FRAME_KEYS = {"time", "cameras", "files"}


def write_manifest(manifest: dict) -> str:
    """Serialize the dataset manifest deterministically (sorted keys)."""
    m = dict(manifest)
    m["version"] = MANIFEST_VERSION
    _validate_manifest(m)
    return json.dumps(m, sort_keys=True, indent=2) + "\n"


def read_manifest(data: str | bytes) -> dict:
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        m = json.loads(data)
    except (ValueError, RecursionError) as e:  # bad UTF-8, JSON or nesting
        raise ParseError(f"manifest is not valid JSON: {e}") from None
    if not isinstance(m, dict):
        raise ParseError("manifest is not a JSON object")
    if m.get("version") != MANIFEST_VERSION:
        raise ParseError(
            f"incompatible manifest version {m.get('version')!r}, "
            f"expected {MANIFEST_VERSION!r}"
        )
    _validate_manifest(m)
    return m


def _validate_manifest(m: dict):
    unknown = set(m) - _MANIFEST_KEYS
    if unknown:
        raise ParseError(f"unknown manifest key(s): {sorted(unknown)}")
    missing = _MANIFEST_KEYS - set(m)
    if missing:
        raise ParseError(f"manifest missing key(s): {sorted(missing)}")
    if not isinstance(m["frames"], list):
        raise ParseError("manifest frames must be a list")
    for i, fr in enumerate(m["frames"]):
        if not isinstance(fr, dict):
            raise ParseError(f"frame {i}: not a JSON object")
        unknown = set(fr) - _FRAME_KEYS
        if unknown:
            raise ParseError(f"frame {i}: unknown key(s) {sorted(unknown)}")
        if "cameras" not in fr:
            raise ParseError(f"frame {i}: missing camera block")
        for path in _iter_frame_paths(i, fr):
            if Path(path).is_absolute():
                raise ParseError(f"frame {i}: absolute path {path!r} in manifest")
            if ".." in Path(path).parts:
                raise ParseError(f"frame {i}: path {path!r} leaves the dataset")


def _iter_frame_paths(i, frame_entry):
    files = frame_entry.get("files", {})
    if not (isinstance(files, dict)
            and all(isinstance(v, dict) for v in files.values())):
        raise ParseError(f"frame {i}: files must map view -> pass -> path")
    for view_files in files.values():
        for path in view_files.values():
            if not isinstance(path, str):
                raise ParseError(f"frame {i}: path {path!r} is not a string")
            yield path
