"""Bit-exact readers and writers for all on-disk formats.

Formats: PFM (float maps), Middlebury .flo (flow), PPM P6 (8-bit RGB),
PGM P5 with maxval 65535 (16-bit index masks) or 255 (8-bit masks and
gray images), and the JSON dataset manifest. Every writer/reader pair
round-trips losslessly, NaN payloads included. Readers and writers alike
refuse images with no pixels or more than `geometry.MAX_PIXELS`, the
largest camera a scene has, so every file a writer makes its reader reads.
`read` picks a file's reader and names the file in a ParseError.

Every writer checks its array and returns an `Encoded`: the file's
header and that array, cast to the file's sample type a fixed block of
rows at a time as the file is written (`pipeline.write_atomic`), so no
whole-file buffer is held; `bytes()` of it is the whole file.

`read` reads a file once, into a writable buffer, and every reader given
such a buffer (a bytearray) returns a view of it: a PFM's a flipped view,
since its rows are stored bottom to top. A payload stored in the other
byte order is swapped in place, in that buffer, first. Given immutable
bytes, a reader decodes a copy of the payload, as writable as the views.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import ContractError, ParseError
from .geometry import MAX_PIXELS

MANIFEST_VERSION = "sceneflowgen-manifest-1"
FLO_MAGIC = 202021.25

__all__ = [
    "read", "Encoded", "write_pfm", "read_pfm", "write_flo", "read_flo",
    "write_ppm", "read_ppm", "write_pgm16", "read_pgm16",
    "write_pgm8", "read_pgm8", "read_pgm", "write_mask",
    "write_manifest", "read_manifest", "MANIFEST_VERSION",
]


# ---------------------------------------------------------------------------
# PFM

def write_pfm(data) -> Encoded:
    """Serialize an H x W or H x W x 3 float map as float32 PFM
    (little-endian).

    Rows are stored bottom-to-top per the format; internal rasters are
    top-to-bottom, so the writer flips.
    """
    a = np.asarray(data)
    if a.ndim != 2 and a.shape[2:] != (3,):
        raise ParseError(f"PFM supports HxW or HxWx3 data, got shape {a.shape}")
    h, w = a.shape[0], a.shape[1]
    _check_dimensions("PFM", w, h)
    header = (b"Pf" if a.ndim == 2 else b"PF") + f"\n{w} {h}\n-1.0\n".encode()
    return Encoded(header, a[::-1], "<f4")


class Encoded:
    """A file's bytes: header, then the array a cast to dtype, row after
    row. Iterating gives the header and then the payload one block of
    `BLOCK_ROWS` rows at a time, each cast into one reused buffer and
    valid until the next is asked for, so no whole-file buffer is held.
    bytes() joins the same blocks into the whole file; len() is its size
    in bytes. a is read only as it is iterated, each time: nothing may
    write to a before the file is written."""

    BLOCK_ROWS = 64

    def __init__(self, header, a, dtype):
        self.header = header
        self.a = a
        self.dtype = np.dtype(dtype)

    def __len__(self):
        return len(self.header) + self.dtype.itemsize * self.a.size

    def __bytes__(self):
        return b"".join(map(bytes, self))  # a copy of each block as it comes

    def __iter__(self):
        yield self.header
        a, rows = self.a, self.BLOCK_ROWS
        buf = np.empty((min(rows, len(a)),) + a.shape[1:], self.dtype)
        for start in range(0, len(a), rows):
            block = buf[:len(a) - start]
            np.copyto(block, a[start:start + rows], casting="unsafe")
            yield block


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
    """The size check of every reader, and of every writer before it
    builds a buffer or looks at a value."""
    if w <= 0 or h <= 0 or w * h > MAX_PIXELS:
        raise ParseError(f"bad {kind} dimensions {w}x{h}")


def _payload(buf: bytes, pos: int, dtype, shape, kind,
             flip=False) -> np.ndarray:
    """The shape-sized payload of buf at byte pos in native byte order,
    its rows in reverse order with flip, or ParseError naming the byte
    where a short payload ends: a view of buf where buf is writable (a
    payload stored in the other byte order is swapped in place first),
    else a contiguous copy."""
    dtype = np.dtype(dtype)
    n = math.prod(shape)
    have = max(len(buf) - pos, 0)
    if have < n * dtype.itemsize:
        raise ParseError(
            f"truncated {kind} payload at byte {pos + have}: "
            f"need {n * dtype.itemsize} bytes, have {have}"
        )
    a = np.frombuffer(buf, dtype, count=n, offset=pos).reshape(shape)
    if flip:
        a = a[::-1]
    if not a.flags.writeable:
        a = a.copy()
    if not dtype.isnative:
        a = a.byteswap(inplace=True).view(dtype.newbyteorder("="))
    return a


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
    return _payload(buf, pos, "<f4" if scale < 0 else ">f4", shape, "PFM",
                    flip=True)


# ---------------------------------------------------------------------------
# .flo

def write_flo(flow) -> Encoded:
    a = np.asarray(flow)
    if a.ndim != 3 or a.shape[2] != 2:
        raise ParseError(f".flo needs HxWx2 data, got shape {a.shape}")
    h, w = a.shape[:2]
    _check_dimensions(".flo", w, h)
    return Encoded(struct.pack("<fii", FLO_MAGIC, w, h), a, "<f4")


def read_flo(buf: bytes) -> np.ndarray:
    if len(buf) < 12:
        raise ParseError("truncated .flo header")
    magic, w, h = struct.unpack_from("<fii", buf, 0)
    if magic != FLO_MAGIC:
        raise ParseError(f"bad .flo magic {magic!r}, expected {FLO_MAGIC}")
    _check_dimensions(".flo", w, h)
    return _payload(buf, 12, "<f4", (h, w, 2), ".flo")


# ---------------------------------------------------------------------------
# PPM / PGM16

def write_ppm(rgb) -> Encoded:
    a = np.asarray(rgb, dtype=np.uint8)
    if a.ndim != 3 or a.shape[2] != 3:
        raise ParseError(f"PPM needs HxWx3 uint8, got shape {a.shape}")
    h, w = a.shape[:2]
    _check_dimensions("P6", w, h)
    return Encoded(f"P6\n{w} {h}\n255\n".encode(), a, np.uint8)


def read_ppm(buf: bytes) -> np.ndarray:
    w, h, _, pos = _read_pnm_header(buf, b"P6", (255,))
    return _payload(buf, pos, np.uint8, (h, w, 3), "PPM")


def write_pgm16(mask) -> Encoded:
    """16-bit single-channel P5; samples are big-endian per the PGM spec."""
    a = np.asarray(mask)
    if a.ndim != 2:
        raise ParseError(f"PGM needs HxW data, got shape {a.shape}")
    h, w = a.shape
    _check_dimensions("P5", w, h)
    if a.min() < 0 or a.max() > 65535:
        raise ParseError("PGM16 values must be in [0, 65535]")
    return Encoded(f"P5\n{w} {h}\n65535\n".encode(), a, ">u2")


def read_pgm16(buf: bytes) -> np.ndarray:
    return _read_pgm(buf, (65535,))


def write_pgm8(mask) -> Encoded:
    """8-bit single-channel P5; the samples are a cast to uint8, so a bool
    mask gives 0/1 (`write_mask` gives 0/255)."""
    a = np.asarray(mask)
    return Encoded(_pgm8_header(a), a, np.uint8)


def write_mask(mask) -> Encoded:
    """A mask as 8-bit P5: 255 where it is set (nonzero), 0 elsewhere."""
    a = np.asarray(mask, dtype=bool)
    return Encoded(_pgm8_header(a), a.view(np.uint8) * np.uint8(255),
                   np.uint8)


def _pgm8_header(a):
    if a.ndim != 2:
        raise ParseError(f"PGM needs HxW data, got shape {a.shape}")
    h, w = a.shape
    _check_dimensions("P5", w, h)
    return f"P5\n{w} {h}\n255\n".encode()


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
    return _payload(buf, pos, ">u2" if maxval == 65535 else np.uint8, (h, w),
                    "PGM")


# ---------------------------------------------------------------------------
# Any file: its suffix's codec; a .pgm's bit depth is its header's maxval

_CODECS = {".pfm": "pfm", ".flo": "flo", ".ppm": "ppm", ".pgm": "pgm"}


def read(path, codec=None) -> np.ndarray:
    """The array in the file at path, decoded by read_<codec> (looked up
    when called), by default its suffix's; a ParseError names the file.
    The file is read once, into a bytearray of its size, of which the
    array is a view."""
    path = Path(path)
    if codec is None and path.suffix not in _CODECS:
        raise ContractError(f"{path}: not a {'/'.join(_CODECS)} file")
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
        buf += f.read()  # what a file that is not regular or grew still holds
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
