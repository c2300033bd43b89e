"""Readers and writers for Radiance RGBE (.hdr), PFM, and binary PPM.

All functions operate on byte buffers so they are trivially testable and
safe under concurrent use; thin path-based helpers sit on top.  The RGBE
writer emits uncompressed scanlines only, while the reader accepts both
flat and new-style RLE scanlines.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptionError,
    FormatError,
    TruncationError,
    UnsupportedFormatError,
    ValidationError,
)

RGBE_ZERO_THRESHOLD = 1e-32


@dataclass
class RadianceMap:
    """Linear HDR image: per-pixel scene irradiance, 3 channels, float32."""

    width: int
    height: int
    data: np.ndarray  # (H, W, 3) float32, finite, >= 0

    @classmethod
    def from_array(cls, data: np.ndarray) -> "RadianceMap":
        data = np.asarray(data, dtype=np.float32)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValidationError(f"radiance data must be (H, W, 3), got {data.shape}")
        h, w = data.shape[:2]
        return cls(width=w, height=h, data=data)

    def validate(self) -> None:
        if self.data.shape != (self.height, self.width, 3):
            raise ValidationError(
                f"dims ({self.height}, {self.width}, 3) do not match data {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValidationError("radiance map contains non-finite values")
        if np.any(self.data < 0):
            raise ValidationError("radiance map contains negative values")


@dataclass
class LdrImage:
    """8-bit quantized exposure of a scene together with its relative exposure time."""

    width: int
    height: int
    data: np.ndarray  # (H, W, 3) uint8
    exposure: float = 1.0

    @classmethod
    def from_array(cls, data: np.ndarray, exposure: float = 1.0) -> "LdrImage":
        data = np.asarray(data)
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValidationError(f"LDR data must be (H, W, 3), got {data.shape}")
        if data.dtype != np.uint8:
            if np.any(data < 0) or np.any(data > 255):
                raise ValidationError("LDR samples outside [0, 255]")
            data = data.astype(np.uint8)
        if not 0 < exposure < math.inf:  # also false for NaN
            raise ValidationError(f"exposure must be finite and > 0, got {exposure}")
        h, w = data.shape[:2]
        return cls(width=w, height=h, data=data, exposure=float(exposure))


# ---------------------------------------------------------------------------
# Radiance RGBE
# ---------------------------------------------------------------------------

_RESOLUTION_RE = re.compile(rb"^-Y (\d+) \+X (\d+)$")


class ByteReader:
    """A cursor over a byte buffer: the one place where the readers check bounds.

    Every primitive advances ``pos`` and raises :class:`TruncationError`
    rather than read past the end of ``buf``.
    """

    _TOKEN = re.compile(rb"\s*(\S+)")
    _TOKEN_AFTER_COMMENTS = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")

    def __init__(self, buf: bytes, pos: int = 0) -> None:
        self.buf = buf
        self.pos = pos

    @property
    def remaining(self) -> int:
        return len(self.buf) - self.pos

    def _advance(self, n: int, what: str) -> int:
        start = self.pos
        if n > len(self.buf) - start:
            raise TruncationError(
                f"{what} needs {n} bytes at byte {start}, {len(self.buf) - start} available"
            )
        self.pos = start + n
        return start

    def take(self, n: int, what: str) -> bytes:
        start = self._advance(n, what)
        return self.buf[start : self.pos]

    def unpack(self, fmt: str, what: str = "field") -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt), what))

    def array(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A read-only view of the next ``prod(shape)`` items, without a copy."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize, what)
        return np.frombuffer(self.buf, dtype=dtype, count=count, offset=start).reshape(shape)

    def line(self) -> bytes:
        """The bytes up to the next newline, which is consumed but not returned."""
        end = self.buf.find(b"\n", self.pos)
        if end < 0:
            raise TruncationError(f"unterminated header line at byte {self.pos}")
        start, self.pos = self.pos, end + 1
        return self.buf[start:end]

    def token(self, comments: bool = False) -> bytes:
        """The next whitespace-separated token; with ``comments``, skip ``#`` to end of line."""
        m = (self._TOKEN_AFTER_COMMENTS if comments else self._TOKEN).match(self.buf, self.pos)
        if m is None:
            raise TruncationError(f"header token missing at byte {self.pos}")
        self.pos = m.end()
        return m.group(1)

    def dims(self, width: int, height: int) -> tuple[int, int]:
        if width < 1 or height < 1:
            raise FormatError(f"image is {width}x{height}, both must be >= 1", offset=self.pos)
        return width, height


def decode_hdr(buf: bytes) -> RadianceMap:
    """Decode a Radiance RGBE byte buffer into a linear radiance map.

    Accepts flat and new-style RLE scanlines.  Pixel rule: exponent byte 0
    maps to black, otherwise channel = byte * 2^(e-128) / 256.
    """
    r = ByteReader(buf)
    magic = r.line()
    if not magic.startswith((b"#?RADIANCE", b"#?RGBE")):
        raise FormatError(f"bad magic {magic[:10]!r}", offset=0)

    format_ok = False
    while line := r.line():
        if line.startswith(b"FORMAT="):
            if line != b"FORMAT=32-bit_rle_rgbe":
                raise FormatError(f"unsupported format {line!r}", offset=r.pos - len(line) - 1)
            format_ok = True
    if not format_ok:
        raise FormatError("missing FORMAT=32-bit_rle_rgbe header line", offset=r.pos)

    line = r.line()
    m = _RESOLUTION_RE.match(line)
    if m is None:
        raise FormatError(f"bad resolution line {line!r}", offset=r.pos - len(line) - 1)
    width, height = r.dims(int(m.group(2)), int(m.group(1)))

    # Bound the allocation by the bytes left.  A flat scanline is 4 bytes per
    # pixel; an RLE one (width < 32768) at least its 4-byte header plus one
    # 2-byte run per 127 pixels, counted for its first component only so that
    # a short file whose first component is corrupt still reports corruption.
    line_min = 4 * width if width >= 0x8000 else min(4 * width, 4 + 2 * -(-width // 127))
    if height * line_min > r.remaining:
        raise TruncationError(
            f"{height} scanlines of width {width} need at least {height * line_min} bytes, "
            f"{r.remaining} available"
        )
    rgbe = np.empty((height, width, 4), dtype=np.uint8)
    for row in rgbe:
        _decode_scanline(r, row, width)

    return RadianceMap(width=width, height=height, data=_rgbe_to_float(rgbe))


def _decode_scanline(r: ByteReader, out: np.ndarray, width: int) -> None:
    b0, b1, b2, b3 = r.take(4, "scanline header")
    if b0 == 2 and b1 == 2 and b2 & 0x80 == 0:
        declared = (b2 << 8) | b3
        if declared != width:
            raise CorruptionError(
                f"RLE scanline declares width {declared}, expected {width}"
            )
        for c in range(4):
            r.pos = _decode_rle_component(r.buf, r.pos, out[:, c], width)
    else:  # flat scanline: the four bytes were its first RGBE quadruple
        r.pos -= 4
        out[:] = r.array(np.uint8, (width, 4), "flat scanline")


def _decode_rle_component(buf: bytes, pos: int, out: np.ndarray, width: int) -> int:
    filled = 0
    while filled < width:
        if pos >= len(buf):
            raise TruncationError(f"RLE stream truncated at byte {pos}")
        count = buf[pos]
        pos += 1
        if count > 128:  # run of a repeated byte
            run = count - 128
            if filled + run > width:
                raise CorruptionError(
                    f"RLE run of {run} overflows scanline at column {filled}"
                )
            if pos >= len(buf):
                raise TruncationError(f"RLE run value truncated at byte {pos}")
            out[filled : filled + run] = buf[pos]
            pos += 1
            filled += run
        elif count > 0:  # literal bytes
            if filled + count > width:
                raise CorruptionError(
                    f"RLE literal of {count} overflows scanline at column {filled}"
                )
            if pos + count > len(buf):
                raise TruncationError(f"RLE literal truncated at byte {pos}")
            out[filled : filled + count] = np.frombuffer(
                buf, dtype=np.uint8, count=count, offset=pos
            )
            pos += count
            filled += count
        else:
            raise CorruptionError(f"zero-length RLE literal at byte {pos - 1}")
    return pos


def _rgbe_to_float(rgbe: np.ndarray) -> np.ndarray:
    exp = rgbe[..., 3].astype(np.int32)
    # channel = byte * 2^(e-128) / 256 = byte * 2^(e-136)
    scale = np.ldexp(np.float32(1.0), exp - 136)
    scale[exp == 0] = 0.0
    return rgbe[..., :3].astype(np.float32) * scale[..., None]


def encode_hdr(m: RadianceMap) -> bytes:
    """Encode a radiance map as an uncompressed (flat-scanline) RGBE file."""
    m.validate()
    header = f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {m.height} +X {m.width}\n"
    data = m.data.astype(np.float64)
    maxc = data.max(axis=2)
    nonzero = maxc >= RGBE_ZERO_THRESHOLD

    _, exp = np.frexp(maxc)  # maxc in [2^(e-1), 2^e)
    exp = np.clip(exp, -127, 127)
    scale = np.ldexp(1.0, 8 - exp)
    mant = np.clip(np.floor(data * scale[..., None]), 0, 255)

    rgbe = np.zeros((m.height, m.width, 4), dtype=np.uint8)
    rgbe[..., :3] = np.where(nonzero[..., None], mant, 0).astype(np.uint8)
    rgbe[..., 3] = np.where(nonzero, exp + 128, 0).astype(np.uint8)
    return header.encode("ascii") + rgbe.tobytes()


# ---------------------------------------------------------------------------
# PFM
# ---------------------------------------------------------------------------


def read_pfm(buf: bytes) -> RadianceMap:
    """Read a PFM buffer.  Grayscale ``Pf`` is replicated to three channels.

    The scale line's sign selects endianness; its magnitude is ignored.
    """
    r = ByteReader(buf)
    magic = r.token()
    if magic not in (b"PF", b"Pf"):
        raise FormatError(f"bad PFM magic {magic!r}", offset=0)
    channels = 3 if magic == b"PF" else 1
    wtok, htok, stok = r.token(), r.token(), r.token()
    try:
        width, height, scale = int(wtok), int(htok), float(stok)
    except ValueError as e:
        raise FormatError(f"bad PFM header field: {e}", offset=r.pos) from None
    width, height = r.dims(width, height)
    r.take(1, "PFM scale line")  # single whitespace byte after the scale line
    data = r.array("<f4" if scale < 0 else ">f4", (height, width, channels), "PFM payload")
    data = data.astype(np.float32)[::-1]  # rows are stored bottom-to-top
    if channels == 1:
        data = np.repeat(data, 3, axis=2)
    m = RadianceMap(width=width, height=height, data=np.ascontiguousarray(data))
    m.validate()
    return m


def write_pfm(m: RadianceMap) -> bytes:
    """Write a little-endian color PFM (scale -1.0), rows bottom-to-top."""
    m.validate()
    header = f"PF\n{m.width} {m.height}\n-1.0\n"
    payload = m.data.astype("<f4")[::-1].tobytes()
    return header.encode("ascii") + payload


# ---------------------------------------------------------------------------
# PPM (binary P6, maxval 255)
# ---------------------------------------------------------------------------


def read_ppm(buf: bytes) -> LdrImage:
    """Read a binary P6 PPM with maxval 255.  Exposure defaults to 1.0.

    Exposure metadata lives in a sidecar file, not in the PPM itself; use
    :func:`load_ldr` to read both together.
    """
    r = ByteReader(buf)
    magic = r.token(comments=True)
    if magic != b"P6":
        raise FormatError(f"bad PPM magic {magic!r}", offset=0)
    wtok, htok, mtok = r.token(comments=True), r.token(comments=True), r.token(comments=True)
    try:
        width, height, maxval = int(wtok), int(htok), int(mtok)
    except ValueError as e:
        raise FormatError(f"bad PPM header field: {e}", offset=r.pos) from None
    width, height = r.dims(width, height)
    if maxval != 255:
        raise UnsupportedFormatError(f"PPM maxval {maxval} unsupported (need 255)")
    r.take(1, "PPM maxval line")  # single whitespace byte after maxval
    data = r.array(np.uint8, (height, width, 3), "PPM payload").copy()
    return LdrImage(width=width, height=height, data=data, exposure=1.0)


def write_ppm(img: LdrImage) -> bytes:
    """Write a binary P6 PPM with maxval 255 (exposure is not stored)."""
    header = f"P6\n{img.width} {img.height}\n255\n"
    return header.encode("ascii") + img.data.astype(np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Path helpers and the exposure sidecar
# ---------------------------------------------------------------------------


def exposure_sidecar_path(ppm_path: str | Path) -> Path:
    return Path(ppm_path).with_suffix(".exposure")


def save_ldr(path: str | Path, img: LdrImage) -> None:
    """Write ``<path>`` as PPM plus a ``<name>.exposure`` sidecar."""
    path = Path(path)
    path.write_bytes(write_ppm(img))
    exposure_sidecar_path(path).write_text(f"{img.exposure!r}\n")


def load_ldr(path: str | Path) -> LdrImage:
    """Read a PPM and, if present, its exposure sidecar."""
    path = Path(path)
    img = read_ppm(path.read_bytes())
    sidecar = exposure_sidecar_path(path)
    if sidecar.exists():
        try:
            img.exposure = float(sidecar.read_text().strip())
        except ValueError as e:
            raise ValidationError(f"bad exposure sidecar {sidecar}: {e}") from None
        if not 0 < img.exposure < math.inf:
            raise ValidationError(f"exposure in {sidecar} must be finite and > 0")
    return img


def save_radiance(path: str | Path, m: RadianceMap) -> None:
    """Write a radiance map; format chosen by suffix (.hdr or .pfm)."""
    path = Path(path)
    if path.suffix.lower() == ".hdr":
        path.write_bytes(encode_hdr(m))
    elif path.suffix.lower() == ".pfm":
        path.write_bytes(write_pfm(m))
    else:
        raise UnsupportedFormatError(f"unknown radiance suffix {path.suffix!r}")


def load_radiance(path: str | Path) -> RadianceMap:
    """Read a radiance map; format chosen by suffix (.hdr or .pfm)."""
    path = Path(path)
    if path.suffix.lower() == ".hdr":
        return decode_hdr(path.read_bytes())
    if path.suffix.lower() == ".pfm":
        return read_pfm(path.read_bytes())
    raise UnsupportedFormatError(f"unknown radiance suffix {path.suffix!r}")
