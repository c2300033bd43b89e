"""New-style run-length encoding of Radiance RGBE scanlines.

hdrkit's `encode_hdr` writes flat scanlines only, so without this encoder the
benchmark would never exercise the RLE branch of `decode_hdr`.
"""

from __future__ import annotations

import numpy as np

MIN_RUN = 4  # shorter repeats stay inside literals, as Radiance's own writer does
MAX_RUN = 127
MAX_LITERAL = 128


def _literal(out: bytearray, row: bytes, start: int, stop: int) -> None:
    while start < stop:
        n = min(stop - start, MAX_LITERAL)
        out.append(n)
        out += row[start : start + n]
        start += n


def _encode_component(out: bytearray, values: np.ndarray) -> None:
    row = values.tobytes()
    change = (np.flatnonzero(values[1:] != values[:-1]) + 1).tolist()
    literal_from = 0
    for start, stop in zip([0, *change], [*change, len(row)]):
        n = stop - start
        if n < MIN_RUN:
            continue
        _literal(out, row, literal_from, start)
        while n > 0:
            k = min(n, MAX_RUN)
            out += bytes((128 + k, row[start]))
            n -= k
        literal_from = stop
    _literal(out, row, literal_from, len(row))


def rle_from_flat(flat: bytes) -> bytes:
    """Re-encode a flat-scanline RGBE file (as `encode_hdr` writes it) with RLE.

    The header and every pixel are kept, so decoding either file must give
    bitwise identical radiance.
    """
    blank = flat.index(b"\n\n") + 2
    data_start = flat.index(b"\n", blank) + 1
    height, width = (int(t) for t in flat[blank:data_start].split()[1::2])
    if not 8 <= width <= 0x7FFF:
        raise ValueError(f"RLE scanlines need 8 <= width <= 32767, got {width}")
    pixels = np.frombuffer(flat, dtype=np.uint8, offset=data_start).reshape(height, width, 4)
    out = bytearray(flat[:data_start])
    for y in range(height):
        out += bytes((2, 2, width >> 8, width & 0xFF))
        for c in range(4):
            _encode_component(out, pixels[y, :, c])
    return bytes(out)
