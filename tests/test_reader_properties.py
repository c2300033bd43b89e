"""Property tests for the binary readers and their writers.

For any input, each reader either returns an object that meets its
invariants or raises an ``HdrkitError``; each writer's output reads back.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hdrkit.errors import HdrkitError
from hdrkit.image_io import (
    RGBE_ZERO_THRESHOLD,
    LdrImage,
    RadianceMap,
    decode_hdr,
    encode_hdr,
    read_pfm,
    read_ppm,
    write_pfm,
    write_ppm,
)
from hdrkit.nn import (
    CHECKPOINT_MAGIC,
    LayerSpec,
    Network,
    NetworkSpec,
    load_checkpoint,
    save_checkpoint,
)

BOUNDED = settings(max_examples=200, deadline=None)


def _rle_hdr() -> bytes:
    """Two 9-pixel RLE scanlines (runs and literals), then one flat scanline."""
    row = [2, 2, 0, 9] + [128 + 5, 7, 4, 1, 2, 3, 4] * 4
    flat = list(range(100, 136))
    return b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y 3 +X 9\n" + bytes(row * 2 + flat)


_rng = np.random.default_rng(5)
VALID = {
    "hdr": _rle_hdr(),
    "pfm": write_pfm(RadianceMap.from_array(_rng.random((3, 4, 3)).astype(np.float32))),
    "ppm": write_ppm(LdrImage.from_array(_rng.integers(0, 256, (3, 4, 3), dtype=np.uint8))).replace(
        b"P6\n", b"P6\n# comment\n"
    ),
    "ckpt": save_checkpoint(
        Network(
            NetworkSpec(
                layers=(
                    LayerSpec("conv3x3", 2, 3, batchnorm=True, dropout_p=0.25),
                    LayerSpec("output1x1", 3, 1),
                ),
                seed=3,
            )
        ),
        {"patch": 8},
    ),
}
MAGIC = {"hdr": b"#?RADIANCE\n", "pfm": b"PF\n", "ppm": b"P6\n", "ckpt": CHECKPOINT_MAGIC}


def edit(buf: bytes, at: int, value: int) -> bytes:
    return buf[:at] + bytes([value]) + buf[at + 1 :]


def damaged(kind: str):
    """Arbitrary bytes (bare or behind the magic), and one-byte edits or cuts of a valid file."""
    valid = VALID[kind]
    return st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda b: MAGIC[kind] + b),
        st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
            lambda e: edit(valid, *e)
        ),
        st.integers(0, len(valid) - 1).map(lambda n: valid[:n]),
    )


def test_valid_seeds_decode():
    decode_hdr(VALID["hdr"]).validate()
    read_pfm(VALID["pfm"]).validate()
    assert read_ppm(VALID["ppm"]).width == 4
    assert load_checkpoint(VALID["ckpt"])[1] == {"patch": 8}


@BOUNDED
@given(damaged("hdr"))
def test_decode_hdr_valid_or_hdrkit_error(buf):
    try:
        m = decode_hdr(buf)
    except HdrkitError:
        return
    m.validate()
    assert m.width >= 1 and m.height >= 1


@BOUNDED
@given(damaged("pfm"))
def test_read_pfm_valid_or_hdrkit_error(buf):
    try:
        m = read_pfm(buf)
    except HdrkitError:
        return
    m.validate()
    assert m.width >= 1 and m.height >= 1


@BOUNDED
@given(damaged("ppm"))
def test_read_ppm_valid_or_hdrkit_error(buf):
    try:
        img = read_ppm(buf)
    except HdrkitError:
        return
    assert img.width >= 1 and img.height >= 1
    assert img.data.dtype == np.uint8 and img.data.shape == (img.height, img.width, 3)
    assert img.exposure == 1.0


@BOUNDED
@given(damaged("ckpt"))
# a tensor header of shape (3, 1065353216, 1065353216, 1065353216, 769, 0):
# zero items, so no bytes to read, but a shape numpy cannot build
@example(edit(VALID["ckpt"], 316, 6))
def test_load_checkpoint_valid_or_hdrkit_error(buf):
    try:
        net, meta = load_checkpoint(buf)
    except HdrkitError:
        return
    assert isinstance(net, Network) and isinstance(meta, dict)
    assert all(np.isfinite(arr).all() for _, arr in net.tensors())


def radiance(max_value: float):
    shapes = st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3))
    values = st.floats(0.0, max_value, width=32)
    return arrays(np.float32, shapes, elements=values).map(RadianceMap.from_array)


@BOUNDED
@given(radiance(2.0**100))
def test_rgbe_round_trip_within_mantissa(m):
    back = decode_hdr(encode_hdr(m))
    assert back.data.shape == m.data.shape
    err = np.abs(back.data.astype(np.float64) - m.data).max(axis=2)
    assert np.all(err <= m.data.max(axis=2) / 128.0 + RGBE_ZERO_THRESHOLD)


@BOUNDED
@given(radiance(np.finfo(np.float32).max))
def test_pfm_round_trip_bitwise(m):
    assert np.array_equal(read_pfm(write_pfm(m)).data, m.data)


@BOUNDED
@given(arrays(np.uint8, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3))))
def test_ppm_round_trip_bitwise(data):
    assert np.array_equal(read_ppm(write_ppm(LdrImage.from_array(data))).data, data)
