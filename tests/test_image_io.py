import numpy as np
import pytest

from hdrkit.errors import (
    CorruptionError,
    FormatError,
    TruncationError,
    UnsupportedFormatError,
    ValidationError,
)
from hdrkit.image_io import (
    LdrImage,
    RadianceMap,
    decode_hdr,
    encode_hdr,
    exposure_sidecar_path,
    load_ldr,
    read_pfm,
    read_ppm,
    save_ldr,
    save_radiance,
    write_pfm,
    write_ppm,
)


def make_map(arr):
    return RadianceMap.from_array(np.asarray(arr, dtype=np.float32))


def rgbe_file(height, width, payload):
    header = f"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n-Y {height} +X {width}\n"
    return header.encode() + bytes(payload)


class TestRgbeDecode:
    def test_zero_exponent_is_black(self):
        m = decode_hdr(rgbe_file(1, 1, [0, 0, 0, 0]))
        assert np.array_equal(m.data, np.zeros((1, 1, 3), np.float32))

    def test_hand_decoded_pixel(self):
        # 128 * 2^(129-128) / 256 == 1.0
        m = decode_hdr(rgbe_file(1, 1, [128, 128, 128, 129]))
        assert np.allclose(m.data, 1.0)

    def test_accepts_rgbe_magic(self):
        buf = b"#?RGBE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n" + bytes([0, 0, 0, 0])
        assert decode_hdr(buf).width == 1

    def test_rle_and_flat_encodings_agree(self):
        # same scanline written flat and as new-style RLE planes
        width = 16
        pix = [(10, 20, 30, 130)] * 8 + [(1, 2, 3, 128)] * 8
        flat = []
        for p in pix:
            flat.extend(p)
        flat_img = decode_hdr(rgbe_file(1, width, flat))

        rle = [2, 2, width >> 8, width & 0xFF]
        for c in range(4):
            rle.extend([128 + 8, pix[0][c]])  # run of 8
            rle.extend([128 + 8, pix[8][c]])
        rle_img = decode_hdr(rgbe_file(1, width, rle))
        assert np.array_equal(flat_img.data, rle_img.data)

    def test_rle_literal_runs(self):
        width = 4
        rle = [2, 2, 0, width]
        for c in range(4):
            rle.extend([4, c + 1, c + 2, c + 3, c + 4])  # literal of 4
        m = decode_hdr(rgbe_file(1, width, rle))
        assert m.width == 4


class TestRgbeEncode:
    def test_zero_pixel(self):
        enc = encode_hdr(make_map(np.zeros((1, 1, 3))))
        assert enc[-4:] == bytes([0, 0, 0, 0])

    def test_unit_pixel_bytes(self):
        # m=1.0 in [2^0, 2^1) => e=1, scale=128 => (128,128,128,129)
        enc = encode_hdr(make_map(np.ones((1, 1, 3))))
        assert enc[-4:] == bytes([128, 128, 128, 129])

    def test_round_trip_error_bound(self, rng):
        data = (rng.random((32, 17, 3)) * rng.choice([1e-3, 1.0, 50.0], (32, 17, 3))).astype(
            np.float32
        )
        m = make_map(data)
        back = decode_hdr(encode_hdr(m))
        err = np.abs(back.data - m.data).max(axis=2)
        bound = m.data.max(axis=2) / 128.0
        assert np.all(err <= bound + 1e-12)

    def test_rejects_non_finite(self):
        bad = np.ones((1, 1, 3), np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValidationError):
            encode_hdr(RadianceMap(width=1, height=1, data=bad))


class TestRgbeErrors:
    def test_bad_magic(self):
        with pytest.raises(FormatError):
            decode_hdr(b"?!NOPE\nFORMAT=32-bit_rle_rgbe\n\n-Y 1 +X 1\n")

    def test_missing_format_line(self):
        with pytest.raises(FormatError):
            decode_hdr(b"#?RADIANCE\nEXPOSURE=1\n\n-Y 1 +X 1\n" + bytes(4))

    def test_wrong_format_value(self):
        with pytest.raises(FormatError):
            decode_hdr(b"#?RADIANCE\nFORMAT=32-bit_rle_xyze\n\n-Y 1 +X 1\n" + bytes(4))

    def test_bad_resolution_line(self):
        with pytest.raises(FormatError):
            decode_hdr(b"#?RADIANCE\nFORMAT=32-bit_rle_rgbe\n\n+Y 1 -X 1\n" + bytes(4))

    def test_truncated_scanline(self):
        with pytest.raises(TruncationError):
            decode_hdr(rgbe_file(2, 2, [0, 0, 0, 0]))

    def test_rle_run_overflow(self):
        width = 4
        rle = [2, 2, 0, width, 128 + 60, 7]  # run of 60 into a width-4 plane
        with pytest.raises(CorruptionError):
            decode_hdr(rgbe_file(1, width, rle))

    def test_rle_wrong_declared_width(self):
        with pytest.raises(CorruptionError):
            decode_hdr(rgbe_file(1, 4, [2, 2, 0, 9] + [132, 5] * 4))

    def test_zero_size_rejected(self):
        with pytest.raises(FormatError):
            decode_hdr(rgbe_file(0, 0, []))

    def test_huge_resolution_rejected_before_allocating(self):
        # 10^16 pixels declared, 8 bytes present: must not reach numpy's allocator
        with pytest.raises(TruncationError):
            decode_hdr(rgbe_file(100_000_000, 100_000_000, [0] * 8))

    def test_allocation_bound_admits_rle_files(self):
        # 3 RLE rows of width 300: each needs >= 4 + 2 * ceil(300 / 127) = 10 bytes
        width = 300
        row = [2, 2, width >> 8, width & 0xFF] + [255, 1, 255, 1, 128 + 46, 1] * 4
        assert decode_hdr(rgbe_file(3, width, row * 3)).height == 3
        with pytest.raises(TruncationError):
            decode_hdr(rgbe_file(4, width, row[:4] * 3 + [0] * 10))


class TestPfm:
    def test_bitwise_round_trip(self, random_map):
        assert np.array_equal(read_pfm(write_pfm(random_map)).data, random_map.data)

    def test_payload_layout(self):
        m = make_map([[[2.5, 0.5, 1.0]]])
        buf = write_pfm(m)
        payload = buf[len(b"PF\n1 1\n-1.0\n") :]
        assert len(payload) == 12
        assert np.array_equal(
            np.frombuffer(payload, dtype="<f4"), np.array([2.5, 0.5, 1.0], np.float32)
        )

    def test_big_endian_twin(self, random_map):
        little = write_pfm(random_map)
        header_len = little.index(b"-1.0\n") + 5
        payload = np.frombuffer(little[header_len:], dtype="<f4")
        big = (
            f"PF\n{random_map.width} {random_map.height}\n1.0\n".encode()
            + payload.astype(">f4").tobytes()
        )
        assert np.array_equal(read_pfm(big).data, random_map.data)

    def test_grayscale_replicated(self):
        buf = b"Pf\n2 1\n-1.0\n" + np.array([0.25, 4.0], "<f4").tobytes()
        m = read_pfm(buf)
        assert m.data.shape == (1, 2, 3)
        assert np.all(m.data[0, 0] == 0.25) and np.all(m.data[0, 1] == 4.0)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_pfm(b"P6\n1 1\n-1.0\n" + bytes(12))

    def test_truncated_payload(self):
        with pytest.raises(TruncationError):
            read_pfm(b"PF\n4 4\n-1.0\n" + bytes(8))

    @pytest.mark.parametrize("dims", [b"-2 3", b"0 0", b"3 0"])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(FormatError):
            read_pfm(b"PF\n" + dims + b"\n-1.0\n" + bytes(72))

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_invalid_samples_rejected(self, bad):
        payload = np.array([0.5, bad, 0.25], "<f4").tobytes()
        with pytest.raises(ValidationError):
            read_pfm(b"PF\n1 1\n-1.0\n" + payload)

    def test_invalid_map_not_written(self, tmp_path):
        bad = RadianceMap(width=1, height=1, data=np.array([[[np.nan, -1.0, 1.0]]], np.float32))
        with pytest.raises(ValidationError):
            write_pfm(bad)
        with pytest.raises(ValidationError):
            save_radiance(tmp_path / "bad.pfm", bad)
        assert not (tmp_path / "bad.pfm").exists()


class TestPpm:
    def test_round_trip_bitwise(self):
        img = LdrImage.from_array(
            np.array([[[0, 0, 0], [255, 255, 255]]], np.uint8), exposure=8.0
        )
        back = read_ppm(write_ppm(img))
        assert np.array_equal(back.data, img.data)

    def test_header_layout(self):
        img = LdrImage.from_array(np.zeros((64, 64, 3), np.uint8))
        assert write_ppm(img).startswith(b"P6\n64 64\n255\n")

    def test_comments_skipped(self):
        img = LdrImage.from_array(np.arange(12, dtype=np.uint8).reshape(2, 2, 3))
        plain = write_ppm(img)
        commented = plain.replace(b"P6\n", b"P6\n# a comment\n# another\n")
        assert np.array_equal(read_ppm(commented).data, read_ppm(plain).data)

    def test_maxval_rejected(self):
        with pytest.raises(UnsupportedFormatError):
            read_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_ppm(b"P5\n1 1\n255\n" + bytes(3))

    def test_truncated(self):
        with pytest.raises(TruncationError):
            read_ppm(b"P6\n4 4\n255\n" + bytes(5))

    @pytest.mark.parametrize("dims", [b"-2 3", b"0 0", b"3 0"])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n" + dims + b"\n255\n" + bytes(18))

    def test_unterminated_comment_is_truncation(self):
        with pytest.raises(TruncationError):
            read_ppm(b"P6\n# no newline")


class TestSidecar:
    def test_save_load_with_exposure(self, tmp_path):
        img = LdrImage.from_array(np.full((3, 2, 3), 9, np.uint8), exposure=512.0)
        path = tmp_path / "shot.ppm"
        save_ldr(path, img)
        assert exposure_sidecar_path(path).read_text().strip() == "512.0"
        back = load_ldr(path)
        assert back.exposure == 512.0
        assert np.array_equal(back.data, img.data)

    @pytest.mark.parametrize("text", ["nan", "inf", "-2", "0"])
    def test_bad_exposure_rejected(self, tmp_path, text):
        path = tmp_path / "shot.ppm"
        path.write_bytes(write_ppm(LdrImage.from_array(np.zeros((1, 1, 3), np.uint8))))
        exposure_sidecar_path(path).write_text(text + "\n")
        with pytest.raises(ValidationError):
            load_ldr(path)

    @pytest.mark.parametrize("exposure", [np.nan, np.inf, -np.inf, -2.0, 0.0])
    def test_bad_exposure_rejected_in_memory(self, exposure):
        with pytest.raises(ValidationError):
            LdrImage.from_array(np.zeros((1, 1, 3), np.uint8), exposure=exposure)

    def test_missing_sidecar_defaults_to_one(self, tmp_path):
        img = LdrImage.from_array(np.zeros((1, 1, 3), np.uint8), exposure=64.0)
        path = tmp_path / "bare.ppm"
        path.write_bytes(write_ppm(img))
        assert load_ldr(path).exposure == 1.0
