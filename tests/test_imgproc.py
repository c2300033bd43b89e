import math

import numpy as np
import pytest

from hdrkit.errors import ParameterError
from hdrkit.image_io import LdrImage
from hdrkit.imgproc import (
    bilateral_filter,
    entropy,
    lab_to_rgb,
    luma_histogram,
    luminance,
    rgb_to_lab,
    srgb_decode,
    srgb_encode,
)


class TestSrgb:
    def test_endpoints(self):
        assert srgb_decode(0) == 0.0
        assert srgb_decode(255) == 1.0

    def test_exhaustive_round_trip(self):
        codes = np.arange(256)
        assert np.array_equal(srgb_encode(srgb_decode(codes)), codes)

    def test_knee_continuity(self):
        # both branch formulas meet at the 0.04045 knee
        lo = 0.04045 / 12.92
        hi = ((0.04045 + 0.055) / 1.055) ** 2.4
        assert abs(lo - hi) < 1e-6


class TestLuminance:
    def test_white(self):
        assert luminance(np.ones((1, 1, 3)))[0, 0] == pytest.approx(1.0)

    def test_red(self):
        rgb = np.zeros((1, 1, 3))
        rgb[..., 0] = 1.0
        assert luminance(rgb)[0, 0] == pytest.approx(0.2126)

    def test_linearity(self, rng):
        rgb = rng.random((6, 5, 3))
        assert np.allclose(luminance(3.5 * rgb), 3.5 * luminance(rgb))


class TestLab:
    def test_white_point(self):
        lab = rgb_to_lab(np.ones((1, 1, 3)))
        assert lab.L[0, 0] == pytest.approx(100.0, abs=1e-3)
        assert abs(lab.a[0, 0]) < 1e-3 and abs(lab.b[0, 0]) < 1e-3

    def test_black_is_zero(self):
        assert rgb_to_lab(np.zeros((2, 2, 3))).L[0, 0] == 0.0

    def test_round_trip(self, rng):
        x = rng.random((20, 20, 3)).astype(np.float32)
        back = lab_to_rgb(rgb_to_lab(x))
        assert np.abs(back.data - x).max() < 1e-3

    def test_negative_values_clamped(self, caplog):
        rgb = np.full((1, 1, 3), -0.5)
        lab = rgb_to_lab(rgb)
        assert lab.L[0, 0] == 0.0


class TestEntropy:
    def test_constant_image_zero(self):
        img = LdrImage.from_array(np.full((8, 8, 3), 123, np.uint8))
        assert entropy(img) == 0.0

    def test_uniform_256_codes(self):
        g = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = LdrImage.from_array(np.stack([g, g, g], axis=-1))
        assert entropy(img) == pytest.approx(8.0, abs=1e-9)

    def test_three_to_one_split(self):
        # counts (3, 1): -(0.75 log2 0.75 + 0.25 log2 0.25)
        g = np.array([[10, 10], [10, 200]], np.uint8)
        img = LdrImage.from_array(np.stack([g, g, g], axis=-1))
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy(img) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8113, abs=5e-5)

    def test_histogram_totals(self, rng):
        img = LdrImage.from_array(rng.integers(0, 256, (9, 7, 3), dtype=np.uint8))
        hist = luma_histogram(img)
        assert hist.shape == (256,)
        assert hist.sum() == 63

    def test_range_property(self, rng):
        for _ in range(10):
            img = LdrImage.from_array(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
            assert 0.0 <= entropy(img) <= 8.0


class TestBilateral:
    def test_constant_plane_identity(self):
        plane = np.full((10, 12), 4.25)
        assert np.array_equal(bilateral_filter(plane, 1.5, 3.0), plane)

    def test_large_sigma_r_matches_gaussian(self, rng):
        plane = rng.random((16, 16))
        out = bilateral_filter(plane, 1.0, 1e6)
        # direct Gaussian blur with the same radius and reflect padding
        r = math.ceil(3.0)
        padded = np.pad(plane, r, mode="reflect")
        num = np.zeros_like(plane)
        den = np.zeros_like(plane)
        for dy in range(-r, r + 1):
            for dx in range(-r, r + 1):
                w = math.exp(-(dy * dy + dx * dx) / 2.0)
                num += w * padded[r + dy : r + dy + 16, r + dx : r + dx + 16]
                den += w
        assert np.abs(out - num / den).max() < 1e-4

    def test_step_edge_preserved(self):
        sigma_s, sigma_r = 2.0, 1.0
        h = 10.0 * sigma_r
        plane = np.zeros((8, 32))
        plane[:, 16:] = h
        out = bilateral_filter(plane, sigma_s, sigma_r)
        # at 2 sigma_s from the edge the value moves < 5% toward the far side
        left = out[4, 16 - int(2 * sigma_s)]
        right = out[4, 16 + int(2 * sigma_s) - 1]
        assert left < 0.05 * h
        assert right > 0.95 * h

    def test_output_within_input_range(self, rng):
        plane = rng.random((14, 9)) * 50
        out = bilateral_filter(plane, 1.2, 4.0)
        span = plane.max() - plane.min()
        assert out.min() >= plane.min() - 1e-9 * span
        assert out.max() <= plane.max() + 1e-9 * span

    def test_bad_sigmas_raise(self):
        with pytest.raises(ParameterError):
            bilateral_filter(np.zeros((4, 4)), 0.0, 1.0)
        with pytest.raises(ParameterError):
            bilateral_filter(np.zeros((4, 4)), 1.0, -2.0)
