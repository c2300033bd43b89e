import math
import sys

from conftest import ldr_image
import numpy as np
import pytest
from imgproc_reference import bilateral_filter as reference_bilateral

from hdrkit import imgproc, pipeline
from hdrkit.errors import ParameterError
from hdrkit.imgproc import (
    bilateral_filter,
    entropy,
    lab_to_rgb,
    luma_histogram,
    luminance,
    rgb_to_lab,
)
from hdrkit.pipeline import _lab_planes, normalize_hdr
from hdrkit.synth import synth_scenes


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
        img = ldr_image(np.full((8, 8, 3), 123, np.uint8))
        assert entropy(img) == 0.0

    def test_uniform_256_codes(self):
        g = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = ldr_image(np.stack([g, g, g], axis=-1))
        assert entropy(img) == pytest.approx(8.0, abs=1e-9)

    def test_three_to_one_split(self):
        # counts (3, 1): -(0.75 log2 0.75 + 0.25 log2 0.25)
        g = np.array([[10, 10], [10, 200]], np.uint8)
        img = ldr_image(np.stack([g, g, g], axis=-1))
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert entropy(img) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8113, abs=5e-5)

    def test_histogram_totals(self, rng):
        img = ldr_image(rng.integers(0, 256, (9, 7, 3), dtype=np.uint8))
        hist = luma_histogram(img)
        assert hist.shape == (256,)
        assert hist.sum() == 63

    def test_range_property(self, rng):
        for _ in range(10):
            img = ldr_image(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
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


class TestBilateralBlocks:
    """The row-block filter against the per-offset loop it replaced."""

    @pytest.mark.parametrize("sigma_r", [0.5, 10.0, 1e6])
    @pytest.mark.parametrize(
        "shape, sigma_s",
        [
            ((1, 1), 1.0),
            ((1, 7), 1.0),
            ((7, 1), 1.0),
            ((5, 5), 2.0),  # r = 6: the window is larger than the plane
            ((128, 128), 8.0),
            ((110, 150), 8.0),
        ],
    )
    def test_matches_reference_loop(self, rng, shape, sigma_s, sigma_r):
        plane = 40.0 * rng.standard_normal(shape) + 50.0
        out = bilateral_filter(plane, sigma_s, sigma_r)
        want = reference_bilateral(plane, sigma_s, sigma_r)
        assert out.dtype == np.float64
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    def test_f32_lab_planes_match_reference_bitwise(self, monkeypatch):
        for scene in synth_scenes(3, 128, seed=31):
            rgb = normalize_hdr(scene)[0].data
            planes = _lab_planes(rgb)
            with monkeypatch.context() as m:
                m.setattr(pipeline, "bilateral_filter", reference_bilateral)
                want = _lab_planes(rgb)
            for name, plane in planes.items():
                assert plane.dtype == np.float32
                assert plane.tobytes() == want[name].tobytes(), name

    def test_output_does_not_depend_on_cpu_count(self, rng, monkeypatch):
        plane = rng.random((61, 40)) * 80.0  # 8 row blocks, the last one 5 rows
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for cpus, cols in ((1, 256), (3, 256), (3, 16)):  # 16: 3 tiles a row, the last 8 wide
                monkeypatch.setattr(imgproc, "_cpu_count", lambda cpus=cpus: cpus)
                monkeypatch.setattr(imgproc, "_BLOCK_COLS", cols)
                outs.append(bilateral_filter(plane, 3.0, 5.0).tobytes())
        finally:
            sys.setswitchinterval(interval)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize(
        "sigma_s, sigma_r",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan_sigma_s", "inf_sigma_s", "nan_sigma_r", "inf_sigma_r"],
    )
    def test_non_finite_sigma_raises(self, sigma_s, sigma_r):
        with pytest.raises(ParameterError, match="finite"):
            bilateral_filter(np.ones((4, 4)), sigma_s, sigma_r)

    @pytest.mark.parametrize("sigma_r, scale", [(1e-310, 5.0), (1e-300, 1e10)])
    def test_sigma_r_too_small_for_the_plane_raises(self, sigma_r, scale):
        plane = scale * np.arange(6.0).reshape(2, 3)
        with pytest.raises(ParameterError, match="too small"):
            bilateral_filter(plane, 1.0, sigma_r)

    def test_tiny_sigma_r_returns_the_plane(self):
        # Down to where the scaled values overflow, only the centre weighs.
        plane = np.arange(6.0).reshape(2, 3)
        assert bilateral_filter(plane, 1.0, 1e-300).tobytes() == plane.tobytes()
