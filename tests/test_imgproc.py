import math
import tracemalloc

from conftest import ldr_image
import numpy as np
import pytest
from imgproc_reference import bilateral_filter as reference_bilateral

from hdrkit import pipeline
from hdrkit.errors import ParameterError
from hdrkit.imgproc import (
    bilateral_filter,
    entropy,
    lab_to_rgb,
    luma_histogram,
    luminance,
    rgb_to_lab,
)
from hdrkit.pipeline import BILATERAL_SIGMA_R, BILATERAL_SIGMA_S, _lab_planes, normalize_hdr
from hdrkit.synth import synth_scene, synth_scenes


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


def _distance(got, want):
    """Largest and root-mean-square difference of two planes, in f64."""
    d = got.astype(np.float64) - want.astype(np.float64)
    return np.abs(d).max(), math.sqrt(np.mean(d * d))


def _benchmark_planes():
    """The L* planes that the benchmark's ``infer`` workload filters at seed
    2024: one scene per (kind, size) pair, in perfbench/workloads.py's order."""
    rng = np.random.default_rng(2024)
    sizes = ((150, 110), (181, 97), (133, 126))
    kinds = ("gradient", "blobs", "checker")
    scenes = [synth_scene(kinds[j // 3], *sizes[j % 3], rng) for j in range(9)]
    return [rgb_to_lab(normalize_hdr(scene)[0].data).L for scene in scenes]


def _peak_padded_planes(plane, sigma_s, sigma_r):
    """The filter's tracemalloc peak, in f64 planes of the reflect-padded size."""
    bilateral_filter(np.arange(4.0).reshape(2, 2), sigma_s, sigma_r)  # first-call imports
    r = math.ceil(3.0 * sigma_s)
    padded = (plane.shape[0] + 2 * r) * (plane.shape[1] + 2 * r) * 8
    tracemalloc.start()
    try:
        out = bilateral_filter(plane, sigma_s, sigma_r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / padded


# The grid's memory, measured at 50.7 padded f64 planes for a 64x64 or 128x128
# plane in one range band; a dense grid would grow with (max - min) / sigma_r.
GRID_PEAK_PLANES = 56


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
        # The grid's blur stops at 2 sigma_s, this window at 3: measured 0.0064.
        assert np.abs(out - num / den).max() < 0.01

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
    """The bilateral grid against the brute-force loop it replaced
    (``tests/imgproc_reference.py``), within measured bounds."""

    # (max, rms) distance by sigma_r on planes of 40 * N(0, 1) + 50; measured
    # 0.096/0.0101, 1.456/0.319 and 0.589/0.317 over the shapes below.
    NOISE_BOUNDS = {0.5: (0.1, 0.011), 10.0: (1.5, 0.33), 1e6: (0.6, 0.33)}
    # (max, rms) distance of the base layer in L* on the benchmark's planes
    # and on synth_scenes(3, 128, seed=31): measured 1.19 and 0.084.
    LAB_BOUNDS = (1.25, 0.1)

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
        most, rms = self.NOISE_BOUNDS[sigma_r]
        got_max, got_rms = _distance(out, want)
        assert got_max <= most and got_rms <= rms, (got_max, got_rms)

    def test_benchmark_planes_match_reference_loop(self):
        for plane in _benchmark_planes():
            got = bilateral_filter(plane, BILATERAL_SIGMA_S, BILATERAL_SIGMA_R)
            want = reference_bilateral(plane, BILATERAL_SIGMA_S, BILATERAL_SIGMA_R)
            got_max, got_rms = _distance(got, want)
            assert got_max <= self.LAB_BOUNDS[0] and got_rms <= self.LAB_BOUNDS[1], (got_max, got_rms)

    def test_f32_lab_planes_match_reference_bitwise(self, monkeypatch):
        """a and b are bitwise the reference's, L_base is within the bound, and
        L_base + L_detail is L exactly, as with the reference."""
        for scene in synth_scenes(3, 128, seed=31):
            rgb = normalize_hdr(scene)[0].data
            planes = _lab_planes(rgb)
            with monkeypatch.context() as m:
                m.setattr(pipeline, "bilateral_filter", reference_bilateral)
                want = _lab_planes(rgb)
            for name, plane in planes.items():
                assert plane.dtype == np.float32
            for name in ("a", "b"):
                assert planes[name].tobytes() == want[name].tobytes(), name
            L = rgb_to_lab(rgb).L
            for split in (planes, want):
                assert (split["L_base"] + split["L_detail"]).tobytes() == L.tobytes()
            got_max, got_rms = _distance(planes["L_base"], want["L_base"])
            assert got_max <= self.LAB_BOUNDS[0] and got_rms <= self.LAB_BOUNDS[1], (got_max, got_rms)

    def test_same_input_gives_the_same_bytes(self, rng):
        # 400 range cells: 13 bands, each with its own grid.
        plane = rng.random((61, 40)) * 1000.0
        first = bilateral_filter(plane, 3.0, 5.0)
        assert bilateral_filter(plane, 3.0, 5.0).tobytes() == first.tobytes()

    @pytest.mark.parametrize(
        "sigma_s, sigma_r",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)],
        ids=["nan_sigma_s", "inf_sigma_s", "nan_sigma_r", "inf_sigma_r"],
    )
    def test_non_finite_sigma_raises(self, sigma_s, sigma_r):
        with pytest.raises(ParameterError, match="finite"):
            bilateral_filter(np.ones((4, 4)), sigma_s, sigma_r)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_plane_raises(self, value):
        plane = np.ones((4, 4))
        plane[1, 2] = value
        with pytest.raises(ParameterError, match="finite"):
            bilateral_filter(plane, 1.0, 1.0)

    @pytest.mark.parametrize("sigma_r, scale", [(1e-310, 5.0), (1e-300, 1e10), (1e-300, 1.0),
                                                (2.16e-18, 1.0)])
    def test_sigma_r_too_small_for_the_plane_raises(self, sigma_r, scale):
        # A span of 5 * scale over cells of sigma_r / 2 must stay under 2**62 cells.
        plane = scale * np.arange(6.0).reshape(2, 3)
        with pytest.raises(ParameterError, match="too small"):
            bilateral_filter(plane, 1.0, sigma_r)

    def test_tiny_sigma_r_returns_the_plane(self):
        # At the smallest sigma_r the grid accepts for a span of 5, each value
        # has its own cells, and num / den gives it back to rounding.
        plane = np.arange(6.0).reshape(2, 3)
        out = bilateral_filter(plane, 1.0, 2.17e-18)
        assert np.abs(out - plane).max() <= 1e-15 * np.abs(plane).max()

    def test_tiny_sigma_s_returns_the_plane_in_pixel_cells(self, rng):
        # Spatial cells never go under one pixel, so the grid stays the
        # plane's size; and each pixel then weighs only itself.
        plane = rng.random((40, 30)) * 100.0
        out, peak = _peak_padded_planes(plane, 1e-3, 10.0)
        assert np.abs(out - plane).max() <= 1e-13 * np.abs(plane).max()
        # measured 317: one spatial cell a pixel with its 22 range cells,
        # where cells of sigma_s / 2 would be 4e6 spatial cells a pixel
        assert peak <= 350, peak

    @pytest.mark.parametrize("kind", ["outlier", "ramp"])
    def test_memory_does_not_grow_with_the_range(self, rng, kind):
        if kind == "outlier":  # rgb_to_lab of a float32-max radiance
            plane = rng.random((64, 64)) * 100.0
            plane[20, 30] = 8.1e14
        else:
            plane = np.tile(np.linspace(0.0, 1e5, 128), (128, 1))
        out, peak = _peak_padded_planes(plane, BILATERAL_SIGMA_S, BILATERAL_SIGMA_R)
        assert peak <= GRID_PEAK_PLANES, peak
        want = reference_bilateral(plane, BILATERAL_SIGMA_S, BILATERAL_SIGMA_R)
        if kind == "outlier":
            assert out[20, 30] == plane[20, 30]
            out[20, 30] = want[20, 30]
        got_max, _ = _distance(out, want)
        assert got_max <= 0.45, got_max  # measured 0.40 and 0
