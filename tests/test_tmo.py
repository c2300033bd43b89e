import math
import os
import subprocess
import sys
from pathlib import Path

import hdrkit
import numpy as np
import pytest
from scipy.stats import beta as beta_dist
from scipy.stats import norm as norm_dist
from hdrkit.camera import fixed_stack, gamma_crf
from hdrkit.errors import ParameterError
from hdrkit.image_io import LdrImage, RadianceMap
from hdrkit.imgproc import luminance
from hdrkit.pipeline import normalize_hdr
from hdrkit.synth import synth_scenes
from tmqi_reference import reference_tmqi

from hdrkit.tmo import (
    DEFAULT_TMQI,
    ToneMap,
    drago,
    mertens_fuse,
    mertens_weights,
    reinhard_global,
    select_best_tmo,
    statistical_naturalness,
    structural_fidelity,
    tmqi,
)


class TestReinhard:
    def test_halfway_at_unit_scaled_luminance(self):
        # with white -> inf and L_scaled == 1 the display luminance is 0.5;
        # build a map whose luminance is constant so geomean == L and key=1
        m = RadianceMap.from_array(np.full((8, 8, 3), 0.7, np.float32))
        tm = reinhard_global(m, key=1.0, white=1e9)
        lum_in = luminance(m.data)[0, 0]
        ratio = tm.data[0, 0, 0] / m.data[0, 0, 0]
        # L_scaled = lum/geomean(lum + 1e-6) ~ 1, so L_display ~ 0.5
        assert ratio * lum_in == pytest.approx(0.5, abs=1e-4)

    def test_all_zero_map(self):
        tm = reinhard_global(RadianceMap.from_array(np.zeros((4, 4, 3), np.float32)))
        assert np.all(tm.data == 0)

    def test_output_in_unit_range(self, small_scene):
        tm = reinhard_global(small_scene)
        assert tm.data.min() >= 0 and tm.data.max() <= 1

    def test_monotone_in_luminance(self):
        lum = np.linspace(0.01, 20.0, 256)
        m = RadianceMap.from_array(np.repeat(lum, 3).reshape(1, 256, 3).astype(np.float32))
        tm = reinhard_global(m)
        out_lum = luminance(tm.data)[0]
        assert np.all(np.diff(out_lum) >= -1e-9)


class TestDrago:
    def test_peak_maps_to_one(self):
        lum = np.array([0.1, 1.0, 37.0])
        m = RadianceMap.from_array(np.repeat(lum, 3).reshape(1, 3, 3).astype(np.float32))
        tm = drago(m, bias=0.85)
        assert luminance(tm.data)[0, 2] == pytest.approx(1.0, abs=1e-4)

    def test_bias_one_gives_plain_log_curve(self):
        # exponent log(1)/log(0.5) == 0 makes the denominator log(10) everywhere
        lum = np.array([0.5, 2.0, 10.0])
        m = RadianceMap.from_array(np.repeat(lum, 3).reshape(1, 3, 3).astype(np.float32))
        tm = drago(m, bias=1.0, l_max=10.0)
        expected = np.log1p(lum) / math.log1p(10.0)
        got = luminance(tm.data)[0]
        assert np.allclose(got, expected, atol=1e-4)

    def test_monotone(self):
        lum = np.linspace(0.001, 50.0, 512)
        m = RadianceMap.from_array(np.repeat(lum, 3).reshape(1, 512, 3).astype(np.float32))
        tm = drago(m)
        assert np.all(np.diff(luminance(tm.data)[0]) >= -1e-9)

    def test_zero_map(self):
        tm = drago(RadianceMap.from_array(np.zeros((3, 3, 3), np.float32)))
        assert np.all(tm.data == 0)

    def test_bias_domain(self):
        m = RadianceMap.from_array(np.ones((2, 2, 3), np.float32))
        with pytest.raises(ParameterError):
            drago(m, bias=0.0)


class TestMertens:
    def _identical_stack(self, rng):
        from hdrkit.camera import ExposureStack

        codes = rng.integers(0, 256, (10, 10, 3), dtype=np.uint8)
        images = [
            LdrImage.from_array(codes.copy(), exposure=float(2**k)) for k in range(5)
        ]
        return ExposureStack(images=images)

    def test_identical_images_fuse_to_themselves(self, rng):
        stack = self._identical_stack(rng)
        fused = mertens_fuse(stack)
        expected = stack.images[0].data.astype(np.float64) / 255.0
        assert np.abs(fused.data - expected).max() < 1e-6

    def test_weights_sum_to_one(self, small_scene):
        stack = fixed_stack(small_scene, gamma_crf(2.2))
        weights = mertens_weights(stack)
        assert np.abs(weights.sum(axis=0) - 1.0).max() < 1e-9

    def test_well_exposed_pixel_dominates(self):
        from hdrkit.camera import ExposureStack

        rng = np.random.default_rng(7)
        # same mild texture everywhere so contrast/saturation are comparable,
        # then shift: one image mid-gray at the probe, others black/white
        base = rng.integers(100, 140, (9, 9, 3)).astype(np.int64)
        probe = (4, 4)
        images = []
        for k, level in enumerate((0, 0, 128, 255, 255)):
            data = np.clip(base - 120 + level, 0, 255).astype(np.uint8)
            images.append(LdrImage.from_array(data, exposure=float(2**k)))
        stack = ExposureStack(images=images)
        weights = mertens_weights(stack)
        assert weights[2, probe[0], probe[1]] > 0.9

    def test_output_in_unit_range(self, small_scene):
        fused = mertens_fuse(fixed_stack(small_scene, gamma_crf(2.2)))
        assert fused.data.min() >= 0 and fused.data.max() <= 1


class TestTmqi:
    def test_s_is_one_for_identical_planes(self, small_scene):
        lum = luminance(small_scene.data).astype(np.float64)
        assert structural_fidelity(lum, lum) == pytest.approx(1.0, abs=1e-6)

    def test_s_is_one_for_affine_rescale(self, small_scene):
        lum = luminance(small_scene.data).astype(np.float64)
        assert structural_fidelity(lum, 0.25 * lum + 3.0) == pytest.approx(1.0, abs=1e-6)

    def test_q_is_one_when_s_and_n_are_one(self):
        from hdrkit.tmo import DEFAULT_TMQI

        a = DEFAULT_TMQI.a
        assert a * 1.0**DEFAULT_TMQI.alpha + (1 - a) * 1.0**DEFAULT_TMQI.beta == 1.0

    def test_score_in_unit_range(self, small_scene):
        tm = reinhard_global(small_scene)
        score = tmqi(small_scene, tm)
        assert 0 <= score.S <= 1 and 0 <= score.N <= 1 and 0 <= score.Q <= 1

    def test_transpose_invariance(self, small_scene):
        tm = reinhard_global(small_scene)
        s1 = tmqi(small_scene, tm)
        mt = RadianceMap.from_array(np.transpose(small_scene.data, (1, 0, 2)))
        tt = ToneMap.from_array(np.transpose(tm.data, (1, 0, 2)))
        s2 = tmqi(mt, tt)
        assert s1.Q == pytest.approx(s2.Q, abs=1e-8)

    def test_cross_check_against_reference_implementation(self):
        # designated shared pair: 198x198 blob scene, global photographic TMO
        scene = synth_scenes(3, 198, seed=1)[1]
        norm, _ = normalize_hdr(scene)
        tm = reinhard_global(norm)
        q_ref, _, n_ref = reference_tmqi(norm.data.astype(np.float64), tm.data.astype(np.float64))
        mine = tmqi(norm, tm)
        assert mine.N == pytest.approx(n_ref, abs=1e-6)  # same naturalness model
        assert abs(mine.Q - q_ref) < 0.02


def _scipy_naturalness(lum, c=DEFAULT_TMQI):
    """N from the scipy.stats densities, each divided by its value at the mode."""
    blocks = lum.reshape(lum.shape[0] // 11, 11, lum.shape[1] // 11, 11)
    u, sig = lum.mean(), blocks.std(axis=(1, 3)).mean()
    a, b = c.nat_std_shape1, c.nat_std_shape2
    mode = (a - 1.0) / (a + b - 2.0)
    p_mean = norm_dist.pdf(u, c.nat_mean_mu, c.nat_mean_sigma) / norm_dist.pdf(
        c.nat_mean_mu, c.nat_mean_mu, c.nat_mean_sigma
    )
    p_std = beta_dist.pdf(sig / c.nat_std_scale, a, b) / beta_dist.pdf(mode, a, b)
    return float(np.clip(p_mean * p_std, 0.0, 1.0)), sig / c.nat_std_scale


class TestNaturalnessPriors:
    @pytest.mark.parametrize("mean", [0.0, 128.0, 200.0])
    @pytest.mark.parametrize("x", [0.0, 1e-3, 0.1, 0.3024, 0.5, 0.9, 0.999, 1.0, 1.2, 3.0])
    def test_matches_scipy_stats(self, mean, x):
        # four 11x11 blocks, each standardized, so the mean block std is x * scale
        z = np.random.default_rng(7).standard_normal((22, 22)).reshape(2, 11, 2, 11)
        z = (z - z.mean(axis=(1, 3), keepdims=True)) / z.std(axis=(1, 3), keepdims=True)
        lum = mean + x * DEFAULT_TMQI.nat_std_scale * z.reshape(22, 22)
        expected, x_seen = _scipy_naturalness(lum)
        got = statistical_naturalness(lum)
        assert abs(got - expected) <= 1e-12
        if not 0.0 < x_seen < 1.0:
            assert got == 0.0

    def test_import_leaves_scipy_stats_out(self):
        code = "import sys, hdrkit, hdrkit.cli; sys.exit('scipy.stats' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(hdrkit.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
        assert proc.returncode == 0


class TestSelectBest:
    def test_single_operator(self, small_scene):
        tm, op, score, scores = select_best_tmo(small_scene, operators=("drago",))
        assert op == "drago" and len(scores) == 1

    def test_argmax_matches_recomputation(self, small_scene):
        crf = gamma_crf(2.2)
        tm, op, score, scores = select_best_tmo(small_scene, crf=crf)
        recomputed = {}
        for name in ("reinhard", "drago", "mertens"):
            from hdrkit.tmo import apply_operator

            t = apply_operator(small_scene, name, crf=crf)
            recomputed[name] = tmqi(small_scene, t).Q
        assert score.Q == max(recomputed.values())
        assert recomputed[op] == score.Q

    def test_tie_keeps_list_order(self, small_scene):
        # duplicated operator: identical scores, first entry wins
        tm, op, score, scores = select_best_tmo(small_scene, operators=("drago", "drago"))
        assert op == "drago" and scores[0][1].Q == scores[1][1].Q

    def test_requires_operator(self, small_scene):
        with pytest.raises(ParameterError):
            select_best_tmo(small_scene, operators=())
