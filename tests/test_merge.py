import numpy as np
import pytest

from hdrkit.camera import ExposureStack, expose, fixed_stack, gamma_crf
from hdrkit.image_io import LdrImage, RadianceMap
from hdrkit.merge import debevec_merge, hat_weight
from hdrkit.pipeline import normalize_hdr
from hdrkit.synth import synth_scenes


class TestHatWeight:
    def test_endpoints_zero(self):
        w = hat_weight()
        assert w[0] == 0 and w[255] == 0

    def test_peak_values(self):
        w = hat_weight()
        assert w[127] == 127 and w[128] == 127

    def test_symmetry(self):
        w = hat_weight()
        assert np.array_equal(w, w[::-1])


class TestDebevecMerge:
    def test_round_trip_on_synthetic_scene(self, identity_crf):
        scene = synth_scenes(1, 32, seed=3)[0]
        norm, _ = normalize_hdr(scene)
        stack = fixed_stack(norm, identity_crf)
        rec = debevec_merge(stack, identity_crf)
        codes = np.stack([img.data for img in stack.images])
        mid = np.any((codes >= 20) & (codes <= 235), axis=0)
        # per-pixel quantization bound: half a code per contributing exposure
        w = hat_weight()
        bound = np.zeros_like(norm.data, dtype=np.float64)
        for img in stack.images:
            bound += (w[img.data] > 0) / (255.0 * img.exposure)
        err = np.abs(rec.data.astype(np.float64) - norm.data)
        assert np.all(err[mid] <= bound[mid])

    def test_single_image_stack_exact(self, identity_crf):
        # weights concentrated on one image: others all black or all saturated
        rng = np.random.default_rng(8)
        mid_codes = rng.integers(30, 220, (6, 6, 3), dtype=np.uint8)
        images = [
            LdrImage.from_array(np.zeros((6, 6, 3), np.uint8), exposure=1.0),
            LdrImage.from_array(np.zeros((6, 6, 3), np.uint8), exposure=8.0),
            LdrImage.from_array(mid_codes, exposure=64.0),
            LdrImage.from_array(np.full((6, 6, 3), 255, np.uint8), exposure=512.0),
            LdrImage.from_array(np.full((6, 6, 3), 255, np.uint8), exposure=4096.0),
        ]
        rec = debevec_merge(ExposureStack(images=images), identity_crf)
        expected = mid_codes.astype(np.float64) / 255.0 / 64.0
        assert np.array_equal(rec.data.astype(np.float64), expected.astype(np.float32).astype(np.float64))

    def test_all_saturated_fallback(self, identity_crf):
        m = RadianceMap.from_array(np.full((3, 3, 3), 5.0, np.float32))
        stack = fixed_stack(m, identity_crf)
        assert all(np.all(img.data == 255) for img in stack.images)
        rec = debevec_merge(stack, identity_crf)
        mid = stack.images[2]
        assert np.allclose(rec.data, 1.0 / mid.exposure)

    def test_scale_equivariance(self, identity_crf):
        rng = np.random.default_rng(5)
        base = rng.uniform(0.01, 0.4, (8, 8, 3)).astype(np.float32)
        alpha = 2.0
        stacks = [
            fixed_stack(RadianceMap.from_array(d), identity_crf)
            for d in (base, alpha * base)
        ]
        rec1 = debevec_merge(stacks[0], identity_crf).data.astype(np.float64)
        rec2 = debevec_merge(stacks[1], identity_crf).data.astype(np.float64)
        assert np.abs(rec2 - alpha * rec1).max() <= 2.0 / 255.0

    def test_output_non_negative_finite(self, identity_crf, rng):
        m = RadianceMap.from_array((rng.random((10, 10, 3)) * 2).astype(np.float32))
        rec = debevec_merge(fixed_stack(m, identity_crf), identity_crf)
        assert np.all(np.isfinite(rec.data)) and np.all(rec.data >= 0)

    def test_duplicate_exposure_changes_little(self, identity_crf):
        rng = np.random.default_rng(12)
        m = RadianceMap.from_array(rng.uniform(0.001, 0.9, (8, 8, 3)).astype(np.float32))
        crf = identity_crf
        times = [1.0, 8.0, 64.0, 512.0, 4096.0]
        images = [expose(m, dt, crf) for dt in times]
        rec1 = debevec_merge(ExposureStack(images=images), crf).data.astype(np.float64)
        # nudge the duplicate's exposure so the stack stays strictly increasing;
        # the new estimates match the 64.0 image's to within quantization
        dup = expose(m, 64.0, crf)
        dup.exposure = 64.000001
        images2 = images[:3] + [dup] + images[3:]
        stack2 = ExposureStack.__new__(ExposureStack)
        stack2.images = images2
        rec2 = debevec_merge(stack2, crf).data.astype(np.float64)
        assert np.abs(rec2 - rec1).max() <= 1.0 / 255.0

    def test_gamma_crf_round_trip(self):
        crf = gamma_crf(2.2)
        scene = synth_scenes(1, 32, seed=9)[0]
        norm, _ = normalize_hdr(scene)
        stack = fixed_stack(norm, crf)
        rec = debevec_merge(stack, crf)
        codes = np.stack([img.data for img in stack.images])
        mid = np.any((codes >= 20) & (codes <= 235), axis=0)
        err = np.abs(rec.data.astype(np.float64) - norm.data)
        # nonlinear CRF widens the per-code cells; allow 4 half-cells at the
        # best exposure, which the piecewise-linear inversion stays within
        assert np.quantile(err[mid] / np.maximum(norm.data[mid], 1e-6), 0.99) < 0.1
