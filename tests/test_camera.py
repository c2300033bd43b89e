import math

import numpy as np
import pytest
from classical_reference import format_crf

from hdrkit.camera import (
    Crf,
    ExposureLadder,
    ExposureStack,
    adaptive_stack,
    adaptive_window,
    expose,
    fixed_stack,
    gamma_crf,
    geometric_ladder,
    inverse_lut,
    load_crf,
)
from hdrkit.errors import ParameterError, ValidationError
from hdrkit.image_io import LdrImage, RadianceMap
from hdrkit.imgproc import entropy


def const_map(value, size=4):
    return RadianceMap.from_array(np.full((size, size, 3), value, np.float32))


NOT_FINITE_AND_POSITIVE = [math.nan, math.inf, -math.inf, 0.0]


class TestGammaCrf:
    def test_identity_midpoint(self):
        assert gamma_crf(1.0).forward[128, 0] == 128 / 255

    def test_endpoint(self):
        assert gamma_crf(2.2).forward[255, 1] == 1.0

    def test_gamma_two_hand_value(self):
        assert gamma_crf(2.0).forward[64, 2] == pytest.approx(math.sqrt(64 / 255), abs=1e-12)
        assert gamma_crf(2.0).forward[64, 2] == pytest.approx(0.5010, abs=5e-5)

    def test_bad_gamma(self):
        with pytest.raises(ParameterError):
            gamma_crf(0.0)


class TestLoadCrf:
    def test_format_round_trip(self):
        crf = gamma_crf(2.2)
        back = load_crf(format_crf(crf))
        assert np.abs(back.forward - crf.forward).max() < 1e-9

    def test_non_monotone_rejected(self):
        crf = gamma_crf(1.0)
        table = crf.forward.copy()
        table[100, 1] = table[99, 1] - 0.05
        text_rows = [f"{i} {table[i,0]:.8f} {table[i,1]:.8f} {table[i,2]:.8f}" for i in range(256)]
        with pytest.raises(ValidationError, match="100"):
            load_crf("\n".join(text_rows))

    def test_wrong_line_count(self):
        with pytest.raises(ValidationError):
            load_crf("0 0 0 0\n1 1 1 1\n")

    @staticmethod
    def crf_text_with(row, line):
        rows = format_crf(gamma_crf(1.0)).splitlines()
        rows[row] = line
        return "\n".join(rows)

    def test_non_numeric_field_names_line(self):
        with pytest.raises(ValidationError, match="line 6"):
            load_crf(self.crf_text_with(5, "5 0.1 abc 0.1"))

    def test_nan_value_rejected(self):
        with pytest.raises(ValidationError):
            load_crf(self.crf_text_with(5, "5 nan nan nan"))

    @pytest.mark.parametrize("index", ["7", "5.5"])
    def test_bad_index_rejected(self, index):
        with pytest.raises(ValidationError, match="row 5"):
            load_crf(self.crf_text_with(5, f"{index} 0.02 0.02 0.02"))


class TestInvertCrf:
    def test_identity(self):
        assert inverse_lut(gamma_crf(1.0))[128, 0] == 128 / 255

    def test_endpoints(self):
        crf = gamma_crf(2.2)
        assert inverse_lut(crf)[0, 0] == 0.0
        assert inverse_lut(crf)[255, 2] == 1.0

    def test_gamma_two_forward_then_invert(self):
        crf = gamma_crf(2.0)
        code = int(np.floor(255 * math.sqrt(0.25) + 0.5))
        assert inverse_lut(crf)[code, 0] == pytest.approx(0.25, abs=1 / 255)

    def test_invert_forward_identity_all_codes(self):
        crf = gamma_crf(2.2)
        grid = np.arange(256) / 255.0
        for code in range(256):
            x = inverse_lut(crf)[code, 0]
            f = np.interp(x, grid, crf.forward[:, 0])
            assert abs(f - code / 255.0) < 1e-9

    def test_flat_segment_midpoint(self):
        table = np.linspace(0, 1, 256)[:, None].repeat(3, axis=1)
        table[100:111] = table[100]  # flat run at indices 100..110
        table[111:] = np.linspace(table[100, 0], 1, 146)[1:, None]
        crf = Crf(forward=np.maximum.accumulate(table, axis=0))
        v = crf.forward[105, 0]
        code = int(round(v * 255))
        got = inverse_lut(crf)[code, 0]
        assert got == pytest.approx(105 / 255, abs=1e-9)


class TestExpose:
    def test_zero_radiance_code_zero(self):
        img = expose(const_map(0.0), 64.0, gamma_crf(2.2))
        assert np.all(img.data == 0)

    def test_half_radiance_rounds_up(self):
        # identity CRF: 255 * 0.5 = 127.5 -> round-half-up -> 128
        img = expose(const_map(0.5), 1.0, gamma_crf(1.0))
        assert np.all(img.data == 128)

    def test_saturation(self):
        img = expose(const_map(2.0), 1.0, gamma_crf(2.2))
        assert np.all(img.data == 255)

    def test_monotone_in_exposure(self, rng):
        m = RadianceMap.from_array(rng.random((6, 6, 3)).astype(np.float32))
        crf = gamma_crf(2.2)
        prev = expose(m, 1.0, crf).data
        for dt in (4.0, 16.0, 64.0):
            cur = expose(m, dt, crf).data
            assert np.all(cur >= prev)
            prev = cur

    @pytest.mark.parametrize("dt", NOT_FINITE_AND_POSITIVE)
    def test_time_not_finite_and_positive_rejected(self, dt):
        with pytest.raises(ParameterError, match="finite and > 0"):
            expose(const_map(0.5), dt, gamma_crf(2.2))


class TestLadder:
    def test_length(self):
        assert len(geometric_ladder()) == 10

    def test_last_term(self):
        assert geometric_ladder().times[9] == 4**9 == 262144

    def test_ratio_four(self):
        times = geometric_ladder().times
        assert all(b / a == 4.0 for a, b in zip(times, times[1:]))

    @pytest.mark.parametrize("t", NOT_FINITE_AND_POSITIVE)
    def test_time_not_finite_and_positive_rejected(self, t):
        with pytest.raises(ValidationError, match="finite and > 0"):
            ExposureLadder(times=(1.0, 2.0, t))


class TestExposureStack:
    @pytest.mark.parametrize("t", NOT_FINITE_AND_POSITIVE)
    def test_exposure_not_finite_and_positive_rejected(self, t):
        data = np.zeros((2, 2, 3), np.uint8)
        images = [LdrImage(2, 2, data, exposure=e) for e in (1.0, 2.0, 3.0, 4.0, t)]
        with pytest.raises(ValidationError, match="finite and > 0"):
            ExposureStack(images=images)


class TestFixedStack:
    def test_exposure_list(self, small_scene, identity_crf):
        stack = fixed_stack(small_scene, identity_crf)
        assert [img.exposure for img in stack.images] == [1.0, 8.0, 64.0, 512.0, 4096.0]

    def test_dimensions_match(self, small_scene, identity_crf):
        stack = fixed_stack(small_scene, identity_crf)
        assert all(
            (img.width, img.height) == (small_scene.width, small_scene.height)
            for img in stack.images
        )

    def test_zero_map_gives_zero_stack(self, identity_crf):
        stack = fixed_stack(const_map(0.0), identity_crf)
        assert all(np.all(img.data == 0) for img in stack.images)


class TestAdaptiveStack:
    def test_window_around_interior_argmax(self):
        entropies = [1, 2, 5, 2, 1, 0.5, 0.4, 0.3, 0.2, 0.1]
        assert adaptive_window(entropies, 10) == (0, 1, 2, 3, 4)

    def test_window_at_left_edge(self):
        entropies = [9, 2, 1, 1, 1, 1, 1, 1, 1, 1]
        assert adaptive_window(entropies, 10) == (0, 1, 2, 3, 4)

    def test_window_at_right_edge(self):
        entropies = [0, 0, 0, 0, 0, 0, 0, 0, 0, 9]
        assert adaptive_window(entropies, 10) == (5, 6, 7, 8, 9)

    def test_tie_breaks_toward_smaller_exposure(self):
        entropies = [0, 0, 3, 1, 3, 0, 0, 0, 0, 0]
        assert adaptive_window(entropies, 10)[2] == 2 + 0  # centered on first max

    def test_center_matches_brute_force_sweep(self, small_scene, identity_crf):
        ladder = geometric_ladder()
        stack = adaptive_stack(small_scene, identity_crf, ladder)
        # independent recomputation of every ladder entropy
        from hdrkit.camera import expose as expose_op

        sweep = [entropy(expose_op(small_scene, dt, identity_crf)) for dt in ladder.times]
        k = int(np.argmax(sweep))
        lo = min(max(k - 2, 0), len(ladder) - 5)
        assert [img.exposure for img in stack.images] == list(ladder.times[lo : lo + 5])

    def test_always_five_strictly_increasing(self, small_scene, identity_crf):
        stack = adaptive_stack(small_scene, identity_crf, geometric_ladder())
        assert len(stack.images) == 5
        ex = [img.exposure for img in stack.images]
        assert all(b > a for a, b in zip(ex, ex[1:]))

    def test_deterministic(self, small_scene, identity_crf):
        s1 = adaptive_stack(small_scene, identity_crf, geometric_ladder())
        s2 = adaptive_stack(small_scene, identity_crf, geometric_ladder())
        assert [a.exposure for a in s1.images] == [b.exposure for b in s2.images]
        assert all(np.array_equal(a.data, b.data) for a, b in zip(s1.images, s2.images))

    def test_short_ladder_rejected(self, small_scene, identity_crf):
        with pytest.raises(ParameterError):
            adaptive_stack(small_scene, identity_crf, ExposureLadder(times=(1.0, 2.0, 4.0)))
