"""The in-place classical kernels against their earlier implementations, bit
for bit, and the working memory each call is allowed."""

import tracemalloc

import classical_reference as ref
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdrkit.camera import (
    FIXED_EXPOSURES,
    STACK_SIZE,
    Crf,
    ExposureStack,
    adaptive_stack,
    adaptive_window,
    expose,
    fixed_stack,
    gamma_crf,
    geometric_ladder,
)
from hdrkit.image_io import RadianceMap, encode_hdr
from hdrkit.imgproc import _LAB_DELTA3, entropy, luminance, rgb_to_lab
from hdrkit.merge import debevec_merge
from hdrkit.pipeline import normalize_hdr
from hdrkit.synth import synth_scenes
from hdrkit.tmo import (
    OPERATORS,
    drago,
    mertens_fuse,
    mertens_weights,
    reinhard_global,
    select_best_tmo,
    structural_fidelity,
)

PROPERTIES = settings(max_examples=60, deadline=None)

_GRID = np.arange(256) / 255.0
CRFS = {
    "gamma1": gamma_crf(1.0),
    "gamma2.2": gamma_crf(2.2),
    # a different curve per channel, the last with flat runs at both ends
    "per-channel": Crf(
        forward=np.stack([_GRID, _GRID ** (1 / 2.2), np.clip(2.0 * _GRID - 0.5, 0.0, 1.0)], axis=1),
    ),
}
# 1/255 puts the integer radiances 0..255 on the code grid x = i/255 (232 of
# them exactly); 4**9 and 1e30 saturate to x = 1.0.
DTS = (1.0 / 255.0, 1.0, 8.0, 4.0**9, 1e30)


@st.composite
def radiance_maps(draw, min_side=2):
    """Each value is zero, an integer 0..255 or log-uniform in [1e-6, 1e4]."""
    h = draw(st.integers(min_side, 24))
    w = draw(st.integers(min_side, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 3, (h, w, 3))
    ints = rng.integers(0, 256, (h, w, 3))
    logs = 10.0 ** rng.uniform(-6.0, 4.0, (h, w, 3))
    data = np.select([kind == 0, kind == 1], [0.0, ints], logs).astype(np.float32)
    return RadianceMap.from_array(data)


def _zeros(h, w):
    return RadianceMap.from_array(np.zeros((h, w, 3), np.float32))


def _grid_hits(h, w):
    return RadianceMap.from_array(
        (np.arange(h * w * 3) % 256).reshape(h, w, 3).astype(np.float32)
    )


def _lab_edges():
    """Zeros, values around the CIE L* branch point and values above 1."""
    d3 = _LAB_DELTA3
    values = [0.0, d3 / 2, np.nextafter(d3, 0.0), d3, np.nextafter(d3, 1.0), 0.5, 1.0, 2.0, 1e4]
    grid = np.array(np.meshgrid(values, values, values)).reshape(3, -1).T
    return RadianceMap.from_array(grid.reshape(len(values) ** 2, len(values), 3).astype(np.float32))


def _rgbe_edges():
    """Every mix of channel values at and around the RGBE zero threshold,
    and up to the float32 maximum."""
    values = np.array([0.0, 1e-33, 1e-32, 2e-32, 1.0, 255.0, 3e38, np.finfo(np.float32).max],
                      np.float32)
    grid = np.stack(np.meshgrid(values, values, values, indexing="ij"), axis=-1)
    return RadianceMap.from_array(grid.reshape(8, 64, 3))


exposure_times = st.one_of(st.sampled_from(DTS), st.floats(1e-6, 1e6))
crf_names = st.sampled_from(sorted(CRFS))


def _reference_stack(m, crf, times):
    return ExposureStack(images=[ref.expose(m, dt, crf) for dt in times])


def _reference_scores(m, crf):
    """Each operator's tone map and its whole TMQI score, the earlier way."""
    tms = {
        "reinhard": reinhard_global(m),
        "drago": drago(m),
        "mertens": ref.mertens_fuse(_reference_stack(m, crf, FIXED_EXPOSURES)),
    }
    return tms, [(name, ref.tmqi(m, tms[name])) for name in OPERATORS]


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _hex(score):
    return (score.S.hex(), score.N.hex(), score.Q.hex())


class TestBitwiseAgainstReference:
    @PROPERTIES
    @given(radiance_maps(), exposure_times, crf_names)
    @example(_zeros(3, 4), 8.0, "gamma2.2")
    @example(_grid_hits(16, 16), 1.0 / 255.0, "gamma1")
    @example(_grid_hits(16, 16), 1.0 / 255.0, "per-channel")
    @example(_grid_hits(5, 7), 1e30, "per-channel")
    def test_expose(self, m, dt, crf_name):
        crf = CRFS[crf_name]
        got, want = expose(m, dt, crf), ref.expose(m, dt, crf)
        assert _same_array(got.data, want.data)
        assert got.exposure == want.exposure and (got.width, got.height) == (want.width, want.height)

    @PROPERTIES
    @given(radiance_maps())
    @example(_zeros(3, 4))
    @example(_grid_hits(16, 16))
    def test_reinhard_and_drago(self, m):
        assert _same_array(reinhard_global(m).data, ref.reinhard_global(m).data)
        assert _same_array(drago(m).data, ref.drago(m).data)

    @PROPERTIES
    @given(radiance_maps())
    @example(_zeros(3, 4))
    @example(_lab_edges())
    def test_rgb_to_lab(self, m):
        got, want = rgb_to_lab(m.data), ref.rgb_to_lab(m.data)
        for name in ("L", "a", "b"):
            assert _same_array(getattr(got, name), getattr(want, name)), name

    @PROPERTIES
    @given(radiance_maps())
    @example(_zeros(3, 4))
    @example(_rgbe_edges())
    def test_encode_hdr(self, m):
        assert encode_hdr(m) == ref.encode_hdr(m)

    @PROPERTIES
    @given(radiance_maps(), st.lists(exposure_times, min_size=8, max_size=8), crf_names)
    @example(_zeros(4, 4), list(DTS) + [2.0, 3.0, 4.0], "gamma1")
    @example(_grid_hits(12, 11), list(DTS) + [2.0, 3.0, 4.0], "per-channel")
    def test_merge_and_mertens(self, m, times, crf_name):
        times = sorted(set(times))[:STACK_SIZE]
        if len(times) < STACK_SIZE:
            times = FIXED_EXPOSURES
        crf = CRFS[crf_name]
        stack = _reference_stack(m, crf, times)
        assert _same_array(debevec_merge(stack, crf).data, ref.debevec_merge(stack, crf).data)
        assert _same_array(mertens_weights(stack), ref.mertens_weights(stack))
        assert _same_array(mertens_fuse(stack).data, ref.mertens_fuse(stack).data)

    @PROPERTIES
    @given(radiance_maps(min_side=11), crf_names)
    @example(_zeros(11, 11), "gamma2.2")
    @example(_grid_hits(16, 16), "per-channel")
    def test_select_scores_every_operator_as_before(self, m, crf_name):
        crf = CRFS[crf_name]
        tm, op, score, scores = select_best_tmo(m, crf=crf)
        want_tms, want = _reference_scores(m, crf)
        assert [(name, _hex(s)) for name, s in scores] == [(name, _hex(s)) for name, s in want]
        best = max(want, key=lambda item: item[1].Q)  # the first of equal Q wins
        assert op == best[0] and _hex(score) == _hex(best[1])
        assert _same_array(tm.data, want_tms[op].data)
        lum_hdr = luminance(m.data).astype(np.float64)
        for name, want_tm in want_tms.items():
            lum_tm = luminance(want_tm.data).astype(np.float64) * 255.0
            got = structural_fidelity(lum_hdr, lum_tm)
            assert got.hex() == ref.structural_fidelity(lum_hdr, lum_tm).hex(), name


@pytest.mark.parametrize("crf_name", sorted(CRFS))
def test_scenes_match_reference(crf_name, small_scene):
    """Stacks, the adaptive window, the merge, Mertens and the TMQI choice on
    synthetic scenes of every kind."""
    crf = CRFS[crf_name]
    scenes = [normalize_hdr(s)[0] for s in synth_scenes(3, 40, seed=7)] + [small_scene]
    ladder = geometric_ladder()
    for m in scenes:
        fixed = fixed_stack(m, crf)
        want_fixed = _reference_stack(m, crf, FIXED_EXPOSURES)
        for got, want in zip(fixed.images, want_fixed.images):
            assert _same_array(got.data, want.data)

        adaptive = adaptive_stack(m, crf, ladder)
        exposed = [ref.expose(m, dt, crf) for dt in ladder.times]
        window = adaptive_window([entropy(img) for img in exposed], len(ladder))
        assert [img.exposure for img in adaptive.images] == [ladder.times[i] for i in window]
        for got, i in zip(adaptive.images, window):
            assert _same_array(got.data, exposed[i].data)

        assert _same_array(debevec_merge(fixed, crf).data, ref.debevec_merge(want_fixed, crf).data)
        assert _same_array(mertens_fuse(fixed).data, ref.mertens_fuse(want_fixed).data)
        _, op, score, scores = select_best_tmo(m, crf=crf)
        _, want = _reference_scores(m, crf)
        assert [(name, _hex(s)) for name, s in scores] == [(name, _hex(s)) for name, s in want]
        assert op == max(want, key=lambda item: item[1].Q)[0]


class TestWorkingMemory:
    """Peak traced memory of one call, in f64 images of the input's size."""

    SHAPE = (110, 150, 3)  # the classical benchmark's 150x110 scene

    @staticmethod
    def _peak_images(call, shape):
        call()  # first-call allocations (lookup tables, caches) stay out
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (np.prod(shape) * 8)

    def _map(self):
        rng = np.random.default_rng(3)
        return RadianceMap.from_array((rng.random(self.SHAPE) * 3.0).astype(np.float32))

    def test_expose_stays_within_two_images(self):
        # one f64 working buffer, the uint8 result and np.interp's per-channel
        # plane; the earlier implementation reached four
        m, crf = self._map(), gamma_crf(2.2)
        assert self._peak_images(lambda: expose(m, 8.0, crf), self.SHAPE) <= 2.0

    def test_debevec_merge_stays_within_two_and_a_half_images(self):
        # the f32 result plus four per-channel planes; the earlier
        # implementation reached seven on this 5-image stack
        m, crf = self._map(), gamma_crf(2.2)
        stack = fixed_stack(m, crf)
        assert self._peak_images(lambda: debevec_merge(stack, crf), self.SHAPE) <= 2.5

    @pytest.mark.parametrize("operator", [reinhard_global, drago])
    def test_global_operators_stay_within_three_images(self, operator):
        # the caller's f64 copy scaled in place, its f32 result and the
        # luminance planes; the earlier implementation reached 4.34
        m = self._map()
        assert self._peak_images(lambda: operator(m), self.SHAPE) <= 3.0

    def test_encode_hdr_stays_within_two_and_a_half_images(self):
        # one f64 working copy scaled in place, its per-pixel planes and the
        # RGBE bytes; the earlier implementation reached 4.5
        m = self._map()
        assert self._peak_images(lambda: encode_hdr(m), self.SHAPE) <= 2.5

    def test_reference_implementations_exceed_the_bounds(self):
        m, crf = self._map(), gamma_crf(2.2)
        stack = fixed_stack(m, crf)
        assert self._peak_images(lambda: ref.expose(m, 8.0, crf), self.SHAPE) > 2.0
        assert self._peak_images(lambda: ref.debevec_merge(stack, crf), self.SHAPE) > 2.5
        assert self._peak_images(lambda: ref.reinhard_global(m), self.SHAPE) > 3.0
        assert self._peak_images(lambda: ref.drago(m), self.SHAPE) > 3.0
        assert self._peak_images(lambda: ref.encode_hdr(m), self.SHAPE) > 2.5
