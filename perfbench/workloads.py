"""The three benchmark workloads, each driving hdrkit through its public API.

A workload builds its inputs from the seed in its constructor (the set-up
that `setup_s` times), then runs units of work: one unit is a training round
(train) or one image (infer, classical).  `unit()` returns one `Op` per
SGD step or image, timing only the library work; the correctness checks run
after the clock stops, with tracing paused.

Every workload is a closed loop with a single caller and no threads of its
own; BLAS keeps its default thread count.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from rle import rle_from_flat

KINDS = ("gradient", "blobs", "checker")
# Not multiples of 64, and all tile to 3x2 patches of 64, so inference cost
# per image stays close while the padding share varies.
SIZES = ((150, 110), (181, 97), (133, 126))
TINY_SIZES = ((70, 66), (81, 70), (66, 77))
CRF_GAMMA = 2.2
WELL_EXPOSED = (64, 191)  # codes whose hat weight is at least 64
MERGE_RTOL = 0.05  # 8-bit codes of 64 and up under gamma 2.2 stay near 2%


@dataclass
class Op:
    seconds: float
    mpix: float
    failed: bool
    kind: str = "image"  # ops of one kind do the same work on same-sized inputs


@contextmanager
def _paused(tracer):
    """Suspends span recording for benchmark-side work such as checks."""
    if tracer is None:
        yield
        return
    tracer.paused = True
    try:
        yield
    finally:
        tracer.paused = False


def median_op_seconds(ops) -> float:
    """Median op time, averaged over op kinds (train's two nets differ)."""
    kinds = sorted({op.kind for op in ops})
    return statistics.fmean(
        statistics.median(op.seconds for op in ops if op.kind == kind) for kind in kinds)


class Check:
    """Collects failed correctness conditions for one unit of work."""

    def __init__(self) -> None:
        self.errors: list[str] = []

    def that(self, ok, what: str) -> None:
        if not bool(ok):
            self.errors.append(what)


def _pool(hk, rng, sizes):
    """One scene per (size, kind) pair, in a fixed order."""
    return [
        hk.synth.synth_scene(KINDS[j // len(sizes) % len(KINDS)], *sizes[j % len(sizes)], rng)
        for j in range(len(sizes) * len(KINDS))
    ]


def _to_ldr(hk, tm):
    codes = hk.imgproc.round_half_up(255.0 * np.clip(tm.data, 0.0, 1.0)).astype(np.uint8)
    return hk.image_io.LdrImage(width=tm.width, height=tm.height, data=codes)


class Train:
    """SGD on the paper's two conv shapes, through both trainer paths.

    Each round trains a fresh copy of the ldr2hdr "R" net (5->60 3x3 conv)
    for two epochs with K=1, then the tonemap "L_base" net (1->100 3x3 conv)
    for two epochs with K=2, so `ParallelTrainer` runs two shards.  Every
    epoch is one batch of 40 patches of 64x64 in f32 with dropout 0.4, and
    every round repeats the same computation, so a seed fixes each loss.
    """

    name = "train"
    EPOCHS = 2
    min_units = 3  # rounds, so that medians over rounds shrug off one slow round
    group = 1  # units per throughput sample
    cycle = 1  # units per pass over the inputs

    def __init__(self, hk, seed: int, tiny: bool) -> None:
        self.hk = hk
        pl, nn = hk.pipeline, hk.nn
        batch = 4 if tiny else 40
        scenes_n = batch // 4  # 128x128 scenes give four 64x64 patches each
        rng = np.random.default_rng(seed)
        scenes = [hk.synth.synth_scene(KINDS[i % 3], 128, 128, rng) for i in range(scenes_n)]
        crf = hk.camera.gamma_crf(CRF_GAMMA)
        self.segments = []
        for arch, workers in (("ldr2hdr", 1), ("tonemap", 2)):
            cfg = pl.TrainConfig(seed=seed, workers=workers, batch_size=batch)
            if arch == "ldr2hdr":
                channel = "R"
                samples = pl.build_ldr2hdr_samples(scenes, crf, cfg)[channel]
                spec = pl.build_ldr2hdr_net(channel, seed, cfg.dropout_p)
            else:
                channel = "L_base"
                samples = pl.build_tonemap_samples(scenes, cfg, crf=crf)[0][channel]
                spec = pl.build_tonemap_net(channel, seed, cfg.dropout_p)
            net = nn.Network(spec, dtype=cfg.numpy_dtype())
            self.segments.append((f"{arch}_{channel}", cfg, samples, net))
        self.patch = cfg.patch
        self.loss_end: dict[str, float] = {}
        self.inputs = {
            "scenes": f"{scenes_n} x 128x128",
            "patches": batch,
            "patch": self.patch,
            "batch_size": batch,
            "epochs_per_round": self.EPOCHS,
            "segments": [{"net": n, "K": c.workers, "dtype": c.dtype, "dropout_p": c.dropout_p}
                         for n, c, _, _ in self.segments],
        }

    def warmup(self) -> None:
        """One untimed SGD step, so the first timed round does not pay for
        the process's first large allocations."""
        _, cfg, samples, pristine = self.segments[0]
        self.hk.pipeline.train(pristine.clone(), samples, cfg, epochs=1)

    def unit(self, index: int, tracer) -> tuple[list[Op], list[str]]:
        ops, errors = [], []
        for label, cfg, samples, pristine in self.segments:
            with _paused(tracer):
                net = pristine.clone()
            steps = self.EPOCHS * -(-samples[0].shape[0] // cfg.batch_size)
            mpix = cfg.batch_size * self.patch * self.patch / 1e6
            start = time.perf_counter()
            try:
                state = self.hk.pipeline.train(net, samples, cfg, epochs=self.EPOCHS)
            except Exception as exc:  # a failed op is counted, the run goes on
                errors.append(f"{label}: {type(exc).__name__}: {exc}")
                ops += [Op(time.perf_counter() - start, 0.0, True, label)] * steps
                continue
            seconds = (time.perf_counter() - start) / steps
            losses = [row[1] for row in state.curve]
            check = Check()
            check.that(all(np.isfinite(losses)), f"{label}: non-finite loss {losses}")
            check.that(losses[-1] < losses[0], f"{label}: loss did not fall {losses}")
            self.loss_end.setdefault(label, losses[-1])
            errors += check.errors
            ops += [Op(seconds, mpix, bool(check.errors), label)] * steps
        return ops, errors


class _Images:
    """A pool of one image per (size, scene kind), run one image per unit."""

    min_units = 1
    group = len(SIZES)  # one image of each size per throughput sample

    def __init__(self, hk, seed: int, tiny: bool) -> None:
        self.hk = hk
        self.sizes = TINY_SIZES if tiny else SIZES
        self.scenes = _pool(hk, np.random.default_rng(seed), self.sizes)
        self.cycle = len(self.scenes)

    def warmup(self) -> None:
        self.unit(0, None)


class Infer(_Images):
    """Both learned inference paths on every image, with file codecs around them.

    Each image's exposure stack is decoded from PPMs and its normalized map
    from PFM, then run through `infer_ldr2hdr` (3 nets) and `infer_tonemap`
    (4 nets, after the bilateral base/detail split), and both outputs are
    encoded.  Nets run forward only: eval-mode batchnorm, no dropout, one
    partial batch of 6 tiles per image and channel.
    """

    name = "infer"

    def __init__(self, hk, seed: int, tiny: bool) -> None:
        super().__init__(hk, seed, tiny)
        pl, io, nn = hk.pipeline, hk.image_io, hk.nn
        crf = hk.camera.gamma_crf(CRF_GAMMA)
        self.items = []
        for scene in self.scenes:
            norm, _ = pl.normalize_hdr(scene)
            stack = hk.camera.fixed_stack(norm, crf)
            ppms = [(io.write_ppm(img), img.exposure) for img in stack.images]
            self.items.append((ppms, io.write_pfm(norm)))
        self.nets = {}
        for build, channels in ((pl.build_ldr2hdr_net, pl.LDR2HDR_CHANNELS),
                                (pl.build_tonemap_net, pl.TONEMAP_CHANNELS)):
            for channel in channels:
                blob = nn.save_checkpoint(nn.Network(build(channel, seed)))
                self.nets[channel] = nn.load_checkpoint(blob)[0]
        self.inputs = {
            "sizes": [f"{w}x{h}" for w, h in self.sizes],
            "kinds": list(KINDS),
            "images_per_cycle": self.cycle,
            "patch": 64,
            "batch_size": 16,
            "nets": len(self.nets),
            "dtype": "f32",
        }

    def unit(self, index: int, tracer) -> tuple[list[Op], list[str]]:
        hk = self.hk
        pl, io = hk.pipeline, hk.image_io
        ppms, pfm = self.items[index % len(self.items)]
        nets = self.nets
        start = time.perf_counter()
        try:
            images = []
            for blob, exposure in ppms:
                img = io.read_ppm(blob)
                img.exposure = exposure  # the sidecar value
                images.append(img)
            stack = hk.camera.ExposureStack(images=images)
            m = io.read_pfm(pfm)
            radiance = pl.infer_ldr2hdr({c: nets[c] for c in pl.LDR2HDR_CHANNELS}, stack)
            tone = pl.infer_tonemap({c: nets[c] for c in pl.TONEMAP_CHANNELS}, m)
            encoded = (io.write_pfm(radiance), io.write_ppm(_to_ldr(hk, tone)))
        except Exception as exc:
            return [Op(time.perf_counter() - start, 0.0, True)], [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        check = Check()
        with _paused(tracer):
            check.that(np.all(np.isfinite(radiance.data)) and np.all(radiance.data >= 0),
                       "radiance not finite and non-negative")
            check.that(np.all((tone.data >= 0) & (tone.data <= 1)), "tone map outside [0, 1]")
            check.that(all(len(b) > 0 for b in encoded), "empty encoded output")
            _, tiles = pl.extract_patches(pl.stack_channel_planes(stack, 0), 64)
            direct = np.maximum(nets["R"].forward(tiles[:1], train=False)[0, 0], 0.0)
            tiled = radiance.data[:64, :64, 0]
            check.that(np.allclose(tiled, direct, rtol=1e-4, atol=1e-5 * float(np.abs(direct).max())),
                       "tile 0 differs from a direct Network.forward")
        mpix = m.width * m.height / 1e6
        return [Op(seconds, mpix, bool(check.errors))], check.errors


class Classical(_Images):
    """The non-learned chain on every image: no nn and no bilateral work.

    Decode an RLE .hdr and normalize it, build the fixed and adaptive stacks,
    round-trip every exposure through PPM, merge the fixed stack, select the
    best of three tone maps by TMQI, and encode PFM, PPM and .hdr outputs.
    """

    name = "classical"

    def __init__(self, hk, seed: int, tiny: bool) -> None:
        super().__init__(hk, seed, tiny)
        io = hk.image_io
        self.crf = hk.camera.gamma_crf(CRF_GAMMA)
        self.ladder = hk.camera.geometric_ladder()
        self.items = []
        for scene in self.scenes:
            flat = io.encode_hdr(scene)
            self.items.append((rle_from_flat(flat), io.decode_hdr(flat).data))
        self.inputs = {
            "sizes": [f"{w}x{h}" for w, h in self.sizes],
            "kinds": list(KINDS),
            "images_per_cycle": self.cycle,
            "hdr_bytes_per_cycle": sum(len(b) for b, _ in self.items),
            "crf": f"gamma{CRF_GAMMA}",
            "ladder": len(self.ladder),
        }

    def unit(self, index: int, tracer) -> tuple[list[Op], list[str]]:
        hk = self.hk
        cam, io = hk.camera, hk.image_io
        rle, flat_data = self.items[index % len(self.items)]
        start = time.perf_counter()
        try:
            m = io.decode_hdr(rle)
            norm, _ = hk.pipeline.normalize_hdr(m)
            fixed = cam.fixed_stack(norm, self.crf)
            adaptive = cam.adaptive_stack(norm, self.crf, self.ladder)
            round_trips = []
            for img in fixed.images + adaptive.images:
                back = io.read_ppm(io.write_ppm(img))
                back.exposure = img.exposure
                round_trips.append((img, back))
            stack = cam.ExposureStack(images=[b for _, b in round_trips[:len(fixed.images)]])
            merged = hk.merge.debevec_merge(stack, self.crf)
            tone, _, _, scores = hk.tmo.select_best_tmo(norm, crf=self.crf)
            pfm = io.write_pfm(merged)
            encoded = (pfm, io.write_ppm(_to_ldr(hk, tone)), io.encode_hdr(merged))
        except Exception as exc:
            return [Op(time.perf_counter() - start, 0.0, True)], [f"{type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - start
        check = Check()
        with _paused(tracer):
            check.that(np.array_equal(m.data, flat_data), "RLE decode differs from flat decode")
            check.that(all(np.array_equal(a.data, b.data) for a, b in round_trips),
                       "PPM round trip not bitwise")
            check.that(np.array_equal(io.read_pfm(pfm).data, merged.data), "PFM round trip not bitwise")
            check.that(all(len(b) > 0 for b in encoded), "empty encoded output")
            codes = np.stack([img.data for img in stack.images])
            lo, hi = WELL_EXPOSED
            good = np.any((codes >= lo) & (codes <= hi), axis=0)
            err = np.abs(merged.data - norm.data)[good]
            check.that(good.any() and np.all(err <= MERGE_RTOL * norm.data[good]),
                       "merge misses the normalized radiance on well-exposed pixels")
            check.that(all(0.0 <= v <= 1.0 for _, s in scores for v in (s.S, s.N, s.Q)),
                       "TMQI score outside [0, 1]")
        return [Op(seconds, m.width * m.height / 1e6, bool(check.errors))], check.errors


WORKLOADS = {w.name: w for w in (Train, Infer, Classical)}
