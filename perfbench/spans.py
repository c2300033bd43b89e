"""In-memory span tracing of hdrkit's public functions, from outside the library.

`Tracer.install` replaces each traced function or method with a wrapper that
records one span ``(name, start, end, parent, op)``.  A function is replaced
wherever hdrkit modules hold it, because callers such as ``hdrkit.pipeline``
import ``sgd_step`` or ``bilateral_filter`` by name.  `Tracer.uninstall`
restores the originals, so untraced runs execute the library unchanged.

Spans stay in memory until the run ends; `Tracer.self_times` then folds
them into self times (a span's duration minus the time its child spans
cover), and layers.py turns those and the exact counts into metrics.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

BILATERAL_SIGMA_TRUNCATION = 3.0  # hdrkit's window radius is ceil(3 * sigma_s)

# Span names, grouped by the hdrkit module (layer) that owns them.
LAYERS = ("nn", "pipeline", "imgproc", "camera", "merge", "tmo", "image_io", "synth")


def _conv_name(suffix):
    def name(args):
        return ("nn.conv3x3" if args[0].ksize == 3 else "nn.conv1x1") + suffix
    return name


def _conv_flops(factor):
    # Multiply-adds of a stride-1 convolution, two flops each.  Backward
    # computes both dW and dX, so it counts twice the forward.
    def count(args, result):
        conv = args[0]
        out_ch, in_ch, k, _ = conv.w.shape
        shape = args[1].shape  # forward: x (N, C, H, W); backward: dy (N, O, H, W)
        flops = factor * 2 * shape[0] * shape[2] * shape[3] * out_ch * in_ch * k * k
        key = "nn.conv3x3.flop" if k == 3 else "nn.conv1x1.flop"
        return ((key, flops),)
    return count


def _patch_pixels(args, result):
    grid, _ = result
    computed = grid.count * grid.patch * grid.patch
    return (("pipeline.patches.computed_px", computed),
            ("pipeline.patches.output_px", grid.height * grid.width))


def _bilateral_work(args, result):
    plane, sigma_s = args[0], args[1]
    side = 2 * math.ceil(BILATERAL_SIGMA_TRUNCATION * sigma_s) + 1
    px = plane.shape[0] * plane.shape[1]
    return (("imgproc.bilateral.calls", 1), ("imgproc.bilateral.px", px),
            ("imgproc.bilateral.evals", px * side * side))


def _adaptive_kept(args, result):
    return (("camera.adaptive.kept", len(result.images)),
            ("camera.adaptive.exposed", len(args[2])))


def _select_kept(args, result):
    return (("tmo.select.kept", 1), ("tmo.select.scored", len(result[3])))


def _decoded_bytes(args, result):
    return (("image_io.decode_hdr.bytes", len(args[0])),)


def _one(key):
    return lambda args, result: ((key, 1),)


def targets(hdrkit):
    """(owner, attribute, span name or naming function, counter) for each wrap."""
    nn, pl, ip = hdrkit.nn, hdrkit.pipeline, hdrkit.imgproc
    cam, mg, tm, io, sy = hdrkit.camera, hdrkit.merge, hdrkit.tmo, hdrkit.image_io, hdrkit.synth
    return [
        (nn.Conv, "forward", _conv_name(".fwd"), _conv_flops(1)),
        (nn.Conv, "backward", _conv_name(".bwd"), _conv_flops(2)),
        (nn.BatchNorm, "forward", "nn.batchnorm.fwd", None),
        (nn.BatchNorm, "backward", "nn.batchnorm.bwd", None),
        # The block's own time is its ReLU gate and dropout mask.
        (nn._Block, "forward", "nn.block", None),
        (nn._Block, "backward", "nn.block", None),
        (nn.Network, "forward", "nn.network", None),
        (nn.Network, "backward", "nn.network", None),
        (nn.Network, "copy_state_from", "nn.replica_sync", None),
        (nn.Network, "clone", "nn.replica_sync", None),
        (nn, "mse_loss", "nn.mse", None),
        (nn, "sgd_step", "nn.sgd", _one("nn.sgd.steps")),
        (nn, "save_checkpoint", "nn.checkpoint.save", None),
        (nn, "load_checkpoint", "nn.checkpoint.load", None),
        (pl, "train", "pipeline.train", None),
        (pl.ParallelTrainer, "step", "pipeline.parallel", None),
        (pl, "extract_patches", "pipeline.patches", _patch_pixels),
        (pl, "reassemble", "pipeline.patches", None),
        (pl, "infer_ldr2hdr", "pipeline.infer", None),
        (pl, "infer_tonemap", "pipeline.infer", None),
        (pl, "_forward_tiled", "pipeline.infer", None),
        (pl, "build_ldr2hdr_samples", "pipeline.samples", None),
        (pl, "build_tonemap_samples", "pipeline.samples", None),
        (pl, "normalize_hdr", "pipeline.normalize", None),
        (ip, "bilateral_filter", "imgproc.bilateral", _bilateral_work),
        (ip, "rgb_to_lab", "imgproc.lab", None),
        (ip, "lab_to_rgb", "imgproc.lab", None),
        (ip, "entropy", "imgproc.entropy", None),
        (cam, "expose", "camera.expose", _one("camera.expose.calls")),
        (cam, "fixed_stack", "camera.stack", None),
        (cam, "adaptive_stack", "camera.stack", _adaptive_kept),
        (cam, "inverse_lut", "camera.inverse_lut", None),
        (mg, "debevec_merge", "merge.debevec", None),
        (tm, "reinhard_global", "tmo.reinhard", None),
        (tm, "drago", "tmo.drago", None),
        (tm, "mertens_fuse", "tmo.mertens", None),
        (tm, "structural_fidelity", "tmo.structural_fidelity", None),
        (tm, "statistical_naturalness", "tmo.naturalness", None),
        (tm, "tmqi", "tmo.select", None),
        (tm, "apply_operator", "tmo.select", None),
        (tm, "select_best_tmo", "tmo.select", _select_kept),
        (io, "decode_hdr", "image_io.decode_hdr", _decoded_bytes),
        (io, "encode_hdr", "image_io.encode_hdr", None),
        (io, "read_pfm", "image_io.pfm", None),
        (io, "write_pfm", "image_io.pfm", None),
        (io, "read_ppm", "image_io.ppm", None),
        (io, "write_ppm", "image_io.ppm", None),
        (sy, "synth_scene", "synth.scene", None),
    ]


class Tracer:
    """Records spans of wrapped hdrkit calls; one instance per benchmark run."""

    def __init__(self, hdrkit) -> None:
        self.hdrkit = hdrkit
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict = defaultdict(lambda: defaultdict(int))  # op id -> key -> n
        self.op = None  # None while setting up, else the id of the running op
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (label, start, end, parent, tracer.op)
            if counter is not None:
                bucket = tracer.counts[tracer.op]
                for key, n in counter(args, result):
                    bucket[key] += n
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self) -> None:
        modules = [getattr(self.hdrkit, m) for m in LAYERS] + [self.hdrkit]
        for owner, attr, name, counter in targets(self.hdrkit):
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # Replace every module-level reference, not just the defining one.
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- folding ------------------------------------------------------------

    def self_times(self, ops) -> dict[str, float]:
        """Total self time per span name over the spans of the given op ids."""
        ops = set(ops)
        child = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                out[name] += (end - start) - child[i]
        return dict(out)

    def covered(self, ops) -> float:
        """Time covered by top-level spans of the given op ids."""
        ops = set(ops)
        return sum(end - start for _, start, end, parent, op in self.spans
                   if parent < 0 and op in ops)

    def counted(self, ops) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for op in ops:
            for key, n in self.counts.get(op, {}).items():
                out[key] += n
        return dict(out)

    def spans_of(self, ops):
        ops = set(ops)
        return [(i, s) for i, s in enumerate(self.spans) if s[4] in ops]
