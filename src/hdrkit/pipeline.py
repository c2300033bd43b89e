"""End-to-end machinery: dataset construction, patching, training, inference.

Images become network inputs along one path per architecture, shared by the
sample builders and by inference: ``stack_channel_planes`` for the ldr2hdr
nets, and for the tone-map nets ``_lab_planes`` (Lab split plus bilateral
base/detail) followed by ``_scale_plane``, with ``_unscale_plane`` undoing
the scaling on predictions.  ``extract_patches`` tiles those planes for
training, and inference runs the same tiles as one plane (``_forward_tiled``).

Training regresses 64x64 patches with mini-batch SGD along a single path:
``train`` (``hyperparam_search`` runs it too) shuffles the samples once per
epoch and sends every mini-batch through one ``ParallelTrainer``'s
``step``, the only SGD step.  That step splits the batch into
``cfg.workers`` shards and runs them one after another on the one network,
each with its own batchnorm statistics and dropout stream; it sums their
gradients in ascending worker order, scaled to the whole-batch mean, and
makes one update.  With one worker it is the plain serial step.  Every
forward and backward splits its shard over the CPUs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import (
    STACK_SIZE,
    Crf,
    ExposureStack,
    adaptive_stack,
    fixed_stack,
    geometric_ladder,
)
from .errors import ParameterError, ValidationError
from .image_io import RadianceMap
from .imgproc import LabImage, bilateral_filter, lab_to_rgb, luminance, rgb_to_lab
from .nn import LayerSpec, Network, NetworkSpec, mse_loss, sgd_step
from .tmo import TmqiScore, ToneMap, select_best_tmo

LDR2HDR_CHANNELS = ("R", "G", "B")
TONEMAP_CHANNELS = ("L_base", "L_detail", "a", "b")

# scaled = (value + offset) / divisor, keeping regression targets near [-1, 1]
CHANNEL_SCALINGS: dict[str, tuple[float, float]] = {
    "L_base": (0.0, 100.0),
    "L_detail": (0.0, 20.0),
    "a": (128.0, 255.0),
    "b": (128.0, 255.0),
}

# The tone-map base/detail split's sigmas.  Checkpoints do not store them, so
# training and inference both use these and cannot disagree.
BILATERAL_SIGMA_S = 8.0
BILATERAL_SIGMA_R = 10.0
# Names the split in tone-map checkpoints' metadata.  A net learns from the
# split it was trained on, so inference refuses a checkpoint with another tag
# or none: those were trained on the brute-force filter's split.
TONEMAP_SPLIT = f"bilateral-grid sigma_s={BILATERAL_SIGMA_S:g} sigma_r={BILATERAL_SIGMA_R:g}"


@dataclass
class TrainConfig:
    lr: float = 1e-2
    momentum: float = 0.9
    epochs: int = 30
    batch_size: int = 40
    patch: int = 64
    dropout_p: float = 0.4
    seed: int = 0
    workers: int = 1
    dtype: str = "f32"
    target_domain: str = "linear"  # or "log1p"

    def __post_init__(self) -> None:
        for name in ("momentum", "dropout_p"):
            if not 0.0 <= getattr(self, name) < 1.0:  # also false for NaN
                raise ValidationError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        # Channel c's net has seed + c, which checkpoints store as an int64.
        seed_end = 2**63 - (len(TONEMAP_CHANNELS) - 1)
        if not 0 <= self.seed < seed_end:
            raise ValidationError(f"seed must be in [0, {seed_end}), got {self.seed}")
        if self.dtype not in ("f32", "f64"):
            raise ValidationError(f"dtype must be f32 or f64, got {self.dtype!r}")
        with np.errstate(over="ignore"):
            lr = self.numpy_dtype()(self.lr)
        if not 0 <= lr < math.inf:  # also false for NaN
            raise ValidationError(f"lr must be >= 0 and finite in {self.dtype}, got {self.lr}")
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.patch < 8:
            raise ValidationError(f"patch must be >= 8, got {self.patch}")
        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.target_domain not in ("linear", "log1p"):
            raise ValidationError(f"target_domain must be linear or log1p, got {self.target_domain!r}")

    def numpy_dtype(self):
        return np.float64 if self.dtype == "f64" else np.float32

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            kind = type(fields[key].default)
            allowed = (int, float) if kind is float else kind  # "lr": 0 is a float
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValidationError(
                    f"config key {key!r} must be {kind.__name__}, got {value!r}"
                )
        return cls(**d)


# ---------------------------------------------------------------------------
# Normalization and network builders
# ---------------------------------------------------------------------------


def normalize_hdr(m: RadianceMap) -> tuple[RadianceMap, float]:
    """Divide by the 99th-percentile luminance; returns the scale for inversion."""
    lum = luminance(m.data)
    scale = float(np.percentile(lum, 99.0))
    if scale <= 0:
        raise ValidationError("cannot normalize: 99th-percentile luminance is zero")
    data = (m.data.astype(np.float64) / scale).astype(np.float32)
    return RadianceMap(width=m.width, height=m.height, data=data), scale


_LDR2HDR_DEPTHS = (60, 40, 20, 20, 20)
_TONEMAP_DEPTHS = (100, 80, 50, 10)


def _chain(in_depth: int, depths: tuple[int, ...], dropout_p: float) -> tuple[LayerSpec, ...]:
    layers = []
    prev = in_depth
    for i, d in enumerate(depths):
        kind = "conv3x3" if i == 0 else "conv1x1"
        layers.append(LayerSpec(kind, prev, d, batchnorm=True, dropout_p=dropout_p))
        prev = d
    layers.append(LayerSpec("output1x1", prev, 1))
    return tuple(layers)


def build_ldr2hdr_net(channel: str, seed: int, dropout_p: float = 0.4) -> NetworkSpec:
    """Stack-to-radiance regressor for one color channel (input depth 5)."""
    if channel not in LDR2HDR_CHANNELS:
        raise ParameterError(f"channel must be one of {LDR2HDR_CHANNELS}, got {channel!r}")
    offset = LDR2HDR_CHANNELS.index(channel)
    return NetworkSpec(layers=_chain(STACK_SIZE, _LDR2HDR_DEPTHS, dropout_p), seed=seed + offset)


def build_tonemap_net(channel: str, seed: int, dropout_p: float = 0.4) -> NetworkSpec:
    """Single-plane tone-map regressor for one decomposed channel."""
    if channel not in TONEMAP_CHANNELS:
        raise ParameterError(f"channel must be one of {TONEMAP_CHANNELS}, got {channel!r}")
    offset = TONEMAP_CHANNELS.index(channel)
    return NetworkSpec(layers=_chain(1, _TONEMAP_DEPTHS, dropout_p), seed=seed + offset)


# ---------------------------------------------------------------------------
# Patch tiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatchGrid:
    height: int
    width: int
    patch: int
    rows: int
    cols: int

    @property
    def count(self) -> int:
        return self.rows * self.cols


def extract_patches(planes: np.ndarray, patch: int) -> tuple[PatchGrid, np.ndarray]:
    """Tile (..., H, W) into non-overlapping (count, ..., patch, patch).

    The right/bottom edges are reflect-padded up to a multiple of the patch
    size; :func:`reassemble` crops back to the source dimensions.
    """
    if patch < 8:
        raise ParameterError(f"patch must be >= 8, got {patch}")
    planes = np.asarray(planes)
    h, w = planes.shape[-2:]
    rows = max(1, math.ceil(h / patch))
    cols = max(1, math.ceil(w / patch))
    lead = planes.shape[:-2]
    pad = [(0, 0)] * len(lead) + [(0, rows * patch - h), (0, cols * patch - w)]
    padded = np.pad(planes, pad, mode="reflect")
    grid = PatchGrid(height=h, width=w, patch=patch, rows=rows, cols=cols)
    tiles = padded.reshape(*lead, rows, patch, cols, patch)
    tiles = np.moveaxis(tiles, (len(lead), len(lead) + 2), (0, 1))
    return grid, tiles.reshape(rows * cols, *lead, patch, patch)


def reassemble(grid: PatchGrid, patches: np.ndarray) -> np.ndarray:
    """Invert :func:`extract_patches`; bitwise round trip on the valid region."""
    if patches.shape[0] != grid.count:
        raise ValidationError(f"expected {grid.count} patches, got {patches.shape[0]}")
    p = grid.patch
    lead = patches.shape[1:-2]
    tiles = patches.reshape(grid.rows, grid.cols, *lead, p, p)
    tiles = np.moveaxis(tiles, (0, 1), (len(lead), len(lead) + 2))
    full = tiles.reshape(*lead, grid.rows * p, grid.cols * p)
    return full[..., : grid.height, : grid.width]


# ---------------------------------------------------------------------------
# Tone-map channel decomposition
# ---------------------------------------------------------------------------


@dataclass
class ChannelPlanes:
    """Matched unscaled input/target planes for one decomposed channel."""

    name: str
    input: np.ndarray
    target: np.ndarray


def _scale_plane(plane: np.ndarray, offset: float, divisor: float) -> np.ndarray:
    """(plane + offset) / divisor in the plane's own dtype."""
    t = plane.dtype.type
    return (plane + t(offset)) / t(divisor)


def _unscale_plane(plane: np.ndarray, offset: float, divisor: float) -> np.ndarray:
    """Invert :func:`_scale_plane`, in the plane's own dtype."""
    t = plane.dtype.type
    return plane * t(divisor) - t(offset)


def split_base_detail(
    L: np.ndarray, sigma_s: float = BILATERAL_SIGMA_S, sigma_r: float = BILATERAL_SIGMA_R
) -> tuple[np.ndarray, np.ndarray]:
    """Bilateral base layer plus residual detail, with base + detail == L exactly.

    The recomputation and the snap mask handle the rare pixels whose float
    split cannot be exact (tiny L beside much larger filtered values).
    """
    base = bilateral_filter(L, sigma_s, sigma_r)
    detail = L - base
    base = L - detail
    bad = (base + detail) != L
    if np.any(bad):
        base = base.copy()
        detail = detail.copy()
        base[bad] = L[bad]
        detail[bad] = 0.0
    return base, detail


def _lab_planes(rgb: np.ndarray) -> dict[str, np.ndarray]:
    """The unscaled L_base, L_detail, a and b planes of a linear RGB array,
    split at ``BILATERAL_SIGMA_S`` and ``BILATERAL_SIGMA_R``."""
    lab = rgb_to_lab(rgb)
    base, detail = split_base_detail(lab.L)
    return {"L_base": base, "L_detail": detail, "a": lab.a, "b": lab.b}


def decompose_tonemap_channels(m: RadianceMap, tm: ToneMap) -> list[ChannelPlanes]:
    """Lab-split a (normalized HDR, tone map) pair into four regression channels."""
    if (m.width, m.height) != (tm.width, tm.height):
        raise ValidationError("map and tone map dimensions differ")
    inputs = _lab_planes(m.data)
    targets = _lab_planes(tm.data)
    return [ChannelPlanes(name, inputs[name], targets[name]) for name in TONEMAP_CHANNELS]


def recompose_tonemap(planes: dict[str, np.ndarray]) -> ToneMap:
    """Rebuild a tone map from unscaled predicted channel planes."""
    missing = set(TONEMAP_CHANNELS) - set(planes)
    if missing:
        raise ValidationError(f"missing channels: {sorted(missing)}")
    L = planes["L_base"] + planes["L_detail"]
    h, w = L.shape
    lab = LabImage(L=L.astype(np.float32), a=planes["a"].astype(np.float32),
                   b=planes["b"].astype(np.float32))
    rgb = lab_to_rgb(lab)
    return ToneMap(width=w, height=h, data=np.clip(rgb.data, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Dataset construction
# ---------------------------------------------------------------------------


def stack_channel_planes(stack: ExposureStack, channel: int) -> np.ndarray:
    """(5, H, W) float32 input planes: one color channel across the stack, /255."""
    return np.stack(
        [img.data[..., channel].astype(np.float32) / np.float32(255.0) for img in stack.images]
    )


def _target_plane(values: np.ndarray, domain: str) -> np.ndarray:
    return np.log1p(values) if domain == "log1p" else values


def invert_target(values: np.ndarray, domain: str) -> np.ndarray:
    return np.expm1(values) if domain == "log1p" else values


def _patch_samples(
    planes, channels: tuple[str, ...], patch: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Patch each ``(channel, x planes, y planes)`` triple as float32 and
    concatenate the (inputs, targets) patch arrays per channel."""
    per_channel: dict[str, tuple[list, list]] = {ch: ([], []) for ch in channels}
    for ch, x, y in planes:
        xs, ys = per_channel[ch]
        xs.append(extract_patches(x.astype(np.float32, copy=False), patch)[1])
        ys.append(extract_patches(y.astype(np.float32, copy=False), patch)[1])
    return {ch: (np.concatenate(xs), np.concatenate(ys)) for ch, (xs, ys) in per_channel.items()}


def build_ldr2hdr_samples(
    scenes: list[RadianceMap],
    crf: Crf,
    cfg: TrainConfig,
    mode: str = "fixed",
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-channel (inputs, targets) patch arrays from synthesized stacks.

    Targets are the normalized radiance channels (optionally log1p).  The
    adaptive mode picks each stack from :func:`geometric_ladder`.
    """
    if mode not in ("fixed", "adaptive"):
        raise ParameterError(f"mode must be fixed or adaptive, got {mode!r}")

    def planes():
        for scene in scenes:
            norm, _ = normalize_hdr(scene)
            if mode == "fixed":
                stack = fixed_stack(norm, crf)
            else:
                stack = adaptive_stack(norm, crf, geometric_ladder())
            for i, ch in enumerate(LDR2HDR_CHANNELS):
                target = _target_plane(norm.data[..., i], cfg.target_domain)[None]
                yield ch, stack_channel_planes(stack, i), target

    return _patch_samples(planes(), LDR2HDR_CHANNELS, cfg.patch)


def build_tonemap_samples(
    scenes: list[RadianceMap],
    cfg: TrainConfig,
    crf: Crf,
) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], list[tuple[str, TmqiScore]]]:
    """Per-channel patch arrays targeting each scene's best tone map."""
    selections: list[tuple[str, TmqiScore]] = []

    def planes():
        for scene in scenes:
            norm, _ = normalize_hdr(scene)
            tm, op, score, _ = select_best_tmo(norm, crf=crf)
            selections.append((op, score))
            for channel in decompose_tonemap_channels(norm, tm):
                scaling = CHANNEL_SCALINGS[channel.name]
                yield (channel.name, _scale_plane(channel.input, *scaling)[None],
                       _scale_plane(channel.target, *scaling)[None])

    return _patch_samples(planes(), TONEMAP_CHANNELS, cfg.patch), selections


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """The result of :func:`train`: one curve row per epoch."""

    curve: list[tuple[int, float]] = field(default_factory=list)


def dropout_stream(seed: int, step: int, worker: int) -> np.random.Generator:
    """The dropout RNG stream for (run seed, global step, worker index)."""
    return np.random.default_rng(np.random.SeedSequence([seed, step, worker]))


def _as_arrays(samples, dtype) -> tuple[np.ndarray, np.ndarray]:
    x, y = samples
    return x.astype(dtype, copy=False), y.astype(dtype, copy=False)


def _diverged(net: Network, x: np.ndarray, what: str = "loss") -> ValidationError:
    stats = net.activation_stats(x)
    return ValidationError(
        f"training diverged (non-finite {what}); activation stats: " + json.dumps(stats)
    )


def eval_mse(net: Network, samples, batch_size: int) -> float:
    """Sample-weighted mean MSE in eval mode (no dropout, running BN stats)."""
    x_all, y_all = _as_arrays(samples, net.dtype)
    n = x_all.shape[0]
    if n == 0:
        raise ValidationError("eval_mse needs at least one sample")
    total = 0.0
    for start in range(0, n, batch_size):
        xb = x_all[start : start + batch_size]
        yb = y_all[start : start + batch_size]
        loss, _ = mse_loss(net.forward(xb, train=False), yb)
        total += loss * xb.shape[0]
    return total / n


class ParallelTrainer:
    """The SGD step, on ``cfg.workers`` shards of each batch (ghost batch
    normalization, Hoffer, Hubara & Soudry 2017).

    The shards run in worker order on the one network, each a train
    forward (batchnorm on the shard's own statistics, dropout from its own
    :func:`dropout_stream`), the loss and the backward; their gradients are
    summed in worker order, scaled to the whole-batch mean, and one SGD
    update follows.  Without batchnorm or dropout the sum is the serial
    whole-batch gradient up to rounding.  Each shard's forward moves the
    batchnorm running statistics in turn.  Every forward and backward
    splits its shard over the CPUs (:meth:`Network.forward`).

    The class keeps its name and ``step`` because ``perfbench`` times them.
    """

    def __init__(self, net: Network, cfg: TrainConfig) -> None:
        self.cfg = cfg
        self.net = net
        self.velocity: list | None = None
        self.step_index = 0

    def shard_slices(self, n: int) -> list[slice]:
        k = self.cfg.workers
        size = math.ceil(n / k)
        return [slice(min(i * size, n), min((i + 1) * size, n)) for i in range(k)]

    def accumulate_gradients(self, x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray]]:
        """Forward/backward on every shard; returns (batch loss, summed grads)."""
        n = x.shape[0]
        if n < 1:
            raise ParameterError("need at least one sample in the batch")
        net = self.net
        loss_total = 0.0
        agg: list[np.ndarray] | None = None
        for w, sl in enumerate(self.shard_slices(n)):
            if sl.start == sl.stop:  # a surplus worker idles when K > batch size
                continue
            rng = dropout_stream(self.cfg.seed, self.step_index, w)
            loss, dpred = mse_loss(net.forward(x[sl], train=True, rng=rng), y[sl])
            if not math.isfinite(loss):
                raise _diverged(net, x[sl])
            net.backward(dpred)
            factor = (sl.stop - sl.start) / n
            if agg is None:
                agg = [factor * g for g in net.grads()]
            else:
                for acc, g in zip(agg, net.grads()):
                    acc += factor * g
            loss_total += factor * loss
        assert agg is not None
        return loss_total, agg

    def step(self, x: np.ndarray, y: np.ndarray) -> float:
        x = x.astype(self.net.dtype, copy=False)
        y = y.astype(self.net.dtype, copy=False)
        loss, grads = self.accumulate_gradients(x, y)
        self.velocity = sgd_step(self.net.params(), grads, self.cfg.lr, self.cfg.momentum,
                                 self.velocity)
        if not all(np.isfinite(p).all() for p in self.net.params()):
            raise _diverged(self.net, x, "weights")
        self.step_index += 1
        return loss


def train(net: Network, samples, cfg: TrainConfig, epochs: int | None = None) -> TrainState:
    """Mini-batch SGD on ``(inputs, targets)``; returns one curve row per epoch.

    Each epoch shuffles the samples with a stream seeded by ``cfg.seed`` and
    sends every mini-batch through one :class:`ParallelTrainer` on
    ``cfg.workers`` workers.  Each row is ``(epoch, mean_loss)``, the
    sample-weighted mean training loss.
    """
    epochs = cfg.epochs if epochs is None else epochs
    x_all, y_all = _as_arrays(samples, net.dtype)
    n = x_all.shape[0]
    if n < 1:
        raise ParameterError("need at least one sample")
    trainer = ParallelTrainer(net, cfg)
    shuffle_rng = np.random.default_rng(cfg.seed)
    state = TrainState()
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            total += trainer.step(x_all[idx], y_all[idx]) * len(idx)
        state.curve.append((epoch, total / n))
    return state


# ---------------------------------------------------------------------------
# Hyperparameter search
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    config_id: int
    val_error: float
    curve: list[tuple[int, float]]


def hyperparam_search(
    configs: list[tuple[NetworkSpec, TrainConfig]], train_samples, val_samples
) -> list[SearchResult]:
    """Train each config for exactly two epochs; rank by validation MSE.

    Ties keep config order (stable sort).
    """
    if not configs:
        raise ParameterError("need at least one config")
    results = []
    for i, (spec, cfg) in enumerate(configs):
        net = Network(spec, dtype=cfg.numpy_dtype())
        state = train(net, train_samples, cfg, epochs=2)
        err = eval_mse(net, val_samples, cfg.batch_size)
        results.append(SearchResult(config_id=i, val_error=err, curve=state.curve))
    return sorted(results, key=lambda r: r.val_error)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _forward_tiled(net: Network, planes: np.ndarray, patch: int) -> np.ndarray:
    """Eval-mode forward of (C, H, W) planes as ``patch`` x ``patch`` tiles,
    each with the zero padding of its own 3x3 conv, as the nets were trained:
    the (H, W) output of :func:`extract_patches`, a forward of the tiles and
    :func:`reassemble`, computing only the plane's pixels.

    The tiles are laid out as one plane, one sample of one forward, with one
    zero row or column between neighbouring tiles.  Past a ragged bottom or
    right edge comes the one reflected row or column that the edge pixels
    see in their reflect-padded tile.  Pixels in no tile are never computed.
    """
    if patch < 8:
        raise ParameterError(f"patch must be >= 8, got {patch}")
    h, w = planes.shape[-2:]
    ragged = [(0, 0)] + [(0, int(n % patch > 0)) for n in (h, w)]
    plane = np.pad(planes.astype(net.dtype, copy=False), ragged, mode="reflect")
    for axis, n in ((1, h), (2, w)):
        plane = np.insert(plane, range(patch, n, patch), 0, axis)
    y = net.forward(plane[None], train=False)[0, 0]

    def at(n: int) -> np.ndarray:  # the plane's rows or columns for the planes' n
        i = np.arange(n)
        return i + i // patch

    return y[np.ix_(at(h), at(w))]


def infer_ldr2hdr(
    nets: dict[str, Network],
    stack: ExposureStack,
    patch: int = 64,
    scale: float = 1.0,
    target_domain: str = "linear",
) -> RadianceMap:
    """Predict a radiance map from an exposure stack with the R/G/B networks,
    times ``scale``."""
    if not 0 < scale < math.inf:  # also false for NaN
        raise ParameterError(f"scale must be finite and > 0, got {scale}")
    out = np.empty((stack.height, stack.width, 3), dtype=np.float32)
    for i, ch in enumerate(LDR2HDR_CHANNELS):
        planes = stack_channel_planes(stack, i)
        pred = _forward_tiled(nets[ch], planes, patch).astype(np.float64)
        with np.errstate(over="ignore"):
            out[..., i] = (invert_target(pred, target_domain) * scale).astype(np.float32)
    if not np.isfinite(out).all():
        raise ValidationError(f"predicted radiance times scale {scale} overflows float32")
    np.maximum(out, 0.0, out=out)  # radiance is non-negative by contract
    return RadianceMap(width=stack.width, height=stack.height, data=out)


def infer_tonemap(nets: dict[str, Network], m: RadianceMap, patch: int = 64) -> ToneMap:
    """Predict a tone map from a normalized radiance map with the 4 channel nets,
    on the bilateral split that training used."""
    inputs = _lab_planes(m.data)
    preds: dict[str, np.ndarray] = {}
    for name in TONEMAP_CHANNELS:
        scaling = CHANNEL_SCALINGS[name]
        pred = _forward_tiled(nets[name], _scale_plane(inputs[name], *scaling)[None], patch)
        preds[name] = _unscale_plane(pred.astype(np.float64), *scaling)
    return recompose_tonemap(preds)


# ---------------------------------------------------------------------------
# Curve CSV
# ---------------------------------------------------------------------------


def curve_csv(curve: list[tuple[int, float]]) -> str:
    """Render ``(epoch, mean_loss)`` rows as ``epoch,mean_loss`` CSV text."""
    lines = ["epoch,mean_loss"] + [f"{epoch},{loss!r}" for epoch, loss in curve]
    return "\n".join(lines) + "\n"
