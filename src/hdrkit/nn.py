"""Minimal CNN engine on NCHW numpy arrays with hand-written gradients.

The engine knows exactly three layer kinds: 3x3 convolution (zero padding 1),
1x1 convolution, and a bare 1x1 output convolution.  Hidden layers may carry
spatial batch normalization (before ReLU) and inverted dropout (after ReLU).
Everything runs in float32 for training or float64 for gradient checking.
Convolutions are GEMMs on (N, C, H*W) views: a 3x3 layer gathers its nine
shifted inputs into one column buffer first (im2col, as in Chellapilla, Puri
& Simard 2006).  Batchnorm works on the same views, and a block applies its
ReLU gate and dropout mask as one multiplier in each direction.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, FormatError, ParameterError, TruncationError, ValidationError
from .image_io import ByteReader

LAYER_KINDS = ("conv3x3", "conv1x1", "output1x1")
_KIND_CODE = {k: i for i, k in enumerate(LAYER_KINDS)}

CHECKPOINT_MAGIC = b"HDRNN1"


def check_tensor4(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise ValidationError(f"{name} must be 4-D (N, C, H, W), got shape {x.shape}")
    return x


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_depth: int
    out_depth: int
    batchnorm: bool = False
    dropout_p: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValidationError(f"unknown layer kind {self.kind!r}")
        if self.in_depth < 1 or self.out_depth < 1:
            raise ValidationError("layer depths must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")


@dataclass(frozen=True)
class NetworkSpec:
    layers: tuple[LayerSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if not 0 <= self.seed < 2**63:  # checkpoints store it as an int64
            raise ValidationError(f"network seed must be in [0, 2**63), got {self.seed}")
        if not self.layers:
            raise ValidationError("network needs at least one layer")
        for i, (a, b) in enumerate(zip(self.layers, self.layers[1:])):
            if a.out_depth != b.in_depth:
                raise ValidationError(
                    f"layer {i} out_depth {a.out_depth} != layer {i + 1} in_depth {b.in_depth}"
                )
        last = self.layers[-1]
        if last.kind != "output1x1" or last.out_depth != 1:
            raise ValidationError("final layer must be output1x1 with out_depth 1")
        if last.batchnorm or last.dropout_p != 0.0:
            raise ValidationError("output layer takes no batchnorm or dropout")

    def parameter_count(self) -> int:
        """Weights + biases + 2 BN parameters per normalized channel."""
        total = 0
        for spec in self.layers:
            k = 3 if spec.kind == "conv3x3" else 1
            total += spec.out_depth * spec.in_depth * k * k + spec.out_depth
            if spec.batchnorm:
                total += 2 * spec.out_depth
        return total


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Conv:
    """Cross-correlation with stride 1; 3x3 uses zero padding 1, 1x1 none.

    The 3x3 column buffer is (N, 9C, H*W); row c*9 + 3*di + dj matches
    ``w.reshape(O, 9C)``, so both sizes are one ``matmul`` each way.
    """

    def __init__(self, in_ch: int, out_ch: int, ksize: int, rng, dtype) -> None:
        if ksize not in (1, 3):
            raise ParameterError(f"kernel size must be 1 or 3, got {ksize}")
        self.ksize = ksize
        fan_in = in_ch * ksize * ksize
        self.w = rng.normal(0.0, math.sqrt(2.0 / fan_in), (out_ch, in_ch, ksize, ksize)).astype(dtype)
        self.b = np.zeros(out_ch, dtype=dtype)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._cols: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.w.shape[1]:
            raise ValidationError(
                f"conv expects {self.w.shape[1]} input channels, got {c}"
            )
        if self.ksize == 1:
            cols = x.reshape(n, c, h * w)
        else:
            xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
            cols = np.empty((n, c, 9, h, w), dtype=x.dtype)
            for k in range(9):
                cols[:, :, k] = xp[:, :, k // 3 : k // 3 + h, k % 3 : k % 3 + w]
            cols = cols.reshape(n, c * 9, h * w)
        self._cols = cols
        y = np.matmul(self.w.reshape(self.w.shape[0], -1), cols)
        y += self.b[:, None]
        return y.reshape(n, -1, h, w)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        cols = self._cols
        if cols is None:
            raise ValidationError("conv backward before forward")
        n, o, h, w = dy.shape
        dy = dy.reshape(n, o, h * w)
        self.db[...] = dy.sum(axis=(0, 2))
        self.dw.reshape(o, -1)[...] = np.matmul(dy, cols.transpose(0, 2, 1)).sum(axis=0)
        dcols = np.matmul(self.w.reshape(o, -1).T, dy)
        if self.ksize == 1:
            return dcols.reshape(n, -1, h, w)
        dcols = dcols.reshape(n, -1, 9, h, w)
        dxp = np.zeros((n, dcols.shape[1], h + 2, w + 2), dtype=dy.dtype)
        for k in range(9):
            dxp[:, :, k // 3 : k // 3 + h, k % 3 : k % 3 + w] += dcols[:, :, k]
        return dxp[:, :, 1 : h + 1, 1 : w + 1]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [("w", self.w), ("b", self.b)]

    def params(self) -> list[np.ndarray]:
        return [self.w, self.b]

    def grads(self) -> list[np.ndarray]:
        return [self.dw, self.db]


class BatchNorm:
    """Spatial batch normalization over (N, H, W) per channel.

    The train-mode input gradient reuses ``dbeta`` and ``dgamma`` as its means.
    """

    eps = 1e-5
    momentum = 0.1  # weight of the batch statistics in the running averages

    def __init__(self, channels: int, dtype) -> None:
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        shape = x.shape
        x = x.reshape(shape[0], shape[1], -1)
        if train:
            m = x.shape[0] * x.shape[2]
            mu = x.sum(axis=(0, 2)) / m
            xc = x - mu[:, None]
            var = np.vecdot(xc, xc).sum(axis=0) / m
            mom = self.momentum
            self.running_mean[...] = (1.0 - mom) * self.running_mean + mom * mu
            self.running_var[...] = (1.0 - mom) * self.running_var + mom * var
        else:
            xc = x - self.running_mean[:, None]
            var = self.running_var
        istd = 1.0 / np.sqrt(var + self.eps)
        self._cache = (xc, istd, train)
        y = xc * (self.gamma * istd)[:, None]
        y += self.beta[:, None]
        return y.reshape(shape)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ValidationError("batchnorm backward before forward")
        xc, istd, train = self._cache  # xhat = xc * istd
        dy3 = dy.reshape(xc.shape)
        self.dbeta[...] = dy3.sum(axis=(0, 2))
        self.dgamma[...] = np.vecdot(dy3, xc).sum(axis=0) * istd
        scale = self.gamma * istd
        dx = dy3 * scale[:, None]
        if train:
            m = xc.shape[0] * xc.shape[2]
            dx -= xc * (scale * istd * self.dgamma / m)[:, None]
            dx -= (scale * self.dbeta / m)[:, None]
        return dx.reshape(dy.shape)

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("gamma", self.gamma),
            ("beta", self.beta),
            ("running_mean", self.running_mean),
            ("running_var", self.running_var),
        ]

    def params(self) -> list[np.ndarray]:
        return [self.gamma, self.beta]

    def grads(self) -> list[np.ndarray]:
        return [self.dgamma, self.dbeta]


def relu(x: np.ndarray, gate=None, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """``x * gate`` with ``gate = x > 0`` unless one is given; returns (y, gate).

    Passing the gate of an earlier pass keeps the network on the same linear
    piece (the frozen-gate gradient check).  Negative entries become -0.0,
    not the +0.0 that ``np.maximum(x, 0)`` would give.

    A :func:`dropout_scale` is multiplied by the gate in place and applied
    in the same multiply, bitwise ``relu`` then ``dropout``; it is then the
    one backward multiplier for both.
    """
    if gate is None:
        gate = x > 0
    if scale is None:
        return x * gate, gate
    scale *= gate
    return x * scale, gate


def relu_backward(dy: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Gradient passes where the forward input was strictly positive (times
    the dropout scale, when ``gate`` is the fused multiplier of :func:`relu`)."""
    return dy * gate


def dropout_scale(x: np.ndarray, p: float, train: bool, rng=None) -> np.ndarray | None:
    """Keep mask times 1/(1-p) for ``x``; None when nothing is dropped."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return None
    if rng is None:
        raise ParameterError("train-mode dropout needs an rng")
    keep = rng.random(x.shape) >= p
    return np.multiply(keep, x.dtype.type(1.0 / (1.0 - p)))


def dropout(x: np.ndarray, p: float, train: bool, rng=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: returns (x * scale, scale) with the :func:`dropout_scale`
    multiplier, which is also the backward multiplier, or (x, None)."""
    scale = dropout_scale(x, p, train, rng)
    return (x, None) if scale is None else (x * scale, scale)


class _Block:
    """conv -> [batchnorm] -> relu -> [dropout]; the output block is conv only."""

    def __init__(self, spec: LayerSpec, index: int, rng, dtype) -> None:
        self.spec = spec
        self.name = f"{index}:{spec.kind}({spec.in_depth}->{spec.out_depth})"
        ksize = 3 if spec.kind == "conv3x3" else 1
        self.conv = Conv(spec.in_depth, spec.out_depth, ksize, rng, dtype)
        self.bn = BatchNorm(spec.out_depth, dtype) if spec.batchnorm else None
        self.is_output = spec.kind == "output1x1"
        self._gate: np.ndarray | None = None
        self._mult: np.ndarray | None = None

    def forward(self, x, train: bool, rng, bn_train: bool, apply_dropout: bool,
                frozen_gates: bool = False):
        y = self.conv.forward(x)
        if self.is_output:
            return y
        if self.bn is not None:
            y = self.bn.forward(y, train=bn_train)
        if frozen_gates and self._gate is None:
            raise ValidationError("frozen-gate forward before a reference pass")
        scale = dropout_scale(y, self.spec.dropout_p, train and apply_dropout, rng)
        y, self._gate = relu(y, self._gate if frozen_gates else None, scale)
        self._mult = self._gate if scale is None else scale
        return y

    def backward(self, dy):
        if not self.is_output:
            dy = relu_backward(dy, self._mult)
            if self.bn is not None:
                dy = self.bn.backward(dy)
        return self.conv.backward(dy)

    def modules(self):
        return [self.conv] if self.bn is None else [self.conv, self.bn]


class Network:
    """A stack of blocks built from a :class:`NetworkSpec`.

    Weights are He-initialized from the spec seed; biases start at zero,
    batchnorm at gamma=1, beta=0.
    """

    def __init__(self, spec: NetworkSpec, dtype=np.float32) -> None:
        self.spec = spec
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(spec.seed)
        self.blocks = [_Block(ls, i, rng, self.dtype) for i, ls in enumerate(spec.layers)]

    @property
    def in_depth(self) -> int:
        return self.spec.layers[0].in_depth

    def forward(
        self,
        x: np.ndarray,
        train: bool = False,
        rng=None,
        bn_train: bool | None = None,
        apply_dropout: bool = True,
        frozen_gates: bool = False,
    ) -> np.ndarray:
        x = check_tensor4(x, "input").astype(self.dtype, copy=False)
        if bn_train is None:
            bn_train = train
        if train and apply_dropout and rng is None:
            if any(b.spec.dropout_p > 0 for b in self.blocks):
                raise ParameterError("train-mode forward with dropout needs an rng")
        for block in self.blocks:
            x = block.forward(x, train, rng, bn_train, apply_dropout, frozen_gates)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for block in reversed(self.blocks):
            dy = block.backward(dy)
        return dy

    def params(self) -> list[np.ndarray]:
        return [p for blk in self.blocks for mod in blk.modules() for p in mod.params()]

    def grads(self) -> list[np.ndarray]:
        return [g for blk in self.blocks for mod in blk.modules() for g in mod.grads()]

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        """All state arrays (parameters plus BN running stats), in order."""
        out = []
        for blk in self.blocks:
            for mod in blk.modules():
                for name, arr in mod.tensors():
                    out.append((f"{blk.name}.{name}", arr))
        return out

    def load_tensors(self, arrays: list[np.ndarray]) -> None:
        own = self.tensors()
        if len(arrays) != len(own):
            raise ValidationError(f"expected {len(own)} tensors, got {len(arrays)}")
        for (name, dst), src in zip(own, arrays):
            if dst.shape != src.shape:
                raise ValidationError(f"tensor {name}: shape {src.shape} != {dst.shape}")
            dst[...] = src.astype(self.dtype)

    def clone(self) -> "Network":
        other = Network(self.spec, dtype=self.dtype)
        other.load_tensors([arr for _, arr in self.tensors()])
        return other

    def copy_state_from(self, other: "Network") -> None:
        self.load_tensors([arr for _, arr in other.tensors()])

    def activation_stats(self, x: np.ndarray, train: bool = True) -> list[dict]:
        """Per-block output statistics, for divergence diagnostics."""
        x = check_tensor4(x).astype(self.dtype, copy=False)
        stats = []
        for block in self.blocks:
            x = block.forward(x, train=train, rng=None, bn_train=train, apply_dropout=False)
            stats.append(
                {
                    "layer": block.name,
                    "min": float(x.min()),
                    "max": float(x.max()),
                    "mean": float(x.mean()),
                    "finite": bool(np.all(np.isfinite(x))),
                }
            )
        return stats


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error over all elements, and its gradient wrt pred."""
    if pred.shape != target.shape:
        raise ValidationError(f"shape mismatch: pred {pred.shape}, target {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    grad = diff * diff.dtype.type(2.0 / diff.size)
    return loss, grad


def sgd_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr: float,
    momentum: float = 0.0,
    velocity: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """In-place SGD update: v <- momentum*v - lr*g; p <- p + v.

    Returns the velocity buffers so callers can carry them across steps.
    """
    if not 0 <= lr < math.inf:  # also false for NaN
        raise ParameterError(f"learning rate must be finite and >= 0, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
    if velocity is None:
        velocity = [np.zeros_like(p) for p in params]
    if len(velocity) != len(params) or len(grads) != len(params):
        raise ValidationError("params, grads, velocity must have equal lengths")
    for p, g, v in zip(params, grads, velocity):
        v *= p.dtype.type(momentum)
        v -= p.dtype.type(lr) * g
        p += v
    return velocity


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------


@dataclass
class LayerGradReport:
    layer: str
    max_rel_err: float
    checked: int


@dataclass
class GradCheckReport:
    layers: list[LayerGradReport]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(r.max_rel_err < self.tolerance for r in self.layers)

    @property
    def worst(self) -> LayerGradReport:
        return max(self.layers, key=lambda r: r.max_rel_err)

    def lines(self) -> list[str]:
        out = []
        for r in self.layers:
            verdict = "PASS" if r.max_rel_err < self.tolerance else "FAIL"
            out.append(
                f"{r.layer}: max_rel_err={r.max_rel_err:.3e} ({r.checked} params) {verdict}"
            )
        return out


def _rel_err(a: float, n: float) -> float:
    # Both sides negligible means they agree the gradient is zero; comparing
    # pure float noise against the 1e-8 floor would be meaningless.  (A conv
    # bias feeding batchnorm has exactly zero gradient, for example.)
    if abs(a) < 1e-10 and abs(n) < 1e-10:
        return 0.0
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def grad_check(
    net: Network,
    x: np.ndarray,
    target: np.ndarray,
    h: float = 1e-3,
    tolerance: float = 1e-4,
    max_samples: int = 200,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Runs in 64-bit with dropout disabled and batchnorm in train mode on the
    fixed batch.  The ReLU gates are frozen from the reference pass while
    differencing: the network is piecewise linear in its gates, and the
    analytic gradient is the derivative of exactly that local smooth piece,
    so the difference quotient must be taken on the same piece (batchnorm
    statistics stay live and are verified in full).

    Each weight tensor is checked at its ``max_samples`` largest-gradient
    entries, where the comparison is well conditioned; a structural backward
    bug shifts those at least as much as the near-zero ones, which finite
    differences at fixed h cannot resolve relatively.  Biases and batchnorm
    parameters are checked exhaustively.
    """
    if net.dtype != np.float64:
        raise ParameterError("grad_check requires a float64 network")
    x = check_tensor4(x).astype(np.float64)
    target = np.asarray(target, dtype=np.float64)

    def loss_only() -> float:
        pred = net.forward(x, train=True, apply_dropout=False, frozen_gates=True)
        return mse_loss(pred, target)[0]

    pred = net.forward(x, train=True, apply_dropout=False)
    _, dpred = mse_loss(pred, target)
    net.backward(dpred)

    reports = []
    for block in net.blocks:
        worst = 0.0
        checked = 0
        for mod in block.modules():
            for param, grad, exhaustive in zip(
                mod.params(), mod.grads(), (False, True)
            ):
                analytic = grad.copy().reshape(-1)
                flat = param.reshape(-1)
                size = flat.size
                if exhaustive or size <= max_samples:
                    indices = np.arange(size)
                else:
                    indices = np.argsort(np.abs(analytic))[-max_samples:]
                for idx in indices:
                    old = flat[idx]
                    flat[idx] = old + h
                    f_plus = loss_only()
                    flat[idx] = old - h
                    f_minus = loss_only()
                    flat[idx] = old
                    numeric = (f_plus - f_minus) / (2.0 * h)
                    worst = max(worst, _rel_err(analytic[idx], numeric))
                    checked += 1
        reports.append(LayerGradReport(layer=block.name, max_rel_err=worst, checked=checked))
    return GradCheckReport(layers=reports, tolerance=tolerance)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(net: Network, metadata: dict | None = None) -> bytes:
    """Serialize spec, metadata, and all state tensors (float32 LE).

    A tensor holding NaN or Inf (a diverged run) is refused, as
    :func:`load_checkpoint` would refuse it.
    """
    tensors = net.tensors()
    for i, (_, arr) in enumerate(tensors):
        if not np.isfinite(arr).all():
            raise ValidationError(f"checkpoint tensor {i} {arr.shape} holds NaN or Inf")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<q", net.spec.seed))
    buf.write(struct.pack("<I", len(net.spec.layers)))
    for ls in net.spec.layers:
        buf.write(
            struct.pack(
                "<BIIBf",
                _KIND_CODE[ls.kind],
                ls.in_depth,
                ls.out_depth,
                int(ls.batchnorm),
                ls.dropout_p,
            )
        )
    meta = json.dumps(metadata or {}).encode("utf-8")
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    buf.write(struct.pack("<I", len(tensors)))
    for _, arr in tensors:
        buf.write(struct.pack("<B", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(arr.astype("<f4").tobytes())
    return buf.getvalue()


def load_checkpoint(data: bytes, dtype=np.float32) -> tuple[Network, dict]:
    """Rebuild a network (and its metadata) from :func:`save_checkpoint` bytes."""
    if data[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic {data[:6]!r}", offset=0)
    r = ByteReader(data, len(CHECKPOINT_MAGIC))
    seed, n_layers = r.unpack("<qI")
    layers = []
    for _ in range(n_layers):
        kind, in_d, out_d, bn, p = r.unpack("<BIIBf", "checkpoint layer")
        if kind >= len(LAYER_KINDS):
            raise FormatError(f"unknown layer kind code {kind}")
        layers.append(LayerSpec(LAYER_KINDS[kind], in_d, out_d, bool(bn), p))
    meta = r.take(*r.unpack("<I"), "checkpoint metadata")
    try:
        metadata = json.loads(meta.decode("utf-8"))
    except (ValueError, RecursionError):  # not UTF-8, not JSON, or nested too deep
        metadata = None
    if not isinstance(metadata, dict):
        raise FormatError(f"checkpoint metadata {meta[:40]!r} is not a UTF-8 JSON object")

    spec = NetworkSpec(layers=tuple(layers), seed=seed)
    if 4 * spec.parameter_count() > r.remaining:  # bound the allocation by the bytes left
        raise TruncationError(
            f"spec needs {4 * spec.parameter_count()} tensor bytes, {r.remaining} left"
        )
    net = Network(spec, dtype=dtype)
    own = net.tensors()
    (n_tensors,) = r.unpack("<I")
    if n_tensors != len(own):
        raise ValidationError(f"checkpoint holds {n_tensors} tensors, its spec has {len(own)}")
    for i, (name, dst) in enumerate(own):
        (ndim,) = r.unpack("<B")
        shape = r.unpack(f"<{ndim}I")
        if shape != dst.shape:  # checked before the bytes are read
            raise ValidationError(f"checkpoint tensor {i} ({name}): shape {shape} != {dst.shape}")
        src = r.array("<f4", shape, "checkpoint tensor")
        if not np.isfinite(src).all():
            raise ValidationError(f"checkpoint tensor {i} {shape} holds NaN or Inf")
        dst[...] = src
    if r.remaining:
        raise CorruptionError(f"{r.remaining} trailing bytes after the checkpoint tensors")
    return net, metadata
