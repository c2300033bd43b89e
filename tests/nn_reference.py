"""Two earlier generations of the ``hdrkit.nn`` layers, as test oracles.

The einsum convolution and 4-D batchnorm are the f64 oracle for the GEMM
engine.  Their ``forward``/``backward`` bodies are the earlier
implementations verbatim: nine ``einsum`` calls on strided slices of the
padded input per 3x3 layer, and batchnorm reducing over the (0, 2, 3) axes
of the NCHW tensor.

The whole-batch GEMM layers and network are the bitwise f32 oracle for the
N-sliced engine that replaced them.  Their eval forward folds batchnorm into
the conv weights, as the engine's does.  They also keep the earlier engine's
two extra switches, ``bn_train`` and ``apply_dropout``, which the engine no
longer has: a train-mode forward with both false runs batchnorm unfolded on
the running statistics, the f64 oracle for the fold.  Their network forward
also still takes ``frozen_gates``, which the engine's does not: only
``grad_check`` runs frozen-gate passes, block by block.

A conv adds a bias only when it has one: in a network, the convs without
batchnorm.  The einsum conv can still carry one in front of batchnorm, which
is how the engine's bias-free batchnormed conv is checked against the
earlier conv -> batchnorm pair.

``relu``, ``relu_backward`` and ``dropout`` are the standalone operations
that a block's one fused mask multiply replaced, bitwise, in each direction;
``keep_mask`` is the one-draw dropout mask that the engine draws in slices:
one 16-bit lane of raw PCG64 output per element, cut out with shifts and
compared as a wide integer, where the engine views the output as ``uint16``.

Each class inherits its parameters and gradient buffers from the engine's
layer, so both can be loaded with the same weights and compared.
"""

import math

import numpy as np

from hdrkit.errors import ParameterError, ValidationError
from hdrkit.nn import (
    _EVAL_PIXELS,
    BatchNorm,
    Conv,
    Network,
    _blas_one_thread,
    _Block,
    check_tensor4,
)


class EinsumConv(Conv):
    @property
    def pad(self) -> int:
        return self.ksize // 2

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.w.shape[1]:
            raise ValidationError(
                f"conv expects {self.w.shape[1]} input channels, got {c}"
            )
        k, p = self.ksize, self.pad
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        self._xp = xp
        y = np.zeros((n, self.w.shape[0], h, w), dtype=x.dtype)
        for di in range(k):
            for dj in range(k):
                y += np.einsum(
                    "oi,nihw->nohw",
                    self.w[:, :, di, dj],
                    xp[:, :, di : di + h, dj : dj + w],
                    optimize=True,
                )
        if self.b is not None:
            y += self.b[None, :, None, None]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp = self._xp
        if xp is None:
            raise ValidationError("conv backward before forward")
        n, o, h, w = dy.shape
        k, p = self.ksize, self.pad
        if self.db is not None:
            self.db[...] = dy.sum(axis=(0, 2, 3))
        dxp = np.zeros_like(xp)
        for di in range(k):
            for dj in range(k):
                patch = xp[:, :, di : di + h, dj : dj + w]
                self.dw[:, :, di, dj] = np.einsum("nohw,nihw->oi", dy, patch, optimize=True)
                dxp[:, :, di : di + h, dj : dj + w] += np.einsum(
                    "oi,nohw->nihw", self.w[:, :, di, dj], dy, optimize=True
                )
        return dxp[:, :, p : p + h, p : p + w] if p else dxp


class FourAxisBatchNorm(BatchNorm):
    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        axes = (0, 2, 3)
        if train:
            mu = x.mean(axis=axes)
            var = x.var(axis=axes)
            istd = 1.0 / np.sqrt(var + self.eps)
            xhat = (x - mu[None, :, None, None]) * istd[None, :, None, None]
            m = self.momentum
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mu
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
        else:
            istd = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean[None, :, None, None]) * istd[None, :, None, None]
        self._cache = (xhat, istd, train)
        return self.gamma[None, :, None, None] * xhat + self.beta[None, :, None, None]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ValidationError("batchnorm backward before forward")
        xhat, istd, train = self._cache
        axes = (0, 2, 3)
        self.dbeta[...] = dy.sum(axis=axes)
        self.dgamma[...] = (dy * xhat).sum(axis=axes)
        dxhat = dy * self.gamma[None, :, None, None]
        if not train:
            return dxhat * istd[None, :, None, None]
        m = dy.shape[0] * dy.shape[2] * dy.shape[3]
        mean_dxhat = dxhat.mean(axis=axes)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes)
        return istd[None, :, None, None] * (
            dxhat
            - mean_dxhat[None, :, None, None]
            - xhat * mean_dxhat_xhat[None, :, None, None]
        )


def relu(x: np.ndarray, gate=None) -> tuple[np.ndarray, np.ndarray]:
    """``x * gate`` with ``gate = x > 0`` unless one is given; returns (y, gate).

    Passing the gate of an earlier pass keeps the network on the same linear
    piece (the frozen-gate gradient check).  Negative entries become -0.0,
    not the +0.0 that ``np.maximum(x, 0)`` would give.
    """
    if gate is None:
        gate = x > 0
    return x * gate, gate


def relu_backward(dy: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """Gradient passes where the forward input was strictly positive."""
    return dy * gate


def keep_mask(shape, p: float, rng: np.random.Generator) -> np.ndarray:
    """The dropout keep mask, as one draw: the engine's sliced, chunked draw
    gives these bytes and leaves ``rng`` in the same state.

    Element i, in C order, keeps when bits 16*(i % 4) to 16*(i % 4) + 15 of
    raw output i // 4, read as an integer, are at least ceil(p * 2**16).
    """
    n = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-n // 4))
    lanes = (raw[:, None] >> np.arange(0, 64, 16, dtype=np.uint64)) & np.uint64(0xFFFF)
    return (lanes.reshape(-1)[:n] >= math.ceil(p * 2**16)).reshape(shape)


def dropout(x: np.ndarray, p: float, train: bool, rng=None) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: returns (x * scale, scale), where scale is the
    :func:`keep_mask` times 1/(1-p) and also the backward multiplier, or
    (x, None) when nothing is dropped."""
    if not 0.0 <= p < 1.0:
        raise ParameterError(f"dropout p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x, None
    if rng is None:
        raise ParameterError("train-mode dropout needs an rng")
    scale = np.multiply(keep_mask(x.shape, p, rng), x.dtype.type(1.0 / (1.0 - p)))
    return x * scale, scale


# ---------------------------------------------------------------------------
# The whole-batch GEMM engine that the N-sliced engine replaced: the bitwise
# f32 oracle.  The bodies below are the earlier ``hdrkit.nn`` layers and
# ``Network.forward``/``backward``, each on the whole batch in the calling
# thread, with two changes that give each GEMM the engine's shape and BLAS
# thread count, so that they round alike on any OpenBLAS kernel (the
# engine's own AVX-512 ones and the AVX2 ones that ``OPENBLAS_CORETYPE=Zen``
# selects): an eval conv runs each sample's GEMM in chunks of
# ``_EVAL_PIXELS`` columns over its columns padded with zeros to a multiple
# of 16, with the bias as the weights' last column against a last row of
# ones, as the engine's eval pass does, and the network's passes run BLAS
# on one thread, as the engine's do.  The AVX2 kernels round that bias
# column otherwise than a GEMM followed by a bias add.  A train conv keeps
# the whole-sample GEMMs, and their bias add, which are the engine's train
# shapes.
# ---------------------------------------------------------------------------


# The engine rounds each sample's eval columns up to a multiple of 16; 1
# gives one GEMM of the sample's own width.
_EVAL_COLUMNS = 16


class WholeBatchConv(Conv):
    def forward(self, x: np.ndarray, train: bool, weight=None, bias=None) -> np.ndarray:
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
        weight = self.w if weight is None else weight
        bias = self.b if bias is None else bias
        w2 = weight.reshape(weight.shape[0], -1)
        if train:
            y = np.matmul(w2, cols)
        else:
            span = -(-h * w // _EVAL_COLUMNS) * _EVAL_COLUMNS
            cols = np.pad(cols, [(0, 0), (0, 0), (0, span - h * w)])
            if bias is not None:
                w2 = np.concatenate([w2, bias[:, None]], axis=1)
                cols = np.concatenate([cols, np.ones((n, 1, span), cols.dtype)], axis=1)
                bias = None
            y = np.empty((n, w2.shape[0], span), dtype=np.result_type(w2, cols))
            for c0 in range(0, span, _EVAL_PIXELS):
                chunk = slice(c0, c0 + _EVAL_PIXELS)
                np.matmul(w2, cols[..., chunk], out=y[..., chunk])
            y = y[..., : h * w]
        if bias is not None:
            y += bias[:, None]
        return y.reshape(n, -1, h, w)

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        cols = self._cols
        if cols is None:
            raise ValidationError("conv backward before forward")
        n, o, h, w = dy.shape
        dy = dy.reshape(n, o, h * w)
        if self.db is not None:
            self.db[...] = dy.sum(axis=(0, 2))
        self.dw.reshape(o, -1)[...] = np.matmul(dy, cols.transpose(0, 2, 1)).sum(axis=0)
        self._cols = None  # spent; for 1x1 this frees the layer below's output
        if not self.input_grad:  # every 3x3 conv, as in the engine
            return None
        return np.matmul(self.w.reshape(o, -1).T, dy).reshape(n, -1, h, w)


class WholeBatchBatchNorm(BatchNorm):
    def forward(self, x: np.ndarray, train: bool, inplace: bool = False) -> np.ndarray:
        shape = x.shape
        x = x.reshape(shape[0], shape[1], -1)
        m = x.shape[0] * x.shape[2]
        mu = x.sum(axis=(0, 2)) / m if train else self.running_mean
        xc = np.subtract(x, mu[:, None], out=x if inplace else None)
        if train:
            var = np.vecdot(xc, xc).sum(axis=0) / m
            mom = self.momentum
            self.running_mean[...] = (1.0 - mom) * self.running_mean + mom * mu
            self.running_var[...] = (1.0 - mom) * self.running_var + mom * var
        else:
            var = self.running_var
        istd = 1.0 / np.sqrt(var + self.eps)
        self._cache = (xc, istd, train)
        y = xc * (self.gamma * istd)[:, None]
        y += self.beta[:, None]
        return y.reshape(shape)

    def backward(self, dy: np.ndarray, inplace: bool = False) -> np.ndarray:
        if self._cache is None:
            raise ValidationError("batchnorm backward before forward")
        xc, istd, train = self._cache  # xhat = xc * istd
        self._cache = None
        dy3 = dy.reshape(xc.shape)
        self.dbeta[...] = dy3.sum(axis=(0, 2))
        self.dgamma[...] = np.vecdot(dy3, xc).sum(axis=0) * istd
        scale = self.gamma * istd
        dx = np.multiply(dy3, scale[:, None], out=dy3 if inplace else None)
        if train:
            m = xc.shape[0] * xc.shape[2]
            xc *= (scale * istd * self.dgamma / m)[:, None]
            dx -= xc
            dx -= (scale * self.dbeta / m)[:, None]
        return dx.reshape(dy.shape)


class WholeBatchBlock(_Block):
    def forward(self, x, train: bool, rng, bn_train: bool, apply_dropout: bool,
                frozen_gates: bool = False):
        bn = self.bn
        if bn is not None and not train and not bn_train:  # the eval fold
            s = bn.gamma / np.sqrt(bn.running_var + bn.eps)
            y = self.conv.forward(x, train, self.conv.w * s[:, None, None, None],
                                  bn.beta - bn.running_mean * s)
            bn = None
        else:
            y = self.conv.forward(x, train)
        if self.is_output:
            return y
        if bn is not None:
            y = bn.forward(y, train=bn_train, inplace=True)
        if frozen_gates:
            if self._mask is None or self._scale is not None:
                raise ValidationError("frozen-gate forward before a dropout-free reference pass")
            mask = self._mask
        else:
            mask = y > 0
        p = self.spec.dropout_p
        self._scale = None
        if train and apply_dropout and p > 0.0:
            if rng is None:
                raise ParameterError("train-mode dropout needs an rng")
            keep = keep_mask(y.shape, p, rng)
            keep &= mask
            mask = keep
            self._scale = y.dtype.type(1.0 / (1.0 - p))
        self._mask = mask
        y *= mask
        if self._scale is not None:
            y *= self._scale
        return y

    def backward(self, dy):
        if not self.is_output:
            dy = dy * self._mask
            if self._scale is not None:
                dy *= self._scale
            if self.bn is not None:
                dy = self.bn.backward(dy, inplace=True)
        return self.conv.backward(dy)


class WholeBatchNetwork(Network):
    """A :class:`Network` (same spec, same initial tensors) on the layers above."""

    def __init__(self, spec, dtype=np.float32) -> None:
        super().__init__(spec, dtype)
        for block in self.blocks:
            block.__class__ = WholeBatchBlock
            block.conv.__class__ = WholeBatchConv
            if block.bn is not None:
                block.bn.__class__ = WholeBatchBatchNorm

    def forward(self, x, train=False, rng=None, bn_train=None, apply_dropout=True,
                frozen_gates=False):
        x = check_tensor4(x, "input").astype(self.dtype, copy=False)
        if bn_train is None:
            bn_train = train
        if train and apply_dropout and rng is None:
            if any(b.spec.dropout_p > 0 for b in self.blocks):
                raise ParameterError("train-mode forward with dropout needs an rng")
        with _blas_one_thread():
            for block in self.blocks:
                x = block.forward(x, train, rng, bn_train, apply_dropout, frozen_gates)
        return x

    def backward(self, dy):
        with _blas_one_thread():
            for block in reversed(self.blocks):
                dy = block.backward(dy)
