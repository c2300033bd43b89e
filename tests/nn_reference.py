"""The einsum convolution and 4-D batchnorm that ``hdrkit.nn`` replaced, as a
test oracle for the GEMM engine.

The ``forward``/``backward`` bodies are the earlier implementations verbatim:
nine ``einsum`` calls on strided slices of the padded input per 3x3 layer,
and batchnorm reducing over the (0, 2, 3) axes of the NCHW tensor.  Each
class inherits its parameters and gradient buffers from the engine's layer,
so both can be loaded with the same weights and compared.
"""

import numpy as np

from hdrkit.errors import ValidationError
from hdrkit.nn import BatchNorm, Conv


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
        y += self.b[None, :, None, None]
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xp = self._xp
        if xp is None:
            raise ValidationError("conv backward before forward")
        n, o, h, w = dy.shape
        k, p = self.ksize, self.pad
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
