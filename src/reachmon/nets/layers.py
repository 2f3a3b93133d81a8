"""Differentiable layers: 1-D convolution, dense, dropout, flatten.

Everything is plain numpy with explicit reverse-mode backward passes.
Convolutions are stride-1 with symmetric zero padding so sequence length is
preserved (the monitor windows are short, down to two steps).  They run as
unrolled convolutions (Chellapilla, Puri & Simard, IWFHR 2006): an im2col
copy of the input windows, one batched matrix product with the filters, and
a col2im sum for the input gradient.  Both copies are ``kernel`` shifted
slices of a channel-last buffer, with no index arrays or scatter.  Each
layer caches what its backward pass needs; gradients accumulate into
``grads`` aligned with ``params``.
"""

from __future__ import annotations

import numpy as np


def _activate(z, kind):
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        return np.maximum(z, 0.2 * z)
    if kind == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z, out, kind):
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "leaky_relu":
        return np.where(z >= 0.0, 1.0, 0.2).astype(z.dtype, copy=False)
    if kind == "tanh":
        return 1.0 - out * out
    raise ValueError(f"unknown activation {kind!r}")


class Layer:
    params: list
    grads: list

    def forward(self, x, train=False, rng=None):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError


class Conv1D(Layer):
    """Stride-1 same-padded 1-D convolution over (batch, channels, length).

    ``forward`` copies the input into a zero-padded channel-last buffer
    ``(B, L + 2p, C)`` and builds the im2col matrix ``(B, L, C * k)`` from
    ``k`` shifted slices of it, then multiplies by the flattened filters.
    ``backward`` turns the column gradient back into an input gradient with
    ``k`` shifted-slice adds, taking the kernel taps from last to first.
    Each padded position then sums its contributions in the order an
    ``np.add.at`` scatter over the im2col indices would, so outputs and
    gradients are bit-identical to that formulation.  The output is a
    (B, F, L) view of (B, L, F) memory, which the next convolution's
    channel-last copy reads contiguously; the input gradient is likewise a
    view of channel-last memory.
    """

    def __init__(self, in_channels, out_channels, kernel, activation, rng, dtype):
        if kernel % 2 == 0:
            raise ValueError("kernel size must be odd for same padding")
        fan_in = in_channels * kernel
        limit = np.sqrt(6.0 / fan_in)
        self.w = rng.uniform(-limit, limit,
                             size=(out_channels, in_channels, kernel)).astype(dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.kernel = kernel
        self.pad = (kernel - 1) // 2
        self.activation = activation
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]

    def forward(self, x, train=False, rng=None):
        B, C, L = x.shape
        p, k = self.pad, self.kernel
        xp = np.zeros((B, L + 2 * p, C), dtype=x.dtype)
        xp[:, p:p + L, :] = x.transpose(0, 2, 1)
        cols = np.empty((B, L, C, k), dtype=x.dtype)
        for j in range(k):
            cols[..., j] = xp[:, j:j + L, :]
        cols = cols.reshape(B, L, C * k)
        w2 = self.w.reshape(self.w.shape[0], -1)   # (F, C*k)
        z = cols @ w2.T + self.b                   # (B, L, F)
        z = z.transpose(0, 2, 1)                   # (B, F, L)
        out = _activate(z, self.activation)
        self._cache = (cols, z, out, (B, C, L))
        return out

    def backward(self, dout):
        cols, z, out, (B, C, L) = self._cache
        p, k = self.pad, self.kernel
        dz = dout * _activate_grad(z, out, self.activation)
        dz_t = dz.transpose(0, 2, 1)               # (B, L, F)
        F = self.w.shape[0]
        w2 = self.w.reshape(F, -1)
        self.grads[0][...] = (dz_t.reshape(-1, F).T @ cols.reshape(-1, w2.shape[1])
                              ).reshape(self.w.shape)
        self.grads[1][...] = dz.sum(axis=(0, 2))
        dcols = (dz_t @ w2).reshape(B, L, C, k)
        # Padded position m receives dcols[:, l, :, j] for l + j = m.  Adding
        # j = k-1 first sums them in increasing l, the order of a scatter
        # np.add.at(dxp, (.., l + j), dcols), so the sums round identically.
        dxp = np.zeros((B, L + 2 * p, C), dtype=dout.dtype)
        for j in range(k - 1, -1, -1):
            dxp[:, j:j + L, :] += dcols[..., j]
        return dxp[:, p:p + L, :].transpose(0, 2, 1)

    def shape_out(self, shape_in):
        _, L = shape_in
        return (self.w.shape[0], L)


class Dense(Layer):
    def __init__(self, in_dim, out_dim, activation, rng, dtype, bias_init=0.0):
        if activation in ("relu", "leaky_relu"):
            limit = np.sqrt(6.0 / in_dim)
        else:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.w = rng.uniform(-limit, limit, size=(out_dim, in_dim)).astype(dtype)
        self.b = np.full(out_dim, bias_init, dtype=dtype)
        self.activation = activation
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]

    def forward(self, x, train=False, rng=None):
        z = x @ self.w.T + self.b
        out = _activate(z, self.activation)
        self._cache = (x, z, out)
        return out

    def backward(self, dout):
        x, z, out = self._cache
        dz = dout * _activate_grad(z, out, self.activation)
        self.grads[0][...] = dz.T @ x
        self.grads[1][...] = dz.sum(axis=0)
        return dz @ self.w


class Dropout(Layer):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.params = []
        self.grads = []

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class Flatten(Layer):
    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)
