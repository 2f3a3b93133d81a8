"""Differentiable layers: 1-D convolution, dense, dropout, flatten.

Everything is plain numpy with explicit reverse-mode backward passes.
Convolutions are stride-1 with symmetric zero padding so sequence length is
preserved (the monitor windows are short, down to two steps).  They run as
unrolled convolutions (Chellapilla, Puri & Simard, IWFHR 2006): an im2col
copy of the input windows, one batched matrix product with the filters, and
a col2im sum for the input gradient.  The im2col matrix is one gather
(``take``) from a zero-padded channel-last buffer through an index cached
per input length; the col2im sum is ``kernel`` shifted-slice adds, with no
scatter.  A batch of more than ``ROW_BLOCK`` windows (an eval pass over a
whole split) is unrolled and multiplied ``ROW_BLOCK`` windows at a time, so
each block's im2col matrix stays in cache; training minibatches and batch-1
verdicts fit in one block.  Weights are float64; the layers share no base
class, and ``Network`` checks their arguments.  Only a training forward keeps
what ``backward`` needs, which writes gradients into ``grads`` aligned with
``params``: views of the ``Network``'s flat parameter and gradient buffers.
"""

from __future__ import annotations

import math

import numpy as np

# Windows per im2col block.  On a 2-core x86-64 host (4 MiB L2), 4000-window
# predictions of the sn and lalo monitors ran fastest at 128; 64 was 2-3 %
# slower, 32 and 256 9-17 %, and one block for the whole batch 40-41 %.
ROW_BLOCK = 128


def _activate(z, kind):
    if kind == "linear":
        return z
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "leaky_relu":
        t = 0.2 * z
        return np.maximum(z, t, out=t)
    if kind == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {kind!r}")


def _activate_grad(z, out, kind):
    if kind == "linear":
        return np.ones_like(z)
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    if kind == "leaky_relu":
        return np.maximum(z >= 0.0, 0.2)           # keeps z's memory order
    if kind == "tanh":
        return 1.0 - out * out
    raise ValueError(f"unknown activation {kind!r}")


def _training_cache(layer):
    if layer._cache is None:
        raise ValueError(f"{type(layer).__name__}.backward needs a forward "
                         "pass with train=True first")
    return layer._cache


class Conv1D:
    """Stride-1 same-padded 1-D convolution over (batch, channels, length).

    ``forward`` copies the input into a zero-padded channel-last buffer
    ``(B, L + 2p, C)`` and builds the im2col matrix ``(B, L, C * k)`` with
    one ``take`` through an ``(L, C * k)`` index into each padded row, cached
    per input length, then multiplies by the flattened filters.
    ``backward`` turns the column gradient back into an input gradient with
    ``k`` shifted-slice adds, taking the kernel taps from last to first.
    Each padded position then sums its contributions in the order an
    ``np.add.at`` scatter over the im2col indices would, so outputs and
    gradients are bit-identical to that formulation.  The output is a
    (B, F, L) view of (B, L, F) memory, which the next convolution's
    channel-last copy reads contiguously; the input gradient is likewise a
    view of channel-last memory.

    A batch of more than ``ROW_BLOCK`` windows is unrolled and multiplied
    one block of rows at a time into the (B, L, F) output.  The product
    ``(B, L, C * k) @ (C * k, F)`` is a stacked matmul that numpy evaluates
    as one BLAS call per window, so the blocks give the same bits as one
    whole product.  The products that stay whole are the weight gradient
    (its inner dimension is B * L) and the dense layers, whose rows round
    differently with the row count.  Only a training forward keeps a cache;
    after a blocked one it holds the layer input instead of the
    (B, L, C * k) matrix, and ``backward`` rebuilds the matrix from it.
    """

    def __init__(self, in_channels, out_channels, kernel, activation, rng):
        fan_in = in_channels * kernel
        limit = np.sqrt(6.0 / fan_in)
        self.w = rng.uniform(-limit, limit,
                             size=(out_channels, in_channels, kernel))
        self.b = np.zeros(out_channels)
        self.kernel = kernel
        self.pad = (kernel - 1) // 2
        self.activation = activation
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._col_index = {}                       # input length -> (L, C*k)
        self._cache = None

    def _im2col(self, x):
        B, C, L = x.shape
        p, k = self.pad, self.kernel
        idx = self._col_index.get(L)
        if idx is None:
            # column c*k + j of row l reads padded position l + j, channel c
            idx = ((np.arange(L)[:, None, None] + np.arange(k)) * C
                   + np.arange(C)[:, None]).reshape(L, C * k)
            self._col_index[L] = idx
        xp = np.zeros((B, L + 2 * p, C), dtype=x.dtype)
        xp[:, p:p + L, :] = x.transpose(0, 2, 1)
        # the explicit row size keeps the reshape valid for B = 0
        return xp.reshape(B, (L + 2 * p) * C).take(idx, axis=1)

    def forward(self, x, train=False, rng=None):
        B, C, L = x.shape
        w2 = self.w.reshape(self.w.shape[0], -1)   # (F, C*k)
        if B <= ROW_BLOCK:
            cols = self._im2col(x)
            z = cols @ w2.T                        # (B, L, F)
        else:
            cols = None                            # backward rebuilds it from x
            z = np.empty((B, L, w2.shape[0]))
            for s in range(0, B, ROW_BLOCK):
                np.matmul(self._im2col(x[s:s + ROW_BLOCK]), w2.T,
                          out=z[s:s + ROW_BLOCK])
        z += self.b
        z = z.transpose(0, 2, 1)                   # (B, F, L)
        out = _activate(z, self.activation)
        self._cache = (x, cols, z, out) if train else None
        return out

    def backward(self, dout):
        x, cols, z, out = _training_cache(self)
        if cols is None:
            cols = self._im2col(x)
        B, C, L = x.shape
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


class Dense:
    def __init__(self, in_dim, out_dim, activation, rng, bias_init=0.0):
        if activation in ("relu", "leaky_relu"):
            limit = np.sqrt(6.0 / in_dim)
        else:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
        self.w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        self.b = np.full(out_dim, bias_init, dtype=np.float64)
        self.activation = activation
        self.params = [self.w, self.b]
        self.grads = [np.zeros_like(self.w), np.zeros_like(self.b)]
        self._cache = None

    def forward(self, x, train=False, rng=None):
        z = x @ self.w.T
        z += self.b
        out = _activate(z, self.activation)
        self._cache = (x, z, out) if train else None
        return out

    def backward(self, dout):
        x, z, out = _training_cache(self)
        dz = dout * _activate_grad(z, out, self.activation)
        self.grads[0][...] = dz.T @ x
        self.grads[1][...] = dz.sum(axis=0)
        return dz @ self.w


class Dropout:
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate):
        self.rate = rate
        self.params = []
        self.grads = []

    def forward(self, x, train=False, rng=None):
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.random(x.shape) < keep) * (1.0 / keep)
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class Flatten:
    def __init__(self):
        self.params = []
        self.grads = []

    def forward(self, x, train=False, rng=None):
        self._shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, dout):
        return dout.reshape(self._shape)
