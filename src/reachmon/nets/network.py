"""Network assembly from a JSON-serializable layer description.

A netspec is a plain dict::

    {"input_channels": 1, "input_len": 2,
     "layers": [
        {"type": "conv", "filters": 32, "kernel": 3, "activation": "leaky_relu"},
        {"type": "dropout", "rate": 0.2},
        {"type": "flatten"},
        {"type": "dense", "width": 64, "activation": "leaky_relu"},
        {"type": "dense", "width": 2, "activation": "relu"},
     ]}

The two monitor architectures are produced by :func:`build_classifier_spec`
(classification head: final dense with a nonnegative activation whose two
outputs are normalized to class likelihoods by softmax downstream) and
:func:`build_estimator_spec` (sequence-regression head: final convolution
with tanh so reconstructed states stay in the scaled range [-1, 1]).
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .layers import Conv1D, Dense, Dropout, Flatten

_ACTIVATIONS = ("linear", "relu", "leaky_relu", "tanh")


class Network:
    """Feed-forward network with explicit reverse-mode gradients.

    The network owns one flat parameter buffer :attr:`flat_params` and one
    flat gradient buffer :attr:`flat_grads`, in layer order.  Every layer's
    ``w``, ``b``, ``params`` and ``grads`` are views into them, so an
    optimizer updates the whole network through one array, and
    :meth:`set_weights` writes into the same memory.  Layers without
    parameters (``flatten``, ``dropout``) own none of it.
    """

    def __init__(self, spec: dict, seed: int = 0):
        """Layers of ``spec``; a spec whose layers do not chain or whose
        parameters are out of range raises ``ValueError``."""
        if "input_channels" not in spec or "input_len" not in spec:
            raise ValueError("netspec needs input_channels and input_len")
        self.spec = spec
        rng = np.random.default_rng([seed, 0x4E45])
        self.layers = []
        channels, length = spec["input_channels"], spec["input_len"]
        flat = None   # the width once flattened
        for i, layer in enumerate(spec["layers"]):
            kind = layer.get("type")
            activation = layer.get("activation", "linear")
            if kind in ("conv", "flatten") and flat is not None:
                raise ValueError(f"layer {i}: {kind} after flatten")
            if kind in ("conv", "dense") and activation not in _ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation")
            if kind == "conv":
                if layer["kernel"] % 2 == 0 or layer["kernel"] < 1:
                    raise ValueError(f"layer {i}: kernel must be odd and positive")
                self.layers.append(Conv1D(channels, layer["filters"],
                                          layer["kernel"], activation, rng))
                channels = layer["filters"]
            elif kind == "dense":
                if flat is None:
                    raise ValueError(f"layer {i}: dense requires flattened input")
                self.layers.append(Dense(flat, layer["width"], activation, rng,
                                         bias_init=layer.get("bias_init", 0.0)))
                flat = layer["width"]
            elif kind == "dropout":
                if not 0.0 <= layer["rate"] < 1.0:
                    raise ValueError(f"layer {i}: dropout rate must be in [0, 1)")
                self.layers.append(Dropout(layer["rate"]))
            elif kind == "flatten":
                self.layers.append(Flatten())
                flat = channels * length
            else:
                raise ValueError(f"layer {i}: unknown layer type {kind!r}")
        n = sum(p.size for p in self.params)
        self.flat_params = np.empty(n)
        self.flat_grads = np.zeros(n)
        start = 0
        for layer in self.layers:
            if not layer.params:
                continue
            views, grads = [], []
            for p in layer.params:
                stop = start + p.size
                views.append(self.flat_params[start:stop].reshape(p.shape))
                views[-1][...] = p
                grads.append(self.flat_grads[start:stop].reshape(p.shape))
                start = stop
            layer.w, layer.b = layer.params = views
            layer.grads = grads

    def forward(self, x, train: bool = False, rng=None):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.spec["input_channels"] \
                or x.shape[2] != self.spec["input_len"]:
            raise ShapeError(
                f"input shape {x.shape} does not match netspec "
                f"(B, {self.spec['input_channels']}, {self.spec['input_len']})")
        for layer in self.layers:
            x = layer.forward(x, train=train, rng=rng)
        return x

    def backward(self, dout):
        """Backward of the last forward, which must be a training forward."""
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    @property
    def params(self):
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self):
        return [g for layer in self.layers for g in layer.grads]

    def set_weights(self, weights):
        for p, w in zip(self.params, weights, strict=True):
            if p.shape != w.shape:
                raise ShapeError("weight shape mismatch")
            p[...] = w


# profile -> (conv layers, filters per conv, width of the hidden dense layer)
_ARCHITECTURES = {"desk": (2, 32, 64), "paper": (4, 128, 100)}


def _conv_stack(profile: str, kernel: int) -> list:
    """The profile's leaky-relu convolutions, each followed by dropout."""
    if profile not in _ARCHITECTURES:
        raise ValueError(f"unknown profile {profile!r}")
    convs, filters, _ = _ARCHITECTURES[profile]
    return [layer for _ in range(convs) for layer in (
        {"type": "conv", "filters": filters, "kernel": kernel,
         "activation": "leaky_relu"},
        {"type": "dropout", "rate": 0.2})]


def build_classifier_spec(in_channels: int, length: int, profile: str = "desk") -> dict:
    """Safety-label classifier over a window of ``in_channels`` x ``length``."""
    layers = _conv_stack(profile, kernel=3)
    layers.append({"type": "flatten"})
    layers.append({"type": "dense", "width": _ARCHITECTURES[profile][2],
                   "activation": "leaky_relu"})
    # Nonnegative two-output head; small positive bias keeps both score
    # channels initially active under the relu clamp.
    layers.append({"type": "dense", "width": 2, "activation": "relu",
                   "bias_init": 0.1})
    return {"input_channels": in_channels, "input_len": length, "layers": layers}


def build_estimator_spec(in_channels: int, out_channels: int, length: int,
                         profile: str = "desk") -> dict:
    """State-sequence regressor (observation window -> state window)."""
    kernel = 5
    layers = _conv_stack(profile, kernel)
    layers.append({"type": "conv", "filters": out_channels, "kernel": kernel,
                   "activation": "tanh"})
    return {"input_channels": in_channels, "input_len": length, "layers": layers}
