import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from reachmon.errors import InsufficientData, IntegrityError, NumericalError, ShapeError
from reachmon.nets import (
    MonitorModel,
    Network,
    TrainOpts,
    build_classifier_spec,
    build_estimator_spec,
    cross_entropy,
    fine_tune,
    load_model,
    mse,
    predict,
    save_model,
    train_classifier,
    train_estimator,
)
from reachmon.nets import layers
from reachmon.nets.layers import ROW_BLOCK, Conv1D, Dense, Dropout
from reachmon.nets.training import Adam, predict_scores, softmax
from reachmon.storage import load_container, save_container


def conv1d_oracle(x, w, b, pad):
    """Brute-force nested-loop same-padded stride-1 convolution."""
    B, C, L = x.shape
    F, _, K = w.shape
    xp = np.zeros((B, C, L + 2 * pad))
    xp[:, :, pad:pad + L] = x
    out = np.zeros((B, F, L))
    for bi in range(B):
        for f in range(F):
            for l in range(L):
                acc = b[f]
                for c in range(C):
                    for k in range(K):
                        acc += w[f, c, k] * xp[bi, c, l + k]
                out[bi, f, l] = acc
    return out


def conv1d_reference(layer, x, dout):
    """Conv1D by np.pad + fancy-index im2col and an np.add.at col2im, with
    leaky_relu by np.where; returns (out, dx, dw, db)."""
    B, C, L = x.shape
    k, pad = layer.kernel, layer.pad
    F = layer.w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    idx = np.arange(L)[:, None] + np.arange(k)[None, :]
    cols = xp[:, :, idx].transpose(0, 2, 1, 3).reshape(B, L, C * k)
    w2 = layer.w.reshape(F, -1)
    z = (cols @ w2.T + layer.b).transpose(0, 2, 1)
    act = layer.activation
    if act == "linear":
        out, grad = z, np.ones_like(z)
    elif act == "relu":
        out, grad = np.maximum(z, 0.0), (z > 0.0).astype(z.dtype)
    elif act == "leaky_relu":
        out = np.where(z >= 0.0, z, 0.2 * z)
        grad = np.where(z >= 0.0, 1.0, 0.2).astype(z.dtype)
    else:
        out = np.tanh(z)
        grad = 1.0 - out * out
    dz = dout * grad
    dz_t = dz.transpose(0, 2, 1)
    dw = (dz_t.reshape(-1, F).T @ cols.reshape(-1, w2.shape[1])).reshape(layer.w.shape)
    db = dz.sum(axis=(0, 2))
    dcols = (dz_t @ w2).reshape(B, L, C, k).transpose(0, 2, 1, 3)
    dxp = np.zeros((B, C, L + 2 * pad), dtype=dout.dtype)
    np.add.at(dxp, (slice(None), slice(None), idx), dcols)
    return out, dxp[:, :, pad:pad + L], dw, db


def make_net(spec, seed=0):
    return Network(spec, seed=seed)


class PerArrayAdam:
    """Adam with one update per parameter array in plain expressions: the
    oracle for the flat in-place update."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m[...] = b1 * m + (1.0 - b1) * g
            v[...] = b2 * v + (1.0 - b2) * g * g
            mh = m / (1.0 - b1 ** self.t)
            vh = v / (1.0 - b2 ** self.t)
            p -= self.lr * mh / (np.sqrt(vh) + self.eps)


def assert_flat_views(net):
    """Every layer's parameters and gradients are views of the net's flat
    buffers, laid out in layer order."""
    start = 0
    for layer in net.layers:
        if layer.params:
            assert layer.params[0] is layer.w and layer.params[1] is layer.b
        for p, g in zip(layer.params, layer.grads, strict=True):
            stop = start + p.size
            assert p.base is net.flat_params and g.base is net.flat_grads
            assert np.shares_memory(p, net.flat_params[start:stop])
            assert np.shares_memory(g, net.flat_grads[start:stop])
            start = stop
    assert start == net.flat_params.size == net.flat_grads.size


class TestForward:
    def test_identity_dense_passthrough(self):
        spec = {"input_channels": 1, "input_len": 4,
                "layers": [{"type": "flatten"},
                           {"type": "dense", "width": 4, "activation": "linear"}]}
        net = make_net(spec)
        net.layers[1].w[...] = np.eye(4)
        net.layers[1].b[...] = 0.0
        x = np.random.default_rng(0).normal(size=(3, 1, 4))
        assert np.allclose(net.forward(x), x.reshape(3, 4))

    def test_zero_weight_classifier_ties(self):
        spec = build_classifier_spec(1, 2, "desk")
        net = make_net(spec)
        for p in net.params:
            p[...] = 0.0
        x = np.random.default_rng(0).normal(size=(5, 1, 2))
        scores = net.forward(x)
        assert (scores[:, 0] == scores[:, 1]).all()
        lik = softmax(scores)
        assert np.allclose(lik, 0.5)

    def test_conv_matches_bruteforce_oracle(self):
        spec = {"input_channels": 3, "input_len": 8,
                "layers": [{"type": "conv", "filters": 5, "kernel": 3,
                            "activation": "linear"}]}
        net = make_net(spec, seed=3)
        x = np.random.default_rng(1).normal(size=(2, 3, 8))
        got = net.forward(x)
        layer = net.layers[0]
        want = conv1d_oracle(x, layer.w, layer.b, layer.pad)
        assert np.abs(got - want).max() < 1e-6

    def test_shape_mismatch(self):
        net = make_net(build_classifier_spec(2, 4, "desk"))
        with pytest.raises(ShapeError):
            net.forward(np.zeros((1, 3, 4)))

    def test_dropout_eval_identity(self):
        spec = {"input_channels": 1, "input_len": 6,
                "layers": [{"type": "dropout", "rate": 0.5}]}
        net = make_net(spec)
        x = np.random.default_rng(0).normal(size=(4, 1, 6))
        assert np.array_equal(net.forward(x, train=False), x)
        rng = np.random.default_rng(0)
        dropped = net.forward(x, train=True, rng=rng)
        assert not np.array_equal(dropped, x)

    @pytest.mark.parametrize("rate", [0.2, 0.3, 0.5])
    def test_dropout_mask_matches_parent_formula(self, rate):
        layer = Dropout(rate)
        x = np.random.default_rng(1).normal(size=(7, 3, 5))
        out = layer.forward(x, train=True, rng=np.random.default_rng(9))
        keep = 1.0 - rate
        want = (np.random.default_rng(9).random(x.shape) < keep
                ).astype(x.dtype) / keep
        assert layer._mask.dtype == want.dtype
        assert np.array_equal(layer._mask, want)
        assert np.array_equal(out, x * want)

    def test_leaky_relu_matches_where_form(self):
        # (B, F, L) view of (B, L, F) memory, as a convolution produces it;
        # the gradient keeps that order and the np.where values
        z = np.random.default_rng(2).normal(size=(4, 6, 3)).transpose(0, 2, 1)
        z[0, 0, :3] = (0.0, -0.0, np.nan)
        out = layers._activate(z, "leaky_relu")
        grad = layers._activate_grad(z, out, "leaky_relu")
        assert np.array_equal(out, np.maximum(z, 0.2 * z), equal_nan=True)
        assert np.array_equal(grad, np.where(z >= 0.0, 1.0, 0.2))
        assert out.strides == grad.strides == z.strides

    def test_softmax_matches_parent_formula(self):
        scores = np.random.default_rng(3).normal(size=(9, 2)) * 30
        before = scores.copy()
        z = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(z)
        assert np.array_equal(softmax(scores), e / e.sum(axis=1, keepdims=True))
        assert np.array_equal(scores, before)

    def test_netspec_validation(self):
        conv = {"type": "conv", "filters": 2, "kernel": 3}
        dense = {"type": "dense", "width": 3}
        flat = {"type": "flatten"}
        for layers, message in [
                ([flat, conv], "layer 1: conv after flatten"),
                ([conv, flat, flat], "layer 2: flatten after flatten"),
                ([conv, dense], "layer 1: dense requires flattened input"),
                ([{**conv, "kernel": 2}], "layer 0: kernel must be odd"),
                ([{**conv, "kernel": -1}], "layer 0: kernel must be odd"),
                ([{**conv, "activation": "gelu"}], "layer 0: unknown activation"),
                ([flat, {**dense, "activation": "gelu"}],
                 "layer 1: unknown activation"),
                ([{"type": "pool"}], "layer 0: unknown layer type"),
                ([{"type": "dropout", "rate": 1.0}], "layer 0: dropout rate")]:
            with pytest.raises(ValueError, match=message):
                Network({"input_channels": 1, "input_len": 4, "layers": layers})
        for key in ("input_channels", "input_len"):
            spec = {"input_channels": 1, "input_len": 4, "layers": [flat, dense]}
            del spec[key]
            with pytest.raises(ValueError, match="needs input_channels"):
                Network(spec)


class TestGradients:
    def test_zero_target_zero_net(self):
        spec = build_estimator_spec(1, 1, 2, "desk")
        net = make_net(spec)
        for p in net.params:
            p[...] = 0.0
        x = np.zeros((2, 1, 2))
        out = net.forward(x, train=True, rng=np.random.default_rng(0))
        _, dout = mse(out, np.zeros_like(out))
        net.backward(dout)
        for g in net.grads:
            assert (g == 0.0).all()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_finite_difference_small_net(self, seed):
        spec = {"input_channels": 2, "input_len": 4,
                "layers": [{"type": "conv", "filters": 3, "kernel": 3,
                            "activation": "leaky_relu"},
                           {"type": "flatten"},
                           {"type": "dense", "width": 5, "activation": "tanh"},
                           {"type": "dense", "width": 2, "activation": "relu",
                            "bias_init": 0.1}]}
        net = make_net(spec, seed=seed)
        rng = np.random.default_rng(seed + 50)
        x = rng.normal(size=(3, 2, 4))
        y = rng.integers(0, 2, 3)
        scores = net.forward(x, train=True)
        _, dscores = cross_entropy(scores, y)
        net.backward(dscores)
        grads = [g.copy() for g in net.grads]
        h = 1e-5
        for p, g in zip(net.params, grads):
            flat = p.ravel()
            gflat = g.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = cross_entropy(net.forward(x), y)[0]
                flat[i] = orig - h
                lm = cross_entropy(net.forward(x), y)[0]
                flat[i] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gflat[i]) < 1e-4 * max(1.0, abs(fd))

    def test_combined_loss_is_sum_of_gradients(self):
        # combined fine-tuning gradient = mse gradient + cross-entropy
        # gradient, componentwise (linearity of differentiation)
        nse = make_net(build_estimator_spec(1, 2, 2, "desk"), seed=1)
        nsc = make_net(build_classifier_spec(2, 2, "desk"), seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 1, 2))
        starget = rng.uniform(-1, 1, size=(4, 2, 2))
        y = rng.integers(0, 2, 4)

        def grads_for(loss_kind):
            # a fresh stream per call: every call draws the same dropout masks
            drop_rng = np.random.default_rng(7)
            s_hat = nse.forward(x, train=True, rng=drop_rng)
            if loss_kind == "mse":
                _, ds = mse(s_hat, starget)
            elif loss_kind == "ce":
                scores = nsc.forward(s_hat, train=True, rng=drop_rng)
                _, dsc = cross_entropy(scores, y)
                ds = nsc.backward(dsc)
            else:
                scores = nsc.forward(s_hat, train=True, rng=drop_rng)
                _, dsc = cross_entropy(scores, y)
                _, dm = mse(s_hat, starget)
                ds = dm + nsc.backward(dsc)
            nse.backward(ds)
            return [g.copy() for g in nse.grads]

        g_mse = grads_for("mse")
        g_ce = grads_for("ce")
        g_comb = grads_for("combined")
        for gm, gc, gt in zip(g_mse, g_ce, g_comb):
            assert np.abs(gt - (gm + gc)).max() < 1e-10


class TestConv1DBitExact:
    @pytest.mark.parametrize("activation", ["linear", "relu", "leaky_relu", "tanh"])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    def test_matches_scatter_reference(self, kernel, activation):
        rng = np.random.default_rng(kernel)
        C, F = 6, 5
        # B > ROW_BLOCK runs the row-blocked forward, whose backward
        # rebuilds the im2col matrix from the cached input
        for B in (0, 1, 64, ROW_BLOCK, ROW_BLOCK + 1, 3 * ROW_BLOCK + 7):
            # channel_last: (B, C, L) views of (B, L, C) memory, as one
            # conv passes its output and input gradient to the next
            for channel_last in (False, True):
                layer = Conv1D(C, F, kernel, activation, rng)
                layer.b[...] = rng.normal(size=F)
                # one instance across lengths: the im2col index is cached
                # per length, and 6 comes back after 2
                for L in (6, 2, 6, 1):
                    if channel_last:
                        x = rng.normal(size=(B, L, C)).transpose(0, 2, 1)
                        dout = rng.normal(size=(B, L, F)).transpose(0, 2, 1)
                    else:
                        x = rng.normal(size=(B, C, L))
                        dout = rng.normal(size=(B, F, L))
                    out = layer.forward(x, train=True)
                    dx = layer.backward(dout)
                    want = conv1d_reference(layer, x, dout)
                    case = (B, L, channel_last)
                    assert out.shape == (B, F, L), case
                    assert np.array_equal(out, want[0]), case
                    assert np.array_equal(dx, want[1]), case
                    assert np.array_equal(layer.grads[0], want[2]), case
                    assert np.array_equal(layer.grads[1], want[3]), case
                assert sorted(layer._col_index) == [1, 2, 6]

    @pytest.mark.parametrize("kernel", [1, 5])
    def test_empty_batch(self, kernel):
        rng = np.random.default_rng(0)
        layer = Conv1D(3, 4, kernel, "leaky_relu", rng)
        out = layer.forward(np.empty((0, 3, 6)), train=True)
        assert out.shape == (0, 4, 6)
        assert layer.backward(np.empty((0, 4, 6))).shape == (0, 3, 6)
        assert not layer.grads[0].any() and not layer.grads[1].any()

    def test_multi_block_cache_holds_no_im2col_matrix(self):
        B, L = 3 * ROW_BLOCK + 7, 5
        net = make_net(build_estimator_spec(2, 3, L, "desk"), seed=3)
        net.forward(np.random.default_rng(0).normal(size=(B, 2, L)),
                    train=True, rng=np.random.default_rng(1))
        for layer in net.layers:
            if isinstance(layer, Conv1D):
                C, k = layer.w.shape[1:]
                shapes = [a.shape for a in layer._cache
                          if isinstance(a, np.ndarray)]
                assert (B, L, C * k) not in shapes, shapes


class TestTrainClassifier:
    def test_separable_reaches_full_accuracy(self):
        rng = np.random.default_rng(0)
        c = rng.uniform(-1, 1, 200)
        X = np.repeat(c[:, None, None], 4, axis=2)
        y = (c > 0).astype(int)
        net, hist = train_classifier(X, y, build_classifier_spec(1, 4, "desk"),
                                     TrainOpts(lr=1e-3, epochs=50, seed=0))
        acc = (predict_scores(net, X).argmax(1) == y).mean()
        assert acc == 1.0
        assert hist[-1] < hist[0]

    def test_flipped_duplicates_unlearnable(self):
        rng = np.random.default_rng(1)
        X0 = rng.normal(size=(100, 1, 4))
        X = np.concatenate([X0, X0])
        y = np.concatenate([np.zeros(100, int), np.ones(100, int)])
        net, _ = train_classifier(X, y, build_classifier_spec(1, 4, "desk"),
                                  TrainOpts(lr=1e-3, epochs=30, seed=0))
        acc = (predict_scores(net, X).argmax(1) == y).mean()
        # every input appears with both labels: any deterministic
        # prediction scores exactly one half
        assert acc == pytest.approx(0.5, abs=0.05)

    def test_paper_profile_opts_echoed(self):
        from reachmon.monitor import TrainSchedule
        sched = TrainSchedule.for_profile("paper", seed=7)
        assert sched.classifier == TrainOpts(lr=1e-5, epochs=200,
                                             batch_size=64, seed=7)
        assert sched.estimator.lr == 1e-6
        assert sched.finetune == TrainOpts(lr=1e-7, epochs=100,
                                           batch_size=64, seed=7)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 1, 2))
        y = rng.integers(0, 2, 8)
        opts = TrainOpts(lr=1e-5, epochs=200, batch_size=64, seed=7)
        net, hist = train_classifier(
            X, y, {"input_channels": 1, "input_len": 2,
                   "layers": [{"type": "flatten"},
                              {"type": "dense", "width": 2,
                               "activation": "relu", "bias_init": 0.1}]},
            opts)
        assert len(hist) == 200

    def test_divergence_aborts(self):
        # Adam bounds each update by ~lr, so forcing non-finite scores
        # takes extreme magnitudes
        rng = np.random.default_rng(3)
        X = rng.normal(size=(32, 1, 2)) * 1e200
        y = rng.integers(0, 2, 32)
        with pytest.raises(NumericalError), np.errstate(all="ignore"):
            train_classifier(X, y, build_classifier_spec(1, 2, "desk"),
                             TrainOpts(lr=1e120, epochs=5, seed=0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(64, 1, 2))
        y = rng.integers(0, 2, 64)
        spec = build_classifier_spec(1, 2, "desk")
        n1, _ = train_classifier(X, y, spec, TrainOpts(epochs=5, seed=11))
        n2, _ = train_classifier(X, y, spec, TrainOpts(epochs=5, seed=11))
        for a, b in zip(n1.params, n2.params):
            assert np.array_equal(a, b)


class TestTrainEstimator:
    def test_identity_observation_learnable(self, twt_spec):
        from reachmon.data import Scaler, gen_independent, scale
        from reachmon.monitor import obs_windows, state_windows
        spec = replace(twt_spec, noise_std=0 * twt_spec.noise_std)
        ds = gen_independent(spec, 600, seed=0)
        dss = scale(ds, Scaler.fit(ds))
        X, S = obs_windows(dss), state_windows(dss)
        net, _ = train_estimator(X[:500], S[:500],
                                 build_estimator_spec(3, 3, 2, "desk"),
                                 TrainOpts(lr=3e-3, epochs=100, seed=0))
        held_mse = mse(net.forward(X[500:]), S[500:])[0]
        assert held_mse < 1e-3

    def test_constant_target(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 2, 3))
        S = np.full((200, 1, 3), 0.25)
        net, _ = train_estimator(X, S, build_estimator_spec(2, 1, 3, "desk"),
                                 TrainOpts(lr=3e-3, epochs=100, seed=0))
        assert mse(net.forward(X), S)[0] < 1e-4

    def test_output_in_tanh_range(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2, 3)) * 10
        net = make_net(build_estimator_spec(2, 2, 3, "desk"), seed=0)
        out = net.forward(X)
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestFineTune:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 1, 2))
        S = np.tanh(rng.normal(size=(120, 2, 2)))
        y = (S[:, 0, -1] > 0).astype(int)
        nse = make_net(build_estimator_spec(1, 2, 2, "desk"), seed=seed)
        nsc = make_net(build_classifier_spec(2, 2, "desk"), seed=seed + 1)
        return X, S, y, nse, nsc

    def test_zero_epochs_weights_unchanged(self):
        X, S, y, nse, nsc = self._setup()
        w_before = [p.copy() for p in nse.params + nsc.params]
        info = fine_tune(nse, nsc, X, S, y, TrainOpts(epochs=0, seed=0))
        assert not info["reverted"]
        for p, w in zip(nse.params + nsc.params, w_before):
            assert np.array_equal(p, w)

    def test_classifier_path_gradient_reaches_estimator(self):
        # the combined-loss gradient w.r.t. estimator weights includes the
        # classifier term: it must differ from the mse-only gradient
        X, S, y, nse, nsc = self._setup(seed=2)
        # a fresh stream per pass: both passes draw the same estimator masks
        s_hat = nse.forward(X, train=True, rng=np.random.default_rng(7))
        _, dm = mse(s_hat, S)
        nse.backward(dm)
        g_mse = [g.copy() for g in nse.grads]
        drop_rng = np.random.default_rng(7)
        s_hat = nse.forward(X, train=True, rng=drop_rng)
        scores = nsc.forward(s_hat, train=True, rng=drop_rng)
        _, dsc = cross_entropy(scores, y)
        nse.backward(dm + nsc.backward(dsc))
        g_comb = [g.copy() for g in nse.grads]
        assert any(np.abs(a - b).max() > 1e-12 for a, b in zip(g_mse, g_comb))

    @pytest.mark.parametrize("n", [0, 1])
    def test_no_row_beside_the_guard_is_insufficient_data(self, n):
        X, S, y, nse, nsc = self._setup()
        with pytest.raises(InsufficientData, match="guard"):
            fine_tune(nse, nsc, X[:n], S[:n], y[:n], TrainOpts(epochs=1, seed=0))

    def test_guarded_revert_on_divergence(self):
        # as for train_classifier, only extreme magnitudes make Adam's
        # bounded steps drive the loss non-finite
        X, S, y, nse, nsc = self._setup(seed=3)
        w_before = [p.copy() for p in nse.params + nsc.params]
        with np.errstate(all="ignore"):
            info = fine_tune(nse, nsc, X * 1e200, S, y,
                             TrainOpts(lr=1e120, epochs=3, seed=0))
        assert info["diverged"] and info["reverted"]
        for p, w in zip(nse.params + nsc.params, w_before):
            assert np.array_equal(p, w)
        assert not np.isfinite(info["loss_history"][-1])

    def test_accuracy_guard(self):
        X, S, y, nse, nsc = self._setup(seed=4)
        info = fine_tune(nse, nsc, X, S, y, TrainOpts(lr=1e-4, epochs=5, seed=0))
        if not info["reverted"]:
            assert info["guard_acc_after"] >= info["guard_acc_before"] - 0.005


class TestPredict:
    def test_zero_weight_tie_breaks_to_zero(self):
        net = make_net(build_classifier_spec(1, 2, "desk"))
        for p in net.params:
            p[...] = 0.0
        model = MonitorModel(kind="end_to_end", nets={"classifier": net})
        out = predict(model, np.random.default_rng(0).normal(size=(4, 1, 2)))
        assert (out["labels"] == 0).all()

    def test_two_step_equals_manual_composition(self):
        nse = make_net(build_estimator_spec(1, 2, 2, "desk"), seed=5)
        nsc = make_net(build_classifier_spec(2, 2, "desk"), seed=6)
        model = MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc})
        x = np.random.default_rng(0).normal(size=(7, 1, 2))
        out = predict(model, x)
        manual = predict_scores(nsc, nse.forward(x))
        assert np.array_equal(out["likelihoods"], manual)
        assert np.array_equal(out["labels"], manual.argmax(axis=1))

    def test_deterministic_predictions(self):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=8)
        model = MonitorModel(kind="end_to_end", nets={"classifier": net})
        x = np.random.default_rng(1).normal(size=(10, 1, 2))
        a = predict(model, x)
        b = predict(model, x)
        assert np.array_equal(a["likelihoods"], b["likelihoods"])

    def test_blocked_equals_unblocked(self, monkeypatch):
        L = 5
        nse = make_net(build_estimator_spec(1, 2, L, "desk"), seed=5)
        nsc = make_net(build_classifier_spec(2, L, "desk"), seed=6)
        model = MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc})
        x = np.random.default_rng(3).normal(size=(1000, 1, L))

        def run():
            out = predict(model, x)
            # the conv outputs of the same eval pass, layer by layer
            convs, h = [], x
            for net in (nse, nsc):
                for layer in net.layers:
                    h = layer.forward(h)
                    if isinstance(layer, Conv1D):
                        convs.append(h)
            assert np.array_equal(softmax(h), out["likelihoods"])
            return out, convs

        blocked, blocked_convs = run()
        # one block of 1000 rows: the unblocked statements
        monkeypatch.setattr(layers, "ROW_BLOCK", 1000)
        whole, whole_convs = run()
        for key in ("labels", "likelihoods", "states_hat"):
            assert np.array_equal(blocked[key], whole[key]), key
        assert len(blocked_convs) == 5
        for a, b in zip(blocked_convs, whole_convs, strict=True):
            B, F, L_ = a.shape
            # (B, F, L) views of (B, L, F) memory, as the next layer reads them
            assert a.strides == b.strides == (L_ * F * 8, 8, F * 8)
            assert np.array_equal(a, b)

    def test_empty_batch(self):
        nse = make_net(build_estimator_spec(1, 2, 3, "desk"), seed=5)
        nsc = make_net(build_classifier_spec(2, 3, "desk"), seed=6)
        model = MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc})
        out = predict(model, np.empty((0, 1, 3)))
        assert out["labels"].shape == (0,)
        assert out["likelihoods"].shape == (0, 2)
        assert out["states_hat"].shape == (0, 2, 3)

    def test_classifier_scores_nonnegative(self):
        net = make_net(build_classifier_spec(2, 3, "desk"), seed=9)
        x = np.random.default_rng(2).normal(size=(20, 2, 3)) * 5
        assert net.forward(x).min() >= 0.0


class TestInferenceCache:
    """An inference forward keeps no backward cache."""

    def _monitors(self, L):
        net = make_net(build_classifier_spec(1, L, "desk"), seed=4)
        nse = make_net(build_estimator_spec(1, 2, L, "desk"), seed=5)
        nsc = make_net(build_classifier_spec(2, L, "desk"), seed=6)
        return [MonitorModel(kind="end_to_end", nets={"classifier": net}),
                MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc})]

    @pytest.mark.parametrize("B", [1, 64, 3 * ROW_BLOCK + 7])
    def test_predict_leaves_no_cache(self, B):
        L = 5
        x = np.random.default_rng(B).normal(size=(B, 1, L))
        for model in self._monitors(L):
            cached = []
            for net in model.nets.values():
                # a training forward first, so predict has caches to drop
                net.forward(np.zeros((2, net.spec["input_channels"], L)),
                            train=True, rng=np.random.default_rng(0))
                cached += [layer for layer in net.layers
                           if isinstance(layer, (Conv1D, Dense))]
            assert all(layer._cache is not None for layer in cached)
            predict(model, x)
            assert all(layer._cache is None for layer in cached), model.kind

    def test_backward_after_inference_forward_raises(self):
        net = make_net(build_classifier_spec(2, 3, "desk"), seed=4)
        x = np.random.default_rng(0).normal(size=(5, 2, 3))
        with pytest.raises(ValueError, match="train=True"):
            net.backward(np.ones((5, 2)))          # no forward at all
        net.forward(x, train=True, rng=np.random.default_rng(1))
        net.forward(x)
        with pytest.raises(ValueError, match="train=True"):
            net.backward(np.ones((5, 2)))

    def test_predict_memory_is_bounded(self):
        # 4000 windows of a (1, 5)-window two-step monitor: a 32-filter conv
        # output is 5.1 MB; caching every layer kept about ten of them
        B, L = 4000, 5
        model = self._monitors(L)[1]
        x = np.random.default_rng(0).normal(size=(B, 1, L))
        conv_out = B * 32 * L * 8
        tracemalloc.start()
        try:
            out = predict(model, x)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * conv_out, peak / conv_out
        assert retained < 2 ** 20, retained
        assert out["states_hat"].shape == (B, 2, L)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=3)
        model = MonitorModel(kind="end_to_end", nets={"classifier": net},
                             meta={"seed": 3})
        save_model(model, tmp_path / "ckpt")
        back = load_model(tmp_path / "ckpt")
        assert back.kind == "end_to_end" and back.meta == {"seed": 3}
        for p, q in zip(net.params, back.nets["classifier"].params, strict=True):
            assert p.dtype == q.dtype and np.array_equal(p, q)
        x = np.random.default_rng(0).normal(size=(5, 1, 2))
        assert np.array_equal(predict(model, x)["likelihoods"],
                              predict(back, x)["likelihoods"])

    @pytest.mark.parametrize("corrupt", [
        lambda meta, arrays: arrays.popitem(),
        lambda meta, arrays: arrays.update(w_classifier_99=np.zeros(3)),
        lambda meta, arrays: arrays.update(
            w_classifier_0=arrays["w_classifier_0"][..., :1]),
        lambda meta, arrays: meta["netspecs"]["classifier"]["layers"][0].update(
            kernel=2)], ids=["missing", "extra", "shape", "netspec"])
    def test_malformed_checkpoint_is_an_integrity_error(self, tmp_path, corrupt):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=5)
        save_model(MonitorModel(kind="end_to_end", nets={"classifier": net}),
                   tmp_path / "ckpt")
        meta, arrays = load_container(tmp_path / "ckpt")
        corrupt(meta, arrays)
        save_container(tmp_path / "bad", meta, arrays)
        with pytest.raises(IntegrityError):
            load_model(tmp_path / "bad")

    def test_stored_bytes_stable(self, tmp_path):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=4)
        model = MonitorModel(kind="end_to_end", nets={"classifier": net})
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestFlatParameters:
    def _group(self):
        return [make_net(build_estimator_spec(2, 3, 4, "desk"), seed=1),
                make_net(build_classifier_spec(3, 4, "desk"), seed=2)]

    def test_adam_matches_per_array_oracle(self):
        nets = self._group()
        oracle_params = [p.copy() for net in nets for p in net.params]
        oracle = PerArrayAdam(oracle_params, lr=1e-3)
        adam = Adam([net.flat_params for net in nets], lr=1e-3)
        rng = np.random.default_rng(5)
        # zero gradients (v stays 0 until the first nonzero one), ordinary,
        # tiny and large ones whose squares stay finite
        scales = [0.0, 0.0, 1.0, 1e-3, 1e100, 0.0, 1.0, 1e-150] * 3 + [1.0]
        assert len(scales) == 25
        for scale in scales:
            grads = []
            for net in nets:
                for g in net.grads:
                    g[...] = rng.normal(size=g.shape) * scale
                    grads.append(g.copy())
            adam.step([net.flat_grads for net in nets])
            oracle.step(grads)
        params = [p for net in nets for p in net.params]
        assert len(params) == len(oracle_params) == 14
        for p, q in zip(params, oracle_params, strict=True):
            assert np.array_equal(p, q)

    def test_parameterless_layers_own_no_buffer(self):
        spec = {"input_channels": 2, "input_len": 3,
                "layers": [{"type": "flatten"}, {"type": "dropout", "rate": 0.1},
                           {"type": "dense", "width": 4, "activation": "linear"}]}
        net = make_net(spec)
        assert net.flat_params.size == 6 * 4 + 4
        assert_flat_views(net)
        empty = make_net({"input_channels": 2, "input_len": 3,
                          "layers": [{"type": "flatten"}]})
        assert empty.flat_params.size == empty.flat_grads.size == 0
        assert_flat_views(empty)

    def test_backward_fills_flat_gradients(self):
        net = make_net(build_classifier_spec(2, 3, "desk"), seed=4)
        x = np.random.default_rng(0).normal(size=(5, 2, 3))
        scores = net.forward(x, train=True, rng=np.random.default_rng(1))
        _, dscores = cross_entropy(scores, np.array([0, 1, 1, 0, 1]))
        net.backward(dscores)
        assert np.array_equal(net.flat_grads,
                              np.concatenate([g.ravel() for g in net.grads]))
        assert np.array_equal(net.flat_params,
                              np.concatenate([p.ravel() for p in net.params]))

    def test_views_survive_set_weights(self):
        net, other = self._group()[0], make_net(
            build_estimator_spec(2, 3, 4, "desk"), seed=9)
        net.set_weights(other.params)
        assert_flat_views(net)
        assert np.array_equal(net.flat_params, other.flat_params)

    def test_views_survive_load_model(self, tmp_path):
        nse, nsc = self._group()
        save_model(MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc}),
                   tmp_path / "ckpt")
        back = load_model(tmp_path / "ckpt")
        for name, net in (("nse", nse), ("nsc", nsc)):
            assert_flat_views(back.nets[name])
            assert np.array_equal(back.nets[name].flat_params, net.flat_params)

    def test_views_survive_fine_tune_revert(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 1, 2))
        S = np.tanh(rng.normal(size=(120, 2, 2)))
        y = (S[:, 0, -1] > 0).astype(int)
        nse = make_net(build_estimator_spec(1, 2, 2, "desk"), seed=3)
        nsc = make_net(build_classifier_spec(2, 2, "desk"), seed=4)
        flat_before = [nse.flat_params.copy(), nsc.flat_params.copy()]
        with np.errstate(all="ignore"):
            info = fine_tune(nse, nsc, X * 1e200, S, y,
                             TrainOpts(lr=1e120, epochs=3, seed=0))
        assert info["reverted"]
        for net, want in zip((nse, nsc), flat_before):
            assert_flat_views(net)
            assert np.array_equal(net.flat_params, want)
