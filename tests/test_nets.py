import numpy as np
import pytest

from reachmon.errors import NumericalError, ShapeError
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
    validate_netspec,
)
from reachmon.nets.layers import Conv1D
from reachmon.nets.training import predict_scores, softmax


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
    cols = xp[:, :, idx].transpose(0, 2, 1, 3).reshape(B, L, -1)
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

    def test_netspec_validation(self):
        with pytest.raises(ValueError):
            validate_netspec({"input_channels": 1, "input_len": 4,
                              "layers": [{"type": "dense", "width": 3,
                                          "activation": "linear"}]})
        with pytest.raises(ValueError):
            validate_netspec({"input_channels": 1, "input_len": 4,
                              "layers": [{"type": "dropout", "rate": 1.0}]})


class TestGradients:
    def test_zero_target_zero_net(self):
        spec = build_estimator_spec(1, 1, 2, "desk")
        net = make_net(spec)
        for p in net.params:
            p[...] = 0.0
        x = np.zeros((2, 1, 2))
        out = net.forward(x)
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
        scores = net.forward(x)
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
            s_hat = nse.forward(x)
            if loss_kind == "mse":
                _, ds = mse(s_hat, starget)
            elif loss_kind == "ce":
                scores = nsc.forward(s_hat)
                _, dsc = cross_entropy(scores, y)
                ds = nsc.backward(dsc)
            else:
                scores = nsc.forward(s_hat)
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
        for B in (1, 64):
            for L in (1, 2, 6):
                # channel_last: (B, C, L) views of (B, L, C) memory, as one
                # conv passes its output and input gradient to the next
                for channel_last in (False, True):
                    layer = Conv1D(C, F, kernel, activation, rng, np.float64)
                    layer.b[...] = rng.normal(size=F)
                    if channel_last:
                        x = rng.normal(size=(B, L, C)).transpose(0, 2, 1)
                        dout = rng.normal(size=(B, L, F)).transpose(0, 2, 1)
                    else:
                        x = rng.normal(size=(B, C, L))
                        dout = rng.normal(size=(B, F, L))
                    out = layer.forward(x)
                    dx = layer.backward(dout)
                    want = conv1d_reference(layer, x, dout)
                    case = (B, L, channel_last)
                    assert np.array_equal(out, want[0]), case
                    assert np.array_equal(dx, want[1]), case
                    assert np.array_equal(layer.grads[0], want[2]), case
                    assert np.array_equal(layer.grads[1], want[3]), case


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
        spec = twt_spec.with_noise_scale(0.0)
        ds = gen_independent(spec, 600, seed=0)
        dss = scale(ds)
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
        s_hat = nse.forward(X)
        _, dm = mse(s_hat, S)
        nse.backward(dm)
        g_mse = [g.copy() for g in nse.grads]
        s_hat = nse.forward(X)
        scores = nsc.forward(s_hat)
        _, dsc = cross_entropy(scores, y)
        nse.backward(dm + nsc.backward(dsc))
        g_comb = [g.copy() for g in nse.grads]
        assert any(np.abs(a - b).max() > 1e-12 for a, b in zip(g_mse, g_comb))

    def test_guarded_revert_on_divergence(self):
        X, S, y, nse, nsc = self._setup(seed=3)
        w_before = [p.copy() for p in nse.params + nsc.params]
        with np.errstate(all="ignore"):
            info = fine_tune(nse, nsc, X * 1e8, S, y,
                             TrainOpts(lr=1e8, epochs=3, seed=0))
        if info["diverged"]:
            for p, w in zip(nse.params + nsc.params, w_before):
                assert np.array_equal(p, w)
            assert info["reverted"]

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

    def test_classifier_scores_nonnegative(self):
        net = make_net(build_classifier_spec(2, 3, "desk"), seed=9)
        x = np.random.default_rng(2).normal(size=(20, 2, 3)) * 5
        assert net.forward(x).min() >= 0.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=3)
        model = MonitorModel(kind="end_to_end", nets={"classifier": net},
                             meta={"seed": 3})
        save_model(model, tmp_path / "ckpt")
        back = load_model(tmp_path / "ckpt")
        assert back.kind == "end_to_end" and back.meta == {"seed": 3}
        x = np.random.default_rng(0).normal(size=(5, 1, 2)).astype(np.float32)
        a = predict(model, x)["likelihoods"].astype(np.float32)
        b = predict(back, x)["likelihoods"].astype(np.float32)
        assert np.abs(a - b).max() < 1e-6

    def test_stored_bytes_stable(self, tmp_path):
        net = make_net(build_classifier_spec(1, 2, "desk"), seed=4)
        model = MonitorModel(kind="end_to_end", nets={"classifier": net})
        save_model(model, tmp_path / "a")
        save_model(load_model(tmp_path / "a"), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()
