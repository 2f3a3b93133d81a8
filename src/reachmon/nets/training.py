"""Losses, Adam, the minibatch training loop and monitor persistence.

Every training stage is one call of :func:`fit` with its own per-minibatch
step.  The classifier is trained with binary cross-entropy on
softmax-normalized head scores, the state estimator with mean squared error
on scaled state sequences, and the two-step monitor is fine-tuned jointly on
the sum of the two losses so the classifier adapts to reconstructed rather
than exact states.  Training is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ..errors import InsufficientData, IntegrityError, NumericalError, ShapeError
from ..storage import load_container, require_keys, save_container
from .network import Network


def softmax(scores):
    e = scores - scores.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def cross_entropy(scores, labels):
    """Mean cross-entropy of softmax(scores); returns (loss, dscores)."""
    p = softmax(scores)
    n = scores.shape[0]
    eps = np.finfo(scores.dtype).tiny
    loss = -np.log(p[np.arange(n), labels] + eps).mean()
    dscores = p.copy()
    dscores[np.arange(n), labels] -= 1.0
    return loss, dscores / n


def mse(out, target):
    """Mean squared error over all elements; returns (loss, dout)."""
    if out.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {out.shape} vs {target.shape}")
    diff = out - target
    return float((diff * diff).mean()), 2.0 * diff / diff.size


class Adam:
    """Adam over flat parameter buffers, updated in place.

    ``params`` and the ``grads`` handed to :meth:`step` are lists of 1-D
    arrays, one per network (:attr:`Network.flat_params` and
    :attr:`Network.flat_grads`).  The moments and two scratch buffers are
    allocated once, and each step computes ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + ((1-b2)*g)*g`` and ``p -= (lr*mh) / (sqrt(vh) + eps)``
    with the bias-corrected ``mh`` and ``vh`` operation by operation in
    that order, so every element rounds as in a per-array update.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2, lr = self.beta1, self.beta2, self.lr
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for p, g, m, v, (s, u) in zip(self.params, grads, self.m, self.v,
                                      self._scratch):
            m *= b1
            m += np.multiply(1.0 - b1, g, out=s)
            v *= b2
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            v += s
            np.divide(v, c2, out=s)                # vh
            np.sqrt(s, out=s)
            s += self.eps
            np.divide(m, c1, out=u)                # mh
            u *= lr
            u /= s
            p -= u


@dataclass
class TrainOpts:
    lr: float = 1e-3
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0

    def to_dict(self):
        return asdict(self)


@dataclass
class MonitorModel:
    """A trained monitor: a single classifier (end-to-end) or an
    estimator/classifier pair (two-step), plus training metadata."""

    kind: str  # "end_to_end" | "two_step"
    nets: dict
    meta: dict = field(default_factory=dict)


_TRAIN_STREAMS = (0x5348, 0x4452)   # (shuffle, dropout) stream constants


def fit(nets, step, n, opts: TrainOpts, streams):
    """Adam over the parameters of ``nets`` on shuffled minibatches of rows
    ``range(n)``, with (shuffle, dropout) streams ``(opts.seed, streams[i])``.
    Each net's flat parameter buffer is updated in place from its flat
    gradient buffer, which the layers' backward passes fill.

    ``step(idx, drop_rng)`` runs one minibatch's forward pass, loss and
    backward pass and returns its mean loss.  Returns the per-epoch,
    row-weighted mean losses; a non-finite one raises :class:`NumericalError`.
    """
    shuffle_rng = np.random.default_rng([opts.seed, streams[0]])
    drop_rng = np.random.default_rng([opts.seed, streams[1]])
    adam = Adam([net.flat_params for net in nets], lr=opts.lr)
    grads = [net.flat_grads for net in nets]
    history = []
    for epoch in range(opts.epochs):
        total = 0.0
        order = shuffle_rng.permutation(n)
        for start in range(0, n, opts.batch_size):
            idx = order[start:start + opts.batch_size]
            loss = step(idx, drop_rng)
            adam.step(grads)
            total += loss * len(idx)
        history.append(total / n)
        if not np.isfinite(history[-1]):
            raise NumericalError(
                f"training diverged at epoch {epoch}: loss={history[-1]!r}; "
                f"last finite losses: {history[-5:]}", loss_history=history)
    return history


def loss_step(net: Network, X, T, loss):
    """Minibatch step of :func:`fit` that trains ``net`` on inputs ``X``
    against targets ``T``; ``loss(out, target)`` returns (loss, dout)."""
    def step(idx, rng):
        value, dout = loss(net.forward(X[idx], train=True, rng=rng), T[idx])
        net.backward(dout)
        return value
    return step


def train_classifier(X, y, netspec: dict, opts: TrainOpts):
    """Adam-optimize a classifier on windows ``X`` (N, C, L) with binary
    labels ``y``; returns ``(network, per-epoch loss history)``."""
    net = Network(netspec, seed=opts.seed)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    return net, fit([net], loss_step(net, X, y, cross_entropy), len(y), opts,
                    _TRAIN_STREAMS)


def train_estimator(X, S, netspec: dict, opts: TrainOpts):
    """Adam-optimize a state-sequence regressor (mse loss, tanh head)."""
    net = Network(netspec, seed=opts.seed)
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    return net, fit([net], loss_step(net, X, S, mse), len(X), opts,
                    _TRAIN_STREAMS)


def _combined_accuracy(nse: Network, nsc: Network, X, y):
    labels = predict_scores(nsc, nse.forward(X)).argmax(axis=1)
    return float((labels == y).mean())


def predict_scores(net: Network, X):
    """Eval-mode likelihoods: softmax of the nonnegative head scores."""
    return softmax(net.forward(X))


def fine_tune(nse: Network, nsc: Network, X, S, y, opts: TrainOpts):
    """Joint update of estimator and classifier on the summed loss.

    The classifier consumes the estimator's output, so its gradient flows
    back into the estimator on top of the reconstruction term.  A held-out
    guard slice of 10 % of the rows (at least one) guards against
    regressions: if combined accuracy on it drops by more than 0.005 (or
    the loss diverges), the pre-fine-tuning weights are restored.  Returns
    ``(info_dict)``; nets are updated in place.  Fewer than two rows leave
    no training row and raise :class:`InsufficientData`.
    """
    X = np.asarray(X, dtype=np.float64)
    S = np.asarray(S, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    guard_rng = np.random.default_rng([opts.seed, 0x4754])
    order = guard_rng.permutation(len(y))
    n_guard = max(1, int(len(y) * 0.1))
    guard, train_rows = order[:n_guard], order[n_guard:]
    if not len(train_rows):
        raise InsufficientData("fine-tuning needs a training row beside the "
                               f"guard slice, and has {len(y)} row(s)")

    saved = (nse.flat_params.copy(), nsc.flat_params.copy())
    acc_before = _combined_accuracy(nse, nsc, X[guard], y[guard])

    def step(idx, rng):
        rows = train_rows[idx]
        s_hat = nse.forward(X[rows], train=True, rng=rng)
        scores = nsc.forward(s_hat, train=True, rng=rng)
        ce_loss, dscores = cross_entropy(scores, y[rows])
        mse_loss, ds_hat = mse(s_hat, S[rows])
        nse.backward(ds_hat + nsc.backward(dscores))
        return ce_loss + mse_loss

    diverged = False
    try:
        history = fit([nse, nsc], step, len(train_rows), opts, _TRAIN_STREAMS)
    except NumericalError as exc:
        history, diverged = exc.loss_history, True

    acc_after = _combined_accuracy(nse, nsc, X[guard], y[guard])
    reverted = False
    if diverged or acc_after < acc_before - 0.005:
        nse.flat_params[...] = saved[0]
        nsc.flat_params[...] = saved[1]
        reverted = True
    return {"loss_history": history, "guard_acc_before": acc_before,
            "guard_acc_after": acc_after, "reverted": reverted,
            "diverged": diverged}


def predict(model: MonitorModel, X_obs):
    """Monitor prediction on scaled observation windows (N, C, L).

    Returns a dict with ``labels`` (argmax, ties broken to 0),
    ``likelihoods`` (N, 2), and for two-step monitors ``states_hat``.
    """
    if model.kind == "end_to_end":
        lik = predict_scores(model.nets["classifier"], X_obs)
        return {"labels": lik.argmax(axis=1), "likelihoods": lik}
    if model.kind == "two_step":
        s_hat = model.nets["nse"].forward(X_obs)
        lik = predict_scores(model.nets["nsc"], s_hat)
        return {"labels": lik.argmax(axis=1), "likelihoods": lik,
                "states_hat": s_hat}
    raise ValueError(f"unknown monitor kind {model.kind!r}")


def save_model(model: MonitorModel, path):
    """Checkpoint: netspecs + metadata in meta.json, float64 weight arrays,
    so the reloaded monitor is the one that was calibrated."""
    arrays = {}
    specs = {}
    for name, net in model.nets.items():
        specs[name] = net.spec
        for i, p in enumerate(net.params):
            arrays[f"w_{name}_{i}"] = p
    meta = {"kind": "checkpoint", "monitor_kind": model.kind,
            "netspecs": specs, "train_meta": model.meta}
    save_container(path, meta, arrays)


def load_model(path) -> MonitorModel:
    """The saved monitor.  A missing meta key, a netspec that
    :class:`Network` rejects, or weight arrays other than exactly the
    netspecs' parameters (one missing, one extra, one of another shape),
    raise ``IntegrityError``."""
    meta, arrays = load_container(path)
    if meta.get("kind") != "checkpoint":
        raise ShapeError(f"{path} is not a checkpoint container")
    require_keys(meta, ("netspecs", "monitor_kind", "train_meta"), path)
    nets, expected = {}, set()
    for name, spec in meta["netspecs"].items():
        try:
            net = nets[name] = Network(spec, seed=0)
        except (KeyError, TypeError, ValueError) as exc:
            raise IntegrityError(f"{path}: netspec {name!r}: {exc}") from None
        expected |= {(f"w_{name}_{i}", p.shape) for i, p in enumerate(net.params)}
    bad = sorted(expected ^ {(k, a.shape) for k, a in arrays.items()})
    if bad:
        raise IntegrityError(f"{path}: arrays {bad} do not match the netspecs")
    for name, net in nets.items():
        net.set_weights([arrays[f"w_{name}_{i}"] for i in range(len(net.params))])
    return MonitorModel(kind=meta["monitor_kind"], nets=nets,
                        meta=meta["train_meta"])
