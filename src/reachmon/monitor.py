"""Monitor construction on top of datasets: window tensors, per-profile
training schedules, and the end-to-end / two-step training paths."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .nets import (
    MonitorModel,
    TrainOpts,
    build_classifier_spec,
    build_estimator_spec,
    fine_tune,
    predict,
    train_classifier,
    train_estimator,
)

APPROACHES = ("end_to_end", "two_step")
PROFILES = ("desk", "paper")


@dataclass
class TrainSchedule:
    """Per-stage optimizer settings for one profile."""

    profile: str
    classifier: TrainOpts
    estimator: TrainOpts
    finetune: TrainOpts
    meta: dict = field(default_factory=dict)

    @classmethod
    def for_profile(cls, profile: str, seed: int = 0,
                    epochs_scale: float = 1.0) -> "TrainSchedule":
        if profile == "paper":
            return cls(
                profile=profile,
                classifier=TrainOpts(lr=1e-5, epochs=int(200 * epochs_scale),
                                     batch_size=64, seed=seed),
                estimator=TrainOpts(lr=1e-6, epochs=int(200 * epochs_scale),
                                    batch_size=64, seed=seed),
                finetune=TrainOpts(lr=1e-7, epochs=int(100 * epochs_scale),
                                   batch_size=64, seed=seed),
            )
        if profile == "desk":
            return cls(
                profile=profile,
                classifier=TrainOpts(lr=1e-3, epochs=int(60 * epochs_scale),
                                     batch_size=64, seed=seed),
                estimator=TrainOpts(lr=1e-3, epochs=int(40 * epochs_scale),
                                    batch_size=64, seed=seed),
                finetune=TrainOpts(lr=1e-4, epochs=int(15 * epochs_scale),
                                   batch_size=64, seed=seed),
            )
        raise ValueError(f"unknown profile {profile!r}")


def obs_windows(ds: Dataset) -> np.ndarray:
    """(N, obs_dim, L) network input from a dataset's observation windows."""
    return np.ascontiguousarray(ds.obs.transpose(0, 2, 1))


def state_windows(ds: Dataset) -> np.ndarray:
    return np.ascontiguousarray(ds.states.transpose(0, 2, 1))


def train_monitor(train_scaled: Dataset, approach: str,
                  schedule: TrainSchedule) -> MonitorModel:
    """Train a monitor of the requested kind on a scaled training split."""
    if approach not in APPROACHES:
        raise ValueError(f"unknown approach {approach!r}")
    X = obs_windows(train_scaled)
    y = train_scaled.labels
    L = train_scaled.window_len
    meta = {"approach": approach, "profile": schedule.profile,
            "seed": schedule.classifier.seed,
            "opts": {"classifier": schedule.classifier.to_dict(),
                     "estimator": schedule.estimator.to_dict(),
                     "finetune": schedule.finetune.to_dict()}}

    if approach == "end_to_end":
        spec = build_classifier_spec(train_scaled.obs_dim, L, schedule.profile)
        net, hist = train_classifier(X, y, spec, schedule.classifier)
        meta["loss_history"] = {"classifier": hist}
        return MonitorModel(kind="end_to_end", nets={"classifier": net}, meta=meta)

    S = state_windows(train_scaled)
    nse_spec = build_estimator_spec(train_scaled.obs_dim,
                                    train_scaled.state_dim, L, schedule.profile)
    nsc_spec = build_classifier_spec(train_scaled.state_dim, L, schedule.profile)
    nse, h_nse = train_estimator(X, S, nse_spec, schedule.estimator)
    nsc, h_nsc = train_classifier(S, y, nsc_spec, schedule.classifier)
    ft_info = fine_tune(nse, nsc, X, S, y, schedule.finetune)
    meta["loss_history"] = {"nse": h_nse, "nsc": h_nsc,
                            "finetune": ft_info["loss_history"]}
    meta["finetune"] = {k: v for k, v in ft_info.items() if k != "loss_history"}
    return MonitorModel(kind="two_step", nets={"nse": nse, "nsc": nsc}, meta=meta)


def continue_training(model: MonitorModel, train_scaled: Dataset,
                      schedule: TrainSchedule) -> MonitorModel:
    """Warm-start retraining on an enlarged split (active learning).

    End-to-end monitors continue cross-entropy training from the current
    weights; two-step monitors continue with the joint combined-loss stage,
    which directly optimizes the deployed composition.
    """
    X = obs_windows(train_scaled)
    y = train_scaled.labels
    if model.kind == "end_to_end":
        net = model.nets["classifier"]
        from .nets.training import (Adam, _check_finite_loss, _epoch_batches,
                                    cross_entropy)
        opts = schedule.classifier
        shuffle_rng = np.random.default_rng([opts.seed, 0x5741])
        drop_rng = np.random.default_rng([opts.seed, 0x4453])
        adam = Adam(net.params, lr=opts.lr)
        history = []
        for epoch in range(opts.epochs):
            total = 0.0
            for idx in _epoch_batches(len(y), opts.batch_size, shuffle_rng):
                scores = net.forward(X[idx], train=True, rng=drop_rng)
                loss, dscores = cross_entropy(scores, y[idx])
                net.backward(dscores)
                adam.step(net.grads)
                total += loss * len(idx)
            history.append(total / len(y))
            _check_finite_loss(history[-1], epoch, history)
        return model
    S = state_windows(train_scaled)
    fine_tune(model.nets["nse"], model.nets["nsc"], X, S, y, schedule.finetune)
    return model


def monitor_predict(model: MonitorModel, ds_scaled: Dataset) -> dict:
    """Eval-mode predictions on a scaled dataset."""
    return predict(model, obs_windows(ds_scaled))
