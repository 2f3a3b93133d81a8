"""Monitor construction on top of datasets: window tensors, per-profile
training schedules, and the end-to-end / two-step training paths."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .nets import (
    MonitorModel,
    TrainOpts,
    build_classifier_spec,
    build_estimator_spec,
    cross_entropy,
    fine_tune,
    fit,
    loss_step,
    predict,
    train_classifier,
    train_estimator,
)

APPROACHES = ("end_to_end", "two_step")

# profile -> (learning rate, epochs) of the classifier, estimator and
# fine-tuning stages
_SCHEDULES = {"desk": ((1e-3, 60), (1e-3, 40), (1e-4, 15)),
              "paper": ((1e-5, 200), (1e-6, 200), (1e-7, 100))}


@dataclass
class TrainSchedule:
    """Per-stage optimizer settings for one profile."""

    profile: str
    classifier: TrainOpts
    estimator: TrainOpts
    finetune: TrainOpts

    @classmethod
    def for_profile(cls, profile: str, seed: int = 0,
                    epochs_scale: float = 1.0) -> "TrainSchedule":
        if profile not in _SCHEDULES:
            raise ValueError(f"unknown profile {profile!r}")
        return cls(profile, *(TrainOpts(lr=lr, epochs=int(epochs * epochs_scale),
                                        batch_size=64, seed=seed)
                              for lr, epochs in _SCHEDULES[profile]))


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
                      schedule: TrainSchedule) -> dict:
    """Warm-start retraining on an enlarged split (active learning).

    End-to-end monitors continue cross-entropy training from the current
    weights; two-step monitors continue with the joint combined-loss stage,
    which directly optimizes the deployed composition.  The nets are updated
    in place.  Returns what the retraining did, laid out as in
    ``train_monitor``'s meta: ``loss_history`` per stage and, for two-step
    monitors, the ``finetune`` outcome (``reverted``, ``diverged`` and the
    guard accuracies).
    """
    X = obs_windows(train_scaled)
    y = train_scaled.labels
    if model.kind == "end_to_end":
        net = model.nets["classifier"]
        # shuffle and dropout streams apart from the first training's
        hist = fit([net], loss_step(net, X, y, cross_entropy), len(y),
                   schedule.classifier, (0x5741, 0x4453))
        return {"loss_history": {"classifier": hist}}
    S = state_windows(train_scaled)
    ft_info = fine_tune(model.nets["nse"], model.nets["nsc"], X, S, y,
                        schedule.finetune)
    return {"loss_history": {"finetune": ft_info.pop("loss_history")},
            "finetune": ft_info}


def monitor_predict(model: MonitorModel, ds_scaled: Dataset) -> dict:
    """Eval-mode predictions on a scaled dataset."""
    return predict(model, obs_windows(ds_scaled))
