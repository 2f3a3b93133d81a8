from .network import Network, build_classifier_spec, build_estimator_spec
from .training import (
    MonitorModel,
    TrainOpts,
    cross_entropy,
    fine_tune,
    fit,
    load_model,
    loss_step,
    mse,
    predict,
    save_model,
    train_classifier,
    train_estimator,
)

__all__ = [
    "Network", "build_classifier_spec", "build_estimator_spec",
    "MonitorModel", "TrainOpts", "cross_entropy", "fine_tune", "fit",
    "load_model", "loss_step", "mse", "predict",
    "save_model", "train_classifier", "train_estimator",
]
