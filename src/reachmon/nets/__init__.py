from .network import Network, build_classifier_spec, build_estimator_spec
from .training import (
    MonitorModel,
    TrainOpts,
    classifier_step,
    cross_entropy,
    fine_tune,
    fit,
    load_model,
    mse,
    predict,
    save_model,
    train_classifier,
    train_estimator,
)

__all__ = [
    "Network", "build_classifier_spec", "build_estimator_spec",
    "MonitorModel", "TrainOpts", "classifier_step",
    "cross_entropy", "fine_tune", "fit", "load_model", "mse", "predict",
    "save_model", "train_classifier", "train_estimator",
]
