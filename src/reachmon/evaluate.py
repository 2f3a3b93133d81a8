"""Shared evaluation path: calibration scores, conformal regions, uncertainty
features and the combined monitor/detection report.

Tie-breaking variables are drawn from a dedicated stream seeded by the
experiment seed, one theta per evaluated point, so every evaluation is
replayable bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .conformal import (
    CalibrationSet,
    classification_p_values,
    classify_region,
    confidence_credibility,
    coverage,
    efficiency_classification,
    ncf_classification_batch,
)
from .data import Dataset
from .detect import (
    RejectionRule,
    cv_uncertainty_labels,
    detection_metrics,
    reject_batch,
    train_rule,
)
from .monitor import monitor_predict

THETA_STREAM = 0x7468
QUERY_STREAM = 0x7175
RULE_STREAM = 0x4356


def calibration_scores(model, calib_scaled: Dataset) -> CalibrationSet:
    """Nonconformity scores of the calibration split under the monitor."""
    pred = monitor_predict(model, calib_scaled)
    return CalibrationSet(
        ncf_classification_batch(pred["likelihoods"], calib_scaled.labels))


def calibrate(model, calib_scaled: Dataset, k_folds: int, rng: np.random.Generator,
              seed: int) -> tuple[CalibrationSet, RejectionRule]:
    """The calibration scores of a scaled calibration split and the
    rejection rule fitted to the monitor's cross-validated uncertainty on
    it; ``rng`` draws the folds and thetas.  Returns ``(calib, rule)``."""
    calib = calibration_scores(model, calib_scaled)
    lik = monitor_predict(model, calib_scaled)["likelihoods"]
    feats, errs = cv_uncertainty_labels(lik, calib_scaled.labels, k_folds, rng)
    return calib, train_rule(feats, errs, seed=seed)


def draw_thetas(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, THETA_STREAM]).uniform(size=n)


def cp_evaluate(model, calib: CalibrationSet, ds_scaled: Dataset,
                eps_list, seed: int) -> dict:
    """Conformal evaluation of a monitor on a scaled dataset.

    Returns predictions, both per-label p-values, (confidence, credibility)
    features and per-epsilon coverage/efficiency.
    """
    pred = monitor_predict(model, ds_scaled)
    thetas = draw_thetas(seed, ds_scaled.n)
    pv = classification_p_values(calib, pred["likelihoods"], thetas)
    features = confidence_credibility(pv)
    per_eps = {}
    truths = ds_scaled.labels.astype(np.int64)
    for eps in eps_list:
        regions = classify_region(pv, eps)
        per_eps[float(eps)] = {
            "coverage": coverage(regions, truths),
            "efficiency": efficiency_classification(regions),
        }
    return {"labels": pred["labels"], "likelihoods": pred["likelihoods"],
            "p_values": pv, "features": features, "thetas": thetas,
            "per_eps": per_eps}


def full_report(model, calib: CalibrationSet, rule: RejectionRule,
                test_scaled: Dataset, eps_list, seed: int) -> dict:
    """Monitor accuracy, detection and rejection plus CP validity metrics."""
    ev = cp_evaluate(model, calib, test_scaled, eps_list, seed)
    rejected = reject_batch(rule, ev["features"])
    det = detection_metrics(ev["labels"], test_scaled.labels, rejected)
    det["per_eps"] = ev["per_eps"]
    return det


def metric_row(report: dict, eps_list) -> dict:
    """A :func:`full_report` as one flat row: its rates and error count, and
    ``coverage@<eps>`` and ``efficiency@<eps>`` for each ε of ``eps_list``."""
    row = {k: report[k] for k in
           ("accuracy", "detection_rate", "rejection_rate", "n_errors")}
    for eps in eps_list:
        row[f"coverage@{eps}"] = report["per_eps"][float(eps)]["coverage"]
        row[f"efficiency@{eps}"] = report["per_eps"][float(eps)]["efficiency"]
    return row


def dataset_hash(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.obs).tobytes())
    h.update(np.ascontiguousarray(ds.states).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
    return h.hexdigest()
