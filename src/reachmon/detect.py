"""Uncertainty-based error detection: the rejection rule over (confidence,
credibility).

Calibration points receive cross-validated uncertainty values (each fold is
scored against the remaining folds, so no point ranks against itself) and an
error bit comparing the monitor's prediction to the true label.  A linear
support-vector classifier, trained by hinge-loss subgradient descent on
standardized features with inverse-frequency class weights, then separates
likely-erroneous predictions from trustworthy ones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .conformal import (
    CalibrationSet,
    classification_p_values,
    confidence_credibility,
    ncf_classification_batch,
)
from .errors import DegenerateRule, InsufficientData, ShapeError

MIN_FOLD_SIZE = 50


@dataclass
class RejectionRule:
    """Linear decision over standardized (confidence, credibility):
    reject when ``w . standardize(u) + b > 0``."""

    w: np.ndarray
    b: float
    feat_mean: np.ndarray
    feat_std: np.ndarray
    degenerate: bool = False
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {"w": self.w.tolist(), "b": self.b,
                "feat_mean": self.feat_mean.tolist(),
                "feat_std": self.feat_std.tolist(),
                "degenerate": self.degenerate, "meta": self.meta}

    @classmethod
    def from_dict(cls, d):
        return cls(w=np.asarray(d["w"], dtype=np.float64), b=float(d["b"]),
                   feat_mean=np.asarray(d["feat_mean"], dtype=np.float64),
                   feat_std=np.asarray(d["feat_std"], dtype=np.float64),
                   degenerate=bool(d["degenerate"]), meta=d.get("meta", {}))


def check_folds(n: int, k_folds: int):
    """Raise unless ``n`` calibration points make ``k_folds >= 2`` folds of at
    least ``MIN_FOLD_SIZE`` points each."""
    if k_folds < 2:
        raise ValueError("k_folds must be >= 2")
    if n // k_folds < MIN_FOLD_SIZE:
        raise InsufficientData(
            f"fold size {n // k_folds} < {MIN_FOLD_SIZE}; need more "
            "calibration data or fewer folds")


def cv_uncertainty_labels(likelihoods, labels, k_folds: int,
                          rng: np.random.Generator):
    """Cross-validated (confidence, credibility) and error bits for every
    calibration point.

    ``likelihoods`` are the monitor's class likelihoods on the calibration
    set; each fold's points are ranked against the scores of the other
    folds only.  Returns ``(features (N, 2), errors (N,))`` where features
    are (confidence, credibility).
    """
    lik = np.asarray(likelihoods, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = len(y)
    check_folds(n, k_folds)
    order = rng.permutation(n)
    folds = np.array_split(order, k_folds)
    scores_true = ncf_classification_batch(lik, y)
    thetas = rng.uniform(size=n)

    features = np.empty((n, 2))
    errors = (lik.argmax(axis=1) != y).astype(np.uint8)
    for fold in folds:
        pool_mask = np.ones(n, dtype=bool)
        pool_mask[fold] = False
        pool = CalibrationSet(scores_true[pool_mask])
        features[fold] = confidence_credibility(
            classification_p_values(pool, lik[fold], thetas[fold]))
    return features, errors


def train_rule(features, errors, reg: float = 1e-3, lr: float = 0.1,
               epochs: int = 200, seed: int = 0) -> RejectionRule:
    """Fit the linear SVC by hinge-loss subgradient descent.

    Features are standardized to zero mean and unit variance first (fitted
    on the rule's own training set); classes are reweighted by inverse
    frequency since monitor errors are rare.  A single-class input yields a
    degenerate rule (constant decision) and a :class:`DegenerateRule`
    warning.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(errors, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ShapeError("features and errors misaligned")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0

    counts = np.bincount(y, minlength=2)
    if counts.min() == 0:
        reject_all = counts[1] > 0
        warnings.warn("single-class rule training data; decision is constant",
                      DegenerateRule)
        return RejectionRule(
            w=np.zeros(X.shape[1]), b=1.0 if reject_all else -1.0,
            feat_mean=mean, feat_std=std, degenerate=True,
            meta={"n": int(len(y)), "n_errors": int(counts[1])})

    Xs = (X - mean) / std
    t = np.where(y == 1, 1.0, -1.0)                 # margin targets
    cw = len(y) / (2.0 * counts)                    # inverse-frequency weights
    sample_w = cw[y]

    rng = np.random.default_rng([seed, 0x5643])
    w = np.zeros(X.shape[1])
    b = 0.0
    n = len(y)
    batch = 64
    step = 0
    wt = sample_w * t
    for _ in range(epochs):
        order = rng.permutation(n)
        Xo, wto, to = Xs[order], wt[order], t[order]  # minibatches are slices
        for start in range(0, n, batch):
            Xb, tb = Xo[start:start + batch], to[start:start + batch]
            step += 1
            eta = lr / (1.0 + lr * reg * step)
            active = tb * (Xb @ w + b) < 1.0
            coef = (wto[start:start + batch] * active) / len(tb)
            w = (1.0 - eta * reg) * w + eta * (coef @ Xb)
            b = b + eta * coef.sum()
    return RejectionRule(w=w, b=b, feat_mean=mean, feat_std=std,
                         degenerate=False,
                         meta={"n": int(n), "n_errors": int(counts[1]),
                               "reg": reg, "epochs": epochs, "seed": seed})


def reject_batch(rule: RejectionRule, features) -> np.ndarray:
    """Per row of (confidence, credibility) ``features``, whether the rule
    flags it."""
    X = np.asarray(features, dtype=np.float64)
    Xs = (X - rule.feat_mean) / rule.feat_std
    return (Xs @ rule.w + rule.b) > 0.0


def detection_metrics(pred_labels, true_labels, rejected) -> dict:
    """Error-detection report over a test set.

    Detection rate is detected errors over all errors (1.0 when there are
    no errors), split into false-negative and false-positive "x/y" counts;
    rejection rate is the rejected fraction of all points.
    """
    pred = np.asarray(pred_labels, dtype=np.int64)
    true = np.asarray(true_labels, dtype=np.int64)
    rej = np.asarray(rejected, dtype=bool)
    if not (len(pred) == len(true) == len(rej)):
        raise ShapeError("misaligned detection inputs")
    if len(pred) == 0:
        raise InsufficientData("empty test set")

    err = pred != true
    fn = err & (pred == 0)   # predicted safe, actually unsafe
    fp = err & (pred == 1)
    n_err = int(err.sum())
    detected = int((err & rej).sum())
    accepted = ~rej
    n_acc = int(accepted.sum())
    return {
        "n": int(len(pred)),
        "accuracy": float((~err).mean()),
        "n_errors": n_err,
        "detection_rate": float(detected / n_err) if n_err else 1.0,
        "fn_detected": int((fn & rej).sum()),
        "fn_total": int(fn.sum()),
        "fp_detected": int((fp & rej).sum()),
        "fp_total": int(fp.sum()),
        "rejection_rate": float(rej.mean()),
        "accepted_error_rate": float((err & accepted).sum() / n_acc) if n_acc else 0.0,
    }
