"""Inductive conformal prediction for the safety classifier.

Nonconformity scores from a held-out calibration set are ranked against a
test score to produce smoothed p-values

    p = (#{a_i > a*} + theta * (#{a_i = a*} + 1)) / (n + 1),

with a single tie-breaking ``theta`` drawn per test point and shared across
the candidate labels, which makes credibility exactly the p-value of the
predicted class.  The prediction regions of N test points at significance
``eps`` are one (N, K) boolean mask, ``p_values > eps``: row i marks the
labels whose p-value exceeds ``eps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidLikelihoods, ShapeError


@dataclass(frozen=True)
class CalibrationSet:
    """Sorted nonconformity scores of a calibration sample."""

    scores: np.ndarray

    def __post_init__(self):
        arr = np.sort(np.asarray(self.scores, dtype=np.float64))
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("calibration scores must be finite")
        object.__setattr__(self, "scores", arr)

    @property
    def size(self):
        return int(self.scores.size)


def ncf_classification_batch(likelihoods, labels) -> np.ndarray:
    """1 minus the likelihood each row of ``likelihoods`` (N, K) assigns to
    its label."""
    lik = np.asarray(likelihoods, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    # a nan row passes both comparisons below, so reject it here
    if not np.isfinite(lik).all():
        raise InvalidLikelihoods("non-finite likelihoods")
    if (lik.ndim != 2 or (lik < -1e-9).any()
            or (np.abs(lik.sum(axis=1) - 1.0) > 1e-6).any()):
        raise InvalidLikelihoods("not normalized likelihood vectors")
    if ((labels < 0) | (labels >= lik.shape[1])).any():
        raise InvalidLikelihoods(f"labels out of range 0..{lik.shape[1] - 1}")
    return 1.0 - lik[np.arange(lik.shape[0]), labels]


def p_values_batch(calib: CalibrationSet, alpha_stars, thetas) -> np.ndarray:
    """Smoothed p-values of test scores against the calibration set, one
    tie-breaking theta per score."""
    s = calib.scores
    a = np.asarray(alpha_stars, dtype=np.float64)
    t = np.asarray(thetas, dtype=np.float64)
    n_gt = s.size - np.searchsorted(s, a, side="right")
    n_eq = (s.size - np.searchsorted(s, a, side="left")) - n_gt
    return (n_gt + t * (n_eq + 1)) / (s.size + 1)


def classify_region(p_values, eps: float) -> np.ndarray:
    """(N, K) region mask of (N, K) p-values: the labels whose p-value
    exceeds the significance level."""
    return np.asarray(p_values, dtype=np.float64) > eps


def confidence_credibility(p_values) -> np.ndarray:
    """Binary-case (confidence, credibility) rows from (N, 2) p-values:
    credibility is the larger p-value, confidence one minus the smaller."""
    pv = np.asarray(p_values, dtype=np.float64)
    return np.stack([1.0 - pv.min(axis=1), pv.max(axis=1)], axis=1)


def classification_p_values(calib: CalibrationSet, likelihoods,
                            thetas) -> np.ndarray:
    """P-values for every label of each test point, in one broadcast pass;
    one shared theta per point.  Returns (N, K)."""
    lik = np.asarray(likelihoods, dtype=np.float64)
    t = np.asarray(thetas, dtype=np.float64)
    return p_values_batch(calib, 1.0 - lik, t[:, None])


def coverage(regions, truths) -> float:
    """Fraction of the (N, K) region mask's rows that hold the true label."""
    if len(regions) == 0:
        raise InsufficientData("no regions to score")
    if len(regions) != len(truths):
        raise ShapeError("regions and truths differ in length")
    return float(np.mean(np.asarray(regions)[np.arange(len(truths)), truths]))


def efficiency_classification(regions) -> float:
    """Fraction of singleton rows of the (N, K) region mask (higher is
    tighter)."""
    if len(regions) == 0:
        raise InsufficientData("no regions to score")
    return float(np.mean(np.sum(regions, axis=1) == 1))

